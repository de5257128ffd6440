; Paper Figure 3: the conflict-free walker. Output order is the check.
(defun @NAME@ (l)
  (when l
    (print (car l))
    (@NAME@ (cdr l))))
