; Paper Figure 5: running sums, every invocation reading what the
; previous one wrote.
(defun @NAME@ (l)
  (cond ((null l) nil)
        ((null (cdr l)) (@NAME@ (cdr l)))
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (@NAME@ (cdr l)))))
