; Paper Figure 4: a head write one cell ahead (conflict distance 1),
; guarded so the last cell does not write through nil.
(defun @NAME@ (l)
  (when (cdr l)
    (setf (cadr l) (car l))
    (@NAME@ (cdr l))))
