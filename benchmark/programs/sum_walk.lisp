; Declared-commutative accumulation into a global (§3.2.3); needs
; (curare-declare (reorderable +)) in the file.
(defparameter *@NAME@* 0)
(defun @NAME@ (l)
  (when l
    (setq *@NAME@* (+ *@NAME@* (car l)))
    (@NAME@ (cdr l))))
