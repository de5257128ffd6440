; A tail write that overlaps the call argument: unwind order must be
; reproduced (future synchronisation, §3.1).
(defun @NAME@ (l)
  (when l
    (@NAME@ (cdr l))
    (setf (cdr l) (car l))))
