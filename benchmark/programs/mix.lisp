; Cross-parameter tail write: conflict-free only if a and b never
; alias. Called as (mix a b) on disjoint lists in the corpus and as
; (mix l l) under speculation.
(defun @NAME@ (a b)
  (when (consp b)
    (@NAME@ (cddr a) (cdr b))
    (setf (car b) (car a))))
