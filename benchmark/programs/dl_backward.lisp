; Doubly linked walker writing the previous node: the conflict is only
; visible once succ.pred cancels (§2.1); needs (defstruct dl succ pred
; value) and (curare-declare (inverse succ pred)) in the file.
(defun @NAME@ (n)
  (when n
    (when (dl-pred n)
      (setf (dl-value (dl-pred n)) (dl-value n)))
    (@NAME@ (dl-succ n))))
