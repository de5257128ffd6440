; A doubly linked walker that, on the way back up, copies each node's
; value into the node before it: sequentially the last value floods the
; list, (4 4 4 4). The write `pred.value` of invocation i is the read
; `value` of invocation i-1 only once succ.pred cancels (§2.1), so every
; device must see the canonical conflict report: with the plain one the
; delay device found the write conflict-free, hoisted it above the call
; and the restructured program answered (2 3 4 4). The write has to keep
; its unwind-order place; the function is future-synchronised.
(defstruct dl succ pred value)
(curare-declare (inverse succ pred))
(defun back (n)
  (when n
    (back (dl-succ n))
    (when (dl-pred n)
      (setf (dl-value (dl-pred n)) (dl-value n)))))
(defun link (values prev)
  (when values
    (let ((node (make-dl nil prev (car values))))
      (when prev (setf (dl-succ prev) node))
      (link (cdr values) node)
      node)))
(defun values-of (n)
  (if n (cons (dl-value n) (values-of (dl-succ n))) nil))
(defparameter *head* (link (list 1 2 3 4) nil))
(back *head*)
(print (values-of *head*))
