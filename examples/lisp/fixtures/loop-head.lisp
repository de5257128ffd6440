; A walker whose spawn sits in a loop. The write precedes the call in
; the text, but the second trip's write follows the first trip's spawn:
; called as (w *d* 2) the root prints 0, then twice counts its second
; cell up and walks the rest — sequentially 0 1 2. Read as a straight
; sequence the body has no tail, the function was head-ordered, and both
; children printed the final 2 (a deterministic 0 2 2 at two servers).
; A loop body repeats: the call has the next trip after it, and the
; function is future-synchronised.
(defun w (l k)
  (when l
    (print (car l))
    (while (> k 0)
      (setq k (- k 1))
      (setf (car (cdr l)) (+ (car (cdr l)) 1))
      (w (cdr l) 0))))
(defparameter *d* (list 0 0 0))
