;; A converted tail-recursive function whose value its caller prints.
;; CRI turns the self-call into a spawn, which yields nil; run without
;; a pool, the spawn of the executing function in tail position
;; restarts its frame instead — the self-tail call it was — so the
;; call's value is the sequential 6, not ().
(defun m (l n)
  (cond ((null l) n)
        (t (m (cdr l) (+ n (car l))))))

(print (m (list 1 2 3) 0))
