;; A converted tail-recursive list builder called while the file loads.
;; Run without a pool, each spawn used to be a nested call: 20000 links
;; exhausted the native stack budget. The spawn of the executing
;; function in tail position restarts its frame, as the self-tail call
;; did before restructuring, so the load finishes with the whole list.
(defun myiota (n acc)
  (if (= n 0)
      acc
      (myiota (- n 1) (cons n acc))))

(defparameter *l* (myiota 20000 nil))

(print (length *l*))
