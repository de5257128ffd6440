;; The two-stride mixer of the benchmark's `speculative` workload,
;; printing each cell it writes. Called as (mix *l* (cdr *l*)), its two
;; arguments alias: invocation k writes the cell invocation k + 1 reads
;; as `a`, which the analysis, taking the parameters for two lists,
;; cannot see. Under `curare run --speculate` the validator aborts the
;; invocations that read a cell before its sequential writer stored
;; it and replays them, and the committed lines are the sequential
;; run's.
(defun mix (a b)
  (when (consp b)
    (mix (cddr a) (cdr b))
    (setf (car b) (car a))
    (print (car b))))

(defparameter *l* (let ((l nil)) (dotimes (i 32) (setq l (cons i l))) l))
