; A padded walker stepping a LOCAL counter with (+ x 1) in a file that
; declares + reorderable. The reorder device rewrites accumulations
; into globals only (*steps* here); `x` is private to its invocation
; and `atomic-incf` takes no local place. (The benchmark found the
; defect: the local was rewritten too and the output failed to load.)
(curare-declare (reorderable +))
(defparameter *steps* 0)
(defun padded (l)
  (when l
    (let ((x 0)) (setq x (+ x 1)) (setq x (+ x 1)) (setq *steps* (+ *steps* x)))
    (padded (cdr l))))
(defparameter *data* (list 1 2 3 4 5 6 7 8))
(padded *data*)
*steps*
