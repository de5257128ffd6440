;; A post-call statement that *reads* what a later invocation writes.
;; Sequentially `f` recurses first, so each (cadr l) is read after the
;; next invocation doubled it: *m* ends (2 2 2 1 0). Hoisting the copy
;; above the call (the §3.2.2 delay) would read it before the doubling
;; and leave (1 1 1 1 0); the copy's read of a conflicting location
;; keeps it where it is.
(curare-declare (reorderable *))

(defun f (l m)
  (when (cdr l)
    (f (cdr l) (cdr m))
    (setf (car m) (cadr l))
    (setf (car l) (* (car l) 2))))

(defparameter *l* (list 1 1 1 1 1))
(defparameter *m* (list 0 0 0 0 0))

(defun go () (f *l* *m*) *m*)
