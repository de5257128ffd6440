;; `inf`, `nan` and `infinity` are symbols. Rust's float parser reads
;; them (in any case) as numbers, so the reader tries a numeric parse
;; only on a token with a digit; `+inf.0`, `-inf.0` and `+nan.0` are the
;; only non-finite spellings. Before that, this walker named `inf` was
;; refused ("defun name must be a symbol"), and so was its `let` of
;; `nan` ("let binding name must be a symbol").
(defun inf (l)
  (if l
      (let ((nan (car l)))
        (setf (car l) (* nan 2))
        (inf (cdr l)))
      (print *data*)))

(defparameter *data* (list 1 2 3 4))
