; A struct walker written above the `defstruct` it walks, and a
; `defparameter` that builds its input above it too. Lowering takes a
; program's struct types first, whoever lowers it — the restructurer,
; `analyze`, `check`, the interpreter loading the text as written or as
; restructured — so every command accepts the file and `bump` is
; converted; when only the restructurer did, it emitted text that the
; other four (and `run`, loading that very text) refused with
; `unsupported setf place`. Each invocation doubles its node's value
; before it spawns the next, so the last one prints (2 4 6).
(defun bump (n)
  (if n
      (progn (setf (node-value n) (* 2 (node-value n)))
             (bump (node-next n)))
      (print (list (node-value *chain*)
                   (node-value (node-next *chain*))
                   (node-value (node-next (node-next *chain*)))))))
(defparameter *chain* (make-node (make-node (make-node nil 3) 2) 1))
(defstruct node next value)
