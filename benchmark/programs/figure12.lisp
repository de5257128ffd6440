; Paper Figure 12: remq, whose recursive result feeds cons (DPS, §5).
(defun @NAME@ (obj lst)
  (cond ((null lst) nil)
        ((eq obj (car lst)) (@NAME@ obj (cdr lst)))
        (t (cons (car lst) (@NAME@ obj (cdr lst))))))
