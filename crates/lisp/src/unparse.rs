//! Unparsing: AST back to s-expressions.
//!
//! Curare is a source-to-source transformer (paper §4: "its final,
//! code-generator stage ... produces Lisp code from CURARE's internal
//! representation"). The transform crate rewrites the AST and uses
//! this module to print the result as Lisp again.

use crate::ast::{BuiltinOp, Expr, Func, StructOp};
use crate::heap::Heap;
use curare_sexpr::Sexpr;

fn sym(s: impl Into<String>) -> Sexpr {
    Sexpr::sym(s.into())
}

fn call(head: &str, mut args: Vec<Sexpr>) -> Sexpr {
    let mut items = vec![sym(head)];
    items.append(&mut args);
    Sexpr::List(items)
}

/// Render a whole function as `(defun name (params) decls... body...)`.
pub fn unparse_func(heap: &Heap, f: &Func) -> Sexpr {
    let mut items =
        vec![sym("defun"), sym(&f.name), Sexpr::List(f.params.iter().map(sym).collect())];
    items.extend(f.declarations.iter().cloned());
    items.extend(f.body.iter().map(|e| unparse_expr(heap, e)));
    Sexpr::List(items)
}

/// Render one expression.
pub fn unparse_expr(heap: &Heap, e: &Expr) -> Sexpr {
    let up = |e: &Expr| unparse_expr(heap, e);
    let up_all = |es: &[Expr]| es.iter().map(up).collect::<Vec<_>>();
    match e {
        Expr::Nil => sym("nil"),
        Expr::T => sym("t"),
        Expr::Int(i) => Sexpr::Int(*i),
        Expr::Float(x) => Sexpr::Float(*x),
        Expr::Str(s) => Sexpr::Str(s.clone()),
        Expr::Quote(d) => Sexpr::List(vec![sym("quote"), d.clone()]),
        Expr::Var(_, name) => sym(name),
        Expr::Setq(_, name, rhs) => call("setq", vec![sym(name), up(rhs)]),
        Expr::If(c, t, f) => {
            if matches!(**f, Expr::Nil) {
                call("if", vec![up(c), up(t)])
            } else {
                call("if", vec![up(c), up(t), up(f)])
            }
        }
        Expr::Progn(es) => call("progn", up_all(es)),
        Expr::And(es) => call("and", up_all(es)),
        Expr::Or(es) => call("or", up_all(es)),
        Expr::Let { bindings, body, sequential } => {
            let head = if *sequential { "let*" } else { "let" };
            let binds = Sexpr::List(
                bindings.iter().map(|(_, n, init)| Sexpr::List(vec![sym(n), up(init)])).collect(),
            );
            let mut args = vec![binds];
            args.extend(up_all(body));
            call(head, args)
        }
        Expr::While(c, body) => {
            let mut args = vec![up(c)];
            args.extend(up_all(body));
            call("while", args)
        }
        Expr::Call { name_text, args, .. } => call(name_text, up_all(args)),
        Expr::Builtin(op, args) => unparse_builtin(heap, *op, args),
        Expr::Struct(op, args) => {
            let ups = up_all(args);
            match *op {
                StructOp::Make { ty, .. } => {
                    call(&format!("make-{}", heap.struct_type(ty).name), ups)
                }
                StructOp::Ref { ty, field } => {
                    let st = heap.struct_type(ty);
                    call(&format!("{}-{}", st.name, st.fields[field]), ups)
                }
                StructOp::Set { ty, field } => {
                    let st = heap.struct_type(ty);
                    let mut it = ups.into_iter();
                    let obj = it.next().expect("set has 2 args");
                    let v = it.next().expect("set has 2 args");
                    call(
                        "setf",
                        vec![
                            Sexpr::List(vec![
                                sym(format!("{}-{}", st.name, st.fields[field])),
                                obj,
                            ]),
                            v,
                        ],
                    )
                }
                StructOp::Pred { ty } => call(&format!("{}-p", heap.struct_type(ty).name), ups),
            }
        }
        Expr::Lambda { func, .. } => {
            let mut items = vec![sym("lambda"), Sexpr::List(func.params.iter().map(sym).collect())];
            items.extend(func.body.iter().map(|e| unparse_expr(heap, e)));
            Sexpr::List(items)
        }
        Expr::FuncRef(_, name) => call("function", vec![sym(name)]),
        Expr::Future { name_text, args, .. } => call("future", vec![call(name_text, up_all(args))]),
        Expr::Enqueue { site, name_text, args, handoff, .. } => {
            let mut items = vec![Sexpr::Int(*site as i64), sym(name_text)];
            items.extend(up_all(args));
            call(if *handoff { "cri-handoff" } else { "cri-enqueue" }, items)
        }
        Expr::LockOp { lock, base, field, exclusive } => {
            let head = match (lock, exclusive) {
                (true, true) => "cri-lock",
                (true, false) => "cri-lock-read",
                (false, true) => "cri-unlock",
                (false, false) => "cri-unlock-read",
            };
            let field_datum = match field {
                0 => Sexpr::List(vec![sym("quote"), sym("car")]),
                1 => Sexpr::List(vec![sym("quote"), sym("cdr")]),
                k => Sexpr::Int((*k - 2) as i64),
            };
            call(head, vec![up(base), field_datum])
        }
    }
}

fn unparse_builtin(heap: &Heap, op: BuiltinOp, args: &[Expr]) -> Sexpr {
    use BuiltinOp::*;
    let ups: Vec<Sexpr> = args.iter().map(|e| unparse_expr(heap, e)).collect();
    let plain = |name: &str, ups: Vec<Sexpr>| call(name, ups);
    match op {
        SetCar | SetCdr => {
            let accessor = if op == SetCar { "car" } else { "cdr" };
            let mut it = ups.into_iter();
            let base = it.next().expect("setter has 2 args");
            let v = it.next().expect("setter has 2 args");
            call("setf", vec![Sexpr::List(vec![sym(accessor), base]), v])
        }
        SetNth => {
            let mut it = ups.into_iter();
            let (i, l, v) = (
                it.next().expect("3 args"),
                it.next().expect("3 args"),
                it.next().expect("3 args"),
            );
            call("setf", vec![Sexpr::List(vec![sym("nth"), i, l]), v])
        }
        Aset => plain("aset", ups),
        AtomicIncfCell => {
            let mut it = ups.into_iter();
            let base = it.next().expect("3 args");
            let field = it.next().expect("3 args");
            let delta = it.next().expect("3 args");
            let field_datum = match field {
                Sexpr::Int(0) => Sexpr::List(vec![sym("quote"), sym("car")]),
                Sexpr::Int(1) => Sexpr::List(vec![sym("quote"), sym("cdr")]),
                Sexpr::Int(k) => Sexpr::Int(k - 2),
                other => other,
            };
            call("atomic-incf-cell", vec![base, field_datum, delta])
        }
        _ => plain(builtin_name(op), ups),
    }
}

/// Source-level name for a builtin (the setf-style ones are handled
/// separately).
pub fn builtin_name(op: BuiltinOp) -> &'static str {
    use BuiltinOp::*;
    match op {
        Car => "car",
        Cdr => "cdr",
        Cons => "cons",
        SetCar => "rplaca",
        SetCdr => "rplacd",
        Add => "+",
        Sub => "-",
        Mul => "*",
        Div => "/",
        Mod => "mod",
        Lt => "<",
        Gt => ">",
        Le => "<=",
        Ge => ">=",
        NumEq => "=",
        NumNe => "/=",
        Min => "min",
        Max => "max",
        Abs => "abs",
        Add1 => "1+",
        Sub1 => "1-",
        Null => "null",
        Eq => "eq",
        Eql => "eql",
        Equal => "equal",
        Atom => "atom",
        Consp => "consp",
        Symbolp => "symbolp",
        Numberp => "numberp",
        Stringp => "stringp",
        Functionp => "functionp",
        List => "list",
        Append => "append",
        Reverse => "reverse",
        Length => "length",
        Nth => "nth",
        SetNth => "setf-nth",
        Nthcdr => "nthcdr",
        Assoc => "assoc",
        Member => "member",
        Last => "last",
        CopyList => "copy-list",
        Print => "print",
        Princ => "princ",
        Terpri => "terpri",
        ErrorOp => "error",
        MakeHash => "make-hash-table",
        Gethash => "gethash",
        Puthash => "puthash",
        Remhash => "remhash",
        HashCount => "hash-table-count",
        MakeVector => "make-vector",
        Aref => "aref",
        Aset => "aset",
        VectorLength => "vector-length",
        Funcall => "funcall",
        Apply => "apply",
        Mapcar => "mapcar",
        Identity => "identity",
        Gensym => "gensym",
        Random => "random",
        AtomicIncfGlobal => "atomic-incf",
        AtomicIncfCell => "atomic-incf-cell",
        Touch => "touch",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::Lowerer;
    use curare_sexpr::{parse_all, parse_one};

    /// Lower, unparse, re-lower: the two ASTs must be identical.
    fn round_trip_expr(src: &str) {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let ast1 = lw.lower_expr(&parse_one(src).unwrap()).unwrap();
        let printed = unparse_expr(&heap, &ast1).to_string();
        let mut lw2 = Lowerer::new(&heap);
        let ast2 = lw2
            .lower_expr(&parse_one(&printed).unwrap())
            .unwrap_or_else(|e| panic!("re-lower of {printed}: {e}"));
        assert_eq!(ast1, ast2, "round trip changed AST:\n  src: {src}\n  out: {printed}");
    }

    #[test]
    fn expressions_round_trip() {
        for src in [
            "(+ 1 2)",
            "(car (cdr x))",
            "(if (null l) nil (f (cdr l)))",
            "(let ((x 1) (y 2)) (+ x y))",
            "(let* ((x 1) (y x)) y)",
            "(setq g 5)",
            "(setf (car l) 9)",
            "(setf (cadr l) 9)",
            "(and 1 2)",
            "(or nil 2)",
            "(progn 1 2)",
            "(while (consp l) (setq l (cdr l)))",
            "(cons (quote a) (quote (b c)))",
            "(funcall (function f) 1)",
            "(future (work 1 2))",
            "(cri-enqueue 0 f (cdr l))",
            "(cri-handoff 1 f (cdr l))",
            "(cri-lock (cdr l) 'car)",
            "(cri-unlock l 'cdr)",
            "(cri-lock-read l 'car)",
            "(mapcar (lambda (x) (* x x)) xs)",
            "(print \"hello\")",
        ] {
            round_trip_expr(src);
        }
    }

    #[test]
    fn defun_round_trips() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let src = "(defun f (l)
                      (cond ((null l) nil)
                            (t (setf (cadr l) (+ (car l) (cadr l)))
                               (f (cdr l)))))";
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        let printed = unparse_func(&heap, &prog.funcs[0]).to_string();
        let mut lw2 = Lowerer::new(&heap);
        let prog2 = lw2.lower_program(&parse_all(&printed).unwrap()).unwrap();
        assert_eq!(prog.funcs[0].body, prog2.funcs[0].body, "printed: {printed}");
    }

    #[test]
    fn struct_ops_unparse() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(
                &parse_all(
                    "(defstruct node next value)
                     (defun touch-node (n v) (setf (node-value n) v) (node-next n) (node-p n) (make-node nil v))",
                )
                .unwrap(),
            )
            .unwrap();
        let printed = unparse_func(&heap, &prog.funcs[0]).to_string();
        assert!(printed.contains("(setf (node-value n) v)"), "{printed}");
        assert!(printed.contains("(node-next n)"), "{printed}");
        assert!(printed.contains("(node-p n)"), "{printed}");
        assert!(printed.contains("(make-node nil v)"), "{printed}");
    }

    #[test]
    fn declarations_are_preserved() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(
                &parse_all("(defun f (l) (declare (curare (no-alias l))) (car l))").unwrap(),
            )
            .unwrap();
        let printed = unparse_func(&heap, &prog.funcs[0]).to_string();
        assert!(printed.contains("(declare (curare (no-alias l)))"), "{printed}");
    }

    #[test]
    fn if_without_else_prints_two_arm() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let e = lw.lower_expr(&parse_one("(if x 1)").unwrap()).unwrap();
        assert_eq!(unparse_expr(&heap, &e).to_string(), "(if x 1)");
    }
}
