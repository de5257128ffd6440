//! Small helpers for building and inspecting s-expressions during
//! transformation. Curare is a source-to-source transformer (paper
//! §4): every transformation consumes and produces `Sexpr` forms, with
//! analyses run on lowered copies.

use curare_sexpr::Sexpr;

/// `(head args...)`.
pub fn call(head: &str, args: Vec<Sexpr>) -> Sexpr {
    let mut items = vec![Sexpr::sym(head)];
    items.extend(args);
    Sexpr::List(items)
}

/// A bare symbol.
pub fn sym(name: impl AsRef<str>) -> Sexpr {
    Sexpr::sym(name)
}

/// `(quote x)`.
pub fn quote(x: Sexpr) -> Sexpr {
    call("quote", vec![x])
}

/// Destructure `(defun name (params...) body...)`.
pub struct DefunParts<'a> {
    /// Function name.
    pub name: &'a str,
    /// Parameter names.
    pub params: Vec<&'a str>,
    /// Leading `(declare ...)` forms.
    pub declares: Vec<&'a Sexpr>,
    /// Body forms after the declarations.
    pub body: Vec<&'a Sexpr>,
}

/// Parse a defun form into its parts; `None` if the shape is wrong.
pub fn parse_defun(form: &Sexpr) -> Option<DefunParts<'_>> {
    let args = form.call_args("defun")?;
    let (name, rest) = args.split_first()?;
    let (params, body_all) = rest.split_first()?;
    let name = name.as_symbol()?;
    let params: Option<Vec<&str>> = params.as_list()?.iter().map(Sexpr::as_symbol).collect();
    let mut declares = Vec::new();
    let mut body = Vec::new();
    let mut in_decls = true;
    for f in body_all {
        if in_decls && f.is_call("declare") {
            declares.push(f);
        } else {
            in_decls = false;
            body.push(f);
        }
    }
    Some(DefunParts { name, params: params?, declares, body })
}

/// Rebuild a defun from parts.
pub fn make_defun(
    name: &str,
    params: &[impl AsRef<str>],
    declares: &[&Sexpr],
    body: Vec<Sexpr>,
) -> Sexpr {
    let mut items = vec![
        sym("defun"),
        sym(name),
        Sexpr::List(params.iter().map(|p| sym(p.as_ref())).collect()),
    ];
    items.extend(declares.iter().map(|&d| d.clone()));
    items.extend(body);
    Sexpr::List(items)
}

/// Does this form contain a call to `fname` anywhere (quote-aware)?
pub fn mentions_call(form: &Sexpr, fname: &str) -> bool {
    match form {
        Sexpr::List(items) => {
            if items.first().is_some_and(|h| h.is_symbol("quote")) {
                return false;
            }
            if items.first().is_some_and(|h| h.is_symbol(fname)) {
                return true;
            }
            items.iter().any(|i| mentions_call(i, fname))
        }
        Sexpr::Dotted(items, tail) => {
            items.iter().any(|i| mentions_call(i, fname)) || mentions_call(tail, fname)
        }
        _ => false,
    }
}

/// Build the accessor-chain expression applying `path` to `root`:
/// path `cdr.car` over `l` gives `(car (cdr l))`.
pub fn path_to_expr(root: &str, path: &curare_analysis::Path, heap: &curare_lisp::Heap) -> Sexpr {
    use curare_analysis::Accessor;
    let mut e = sym(root);
    for &a in path.accessors() {
        e = match a {
            Accessor::Car => call("car", vec![e]),
            Accessor::Cdr => call("cdr", vec![e]),
            Accessor::Field { ty, field } => {
                let st = heap.struct_type(ty);
                call(&format!("{}-{}", st.name, st.fields[field as usize]), vec![e])
            }
        };
    }
    e
}

/// The `cri-lock` field operand for an accessor letter.
pub fn field_operand(a: curare_analysis::Accessor) -> Sexpr {
    use curare_analysis::Accessor;
    match a {
        Accessor::Car => quote(sym("car")),
        Accessor::Cdr => quote(sym("cdr")),
        Accessor::Field { field, .. } => Sexpr::Int(field as i64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defun_splits_declares() {
        let f = curare_sexpr::parse_one(
            "(defun f (a b) (declare (curare (no-alias a))) (car a) (car b))",
        )
        .unwrap();
        let p = parse_defun(&f).unwrap();
        assert_eq!(p.name, "f");
        assert_eq!(p.params, ["a", "b"]);
        assert_eq!(p.declares.len(), 1);
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn make_defun_round_trips() {
        let src = "(defun f (x) (car x))";
        let f = curare_sexpr::parse_one(src).unwrap();
        let p = parse_defun(&f).unwrap();
        let rebuilt =
            make_defun(p.name, &p.params, &p.declares, p.body.iter().map(|&b| b.clone()).collect());
        assert_eq!(rebuilt.to_string(), src);
    }

    /// Replaces every self-call of `f` through the statement-shape walker,
    /// the way the passes rewrite calls.
    struct Replace<R: FnMut(&[Sexpr]) -> Sexpr>(R);

    impl<R: FnMut(&[Sexpr]) -> Sexpr> crate::shape::Device<'_> for Replace<R> {
        fn fname(&self) -> &str {
            "f"
        }
        fn self_call(&mut self, call: &Sexpr, pos: crate::shape::Pos) -> Sexpr {
            let rebuilt = crate::shape::operands(self, call, pos);
            let args = rebuilt.as_list().expect("a call is a list")[1..].to_vec();
            (self.0)(&args)
        }
    }

    fn rewrite(src: &str, replace: impl FnMut(&[Sexpr]) -> Sexpr) -> String {
        let form = curare_sexpr::parse_one(src).unwrap();
        crate::shape::walk(&mut Replace(replace), &form, crate::shape::Pos::BODY).to_string()
    }

    #[test]
    fn mentions_and_rewrite() {
        let f = curare_sexpr::parse_one("(when l (print (car l)) (f (cdr l)))").unwrap();
        assert!(mentions_call(&f, "f"));
        assert!(!mentions_call(&f, "g"));
        let out = rewrite("(when l (print (car l)) (f (cdr l)))", |args| {
            let mut v = vec![sym("cri-enqueue"), Sexpr::Int(0), sym("f")];
            v.extend(args.to_vec());
            Sexpr::List(v)
        });
        assert_eq!(out, "(when l (print (car l)) (cri-enqueue 0 f (cdr l)))");
    }

    #[test]
    fn quoted_data_is_not_rewritten() {
        let quoted = curare_sexpr::parse_one("(append '(f 1) (g x))").unwrap();
        assert!(!mentions_call(&quoted, "f"));
        assert_eq!(rewrite("(append '(f 1) (f x))", |_| sym("HIT")), "(append '(f 1) HIT)");
    }

    #[test]
    fn path_to_expr_builds_chain() {
        use curare_analysis::path::parse_list_path;
        let heap = curare_lisp::Heap::new();
        let p = parse_list_path("cdr.car").unwrap();
        assert_eq!(path_to_expr("l", &p, &heap).to_string(), "(car (cdr l))");
        assert_eq!(path_to_expr("l", &parse_list_path("ε").unwrap(), &heap).to_string(), "l");
    }
}
