//! Destination-passing style (paper §5, Figures 12–13).
//!
//! A function whose recursive results are consed onto a list (the
//! `remq` shape) cannot spawn its invocations asynchronously: each
//! caller waits for the callee's value. Rewriting it so the caller
//! *passes the destination cell* and the callee stores into it removes
//! the data flow through return values:
//!
//! ```lisp
//! (defun remq (obj lst) ...)            ; Figure 12
//! (defun remq-d (dest obj lst) ...)     ; Figure 13
//! ```
//!
//! The transform recognizes clause results of three shapes:
//! 1. expressions without self-calls `E` → `(setf (cdr dest) E)`;
//! 2. tail self-calls `(f a…)` → `(f-d dest a…)`;
//! 3. `(cons X (f a…))` → `(let ((%cell (cons X nil)))
//!    (f-d %cell a…) (setf (cdr dest) %cell))`.
//!
//! The output carries the paper's *provenance* guarantee (§5): the
//! `setf`s introduced here write each invocation's own fresh cell, so
//! Curare may treat them as conflict-free even though a blank-slate,
//! flow-insensitive analysis of the output could not prove it.

use curare_sexpr::Sexpr;

use crate::shape::{self, Device, Pos};
use crate::sx;

/// Why the DPS transform did not apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpsError {
    /// Not a defun.
    NotADefun,
    /// The function is not recursive.
    NotRecursive,
    /// A clause result has a shape outside the supported class.
    UnsupportedShape(String),
}

impl std::fmt::Display for DpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpsError::NotADefun => write!(f, "not a defun form"),
            DpsError::NotRecursive => write!(f, "function is not recursive"),
            DpsError::UnsupportedShape(s) => write!(f, "unsupported result shape: {s}"),
        }
    }
}

impl std::error::Error for DpsError {}

/// The DPS transform's output.
#[derive(Debug, Clone)]
pub struct DpsResult {
    /// The `f-d` function (first parameter `%curare-dest`).
    pub dps_form: Sexpr,
    /// A wrapper with the original name and signature that allocates
    /// the destination header cell and returns `(cdr dest)`.
    pub wrapper: Sexpr,
    /// Name of the DPS function (`<f>-d`).
    pub dps_name: String,
    /// Provenance guarantee: the destination writes are to unique,
    /// per-invocation cells — downstream passes may skip conflict
    /// synthesis for parameter 0 of `dps_form`.
    pub provenance_safe: bool,
}

const DEST: &str = "%curare-dest";

/// Apply the destination-passing-style transformation.
pub fn dps_transform(form: &Sexpr) -> Result<DpsResult, DpsError> {
    let parts = sx::parse_defun(form).ok_or(DpsError::NotADefun)?;
    if !parts.body.iter().any(|b| sx::mentions_call(b, parts.name)) {
        return Err(DpsError::NotRecursive);
    }
    let dps_name = format!("{}-d", parts.name);

    // Every tail leaf of the body produces the result; a self-call
    // anywhere else is outside the class.
    let mut ctx = Ctx { fname: parts.name, dps_name: &dps_name, refused: None };
    let new_body = shape::walk_body(&mut ctx, &parts.body);
    if let Some(shape) = ctx.refused {
        return Err(DpsError::UnsupportedShape(shape));
    }

    let mut dps_params: Vec<String> = vec![DEST.to_string()];
    dps_params.extend(parts.params.iter().map(|p| p.to_string()));
    let dps_form = sx::make_defun(&dps_name, &dps_params, &parts.declares, new_body);

    // Wrapper: (defun f (p...) (let ((%curare-dest (cons nil nil)))
    //            (f-d %curare-dest p...) (cdr %curare-dest)))
    let mut call_dps = vec![sx::sym(dps_name.clone()), sx::sym(DEST)];
    call_dps.extend(parts.params.iter().map(|p| sx::sym(*p)));
    let wrapper_body = shape::let_form(
        false,
        vec![(DEST.to_string(), sx::call("cons", vec![sx::sym("nil"), sx::sym("nil")]))],
        vec![Sexpr::List(call_dps), sx::call("cdr", vec![sx::sym(DEST)])],
    );
    let wrapper = sx::make_defun(parts.name, &parts.params, &[], vec![wrapper_body]);

    Ok(DpsResult { dps_form, wrapper, dps_name, provenance_safe: true })
}

struct Ctx<'a> {
    fname: &'a str,
    dps_name: &'a str,
    /// The first form found outside the supported class.
    refused: Option<String>,
}

impl Ctx<'_> {
    /// `form` unchanged — refused if it calls the function.
    fn call_free(&mut self, form: &Sexpr) -> Sexpr {
        if sx::mentions_call(form, self.fname) {
            self.refused.get_or_insert_with(|| form.to_string());
        }
        form.clone()
    }

    /// `(f a...)` → `(f-d dest a...)`; no argument may call `f`.
    fn redirected(&mut self, call: &Sexpr, dest: &str) -> Sexpr {
        let mut out = vec![sx::sym(self.dps_name), sx::sym(dest)];
        out.extend(call.as_list().expect("a call")[1..].iter().map(|a| self.call_free(a)));
        Sexpr::List(out)
    }
}

/// Result-position rewrite: a branch whose value is nil stores nothing
/// (an `if` without an else arm, a false `when` / true `unless` test, a
/// `cond` no clause of which fires) and the list still ends there,
/// because every destination cell is allocated with a nil cdr.
impl Device for Ctx<'_> {
    fn fname(&self) -> &str {
        self.fname
    }

    /// Shape 2: a tail self-call `(f a...)` → `(f-d dest a...)`.
    fn self_call(&mut self, call: &Sexpr, pos: Pos) -> Sexpr {
        if !pos.tail {
            self.refused.get_or_insert_with(|| call.to_string());
            return call.clone();
        }
        self.redirected(call, DEST)
    }

    /// A guard's value must not be the result (an `or` operand, a
    /// `cond` clause that is all test): nothing would store it.
    fn guard(&mut self, form: &Sexpr, pos: Pos) -> Sexpr {
        if pos.tail {
            self.refused.get_or_insert_with(|| format!("guard whose value is the result: {form}"));
        }
        self.call_free(form)
    }

    fn leaf(&mut self, form: &Sexpr, pos: Pos) -> Sexpr {
        if !pos.tail {
            return self.call_free(form);
        }
        // Shape 3: (cons X (f a...)) →
        // (let ((%curare-cell (cons X nil)))
        //   (f-d %curare-cell a...)
        //   (setf (cdr dest) %curare-cell))
        match form.call_args("cons") {
            Some([x, rec]) if rec.is_call(self.fname) => {
                let cell = "%curare-cell";
                let fresh = sx::call("cons", vec![self.call_free(x), sx::sym("nil")]);
                let body = vec![self.redirected(rec, cell), store_value(sx::sym(cell))];
                shape::let_form(false, vec![(cell.to_string(), fresh)], body)
            }
            // Shape 1: any expression without self-calls.
            _ => store_value(self.call_free(form)),
        }
    }
}

/// `(setf (cdr dest) E)`.
fn store_value(e: Sexpr) -> Sexpr {
    sx::call("setf", vec![sx::call("cdr", vec![sx::sym(DEST)]), e])
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::Interp;
    use curare_sexpr::parse_one;

    const REMQ: &str = "(defun remq (obj lst)
        (cond ((null lst) nil)
              ((eq obj (car lst)) (remq obj (cdr lst)))
              (t (cons (car lst) (remq obj (cdr lst))))))";

    #[test]
    fn remq_transforms_to_figure_13_shape() {
        let r = dps_transform(&parse_one(REMQ).unwrap()).unwrap();
        let text = r.dps_form.to_string();
        assert!(text.starts_with("(defun remq-d (%curare-dest obj lst)"), "{text}");
        assert!(text.contains("(setf (cdr %curare-dest) nil)"), "{text}");
        assert!(text.contains("(remq-d %curare-dest obj (cdr lst))"), "{text}");
        assert!(text.contains("(cons (car lst) nil)"), "{text}");
        assert!(r.provenance_safe);
        let w = r.wrapper.to_string();
        assert!(w.starts_with("(defun remq (obj lst)"), "{w}");
        assert!(w.contains("(cdr %curare-dest)"), "{w}");
    }

    #[test]
    fn transformed_remq_is_equivalent() {
        let r = dps_transform(&parse_one(REMQ).unwrap()).unwrap();
        let orig = Interp::new();
        orig.load_str(REMQ).unwrap();
        let dps = Interp::new();
        dps.load_str(&r.dps_form.to_string()).unwrap();
        dps.load_str(&r.wrapper.to_string()).unwrap();
        for call in [
            "(remq 'a '(a b a c a d))",
            "(remq 'a '(a a a))",
            "(remq 'z '(a b c))",
            "(remq 'a nil)",
            "(remq 'a '(x))",
        ] {
            let a = orig.load_str(call).unwrap();
            let b = dps.load_str(call).unwrap();
            assert_eq!(orig.heap().display(a), dps.heap().display(b), "{call}");
        }
    }

    #[test]
    fn if_based_filter_transforms() {
        let src = "(defun keep-pos (l)
                     (if (null l)
                         nil
                         (if (> (car l) 0)
                             (cons (car l) (keep-pos (cdr l)))
                             (keep-pos (cdr l)))))";
        let r = dps_transform(&parse_one(src).unwrap()).unwrap();
        let orig = Interp::new();
        orig.load_str(src).unwrap();
        let dps = Interp::new();
        dps.load_str(&r.dps_form.to_string()).unwrap();
        dps.load_str(&r.wrapper.to_string()).unwrap();
        for call in ["(keep-pos '(1 -2 3 -4 5))", "(keep-pos nil)", "(keep-pos '(-1))"] {
            let a = orig.load_str(call).unwrap();
            let b = dps.load_str(call).unwrap();
            assert_eq!(orig.heap().display(a), dps.heap().display(b), "{call}");
        }
    }

    #[test]
    fn copy_list_shape() {
        let src = "(defun my-copy (l)
                     (if (null l) nil (cons (car l) (my-copy (cdr l)))))";
        let r = dps_transform(&parse_one(src).unwrap()).unwrap();
        let orig = Interp::new();
        orig.load_str(src).unwrap();
        let dps = Interp::new();
        dps.load_str(&r.dps_form.to_string()).unwrap();
        dps.load_str(&r.wrapper.to_string()).unwrap();
        let a = orig.load_str("(my-copy '(1 2 3))").unwrap();
        let b = dps.load_str("(my-copy '(1 2 3))").unwrap();
        assert_eq!(orig.heap().display(a), dps.heap().display(b));
    }

    #[test]
    fn dps_output_is_cri_convertible() {
        // The recursive calls in remq-d are free or tail, so CRI
        // conversion accepts the output (the paper's point: DPS
        // *enables* concurrent execution).
        let r = dps_transform(&parse_one(REMQ).unwrap()).unwrap();
        let cri = crate::cri::cri_convert(&r.dps_form).unwrap();
        assert_eq!(cri.sites, 2);
    }

    #[test]
    fn non_recursive_rejected() {
        let err = dps_transform(&parse_one("(defun f (x) (* x x))").unwrap()).unwrap_err();
        assert_eq!(err, DpsError::NotRecursive);
    }

    #[test]
    fn unsupported_shapes_are_reported() {
        // Result used inside arithmetic: not in the DPS class.
        let err = dps_transform(
            &parse_one("(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, DpsError::UnsupportedShape(_)));
        // Self-call in an effect position before the result.
        let err =
            dps_transform(&parse_one("(defun f (l) (f (cdr l)) (cons 1 (f (cdr l))))").unwrap())
                .unwrap_err();
        assert!(matches!(err, DpsError::UnsupportedShape(_)));
    }

    #[test]
    fn when_shape_terminates_list_on_false() {
        let src = "(defun take-while-pos (l)
                     (when (and (consp l) (> (car l) 0))
                       (cons (car l) (take-while-pos (cdr l)))))";
        let r = dps_transform(&parse_one(src).unwrap()).unwrap();
        let orig = Interp::new();
        orig.load_str(src).unwrap();
        let dps = Interp::new();
        dps.load_str(&r.dps_form.to_string()).unwrap();
        dps.load_str(&r.wrapper.to_string()).unwrap();
        for call in
            ["(take-while-pos '(1 2 -1 3))", "(take-while-pos '(-1))", "(take-while-pos nil)"]
        {
            let a = orig.load_str(call).unwrap();
            let b = dps.load_str(call).unwrap();
            assert_eq!(orig.heap().display(a), dps.heap().display(b), "{call}");
        }
    }

    #[test]
    fn unless_and_let_spell_the_same_class() {
        let src = "(defun remq2 (x l)
                     (unless (null l)
                       (let ((h (car l)))
                         (if (eq h x) (remq2 x (cdr l)) (cons h (remq2 x (cdr l)))))))";
        let r = dps_transform(&parse_one(src).unwrap()).unwrap();
        let text = r.dps_form.to_string();
        assert!(text.contains("(remq2-d %curare-dest x (cdr l))"), "{text}");
        assert!(text.contains("(%curare-cell (cons h nil))"), "{text}");
        let orig = Interp::new();
        orig.load_str(src).unwrap();
        let dps = Interp::new();
        dps.load_str(&text).unwrap();
        dps.load_str(&r.wrapper.to_string()).unwrap();
        for call in ["(remq2 'a '(a b a c a d))", "(remq2 'a '(a a))", "(remq2 'a nil)"] {
            let a = orig.load_str(call).unwrap();
            let b = dps.load_str(call).unwrap();
            assert_eq!(orig.heap().display(a), dps.heap().display(b), "{call}");
        }
    }

    #[test]
    fn a_guard_whose_value_is_the_result_is_refused() {
        // `or` returns its first true operand and a bodiless `cond`
        // clause its test: values no store would carry.
        for src in [
            "(defun f (l) (or (null l) (cons (car l) (f (cdr l)))))",
            "(defun f (l) (cond ((null l)) (t (cons (car l) (f (cdr l))))))",
        ] {
            let err = dps_transform(&parse_one(src).unwrap()).unwrap_err();
            assert!(matches!(err, DpsError::UnsupportedShape(_)), "{src}");
        }
        // `and` yields only nil early: the list ends where it stands.
        let src = "(defun f (l) (and l (cons (car l) (f (cdr l)))))";
        let r = dps_transform(&parse_one(src).unwrap()).unwrap();
        let dps = Interp::new();
        dps.load_str(&r.dps_form.to_string()).unwrap();
        dps.load_str(&r.wrapper.to_string()).unwrap();
        let v = dps.load_str("(f '(1 2 3))").unwrap();
        assert_eq!(dps.heap().display(v), "(1 2 3)");
    }
}
