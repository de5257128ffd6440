//! Recursion → iteration (paper §5, first enabling transformation).
//!
//! "Restricted classes of recursive functions can be transformed into
//! iterative functions by a set of well-known transformations." The
//! class implemented here is tail recursion: every self-recursive call
//! is in tail position, so the call can become a (parallel)
//! reassignment of the parameters plus another trip around a loop.
//! "Changing the single return that produces a value into an
//! assignment eliminates the return": the loop accumulates the final
//! result in a variable and returns it at the end.
//!
//! The output shape for `(defun f (p₁ … pₙ) body)` is:
//!
//! ```lisp
//! (defun f (p₁ … pₙ)
//!   (let ((%curare-continue t) (%curare-value nil))
//!     (while %curare-continue
//!       (setq %curare-continue nil)
//!       (setq %curare-value <body with tail calls replaced>))
//!     %curare-value))
//! ```
//!
//! where each tail call `(f a₁ … aₙ)` becomes
//! `(progn (let ((%t1 a₁) …) (setq p₁ %t1) …) (setq %curare-continue t) nil)`
//! — arguments evaluated into temporaries first, so the reassignments
//! are simultaneous like a real call's binding.

use curare_sexpr::Sexpr;

use crate::shape::{self, Device, Pos};
use crate::sx;

/// Why the transformation did not apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rec2IterError {
    /// Not a defun.
    NotADefun,
    /// A self-recursive call occurs outside tail position.
    NotTailRecursive(String),
    /// No self-recursive call at all.
    NotRecursive,
}

impl std::fmt::Display for Rec2IterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rec2IterError::NotADefun => write!(f, "not a defun form"),
            Rec2IterError::NotTailRecursive(at) => {
                write!(f, "self-recursive call outside tail position: {at}")
            }
            Rec2IterError::NotRecursive => write!(f, "function is not recursive"),
        }
    }
}

impl std::error::Error for Rec2IterError {}

struct Ctx<'a> {
    fname: &'a str,
    params: &'a [&'a str],
    temp_counter: usize,
    /// The first self-call found outside tail position.
    refused: Option<Rec2IterError>,
}

/// Transform a tail-recursive defun into an equivalent loop.
pub fn recursion_to_iteration(form: &Sexpr) -> Result<Sexpr, Rec2IterError> {
    let parts = sx::parse_defun(form).ok_or(Rec2IterError::NotADefun)?;
    if !parts.body.iter().any(|b| sx::mentions_call(b, parts.name)) {
        return Err(Rec2IterError::NotRecursive);
    }
    let mut ctx = Ctx { fname: parts.name, params: &parts.params, temp_counter: 0, refused: None };
    let new_body_forms = shape::walk_body(&mut ctx, &parts.body);
    if let Some(e) = ctx.refused {
        return Err(e);
    }

    let (go, value) = ("%curare-continue", "%curare-value");
    let loop_body = vec![
        sx::call("setq", vec![sx::sym(go), sx::sym("nil")]),
        sx::call("setq", vec![sx::sym(value), shape::progn(new_body_forms)]),
    ];
    let let_form = shape::let_form(
        false,
        vec![(go.to_string(), sx::sym("t")), (value.to_string(), sx::sym("nil"))],
        vec![shape::while_form(sx::sym(go), loop_body), sx::sym(value)],
    );
    Ok(sx::make_defun(parts.name, &parts.params, &parts.declares, vec![let_form]))
}

impl Device<'_> for Ctx<'_> {
    fn fname(&self) -> &str {
        self.fname
    }

    /// A tail call becomes parameter reassignment: the arguments are
    /// evaluated into temporaries, then assigned. (An arity mismatch is
    /// left for the evaluator to report.)
    fn self_call(&mut self, call: &Sexpr, pos: Pos) -> Sexpr {
        if !pos.tail {
            self.refused.get_or_insert_with(|| Rec2IterError::NotTailRecursive(call.to_string()));
            return call.clone();
        }
        let mut bindings = Vec::new();
        let mut assigns = Vec::new();
        for (i, a) in call.as_list().expect("a call")[1..].iter().enumerate() {
            self.temp_counter += 1;
            let tmp = format!("%curare-arg{}", self.temp_counter);
            let a = shape::walk(self, a, pos.value());
            if let Some(p) = self.params.get(i) {
                assigns.push(sx::call("setq", vec![sx::sym(*p), sx::sym(tmp.clone())]));
            }
            bindings.push((tmp, a));
        }
        shape::progn(vec![
            shape::let_form(false, bindings, assigns),
            sx::call("setq", vec![sx::sym("%curare-continue"), sx::sym("t")]),
            sx::sym("nil"),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::Interp;
    use curare_sexpr::parse_one;

    fn transform(src: &str) -> Sexpr {
        recursion_to_iteration(&parse_one(src).unwrap()).unwrap()
    }

    /// The transformed function must compute the same results as the
    /// original on sample inputs.
    fn check_equiv(src: &str, calls: &[&str]) {
        let orig = Interp::new();
        orig.load_str(src).unwrap();
        let iter = Interp::new();
        iter.load_str(&transform(src).to_string()).unwrap();
        for c in calls {
            let a = orig.load_str(c).unwrap();
            let b = iter.load_str(c).unwrap();
            assert_eq!(
                orig.heap().display(a),
                iter.heap().display(b),
                "disagreement on {c} for transformed:\n{}",
                transform(src)
            );
        }
    }

    #[test]
    fn countdown_becomes_loop() {
        let out = transform("(defun count-down (n) (if (= n 0) 'done (count-down (1- n))))");
        let text = out.to_string();
        assert!(text.contains("while"), "{text}");
        assert!(!sx::mentions_call(&out, "count-down") || !text.contains("(count-down"), "{text}");
        check_equiv(
            "(defun count-down (n) (if (= n 0) 'done (count-down (1- n))))",
            &["(count-down 0)", "(count-down 5)", "(count-down 100)"],
        );
    }

    #[test]
    fn accumulator_factorial_equivalent() {
        let src = "(defun fact-acc (n acc) (if (<= n 1) acc (fact-acc (1- n) (* acc n))))";
        check_equiv(src, &["(fact-acc 1 1)", "(fact-acc 5 1)", "(fact-acc 10 1)"]);
    }

    #[test]
    fn parameter_swap_is_simultaneous() {
        // gcd-style: args must be evaluated before either param is
        // reassigned (the temp-binding discipline).
        let src = "(defun swap-walk (a b)
                     (if (= a 0) b (swap-walk (mod b a) a)))";
        check_equiv(src, &["(swap-walk 12 18)", "(swap-walk 35 21)", "(swap-walk 0 7)"]);
    }

    #[test]
    fn cond_tail_calls() {
        let src = "(defun walk (l acc)
                     (cond ((null l) acc)
                           (t (walk (cdr l) (cons (car l) acc)))))";
        check_equiv(src, &["(walk '(1 2 3) nil)", "(walk nil 'x)"]);
    }

    #[test]
    fn effectful_tail_recursion() {
        let src = "(defun sum-walk (l)
                     (when l
                       (setq *s* (+ *s* (car l)))
                       (sum-walk (cdr l))))";
        let orig = Interp::new();
        orig.load_str("(defparameter *s* 0)").unwrap();
        orig.load_str(src).unwrap();
        orig.load_str("(sum-walk '(1 2 3 4))").unwrap();
        let iter = Interp::new();
        iter.load_str("(defparameter *s* 0)").unwrap();
        iter.load_str(&transform(src).to_string()).unwrap();
        iter.load_str("(sum-walk '(1 2 3 4))").unwrap();
        assert_eq!(
            orig.heap().display(orig.load_str("*s*").unwrap()),
            iter.heap().display(iter.load_str("*s*").unwrap())
        );
    }

    #[test]
    fn deep_recursion_runs_in_constant_stack() {
        // The whole point: a non-TCO evaluator (or a tiny budget)
        // would die on this depth; the loop version cannot.
        let it = Interp::new();
        it.set_recursion_limit(50);
        let out = transform("(defun walk (n) (if (= n 0) 'ok (walk (1- n))))");
        it.load_str(&out.to_string()).unwrap();
        let v = it.load_str("(walk 100000)").unwrap();
        assert_eq!(it.heap().display(v), "ok");
    }

    #[test]
    fn non_tail_call_is_rejected() {
        let err = recursion_to_iteration(
            &parse_one("(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, Rec2IterError::NotTailRecursive(_)));
    }

    #[test]
    fn non_recursive_is_rejected() {
        let err = recursion_to_iteration(&parse_one("(defun f (x) (* x x))").unwrap()).unwrap_err();
        assert_eq!(err, Rec2IterError::NotRecursive);
    }

    #[test]
    fn and_or_tails_work() {
        let src = "(defun find-first (l)
                     (or (and (consp l) (car l))
                         nil))";
        // Not recursive; just confirm rejection shape is NotRecursive.
        assert_eq!(
            recursion_to_iteration(&parse_one(src).unwrap()).unwrap_err(),
            Rec2IterError::NotRecursive
        );
        let src2 = "(defun skip-nils (l)
                      (and (consp l)
                           (or (car l) (skip-nils (cdr l)))))";
        check_equiv(src2, &["(skip-nils '(nil nil 3 4))", "(skip-nils '(nil))", "(skip-nils nil)"]);
    }
}
