//! CRI conversion (paper §3.1, §4.1): recursive calls become queue
//! insertions.
//!
//! "CURARE modifies f's body to enqueue arguments to recursive calls,
//! instead of making the calls directly." Each self-recursive call in
//! *effect* or *tail* position is rewritten to
//! `(cri-enqueue <site> f args...)`; the site index keys the ordered
//! per-call-site queues that preserve invocation order for functions
//! with multiple recursive calls (§4.1). Where the pipeline found the
//! function's tail long enough to be worth a queue round trip, the
//! same sites are written `(cri-handoff <site> f args...)` instead:
//! the identical spawn, published at once rather than when the
//! spawning invocation ends ([`cri_convert_handoff`]).
//!
//! Calls whose value the function actually consumes cannot be
//! converted — the §5 enabling transformations (recursion→iteration,
//! destination-passing style) must run first; this module reports such
//! calls as errors.

use curare_sexpr::Sexpr;

use crate::shape::{self, Device, Pos};
use crate::sx;

/// Why CRI conversion failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CriError {
    /// The form is not a defun.
    NotADefun,
    /// A self-recursive call's value is used; position shown.
    ValuePositionCall(String),
}

impl std::fmt::Display for CriError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CriError::NotADefun => write!(f, "not a defun form"),
            CriError::ValuePositionCall(ctx) => {
                write!(f, "recursive call in value position: {ctx}")
            }
        }
    }
}

impl std::error::Error for CriError {}

/// Result of CRI conversion.
#[derive(Debug, Clone)]
pub struct CriResult {
    /// The rewritten defun.
    pub form: Sexpr,
    /// Number of call sites converted (= number of per-site queues the
    /// runtime must maintain).
    pub sites: usize,
}

struct Ctx<'a> {
    fname: &'a str,
    /// The spawn form's head: `cri-enqueue` or `cri-handoff`.
    spawn: &'static str,
    next_site: usize,
    /// The first self-call found in a value position.
    refused: Option<CriError>,
}

/// Convert a defun's self-recursive calls to enqueues.
pub fn cri_convert(form: &Sexpr) -> Result<CriResult, CriError> {
    convert_as(form, "cri-enqueue")
}

/// [`cri_convert`] with every site a `cri-handoff`.
pub fn cri_convert_handoff(form: &Sexpr) -> Result<CriResult, CriError> {
    convert_as(form, "cri-handoff")
}

/// Would conversion find a site in the defun `form`: a self-call
/// outside the call a `future` wraps?
pub(crate) fn has_site(form: &Sexpr) -> bool {
    fn within(form: &Sexpr, fname: &str) -> bool {
        let Some(items) = form.as_list().filter(|_| !shape::inert(form)) else { return false };
        match form.call_args("future").and_then(|a| a.first()?.as_list()) {
            Some(wrapped) => wrapped.iter().skip(1).any(|a| within(a, fname)),
            None => items[0].is_symbol(fname) || items.iter().any(|i| within(i, fname)),
        }
    }
    sx::parse_defun(form).is_some_and(|p| p.body.iter().any(|b| within(b, p.name)))
}

fn convert_as(form: &Sexpr, spawn: &'static str) -> Result<CriResult, CriError> {
    let parts = sx::parse_defun(form).ok_or(CriError::NotADefun)?;
    let mut ctx = Ctx { fname: parts.name, spawn, next_site: 0, refused: None };
    let body = shape::walk_body(&mut ctx, &parts.body);
    match ctx.refused {
        Some(e) => Err(e),
        None => Ok(CriResult {
            form: sx::make_defun(parts.name, &parts.params, &parts.declares, body),
            sites: ctx.next_site,
        }),
    }
}

impl Device for Ctx<'_> {
    fn fname(&self) -> &str {
        self.fname
    }

    /// A self-call is convertible where its value is the function's or
    /// ignored (CRI executes for effect; the return value of a
    /// converted function is no longer meaningful): `(f a...)` becomes
    /// `(<spawn> <site> f a...)`, its arguments value positions.
    fn self_call(&mut self, call: &Sexpr, pos: Pos) -> Sexpr {
        if pos.is_value() {
            self.refused.get_or_insert_with(|| CriError::ValuePositionCall(call.to_string()));
            return call.clone();
        }
        let mut out = vec![sx::sym(self.spawn), Sexpr::Int(self.next_site as i64)];
        self.next_site += 1;
        if let Sexpr::List(call) = shape::operands(self, call, pos) {
            out.extend(call);
        }
        Sexpr::List(out)
    }

    fn leaf(&mut self, form: &Sexpr, pos: Pos) -> Sexpr {
        // A future is already non-strict: the wrapped call needs no
        // conversion (the future-sync transform produced it); its
        // arguments are ordinary value positions.
        match form.call_args("future") {
            Some([wrapped, ..]) => sx::call("future", vec![shape::operands(self, wrapped, pos)]),
            _ => shape::operands(self, form, pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_sexpr::parse_one;

    fn convert(src: &str) -> CriResult {
        cri_convert(&parse_one(src).unwrap()).unwrap()
    }

    #[test]
    fn figure_3_converts_single_site() {
        let r = convert("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        assert_eq!(r.sites, 1);
        assert_eq!(
            r.form.to_string(),
            "(defun f (l) (when l (print (car l)) (cri-enqueue 0 f (cdr l))))"
        );
    }

    #[test]
    fn figure_5_converts_both_sites() {
        let r = convert(
            "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))",
        );
        assert_eq!(r.sites, 2);
        let text = r.form.to_string();
        assert!(text.contains("(cri-enqueue 0 f (cdr l))"), "{text}");
        assert!(text.contains("(cri-enqueue 1 f (cdr l))"), "{text}");
        assert!(!text.contains("(f (cdr l))"), "{text}");
    }

    #[test]
    fn handoff_conversion_differs_only_in_the_spawn_form() {
        let src = "(defun f (l) (when l (f (car l)) (f (cdr l)) (print l)))";
        let lazy = convert(src);
        let eager = cri_convert_handoff(&parse_one(src).unwrap()).unwrap();
        assert_eq!(eager.sites, 2);
        assert_eq!(
            eager.form.to_string(),
            lazy.form.to_string().replace("cri-enqueue", "cri-handoff")
        );
    }

    #[test]
    fn value_position_call_is_rejected() {
        let err = cri_convert(
            &parse_one("(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, CriError::ValuePositionCall(_)));
    }

    #[test]
    fn call_in_binding_init_is_rejected() {
        let err = cri_convert(&parse_one("(defun f (l) (let ((x (f (cdr l)))) x))").unwrap())
            .unwrap_err();
        assert!(matches!(err, CriError::ValuePositionCall(_)));
    }

    #[test]
    fn free_call_in_progn_converts() {
        let r = convert("(defun f (l) (when l (f (car l)) (f (cdr l))))");
        assert_eq!(r.sites, 2);
    }

    #[test]
    fn while_body_calls_convert() {
        let r = convert("(defun f (l) (while (consp l) (f (car l)) (setq l (cdr l))))");
        assert_eq!(r.sites, 1);
        assert!(r.form.to_string().contains("cri-enqueue 0 f (car l)"));
    }

    #[test]
    fn quoted_occurrences_untouched() {
        let r = convert("(defun f (l) (when l (print '(f x)) (f (cdr l))))");
        assert!(r.form.to_string().contains("'(f x)"), "{}", r.form);
        assert_eq!(r.sites, 1);
    }

    #[test]
    fn sequential_semantics_preserved() {
        // Under SequentialHooks, the converted function behaves like
        // the original (enqueue = direct call).
        let r = convert(
            "(defun walk (l)
               (when l
                 (setq *acc* (+ *acc* (car l)))
                 (walk (cdr l))))",
        );
        let it = curare_lisp::Interp::new();
        it.load_str("(defparameter *acc* 0)").unwrap();
        it.load_str(&r.form.to_string()).unwrap();
        it.load_str("(walk '(1 2 3 4 5))").unwrap();
        let v = it.load_str("*acc*").unwrap();
        assert_eq!(it.heap().display(v), "15");
    }

    #[test]
    fn non_recursive_function_unchanged_shape() {
        let r = convert("(defun g (x) (* x x))");
        assert_eq!(r.sites, 0);
        assert_eq!(r.form.to_string(), "(defun g (x) (* x x))");
    }

    #[test]
    fn argument_subforms_are_converted_in_value_position() {
        // (f (car l)) inside discarded position: args stay value-pos;
        // an inner self-call inside the args must be rejected.
        let err = cri_convert(&parse_one("(defun f (l) (when l (f (f l))))").unwrap()).unwrap_err();
        assert!(matches!(err, CriError::ValuePositionCall(_)));
    }

    #[test]
    fn a_chain_s_last_operand_sits_where_the_chain_sits() {
        let r = convert("(defun f (l) (and l (progn (print (car l)) (f (cdr l)))))");
        assert_eq!(
            r.form.to_string(),
            "(defun f (l) (and l (progn (print (car l)) (cri-enqueue 0 f (cdr l)))))"
        );
        assert_eq!(convert("(defun f (l) (or (null l) (f (cdr l))))").sites, 1);
        // Every earlier operand is tested: a value position.
        for src in ["(defun f (l) (and (f (cdr l)) l))", "(defun f (l) (or (f (cdr l)) l))"] {
            let err = cri_convert(&parse_one(src).unwrap()).unwrap_err();
            assert!(matches!(err, CriError::ValuePositionCall(_)), "{src}");
        }
    }

    #[test]
    fn a_site_is_a_self_call_no_future_wraps() {
        let site = |src: &str| has_site(&parse_one(src).unwrap());
        assert!(site("(defun f (l) (when l (f (cdr l))))"));
        assert!(!site("(defun f (l) (when l (touch (future (f (cdr l)))) (print l)))"));
        assert!(!site("(defun f (l) (when l (cri-enqueue 0 f (cdr l))))"));
        assert!(!site("(defun f (l) (print '(f l)))"));
        assert!(site("(defun f (l) (touch (future (f (f l)))))"));
    }
}
