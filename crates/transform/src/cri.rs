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
}

/// Convert a defun's self-recursive calls to enqueues.
pub fn cri_convert(form: &Sexpr) -> Result<CriResult, CriError> {
    convert_as(form, "cri-enqueue")
}

/// [`cri_convert`] with every site a `cri-handoff`.
pub fn cri_convert_handoff(form: &Sexpr) -> Result<CriResult, CriError> {
    convert_as(form, "cri-handoff")
}

fn convert_as(form: &Sexpr, spawn: &'static str) -> Result<CriResult, CriError> {
    let parts = sx::parse_defun(form).ok_or(CriError::NotADefun)?;
    let mut ctx = Ctx { fname: parts.name, spawn, next_site: 0 };
    let n = parts.body.len();
    let mut new_body = Vec::with_capacity(n);
    for (i, b) in parts.body.iter().enumerate() {
        let tail = i + 1 == n;
        new_body.push(conv(b, tail, !tail, &mut ctx)?);
    }
    let name = parts.name.to_string();
    let params = parts.params.clone();
    Ok(CriResult {
        form: sx::make_defun(&name, &params, &parts.declares, new_body),
        sites: ctx.next_site,
    })
}

/// Rewrite `form`. `tail`: the form's value is the function's return
/// value; `discarded`: the value is ignored. A self-call is
/// convertible in either situation (CRI executes for effect; the
/// return value of a converted function is no longer meaningful).
fn conv(form: &Sexpr, tail: bool, discarded: bool, ctx: &mut Ctx) -> Result<Sexpr, CriError> {
    let Some(items) = form.as_list() else { return Ok(form.clone()) };
    let Some(head) = items.first().and_then(Sexpr::as_symbol) else {
        return Ok(form.clone());
    };
    let args = &items[1..];

    if head == ctx.fname {
        if !(tail || discarded) {
            return Err(CriError::ValuePositionCall(form.to_string()));
        }
        let site = ctx.next_site;
        ctx.next_site += 1;
        let mut out = vec![sx::sym(ctx.spawn), Sexpr::Int(site as i64), sx::sym(ctx.fname)];
        for a in args {
            out.push(conv(a, false, false, ctx)?);
        }
        return Ok(Sexpr::List(out));
    }

    fn rebuilt(head: &str, parts: Vec<Sexpr>) -> Sexpr {
        let mut v = vec![sx::sym(head)];
        v.extend(parts);
        Sexpr::List(v)
    }

    match head {
        "quote" => Ok(form.clone()),
        "future" => {
            // A future is already non-strict: the wrapped call needs no
            // conversion (the future-sync transform produced it); its
            // arguments are ordinary value positions.
            let Some(call) = args.first().and_then(Sexpr::as_list) else {
                return Ok(form.clone());
            };
            let Some((callee, cargs)) = call.split_first() else {
                return Ok(form.clone());
            };
            let mut inner = vec![callee.clone()];
            for a in cargs {
                inner.push(conv(a, false, false, ctx)?);
            }
            Ok(rebuilt("future", vec![Sexpr::List(inner)]))
        }
        "progn" => {
            let mut out = Vec::with_capacity(args.len());
            let n = args.len();
            for (i, a) in args.iter().enumerate() {
                let last = i + 1 == n;
                out.push(conv(a, tail && last, if last { discarded } else { true }, ctx)?);
            }
            Ok(rebuilt("progn", out))
        }
        "when" | "unless" => {
            let Some((test, body)) = args.split_first() else { return Ok(form.clone()) };
            let mut out = vec![conv(test, false, false, ctx)?];
            let n = body.len();
            for (i, a) in body.iter().enumerate() {
                let last = i + 1 == n;
                out.push(conv(a, tail && last, if last { discarded } else { true }, ctx)?);
            }
            Ok(rebuilt(head, out))
        }
        "if" => {
            let mut out = Vec::with_capacity(args.len());
            for (i, a) in args.iter().enumerate() {
                if i == 0 {
                    out.push(conv(a, false, false, ctx)?);
                } else {
                    out.push(conv(a, tail, discarded, ctx)?);
                }
            }
            Ok(rebuilt("if", out))
        }
        "cond" => {
            let mut out = Vec::with_capacity(args.len());
            for clause in args {
                let Some(cl) = clause.as_list() else { return Ok(form.clone()) };
                let Some((test, body)) = cl.split_first() else { return Ok(form.clone()) };
                let mut new_cl = vec![if test.is_symbol("t") {
                    test.clone()
                } else {
                    conv(test, false, false, ctx)?
                }];
                let n = body.len();
                for (i, a) in body.iter().enumerate() {
                    let last = i + 1 == n;
                    new_cl.push(conv(a, tail && last, if last { discarded } else { true }, ctx)?);
                }
                out.push(Sexpr::List(new_cl));
            }
            Ok(rebuilt("cond", out))
        }
        "let" | "let*" => {
            let Some((bindings, body)) = args.split_first() else { return Ok(form.clone()) };
            let new_bindings = match bindings.as_list() {
                Some(bs) => {
                    let mut v = Vec::with_capacity(bs.len());
                    for b in bs {
                        match b.as_list() {
                            Some([name, init]) => v.push(Sexpr::List(vec![
                                name.clone(),
                                conv(init, false, false, ctx)?,
                            ])),
                            _ => v.push(b.clone()),
                        }
                    }
                    Sexpr::List(v)
                }
                None => bindings.clone(),
            };
            let mut out = vec![new_bindings];
            let n = body.len();
            for (i, a) in body.iter().enumerate() {
                let last = i + 1 == n;
                out.push(conv(a, tail && last, if last { discarded } else { true }, ctx)?);
            }
            Ok(rebuilt(head, out))
        }
        "while" => {
            let Some((test, body)) = args.split_first() else { return Ok(form.clone()) };
            let mut out = vec![conv(test, false, false, ctx)?];
            for a in body {
                out.push(conv(a, false, true, ctx)?);
            }
            Ok(rebuilt("while", out))
        }
        _ => {
            // Ordinary call/special form: every argument is in value
            // position.
            let mut out = Vec::with_capacity(args.len());
            for a in args {
                out.push(conv(a, false, false, ctx)?);
            }
            Ok(rebuilt(head, out))
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
}
