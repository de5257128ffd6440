//! The `curare check` diagnostics pass: surface the conservative
//! assumptions of the static analyses the pipeline uses as
//! [`Diagnostic`]s instead of silently degraded concurrency.
//!
//! The collector runs the real pipeline once and reads its record
//! ([`CurareOutput`]): the program as the pipeline lowered it, the
//! declarations and canonicalizer it resolved, the analysis behind
//! each function's verdict and the devices it chose. It lowers and
//! analyses nothing itself. One step is its own, because the pipeline
//! never runs a program: loading the source sequentially and walking
//! its `defparameter` roots for single-access-path-property violations
//! (C002), the aliasing the conflict analysis *assumes* away (§2.1).

use std::collections::BTreeSet;

use curare_analysis::canon::resolve_letters;
use curare_analysis::{Canonicalizer, Transfer};
use curare_lisp::ast::Expr;
use curare_lisp::{Interp, Val};
use curare_sexpr::{parse_all, Sexpr};
use curare_transform::{Curare, CurareOutput, Note};

use crate::diag::{Code, Diagnostic, DiagnosticSet};

/// A failure that prevented checking at all (unparsable source,
/// malformed declarations). Distinct from diagnostics: there is no
/// program to diagnose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError(pub String);

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CheckError {}

/// Check one source file; `file` labels the findings.
pub fn check_source(file: &str, src: &str) -> Result<DiagnosticSet, CheckError> {
    Ok(check_program(file, src)?.0)
}

/// The findings for one file, and the restructuring they were read
/// from (the lock certifier reads on).
pub(crate) fn check_program(
    file: &str,
    src: &str,
) -> Result<(DiagnosticSet, CurareOutput), CheckError> {
    let forms = parse_all(src).map_err(|e| CheckError(format!("parse error: {e}")))?;
    let out = Curare::new().transform_forms(&forms).map_err(|e| CheckError(e.to_string()))?;

    let mut diags = DiagnosticSet::new(file);
    collect_decl_diags(&mut diags, &out, &forms);
    collect_function_diags(&mut diags, &out);
    collect_unsynced_tails(&mut diags, &out);
    collect_sapp_diags(&mut diags, src, &out);
    Ok((diags, out))
}

/// C003 + C004: declarations that silently do nothing.
fn collect_decl_diags(set: &mut DiagnosticSet, out: &CurareOutput, forms: &[Sexpr]) {
    let decls = out.analyzer.decls();
    for (a, b) in decls.inverse_pairs() {
        let span = format!("(inverse {a} {b})");
        for name in [a, b] {
            if resolve_letters(&out.program.structs, name).is_empty() {
                set.push(
                    Diagnostic::new(
                        Code::C003,
                        span.clone(),
                        format!(
                            "`{name}` names no known accessor (not car/cdr or a defined \
                             struct field); canonicalization silently ignores this pair, \
                             so the aliases it was meant to cover stay invisible"
                        ),
                    )
                    .with_related("define the struct type before the declaration, or fix the name"),
                );
            }
        }
    }
    for op in decls.reorderable_ops() {
        if !forms.iter().any(|f| uses_symbol(f, op)) {
            set.push(Diagnostic::new(
                Code::C004,
                format!("(reorderable {op})"),
                format!(
                    "`{op}` is declared reorderable but the program never uses it; \
                     the declaration is stale or misspelled"
                ),
            ));
        }
    }
}

/// Does `form` mention symbol `op` anywhere outside declaration forms?
fn uses_symbol(form: &Sexpr, op: &str) -> bool {
    match form.as_list() {
        None => form.as_symbol() == Some(op),
        Some(items) => {
            let head = items.first().and_then(Sexpr::as_symbol);
            if matches!(head, Some("declare" | "curare-declare")) {
                return false;
            }
            items.iter().any(|s| uses_symbol(s, op))
        }
    }
}

/// C001 + C006: per-function analysis warnings, each function beside
/// its report.
fn collect_function_diags(set: &mut DiagnosticSet, out: &CurareOutput) {
    let defined: BTreeSet<&str> = out.program.funcs.iter().map(|f| f.name.as_str()).collect();

    for (func, report) in out.program.funcs.iter().zip(&out.reports) {
        let span = format!("function {}", func.name);

        if report.analysis.head_tail.recursive_calls > 0 {
            for (i, t) in report.analysis.transfers.per_param.iter().enumerate() {
                if matches!(t, Transfer::Unknown) {
                    let param = func.params.get(i).map(String::as_str).unwrap_or("?");
                    set.push(
                        Diagnostic::new(
                            Code::C001,
                            span.clone(),
                            format!(
                                "parameter `{param}` has an unpredictable transfer \
                                 function τ[{i}] = {}; the conflict test must assume a \
                                 conflict at every distance",
                                t.regex()
                            ),
                        )
                        .with_related(
                            "pass the parameter through accessors (cdr, struct fields) \
                             only, or declare the structure (§6)",
                        ),
                    );
                }
            }
        }

        let mut free: BTreeSet<&str> = BTreeSet::new();
        for body in &func.body {
            body.walk(&mut |e| {
                if let Expr::Call { name_text, .. }
                | Expr::Future { name_text, .. }
                | Expr::Enqueue { name_text, .. } = e
                {
                    if !defined.contains(name_text.as_str()) {
                        free.insert(name_text);
                    }
                }
            });
        }
        for callee in free {
            set.push(
                Diagnostic::new(
                    Code::C006,
                    span.clone(),
                    format!(
                        "call to `{callee}`, which this program does not define; the \
                         analysis conservatively assumes it may read or write anything \
                         reachable from its arguments"
                    ),
                )
                .with_related("define the function in the same program to analyze through it"),
            );
        }
    }
}

/// C005: functions whose order-sensitive post-call writes survived
/// delay but were refused by future synchronization, leaving them
/// sequential.
fn collect_unsynced_tails(set: &mut DiagnosticSet, out: &CurareOutput) {
    for report in &out.reports {
        if report.note == Some(Note::UnsyncedTail) {
            set.push(
                Diagnostic::new(
                    Code::C005,
                    format!("function {}", report.name),
                    "an order-sensitive write after the recursive call could neither be \
                     delayed into the head nor synchronized with a future; the function \
                     runs sequentially"
                        .to_string(),
                )
                .with_related(report.feedback().trim().to_string()),
            );
        }
    }
}

/// C002: load the program sequentially and walk every global root for
/// single-access-path-property violations, canonicalising as the
/// pipeline did. (Its accessor letters fit the loaded heap: both
/// lowered this text from an empty struct registry, so both numbered
/// its struct types alike.)
fn collect_sapp_diags(set: &mut DiagnosticSet, src: &str, out: &CurareOutput) {
    let interp = Interp::new();
    // A program whose top level cannot evaluate (e.g. it expects to be
    // driven externally) simply has no global roots to check.
    if interp.load_str(src).is_err() {
        return;
    }
    let identity = Canonicalizer::identity();
    let canon = out.analyzer.canonicalizer().unwrap_or(&identity);
    for (sym, val) in interp.globals_snapshot() {
        if !matches!(val.decode(), Val::Cons(_) | Val::Struct(_)) {
            continue;
        }
        let name = interp.heap().sym_name(sym);
        let report = curare_analysis::check_sapp(interp.heap(), val, canon);
        for v in &report.violations {
            let what = if v.cycle { "a cycle" } else { "two canonical paths" };
            set.push(
                Diagnostic::new(
                    Code::C002,
                    format!("global {name}"),
                    format!(
                        "the structure reachable from `{name}` violates the single \
                         access path property: node {} is reachable via {what} \
                         ({} and {}); the conflict analysis assumes tree-shaped data \
                         and is unsound here",
                        v.node, v.first, v.second
                    ),
                )
                .with_related(format!("visited {} node(s) from this root", report.visited)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(set: &DiagnosticSet) -> Vec<&'static str> {
        set.diags.iter().map(|d| d.code.name()).collect()
    }

    #[test]
    fn figure5_is_clean() {
        let src = "(defun f (l)
                     (cond ((null l) nil)
                           ((null (cdr l)) (f (cdr l)))
                           (t (setf (cadr l) (+ (car l) (cadr l)))
                              (f (cdr l)))))
                   (defparameter *data* (list 1 1 1 1 1 1))";
        let set = check_source("figure5", src).unwrap();
        assert!(set.is_clean(), "{}", set.render());
        assert_eq!(set.exit_code(), 0);
    }

    #[test]
    fn unknown_tau_yields_c001() {
        // The recursive argument mixes the parameter through `+`, so
        // τ is unpredictable.
        let src = "(defun f (n l) (if (null l) n (f (+ n 1) (cdr l))))";
        let set = check_source("t", src).unwrap();
        assert!(codes(&set).contains(&"C001"), "{}", set.render());
        assert_eq!(set.exit_code(), 1);
    }

    #[test]
    fn shared_global_yields_c002_error() {
        let src = "(defparameter *shared* (let ((x (list 1 2))) (cons x x)))";
        let set = check_source("t", src).unwrap();
        assert_eq!(codes(&set), vec!["C002"], "{}", set.render());
        assert_eq!(set.exit_code(), 2);
        assert!(set.diags[0].message.contains("*shared*"), "{}", set.render());
    }

    #[test]
    fn unresolvable_inverse_yields_c003() {
        let src = "(curare-declare (inverse fwd bwd))
                   (defun f (l) (if (null l) nil (f (cdr l))))";
        let set = check_source("t", src).unwrap();
        // Both sides of the pair fail to resolve.
        assert_eq!(codes(&set), vec!["C003", "C003"], "{}", set.render());
    }

    #[test]
    fn resolved_inverse_is_not_flagged() {
        let src = "(defstruct dl succ pred value)
                   (curare-declare (inverse dl-succ dl-pred))
                   (defun f (n) (if (null n) nil (f (dl-succ n))))";
        let set = check_source("t", src).unwrap();
        assert!(set.is_clean(), "{}", set.render());
    }

    #[test]
    fn stale_reorderable_yields_c004() {
        let src = "(curare-declare (reorderable frob))
                   (defun f (l) (if (null l) nil (f (cdr l))))";
        let set = check_source("t", src).unwrap();
        assert_eq!(codes(&set), vec!["C004"], "{}", set.render());
    }

    #[test]
    fn used_reorderable_is_not_flagged() {
        let src = "(curare-declare (reorderable +))
                   (defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))";
        let set = check_source("t", src).unwrap();
        assert!(set.is_clean(), "{}", set.render());
    }

    #[test]
    fn unsynced_tail_yields_c005() {
        // The self-call hides inside a `dolist`, which the restructurer
        // reads as an ordinary call (its operands are value positions:
        // the future-sync rewriter wraps no call there), while the
        // order-sensitive post-call write blocks delay: the pipeline
        // gives up and leaves the function sequential.
        let src = "(defun f (l)
                     (when (consp l)
                       (dolist (x (list 1)) (f (cdr l)))
                       (setf (cadr l) (+ (car l) (cadr l)))))";
        let set = check_source("t", src).unwrap();
        assert!(codes(&set).contains(&"C005"), "{}", set.render());
        assert_eq!(set.exit_code(), 1);
    }

    #[test]
    fn undefined_callee_yields_c006() {
        let src = "(defun f (l) (if (null l) nil (progn (frobnicate (car l)) (f (cdr l)))))";
        let set = check_source("t", src).unwrap();
        assert!(codes(&set).contains(&"C006"), "{}", set.render());
        assert!(set.diags.iter().any(|d| d.message.contains("frobnicate")), "{}", set.render());
    }

    #[test]
    fn parse_error_is_a_check_error_not_a_diagnostic() {
        assert!(check_source("t", "(defun f (l)").is_err());
    }
}
