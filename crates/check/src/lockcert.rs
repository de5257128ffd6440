//! The lock-placement certifier behind `curare check --locks`
//! (C007/C008).
//!
//! For every recursive function the pipeline found conflicts in, the
//! certifier takes the placement it runs under and re-checks it
//! against the conflicts it names with
//! `curare_analysis::locksynth::certify`:
//!
//! - **C007 (error)**: a conflicting pair that no ordering device
//!   covers (unordered under CRI head ordering) has no coinciding lock
//!   pair establishing mutual exclusion. Running under this placement
//!   races.
//! - **C008 (warning)**: a lock covers no live unordered conflict —
//!   the naive all-pairs placement would still emit it, but it only
//!   costs acquisitions.
//!
//! Where the pipeline locked a function (`Device::Locks`) the placement
//! certified is the one in its report — the very value the brackets
//! were written from, derived after the delay device where delay moved
//! statements — not a second derivation: a certificate for a placement
//! that is not in force certifies nothing. A declared `(locks f ...)`
//! placement the pipeline did not apply (head ordering got there first)
//! is audited all the same, from the analysis in the report. The
//! hypothetical placement of a function the pipeline resolves with head
//! ordering or future synchronization is reported as a
//! machine-checkable `curare-locks/1` document but raises nothing.

use curare_analysis::locksynth::{certify, declared_placement, synthesize, OrderingContext};
use curare_obs::Json;

use crate::collect::{check_program, CheckError};
use crate::diag::{Code, Diagnostic, DiagnosticSet};

/// The `--locks` result: the ordinary diagnostics plus the certifier's
/// findings, and one `curare-locks/1` document per conflicting
/// function.
#[derive(Debug, Clone)]
pub struct LockCertReport {
    /// Base diagnostics merged with C007/C008 findings.
    pub diags: DiagnosticSet,
    /// One placement document per conflicting recursive function.
    pub placements: Vec<Json>,
}

/// Run `check_source` plus the lock-placement certifier, on the record
/// of the one pipeline run behind both.
pub fn check_locks_source(file: &str, src: &str) -> Result<LockCertReport, CheckError> {
    let (mut diags, out) = check_program(file, src)?;

    let mut placements = Vec::new();
    for (func, report) in out.program.funcs.iter().zip(&out.reports) {
        let analysis = &report.analysis;
        if analysis.conflicts.conflicts.is_empty() {
            continue;
        }
        let declared = out.analyzer.decls().lock_placement(&analysis.name);
        let hypothetical;
        let placement = match &report.placement {
            Some(applied) => applied,
            None => {
                let params: Vec<&str> = func.params.iter().map(String::as_str).collect();
                hypothetical = match declared {
                    Some(d) => declared_placement(analysis, &params, d, OrderingContext::cri()),
                    None => synthesize(analysis, &params, OrderingContext::cri()),
                };
                &hypothetical
            }
        };
        // Which functions does the pipeline actually lock? (Declared
        // placements are audited regardless.)
        if report.placement.is_some() || declared.is_some() {
            let span = format!("function {}", analysis.name);
            // Delay moves statements, never a call's arguments: τ is
            // the same before and after it.
            for issue in certify(placement, analysis) {
                let code = if issue.unsound { Code::C007 } else { Code::C008 };
                diags.push(Diagnostic::new(code, span.clone(), issue.message).with_related(
                    format!(
                        "placement source: {}",
                        if placement.declared { "declared (locks ...)" } else { "synthesized" }
                    ),
                ));
            }
        }
        placements.push(placement.to_json());
    }
    Ok(LockCertReport { diags, placements })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    #[test]
    fn clean_program_raises_no_lock_diags() {
        let src = "(defun f (l) (when l (print (car l)) (f (cdr l))))";
        let r = check_locks_source("t.lisp", src).unwrap();
        assert!(!r.diags.diags.iter().any(|d| matches!(d.code, Code::C007 | Code::C008)));
        assert!(r.placements.is_empty(), "no conflicts, no placements");
    }

    #[test]
    fn head_ordered_conflicts_get_a_placement_doc_but_no_diag() {
        // Figure 5: conflicts exist but head ordering covers them; the
        // synthesized placement (empty) is reported, nothing fires.
        let src = "(defun f (l)
                     (cond ((null l) nil)
                           ((null (cdr l)) (f (cdr l)))
                           (t (setf (cadr l) (+ (car l) (cadr l)))
                              (f (cdr l)))))";
        let r = check_locks_source("t.lisp", src).unwrap();
        assert_eq!(r.placements.len(), 1);
        assert!(!r.diags.diags.iter().any(|d| matches!(d.code, Code::C007 | Code::C008)));
        let doc = &r.placements[0];
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("curare-locks/1"));
        assert_eq!(doc.get("certified_clean").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn undercovering_declared_placement_is_a_c007_error() {
        // The declared placement takes only a *shared* lock on the
        // write destination: readers never exclude readers, so the
        // conflicting pair stays uncovered.
        let src = "(curare-declare (locks f (shared l cdr.car)))
                   (defun f (l)
                     (when (cdr l)
                       (f (cdr l))
                       (setf (cadr l) (* (cadr l) 2))
                       (car l)))";
        let r = check_locks_source("t.lisp", src).unwrap();
        let c007: Vec<_> = r.diags.diags.iter().filter(|d| d.code == Code::C007).collect();
        assert!(!c007.is_empty(), "{:?}", r.diags.diags);
        assert_eq!(c007[0].severity, Severity::Error);
        assert_eq!(r.diags.exit_code(), 2);
    }

    #[test]
    fn redundant_declared_lock_is_a_c008_warning() {
        // Figure 5 resolves by head ordering; a declared all-pairs
        // placement is pure overhead — every lock covers no live
        // (unordered) conflict.
        let src = "(curare-declare (locks f (exclusive l car) (exclusive l cdr.car)))
                   (defun f (l)
                     (cond ((null l) nil)
                           ((null (cdr l)) (f (cdr l)))
                           (t (setf (cadr l) (+ (car l) (cadr l)))
                              (f (cdr l)))))";
        let r = check_locks_source("t.lisp", src).unwrap();
        let c008: Vec<_> = r.diags.diags.iter().filter(|d| d.code == Code::C008).collect();
        assert_eq!(c008.len(), 2, "{:?}", r.diags.diags);
        assert!(r.diags.diags.iter().all(|d| d.code != Code::C007));
        assert_eq!(r.diags.exit_code(), 1);
    }

    #[test]
    fn pipeline_applied_synthesized_placement_certifies_clean() {
        let src = "(curare-declare (reorderable *))
                   (defun f (l)
                     (when (cdr l)
                       (f (cdr l))
                       (setf (car l) (* (car l) 2))
                       (setf (cadr l) (* (cadr l) 3))))";
        let r = check_locks_source("t.lisp", src).unwrap();
        assert!(
            !r.diags.diags.iter().any(|d| matches!(d.code, Code::C007 | Code::C008)),
            "{:?}",
            r.diags.diags
        );
        assert_eq!(r.placements.len(), 1);
        let doc = &r.placements[0];
        assert_eq!(doc.get("certified_clean").and_then(Json::as_bool), Some(true));
        let locks = doc.get("locks").and_then(Json::as_arr).unwrap();
        assert_eq!(locks.len(), 2, "{doc}");
    }
}
