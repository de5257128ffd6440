//! The certifier audits what ran: the placement `curare check --locks`
//! certifies, and the one a sanitized run's unordered pairs are held
//! to, is the value the pipeline's lock brackets were written from —
//! not a placement derived a second time from some analysis of the
//! function.

use curare_check::{check_locks_source, predicted_pairs};
use curare_obs::Json;
use curare_transform::{placement_specs, Curare, CurareOutput, Device, LockSpec};

/// The benchmark's program families (read, never edited).
#[path = "../../../benchmark/src/programs.rs"]
#[allow(dead_code)]
mod benchmark_programs;
use benchmark_programs::Family;

/// The sanitizer's lock-rescue program (`LOCKED_RMWS`).
const LOCKED_RMWS: &str = "(curare-declare (reorderable *))
                           (defun f (l)
                             (when (cdr l)
                               (f (cdr l))
                               (setf (car l) (* (car l) 2))
                               (setf (cadr l) (* (cadr l) 3))))";

/// The same tail behind a statement delay moves into the head (it
/// writes a cell no other invocation touches): the brackets are placed
/// on the form delay left, from the analysis of that form.
const DELAYED_THEN_LOCKED: &str = "(curare-declare (reorderable *))
                                   (defun f (l m)
                                     (when (cdr l)
                                       (f (cdr l) (cdr m))
                                       (setf (car m) 0)
                                       (setf (car l) (* (car l) 2))
                                       (setf (cadr l) (* (cadr l) 3))))";

/// Restructure `src`; `fname`'s applied lock specs, and its
/// `curare-locks/1` certificate.
fn applied_and_certified(src: &str, fname: &str) -> (CurareOutput, Vec<LockSpec>, Json) {
    let out = Curare::new().transform_source(src).unwrap();
    let report = out.report(fname).unwrap();
    let specs = report.devices.iter().find_map(|d| match d {
        Device::Locks(specs) => Some(specs.clone()),
        _ => None,
    });
    let specs = specs.unwrap_or_else(|| panic!("{fname} is not locked: {:?}", report.devices));
    let cert = check_locks_source("t.lisp", src).unwrap();
    assert_eq!(cert.diags.exit_code(), 0, "{}", cert.diags.render());
    let doc = cert
        .placements
        .into_iter()
        .find(|doc| doc.get("function").and_then(Json::as_str) == Some(fname));
    (out, specs, doc.expect("a certificate for the locked function"))
}

/// `(root, path, exclusive)` of each lock of a certificate.
fn certified_locks(doc: &Json) -> Vec<(usize, String, bool)> {
    let locks = doc.get("locks").and_then(Json::as_arr).expect("locks");
    let lock = |l: &Json| {
        (
            l.get("root").and_then(Json::as_u64).expect("root") as usize,
            l.get("path").and_then(Json::as_str).expect("path").to_string(),
            l.get("mode").and_then(Json::as_str) == Some("exclusive"),
        )
    };
    locks.iter().map(lock).collect()
}

#[test]
fn the_certified_lock_set_is_the_applied_one() {
    let window = benchmark_programs::file(&[(Family::Window { k: 4, reads: 4 }, "fw".into())]);
    for (src, fname) in [(window.as_str(), "fw"), (LOCKED_RMWS, "f"), (DELAYED_THEN_LOCKED, "f")] {
        let (out, specs, doc) = applied_and_certified(src, fname);
        let applied: Vec<_> =
            specs.iter().map(|s| (s.root, s.path.to_string(), s.exclusive)).collect();
        let mut certified = certified_locks(&doc);
        certified.sort();
        assert_eq!(certified, applied, "{fname}: {doc}");
        // Both are the record's one placement.
        let in_force = out.report(fname).unwrap().placement.as_ref().expect("in force");
        assert_eq!(placement_specs(in_force), specs);
        assert_eq!(doc.to_string(), in_force.to_json().to_string());
        // And so is what a sanitized run's unordered pairs are held to.
        assert!(!predicted_pairs(&out).covered.is_empty(), "{fname}");
    }
}

#[test]
fn after_delay_the_certificate_is_of_the_placement_derived_after_it() {
    let (out, _, doc) = applied_and_certified(DELAYED_THEN_LOCKED, "f");
    let report = out.report("f").unwrap();
    assert!(
        matches!(report.devices[..], [Device::Delay(1), Device::Locks(_), Device::Cri(1)]),
        "{:?}",
        report.devices
    );
    // Two analyses: of the function as written (the report's), and of
    // the form delay left, which the placement was synthesised from.
    assert_eq!(out.stats.functions_analysed, 2);
    assert_eq!(doc.to_string(), report.placement.as_ref().unwrap().to_json().to_string());
    // Nothing counts as lock-covered that is not in force: Figure 5's
    // conflict is head-ordered, no bracket was written, and a
    // hypothetical placement for it excuses no unordered pair.
    let figure5 = "(defun f (l)
                     (cond ((null l) nil)
                           ((null (cdr l)) (f (cdr l)))
                           (t (setf (cadr l) (+ (car l) (cadr l)))
                              (f (cdr l)))))";
    let head_ordered = Curare::new().transform_source(figure5).unwrap();
    assert!(head_ordered.report("f").unwrap().placement.is_none());
    let predicted = predicted_pairs(&head_ordered);
    assert!(predicted.keys.contains(&(0, 0)) && predicted.covered.is_empty(), "{predicted:?}");
}
