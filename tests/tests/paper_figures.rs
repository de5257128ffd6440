//! One test per paper figure, as a completeness index (see DESIGN.md).

use std::sync::Arc;

use curare::analysis::path::parse_list_path;
use curare::analysis::PathRegex;
use curare::prelude::*;

/// Figure 2 (§2.1): "the statements conflict because the destination
/// of the path of the first statement, x.cdr.car, is used in the path
/// of the second statement, x.cdr.car.car."
#[test]
fn figure_2_path_conflict() {
    let dest = parse_list_path("cdr.car").unwrap();
    let second = parse_list_path("cdr.car.car").unwrap();
    assert!(dest.is_prefix_of(&second), "destination lies on the second path");
    // And through the regex machinery: the literal language of the
    // second access has the first's destination as a prefix.
    let lang = PathRegex::literal(&second);
    assert!(lang.has_prefix(&dest));
}

/// Figure 3 (§2.1): the simple recursive function, τ = cdr⁺.
#[test]
fn figure_3_transfer_function() {
    let heap = Heap::new();
    let mut lw = curare::lisp::Lowerer::new(&heap);
    let prog = lw
        .lower_program(&parse_all("(defun f (l) (when l (print (car l)) (f (cdr l))))").unwrap())
        .unwrap();
    let a = analyze_function(&prog.funcs[0], &DeclDb::new());
    assert_eq!(a.transfers.per_param[0].regex().to_string(), "cdr");
    assert_eq!(a.verdict, Verdict::ConflictFree);
}

/// Figure 4 (§2.1): conflict at distance 1.
#[test]
fn figure_4_distance_one() {
    let heap = Heap::new();
    let mut lw = curare::lisp::Lowerer::new(&heap);
    let prog = lw
        .lower_program(
            &parse_all("(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))").unwrap(),
        )
        .unwrap();
    let a = analyze_function(&prog.funcs[0], &DeclDb::new());
    assert_eq!(a.conflicts.min_distance, Some(1));
}

/// Figure 5 (§2.2): A2 ⊙ A3, A2 does not conflict with A1.
#[test]
fn figure_5_conflict_set() {
    let heap = Heap::new();
    let mut lw = curare::lisp::Lowerer::new(&heap);
    let prog = lw
        .lower_program(
            &parse_all(
                "(defun f (l)
                   (cond ((null l) nil)
                         ((null (cdr l)) (f (cdr l)))
                         (t (setf (cadr l) (+ (car l) (cadr l)))
                            (f (cdr l)))))",
            )
            .unwrap(),
        )
        .unwrap();
    let a = analyze_function(&prog.funcs[0], &DeclDb::new());
    let involves = |w: &str, o: &str| {
        a.conflicts
            .conflicts
            .iter()
            .any(|c| c.write_path.to_string() == w && c.other_path.to_string() == o)
    };
    assert!(involves("cdr.car", "car"), "{:?}", a.conflicts);
    assert!(!involves("cdr.car", "cdr"), "{:?}", a.conflicts);
}

/// Figures 6 & 7 (§3.1): sequential vs CRI timelines — the CRI total
/// is d·h + t against the sequential d·(h+t).
#[test]
fn figures_6_and_7_totals() {
    let (h, t, d) = (2u64, 6u64, 8u64);
    let cri = simulate(&SimConfig::new(d, d, h, t));
    assert_eq!(cri.total_time, d * h + t);
    assert_eq!(cri.sequential_time, d * (h + t));
    assert!(cri.speedup > 2.5);
}

/// Figure 8 (§3.2.3): `(setq a (+ a 1))` / `(setq a (+ a 2))` "do not
/// conflict" once addition is declared atomic+commutative+associative:
/// any execution order yields a+3.
#[test]
fn figure_8_reorderable_pair() {
    let out = Curare::new()
        .transform_source(
            "(curare-declare (reorderable +))
             (defun bump (l)
               (when l
                 (setq *a* (+ *a* 1))
                 (setq *a* (+ *a* 2))
                 (bump (cdr l))))",
        )
        .unwrap();
    let r = out.report("bump").unwrap();
    assert!(r.converted, "{}", r.feedback());
    assert!(out.source().contains("(atomic-incf *a* 1)"), "{}", out.source());
    assert!(out.source().contains("(atomic-incf *a* 2)"), "{}", out.source());

    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).unwrap();
    interp.load_str("(defparameter *a* 0)").unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 4);
    let l = interp.load_str("(list 1 2 3 4 5 6 7 8 9 10)").unwrap();
    rt.run("bump", &[l]).unwrap();
    assert_eq!(interp.load_str("*a*").unwrap(), Value::int(30));
}

/// Figure 9 (§4.1): servers draw invocations from a central queue; the
/// queue length for a single-call-site function never grows beyond its
/// initial size ("its length never increases").
#[test]
fn figure_9_queue_never_grows() {
    let out = Curare::new()
        .transform_source("(defun walk (l) (when l (print (car l)) (walk (cdr l))))")
        .unwrap();
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 4);
    let l = interp.load_str("(let ((l nil)) (dotimes (i 500) (setq l (cons i l))) l)").unwrap();
    rt.run("walk", &[l]).unwrap();
    // One root task entered; each task enqueues at most one successor.
    assert!(rt.stats().peak_queue <= 1, "peak {}", rt.stats().peak_queue);
}

/// Figure 10 (§4.1): the T(S) approximation — checked exactly against
/// the engine inside the valid regime.
#[test]
fn figure_10_total_time_expression() {
    use curare::sim::formula;
    for s in [1u64, 2, 4, 8] {
        // Exact equality whenever S divides d (and S ≤ c_f = 8).
        let engine = simulate(&SimConfig::new(64, s, 1, 7)).total_time;
        assert_eq!(engine, formula::total_time(64, s, 1, 7), "S = {s}");
    }
    // Off-divisor server counts: the greedy schedule can only beat the
    // grouped approximation.
    for s in [3u64, 5, 7] {
        let engine = simulate(&SimConfig::new(64, s, 1, 7)).total_time;
        assert!(engine <= formula::total_time(64, s, 1, 7), "S = {s}");
    }
}

/// Figure 11 (§5): the iterative equivalence — tail recursion becomes
/// a loop with identical values.
#[test]
fn figure_11_recursion_to_iteration() {
    let src = "(defun count-up (i n acc)
                 (if (> i n) acc (count-up (1+ i) n (+ acc i))))";
    let form = parse_one(src).unwrap();
    let iterative = curare::transform::recursion_to_iteration(&form).unwrap();
    let orig = Interp::new();
    orig.load_str(src).unwrap();
    let iter = Interp::new();
    iter.load_str(&iterative.to_string()).unwrap();
    for call in ["(count-up 1 10 0)", "(count-up 1 0 5)", "(count-up 1 100 0)"] {
        let a = orig.load_str(call).unwrap();
        let b = iter.load_str(call).unwrap();
        assert_eq!(orig.heap().display(a), iter.heap().display(b), "{call}");
    }
}

/// Figures 12 & 13 (§5): remq → remq-d, shape and semantics.
#[test]
fn figures_12_13_dps() {
    let src = "(defun remq (obj lst)
        (cond ((null lst) nil)
              ((eq obj (car lst)) (remq obj (cdr lst)))
              (t (cons (car lst) (remq obj (cdr lst))))))";
    let dps = curare::transform::dps_transform(&parse_one(src).unwrap()).unwrap();
    // Figure 13's three clauses appear.
    let text = dps.dps_form.to_string();
    assert!(text.contains("(setf (cdr %curare-dest) nil)"), "{text}");
    assert!(text.contains("(remq-d %curare-dest obj (cdr lst))"), "{text}");
    assert!(text.contains("(cons (car lst) nil)"), "{text}");

    let it = Interp::new();
    it.load_str(src).unwrap();
    let it2 = Interp::new();
    it2.load_str(&dps.dps_form.to_string()).unwrap();
    it2.load_str(&dps.wrapper.to_string()).unwrap();
    let a = it.load_str("(remq 'a '(a b a c))").unwrap();
    let b = it2.load_str("(remq 'a '(a b a c))").unwrap();
    assert_eq!(it.heap().display(a), it2.heap().display(b));
}
