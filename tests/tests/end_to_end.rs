//! End-to-end pipelines: source → analysis → transformation →
//! sequential and concurrent execution, compared for every program.

use std::sync::Arc;

use curare::prelude::*;

/// Run `f` on a thread with a large native stack (deep sequential
/// recursion in original programs needs it; test threads default to
/// 2 MiB).
fn with_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    const STACK: usize = 128 << 20;
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(STACK)
            .spawn_scoped(scope, || {
                curare::lisp::set_thread_stack_budget(STACK - (8 << 20));
                f()
            })
            .expect("spawn big-stack thread")
            .join()
            .expect("big-stack thread panicked")
    })
}

/// Transform `src`, load both versions, run `driver` (an expression
/// producing the final data) on each, and compare displays.
fn check_sequentializable(src: &str, setup: &str, fname: &str, build: &str, servers: usize) {
    // Sequential original.
    let expect = with_big_stack(|| {
        let seq = Interp::new();
        seq.load_str(src).expect("original loads");
        if !setup.is_empty() {
            seq.load_str(setup).expect("setup");
        }
        seq.set_recursion_limit(1_000_000);
        let seq_data = seq.load_str(build).expect("build");
        seq.call(fname, &[seq_data]).expect("sequential run");
        seq.heap().display(seq_data)
    });

    // Transformed, parallel.
    let out = Curare::new().transform_source(src).expect("transforms");
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).expect("transformed loads");
    if !setup.is_empty() {
        interp.load_str(setup).expect("setup");
    }
    let rt = CriRuntime::new(Arc::clone(&interp), servers);
    let data = interp.load_str(build).expect("build");
    rt.run(fname, &[data]).expect("parallel run");
    assert_eq!(
        interp.heap().display(data),
        expect,
        "sequentializability violated for {fname}\ntransformed:\n{}",
        out.source()
    );
}

#[test]
fn figure_5_full_pipeline() {
    check_sequentializable(
        "(defun f (l)
           (cond ((null l) nil)
                 ((null (cdr l)) (f (cdr l)))
                 (t (setf (cadr l) (+ (car l) (cadr l)))
                    (f (cdr l)))))",
        "",
        "f",
        "(let ((l nil)) (dotimes (i 200) (setq l (cons 1 l))) l)",
        4,
    );
}

/// Figure 5's running sum spelled with `and`: the chain's last operand
/// sits where the chain sits, so the call converts (it was refused as a
/// value-position call while `curare check` said `clean`).
#[test]
fn and_spelled_walker_full_pipeline() {
    let src = "(defun walk (l)
           (and (cdr l)
                (progn (setf (cadr l) (+ (car l) (cadr l)))
                       (walk (cdr l)))))";
    let report = Curare::new().transform_source(src).unwrap();
    assert!(report.report("walk").unwrap().converted, "{}", report.source());
    for servers in [1, 2, 4] {
        let build = "(let ((l nil)) (dotimes (i 200) (setq l (cons 1 l))) l)";
        check_sequentializable(src, "", "walk", build, servers);
    }
}

#[test]
fn unwind_ordered_writer_full_pipeline() {
    check_sequentializable(
        "(defun rot (l)
           (when l
             (rot (cdr l))
             (setf (cdr l) (car l))))",
        "",
        "rot",
        "(let ((l nil)) (dotimes (i 300) (setq l (cons i l))) l)",
        3,
    );
}

#[test]
fn order_sensitive_cons_accumulator_preserves_unwind_order() {
    // Regression for the delay-soundness fix: a non-commutative
    // accumulation after the call builds a list whose ORDER depends on
    // the unwind sequence. Hoisting it would reverse the list; the
    // pipeline must future-sync it instead, and the parallel result
    // must match the sequential one exactly.
    let src = "(defun collect (acc l)
           (when l
             (collect acc (cdr l))
             (setf (car acc) (cons (car l) (car acc)))))";
    let expect = with_big_stack(|| {
        let seq = Interp::new();
        seq.load_str(src).unwrap();
        seq.set_recursion_limit(100_000);
        let acc = seq.heap().cons(Value::NIL, Value::NIL);
        let l = seq.load_str("(list 1 2 3 4 5 6 7 8)").unwrap();
        seq.call("collect", &[acc, l]).unwrap();
        seq.heap().display(seq.heap().car(acc).unwrap())
    });
    assert_eq!(expect, "(1 2 3 4 5 6 7 8)", "sequential builds in unwind order");

    let out = Curare::new().transform_source(src).unwrap();
    let r = out.report("collect").unwrap();
    assert!(
        !r.devices.iter().any(|d| matches!(d, curare::transform::Device::Delay(_))),
        "order-sensitive write must not be delayed: {:?}",
        r.devices
    );
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 4);
    let acc = interp.heap().cons(Value::NIL, Value::NIL);
    let l = interp.load_str("(list 1 2 3 4 5 6 7 8)").unwrap();
    rt.run("collect", &[acc, l]).unwrap();
    assert_eq!(interp.heap().display(interp.heap().car(acc).unwrap()), expect);
}

#[test]
fn struct_walker_full_pipeline() {
    check_sequentializable(
        "(defstruct node next value)
         (defun scale (n)
           (when n
             (setf (node-value n) (* 2 (node-value n)))
             (scale (node-next n))))",
        "",
        "scale",
        "(let ((n nil)) (dotimes (i 100) (setq n (make-node n i))) n)",
        4,
    );
}

#[test]
fn remq_wrapper_matches_original_under_sequential_hooks() {
    // Figure 12 as the paper spells it, and with `unless` / `let`.
    let spellings = [
        "(defun remq (obj lst)
        (cond ((null lst) nil)
              ((eq obj (car lst)) (remq obj (cdr lst)))
              (t (cons (car lst) (remq obj (cdr lst))))))",
        "(defun remq (obj lst)
        (unless (null lst)
          (let ((h (car lst)))
            (if (eq h obj) (remq obj (cdr lst)) (cons h (remq obj (cdr lst)))))))",
    ];
    for src in spellings {
        let out = Curare::new().transform_source(src).unwrap();
        let devices = &out.report("remq").unwrap().devices;
        assert!(devices.contains(&Device::Dps), "{devices:?}: {src}");
        let orig = Interp::new();
        orig.load_str(src).unwrap();
        let xf = Interp::new();
        xf.load_str(&out.source()).unwrap();
        for driver in
            ["(remq 'a '(a b a c))", "(remq 'x '(a b c))", "(remq 'a nil)", "(remq 'a '(a a a))"]
        {
            let a = orig.load_str(driver).unwrap();
            let b = xf.load_str(driver).unwrap();
            assert_eq!(orig.heap().display(a), xf.heap().display(b), "{driver}: {src}");
        }
    }
}

#[test]
fn atomic_sum_is_exact_under_contention() {
    let out = Curare::new()
        .transform_source(
            "(curare-declare (reorderable +))
             (defun walk (l)
               (when l
                 (setq *sum* (+ *sum* (car l)))
                 (walk (cdr l))))",
        )
        .unwrap();
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).unwrap();
    interp.load_str("(defparameter *sum* 0)").unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 8);
    let n = 20_000i64;
    let mut l = Value::NIL;
    for _ in 0..n {
        l = interp.heap().cons(Value::int(1), l);
    }
    rt.run("walk", &[l]).unwrap();
    let v = interp.load_str("*sum*").unwrap();
    assert_eq!(v, Value::int(n));
}

#[test]
fn whole_program_with_mixed_functions() {
    // A program with every kind of function: recursive-convertible,
    // DPS-requiring, blocked, and plain helpers.
    let src = "
(curare-declare (reorderable +))
(defstruct node next value)
(defun helper (x) (* x x))
(defun count-all (l)
  (when l
    (setq *count* (+ *count* 1))
    (count-all (cdr l))))
(defun copy-pos (l)
  (if (null l)
      nil
      (if (> (car l) 0)
          (cons (car l) (copy-pos (cdr l)))
          (copy-pos (cdr l)))))
(defun fold (l) (if (null l) 0 (+ (car l) (fold (cdr l)))))";
    let out = Curare::new().transform_source(src).unwrap();
    assert!(out.report("count-all").unwrap().converted);
    assert!(out.report("copy-pos").unwrap().converted, "DPS applies");
    // With (reorderable +) declared, the arithmetic fold converts via
    // reduction restructuring (§5).
    assert!(out.report("fold").unwrap().converted, "fold converts via reduction restructuring");
    assert!(out.report("fold").unwrap().devices.contains(&curare::transform::Device::Fold));
    assert_eq!(out.report("helper").unwrap().verdict, Verdict::NotRecursive);

    // The transformed program still runs correctly end to end.
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).unwrap();
    interp.load_str("(defparameter *count* 0)").unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 4);
    let l = interp.load_str("(list 3 -1 4 -1 5 -9 2 6)").unwrap();
    rt.run("count-all", &[l]).unwrap();
    assert_eq!(interp.load_str("*count*").unwrap(), Value::int(8));

    // copy-pos through its DPS entry.
    let l2 = interp.load_str("(list 3 -1 4 -1 5 -9 2 6)").unwrap();
    let dest = interp.heap().cons(Value::NIL, Value::NIL);
    rt.run("copy-pos-d", &[dest, l2]).unwrap();
    assert_eq!(interp.heap().display(interp.heap().cdr(dest).unwrap()), "(3 4 5 2 6)");

    // fold still works sequentially through the untouched definition.
    drop(rt);
    let v = interp.load_str("(fold '(1 2 3))").unwrap();
    assert_eq!(v, Value::int(6));
}

#[test]
fn simulator_predictions_match_static_analysis() {
    // The model extracted from a real function drives the simulator;
    // predictions respect the analytical bounds.
    let heap = Heap::new();
    let mut lw = curare::lisp::Lowerer::new(&heap);
    let prog = lw
        .lower_program(
            &parse_all(
                "(defun f (l)
                   (when l
                     (f (cdr l))
                     (print (car l)) (print (car l)) (print (car l))))",
            )
            .unwrap(),
        )
        .unwrap();
    let analysis = analyze_function(&prog.funcs[0], &DeclDb::new());
    let model = FunctionModel::from_analysis(&analysis);
    assert!(model.tail > 0);
    let sim = simulate(&model.config(2000, 8));
    assert!(sim.speedup > 1.0);
    assert!(sim.achieved_concurrency <= model.concurrency() + 1e-9);
}

#[test]
fn rec2iter_and_cri_agree_with_original() {
    // The same function taken through both §5 routes: iteration (runs
    // sequentially, returns the value) and comparison against the
    // original's value.
    let src = "(defun gcd-walk (a b) (if (= b 0) a (gcd-walk b (mod a b))))";
    let form = parse_one(src).unwrap();
    let iter = curare::transform::recursion_to_iteration(&form).unwrap();
    let orig = Interp::new();
    orig.load_str(src).unwrap();
    let it = Interp::new();
    it.load_str(&iter.to_string()).unwrap();
    for call in ["(gcd-walk 48 36)", "(gcd-walk 7 13)", "(gcd-walk 100 0)"] {
        let a = orig.load_str(call).unwrap();
        let b = it.load_str(call).unwrap();
        assert_eq!(orig.heap().display(a), it.heap().display(b), "{call}");
    }
}

#[test]
fn errors_in_parallel_runs_surface_cleanly() {
    let out = Curare::new()
        .transform_source(
            "(defun walk (l)
               (when l
                 (when (eq (car l) 'bomb) (error \"found the bomb\"))
                 (walk (cdr l))))",
        )
        .unwrap();
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 4);
    let l = interp.load_str("(list 1 2 'bomb 4 5)").unwrap();
    let err = rt.run("walk", &[l]).unwrap_err();
    assert!(err.to_string().contains("found the bomb"), "{err}");
    // Pool still healthy.
    let l2 = interp.load_str("(list 1 2 3)").unwrap();
    rt.run("walk", &[l2]).unwrap();
}
