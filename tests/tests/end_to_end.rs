//! End-to-end pipelines: source → analysis → transformation →
//! sequential and concurrent execution, compared for every program.

use std::sync::Arc;

use curare::lisp::Engine;
use curare::prelude::*;
use curare_testkit::{agree, Config, Program};

/// Transform `src`, run `fname` on `servers` servers over the data
/// `build` (an expression) evaluates to, and hold the run to the
/// original's sequential one (`setup` loaded after either text).
fn check_sequentializable(src: &str, setup: &str, fname: &str, build: &str, servers: usize) {
    let build = build.to_string();
    let program = Program {
        args: Arc::new(move |interp| vec![interp.load_str(&build).expect("build")]),
        setup: setup.to_string(),
        ..Program::entered(fname, src, fname)
    };
    agree(&program, &[Config::pool(servers, SchedMode::Sharded)]);
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
    let program = Program {
        args: Arc::new(|interp| {
            let acc = interp.heap().cons(Value::NIL, Value::NIL);
            vec![acc, interp.load_str("(list 1 2 3 4 5 6 7 8)").unwrap()]
        }),
        ..Program::entered("collect", src, "collect")
    };
    let seq = Interp::new();
    seq.load_str(src).unwrap();
    let args = (program.args)(&seq);
    seq.call("collect", &args).unwrap();
    assert_eq!(seq.heap().display(args[0]), "((1 2 3 4 5 6 7 8))", "built in unwind order");

    let out = Curare::new().transform_source(src).unwrap();
    let r = out.report("collect").unwrap();
    assert!(
        !r.devices.iter().any(|d| matches!(d, curare::transform::Device::Delay(_))),
        "order-sensitive write must not be delayed: {:?}",
        r.devices
    );
    agree(&program, &[Config::pool(4, SchedMode::Sharded)]);
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

/// The restructured text of fixture `name` loaded without a pool on
/// `engine`: what it printed, and the value of its last form.
fn load_restructured_fixture(name: &str, engine: Engine) -> (Vec<String>, String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../examples/lisp/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let out = Curare::new().transform_source(&src).expect("transforms");
    assert!(out.reports.iter().all(|r| r.converted), "{name}: {:?}", out.reports);
    let interp = Interp::new();
    interp.set_engine(engine);
    let value = interp
        .load_str(&out.source())
        .unwrap_or_else(|e| panic!("{name} on {engine:?}: {e}\n{}", out.source()));
    (interp.take_output(), interp.heap().display(value))
}

#[test]
fn a_converted_tail_call_returns_its_value_without_a_pool() {
    // The spawn of `m` in tail position restarts its frame: the caller
    // prints the sequential 6, not the spawn's nil.
    for engine in [Engine::Vm, Engine::Tree] {
        let (printed, value) = load_restructured_fixture("value-tail.lisp", engine);
        assert_eq!((printed, value.as_str()), (vec!["6".to_string()], "6"), "{engine:?}");
    }
}

#[test]
fn a_converted_tail_recursion_loads_without_nesting() {
    // 20000 links on a test thread's native stack budget: a nested
    // call per spawn exhausts it, a restarted frame does not.
    for engine in [Engine::Vm, Engine::Tree] {
        let (printed, _) = load_restructured_fixture("load-nest.lisp", engine);
        assert_eq!(printed, ["20000"], "{engine:?}");
    }
}

/// The reader's depth limit is where every layer still completes: each
/// shape below, nested to `MAX_DEPTH`, reads, lowers, analyses,
/// transforms, prints, checks, compiles and runs on both engines on a
/// 2 MiB thread (a test thread's stack). One level more is a read error
/// with its line and column from every front door, not a stack
/// overflow.
#[test]
fn nesting_to_the_reader_limit_runs_and_one_level_more_is_a_read_error() {
    use curare::sexpr::{parse_all, ReadErrorKind, MAX_DEPTH};
    let depth = |text: &str| {
        let mut open = 0usize;
        text.chars().fold(0, |deepest, c| {
            match c {
                '(' => open += 1,
                ')' => open -= 1,
                _ => {}
            }
            deepest.max(open)
        })
    };
    // `(defun f (x)` then `levels` copies of `open … close` around `x`.
    let nest = |open: &str, close: &str, levels: usize| {
        format!("(defun f (x)\n  {}x{})", open.repeat(levels), close.repeat(levels))
    };
    let deepest = |open: &str, close: &str| {
        let levels = (0..).take_while(|&k| depth(&nest(open, close, k)) <= MAX_DEPTH).last();
        nest(open, close, levels.expect("a shallow nest fits"))
    };
    let shapes = [
        ("(progn ", ")", 1),
        ("(+ 1 ", ")", MAX_DEPTH as i64),
        ("(if x ", " 2)", 1),
        ("(let ((x ", ")) x)", 1),
        ("(funcall (lambda (y) ", ") x)", 1),
    ];
    let run = || {
        for (open, close, value) in shapes {
            let src = deepest(open, close);
            assert_eq!(depth(&src), MAX_DEPTH, "{src}");
            let out = Curare::new().transform_source(&src).expect("transforms");
            assert!(!out.source().is_empty());
            curare::check::check_source("deep.lisp", &src).expect("checks");
            let interp = Interp::new();
            interp.load_str(&src).expect("compiles");
            for engine in [Engine::Tree, Engine::Vm] {
                interp.set_engine(engine);
                let v = interp.eval_str("(f 1)").map(|v| interp.heap().display(v));
                assert_eq!(v, Ok(value.to_string()), "{open}… on {engine:?}");
            }
        }
        let src = nest("(progn ", ")", MAX_DEPTH);
        let e = parse_all(&src).unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::TooDeep);
        assert_eq!((e.span.line, e.span.col), (2, 3 + 7 * (MAX_DEPTH as u32 - 1)), "{e}");
        let read_error = format!("read error at {}", e.span);
        let transformed = Curare::new().transform_source(&src).map(|_| ()).unwrap_err();
        assert!(transformed.to_string().contains(&read_error), "{transformed}");
        let checked = curare::check::check_source("deep.lisp", &src).map(|_| ()).unwrap_err();
        assert!(checked.to_string().contains(&read_error), "{checked}");
        let loaded = Interp::new().load_str(&src).unwrap_err();
        assert!(loaded.to_string().contains(&read_error), "{loaded}");
    };
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, run)
            .unwrap()
            .join()
            .unwrap()
    });
}
