//! Synchronization devices in action: §3.2.1 locks, §3.2.3 atomic
//! reordering, and §3.1 future synchronization, on three variants of
//! the same tail-writing walker.
//!
//! ```text
//! cargo run --release -p curare --example lock_pipeline
//! ```

use curare::analysis::locksynth::{synthesize, OrderingContext};
use curare::prelude::*;
use curare::transform::{analyze_defun, insert_placement, Probes};
use std::sync::Arc;

/// A post-call write whose location overlaps the recursion argument:
/// sequentially it executes in unwind order, so the pipeline picks
/// future synchronization.
const ROTATE: &str = "(defun rotate (l)
  (when l
    (rotate (cdr l))
    (setf (cdr l) (car l))))";

/// A post-call *commutative* accumulation: with the declaration, the
/// order constraint dissolves and the update becomes a CAS.
const ACCUM: &str = "
(curare-declare (reorderable +))
(defun accum (acc l)
  (when l
    (accum acc (cdr l))
    (setf (car acc) (+ (car acc) (car l)))))";

fn main() {
    // ---------- variant 1: future synchronization -------------------
    println!("=== rotate: unwind-ordered tail write ===");
    let out = Curare::new().transform_source(ROTATE).expect("transforms");
    let report = out.report("rotate").expect("processed");
    println!("devices: {:?}", report.devices);
    assert!(report.devices.iter().any(|d| matches!(d, Device::FutureSync(_))));
    println!("{}", out.source());

    curare::lisp::set_thread_stack_budget(6 << 20);
    let n = 2_000;
    let build = format!("(let ((l nil)) (dotimes (i {n}) (setq l (cons i l))) l)");
    let seq = Interp::new();
    seq.load_str(ROTATE).expect("loads");
    seq.set_recursion_limit(1_000_000);
    let seq_list = seq.load_str(&build).expect("builds");
    seq.call("rotate", &[seq_list]).expect("sequential rotate");
    let expect = seq.heap().display(seq_list);

    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).expect("loads");
    let rt = CriRuntime::new(Arc::clone(&interp), 4);
    let par_list = interp.load_str(&build).expect("builds");
    let t0 = std::time::Instant::now();
    rt.run("rotate", &[par_list]).expect("parallel rotate");
    println!("parallel rotate of {n} cells: {:?}", t0.elapsed());
    assert_eq!(interp.heap().display(par_list), expect, "sequentializability violated!");
    println!("parallel result identical to sequential execution\n");

    // ---------- variant 2: atomic reordering -------------------------
    println!("=== accum: commutative tail accumulation ===");
    let out2 = Curare::new().transform_source(ACCUM).expect("transforms");
    let rep2 = out2.report("accum").expect("processed");
    println!("devices: {:?}", rep2.devices);
    assert!(rep2.devices.iter().any(|d| matches!(d, Device::Reorder(_))));
    assert!(out2.source().contains("atomic-incf-cell"));
    let interp2 = Arc::new(Interp::new());
    interp2.load_str(&out2.source()).expect("loads");
    let rt2 = CriRuntime::new(Arc::clone(&interp2), 4);
    let acc = interp2.heap().cons(Value::int(0), Value::NIL);
    let l = interp2.load_str(&build).expect("builds");
    rt2.run("accum", &[acc, l]).expect("parallel accum");
    let total = interp2.heap().car(acc).expect("cell");
    println!(
        "accumulated {} (expected {}) with full concurrency — no ordering needed\n",
        interp2.heap().display(total),
        n * (n - 1) / 2
    );
    assert_eq!(total, Value::int(n * (n - 1) / 2));

    // ---------- variant 3: the §3.2.1 lock device on its own ---------
    println!("=== insert-placement: the §3.2.1 machinery itself ===");
    // A head-resident conflict (Figure 5). Inside the pipeline CRI's
    // head ordering already covers it; synthesized with no ordering
    // assumed, the placement locks both sides, the brackets acquire
    // through the runtime's striped location lock table, and the
    // program still computes correctly.
    let fig5 = parse_one(
        "(defun f (l)
           (cond ((null l) nil)
                 ((null (cdr l)) (f (cdr l)))
                 (t (setf (cadr l) (+ (car l) (cadr l)))
                    (f (cdr l)))))",
    )
    .expect("parses");
    let heap = Heap::new();
    let analysis = analyze_defun(&heap, &fig5, &DeclDb::new()).expect("analyzes");
    let placement = synthesize(&analysis, &["l"], OrderingContext::none());
    assert!(placement.is_certified_clean());
    let mut probes = Probes::for_defun(&heap, &fig5).expect("a defun");
    let locked = insert_placement(&fig5, &placement, false, &mut probes).expect("locks insert");
    println!("locks: {:?}", locked.locks);
    println!("{}", pretty(&locked.form));

    let interp3 = Arc::new(Interp::new());
    interp3.load_str(&locked.form.to_string()).expect("loads");
    // Convert the recursion for the pool and run it with real locks.
    let cri = curare::transform::cri_convert(&locked.form).expect("converts");
    let interp4 = Arc::new(Interp::new());
    interp4.load_str(&cri.form.to_string()).expect("loads");
    let rt4 = CriRuntime::new(Arc::clone(&interp4), 4);
    let data = interp4.load_str("(list 1 1 1 1 1 1)").expect("builds");
    rt4.run("f", &[data]).expect("locked parallel run");
    println!(
        "locked figure-5 run: {} ({} lock acquisitions, {} contended)",
        interp4.heap().display(data),
        rt4.stats().lock_acquisitions,
        rt4.stats().lock_contended
    );
    assert_eq!(interp4.heap().display(data), "(1 2 3 4 5 6)");
    println!("OK");
}
