//! Hand-off publication (`cri-handoff`) through the pool: the
//! successor leaves its producer at the spawn instead of at invocation
//! end, so nothing chains; per-site FIFO still holds, including behind
//! spawns the same invocation still buffers; and a body the panic
//! policy may run twice never hands its successor off twice.

mod common;

use std::sync::Arc;

use curare_lisp::{Interp, Value};
use curare_runtime::{CriRuntime, SchedMode};
use curare_transform::{Curare, Publication};

fn int_list(interp: &Interp, n: i64) -> Value {
    let mut l = Value::NIL;
    for i in (0..n).rev() {
        l = interp.heap().cons(Value::int(i), l);
    }
    l
}

fn ints(interp: &Interp, mut l: Value) -> Vec<i64> {
    let mut out = Vec::new();
    while !l.is_nil() {
        out.push(interp.heap().car(l).unwrap().as_int().unwrap());
        l = interp.heap().cdr(l).unwrap();
    }
    out
}

/// `examples/lisp/tail_heavy.lisp` restructured and loaded.
fn tail_heavy() -> Arc<Interp> {
    let out = Curare::new()
        .transform_source(include_str!("../../../examples/lisp/tail_heavy.lisp"))
        .expect("transforms");
    assert!(matches!(out.report("th").unwrap().publication, Publication::Handoff { .. }));
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).expect("loads");
    interp
}

#[test]
fn hand_off_walker_publishes_every_successor_and_chains_none() {
    let n = 400;
    let interp = tail_heavy();
    let rt = CriRuntime::new(Arc::clone(&interp), 2);
    let l = int_list(&interp, n);
    rt.run("th", &[l]).unwrap();
    let stats = rt.stats();
    assert_eq!(stats.tasks, n as u64 + 1, "one task per invocation: {stats:?}");
    assert_eq!(stats.chained_tasks, 0, "a handed-off successor is never chained: {stats:?}");
    assert_eq!(stats.batched_submits, 0, "nothing is left to publish at invocation end");
    // Each cell went through the 256-step tail exactly once.
    assert_eq!(ints(&interp, l), (0..n).map(|v| v + 256).collect::<Vec<_>>());
}

#[test]
fn hand_off_is_a_plain_enqueue_to_runtimes_that_do_not_defer() {
    // Sequential hooks (and any `RuntimeHooks` that keeps the default
    // `handoff`) treat the form as `cri-enqueue`.
    let interp = tail_heavy();
    let l = int_list(&interp, 50);
    interp.call("th", &[l]).unwrap();
    assert_eq!(ints(&interp, l), (0..50).map(|v| v + 256).collect::<Vec<_>>());
    // The central queue publishes per task anyway.
    let rt = CriRuntime::with_mode(Arc::clone(&interp), 2, SchedMode::Central);
    let l = int_list(&interp, 50);
    rt.run("th", &[l]).unwrap();
    assert_eq!(rt.stats().tasks, 51);
    assert_eq!(ints(&interp, l), (0..50).map(|v| v + 256).collect::<Vec<_>>());
}

#[test]
fn per_site_fifo_holds_for_a_two_site_hand_off_function() {
    // One server makes dequeue order observable as execution order.
    // `fan` buffers a leaf at site 0, hands a second one off at the
    // same site — which must not overtake the buffered one — and then
    // hands its own continuation off at site 1, which the
    // lowest-site-first rule runs after both leaves.
    let src = "(defun fan (n)
                 (when (> n 0)
                   (cri-enqueue 0 leaf (* 2 n))
                   (cri-handoff 0 leaf (+ (* 2 n) 1))
                   (cri-handoff 1 fan (- n 1))))
               (defun leaf (v) (setq *ord* (cons v *ord*)))";
    let rounds = 60;
    let expected: Vec<i64> = (1..=rounds).rev().flat_map(|n| [2 * n, 2 * n + 1]).collect();
    for mode in [SchedMode::Central, SchedMode::Sharded] {
        let interp = Arc::new(Interp::new());
        interp.load_str(src).unwrap();
        interp.load_str("(defparameter *ord* nil)").unwrap();
        let rt = CriRuntime::with_mode(Arc::clone(&interp), 1, mode);
        rt.run("fan", &[Value::int(rounds)]).unwrap();
        let mut got = ints(&interp, interp.load_str("*ord*").unwrap());
        got.reverse();
        assert_eq!(got, expected, "per-site FIFO order broken under {mode:?}");
        assert_eq!(rt.stats().tasks, 3 * rounds as u64 + 1);
    }
}

#[test]
fn two_site_hand_off_runs_every_invocation_exactly_once_in_parallel() {
    // The same shape at S = 4 with atomic leaves: order is no longer
    // observable, exactly-once is.
    let src = "(defun fan (n)
                 (when (> n 0)
                   (cri-handoff 0 leaf n)
                   (cri-handoff 1 fan (- n 1))
                   (atomic-incf *tails* 1)))
               (defun leaf (v) (atomic-incf *sum* v))";
    let interp = Arc::new(Interp::new());
    interp.load_str(src).unwrap();
    interp.load_str("(defparameter *sum* 0) (defparameter *tails* 0)").unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 4);
    let n = 2000;
    rt.run("fan", &[Value::int(n)]).unwrap();
    assert_eq!(interp.load_str("*sum*").unwrap(), Value::int(n * (n + 1) / 2));
    assert_eq!(interp.load_str("*tails*").unwrap(), Value::int(n));
    let stats = rt.stats();
    assert_eq!(stats.tasks, 2 * n as u64 + 1);
    assert_eq!(stats.chained_tasks, 0, "{stats:?}");
}

mod retried_bodies {
    use super::*;
    use crate::common::{quietly, PanicOnLock};

    #[test]
    fn a_retried_idempotent_body_does_not_spawn_its_successor_twice() {
        // The rule: a function declared idempotent keeps its hand-offs
        // lazy. Its successor is then still in the invocation's batch
        // when the body panics, dies with the failed attempt, and is
        // spawned once — by the attempt that completes.
        let handing_off = "(defun walk (l)
                             (when l
                               (cri-handoff 0 walk (cdr l))
                               (cri-lock l 'car)
                               (atomic-incf *visits* 1)
                               (cri-unlock l 'car)))";
        // The same rule keeps a tail-position spawn a task: restarted
        // in place, the link that panics would take every link before
        // it along into the retry.
        let tail_position = "(defun walk (l)
                               (when l
                                 (cri-lock l 'car)
                                 (atomic-incf *visits* 1)
                                 (cri-unlock l 'car)
                                 (cri-enqueue 0 walk (cdr l))))";
        for src in [handing_off, tail_position] {
            let n = 64;
            let interp = Arc::new(Interp::new());
            interp.load_str(src).unwrap();
            interp.load_str("(defparameter *visits* 0)").unwrap();
            let rt = CriRuntime::new(Arc::clone(&interp), 2);
            rt.declare_idempotent("walk");
            // Within the default retry budget even if one task takes
            // both; mid-list (acquisitions 41 and 42 fail), so that a
            // retry which took earlier links along would show.
            let panics = 2;
            PanicOnLock::install(&interp, 40, panics);
            let l = int_list(&interp, n);
            let result = quietly(|| rt.run("walk", &[l]));
            result.expect("retries absorb the panics");

            let stats = rt.stats();
            assert_eq!(stats.task_retries, panics as u64, "{stats:?}");
            // Every cell visited once: a doubled successor would visit
            // its whole suffix again (and run n + 1 + suffix tasks).
            assert_eq!(interp.load_str("*visits*").unwrap(), Value::int(n));
            assert_eq!(stats.tasks, n as u64 + 1, "{stats:?}");
            assert_eq!(stats.in_place_tasks, 0, "{stats:?}");
        }
    }
}
