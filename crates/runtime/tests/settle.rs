//! Settling late must not show: a server keeps its counts, its VM
//! counters and its finished tasks' pending counts to itself until its
//! own group runs dry, and `run` still returns exactly when the work
//! is done, with every statistic exact — the statistics are published
//! before the pending counts that let `run` return are released.
//!
//! `vm_stats()` is process-wide, so this suite is its own process and
//! its tests take turns.

mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::guard;
use curare_lisp::{vm_stats, Interp, Value};
use curare_runtime::CriRuntime;

/// Two sites: each link of `spread` publishes a leaf for the other
/// server and restarts in place, so every run has all three of tasks,
/// chained tasks and batch publications to count.
const SPREAD: &str = "(defparameter *sum* 0)
                      (defun spread (l)
                        (when l
                          (cri-enqueue 1 leaf (car l))
                          (cri-enqueue 0 spread (cdr l))))
                      (defun leaf (v) (atomic-incf *sum* v))";

/// Run `f` on a thread of its own and fail, rather than hang, if it is
/// not done within `secs`: what these tests guard against is a server
/// that goes to sleep holding what `run` (or `drop`) waits for.
fn within<T: Send + 'static>(secs: u64, what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(f()));
    // A worker that panicked drops its sender: not a hang, and the
    // join below reports it. One that hangs is left behind.
    let out = match rx.recv_timeout(Duration::from_secs(secs)) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: hung"),
        got => got.ok(),
    };
    let sent = worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    sent.expect("the receiver is alive");
    out.expect("a worker that returned has sent")
}

#[test]
fn a_thousand_short_runs_each_return_with_exact_statistics() {
    let _g = guard();
    within(60, "1000 runs", || {
        let interp = Arc::new(Interp::new());
        interp.load_str(SPREAD).unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 2);
        let n = 5u64;
        let ops = |l: Value| {
            let before = vm_stats().dispatched_ops;
            rt.run("spread", &[l]).unwrap();
            vm_stats().dispatched_ops - before
        };
        let list =
            || (1..=n as i64).rev().fold(Value::NIL, |l, i| interp.heap().cons(Value::int(i), l));
        let per_run = ops(list());
        assert!(per_run > 0);
        for run in 2..=1000u64 {
            assert_eq!(
                ops(list()),
                per_run,
                "run {run}: VM ops of this run, all of them, no others"
            );
            let stats = rt.stats();
            assert_eq!(stats.tasks, run * (2 * n + 1), "run {run}: {stats:?}");
            assert_eq!(stats.chained_tasks, run * n, "run {run}: {stats:?}");
            assert_eq!(stats.batched_submits, run * n, "run {run}: {stats:?}");
        }
        assert_eq!(interp.load_str("*sum*").unwrap(), Value::int(1000 * 15));
    });
}

#[test]
fn a_pool_dropped_with_an_untouched_future_outstanding_does_not_hang() {
    let _g = guard();
    within(30, "drop", || {
        for servers in [1, 2] {
            let interp = Arc::new(Interp::new());
            interp.load_str(SPREAD).unwrap();
            let rt = CriRuntime::new(Arc::clone(&interp), servers);
            let l = interp.load_str("(list 1 2 3)").unwrap();
            let _never_touched = rt.spawn_future("spread", &[l]).unwrap();
            drop(rt);
        }
    });
}

#[test]
fn waiting_for_idle_sees_every_task_a_server_finished_before_it_parked() {
    let _g = guard();
    // Futures from outside any run: nothing but the servers' own
    // settling tells `wait_idle` they are done.
    within(30, "wait_idle", || {
        let interp = Arc::new(Interp::new());
        interp.load_str(SPREAD).unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 2);
        for round in 1..=200u64 {
            let l = interp.load_str("(list 1 2 3)").unwrap();
            let fut = rt.spawn_future("spread", &[l]).unwrap();
            rt.wait_idle();
            assert_eq!(rt.stats().tasks, round * 7, "round {round}");
            assert_eq!(rt.touch(fut).unwrap(), Value::NIL);
        }
    });
}
