//! The pool's panic policy with no chaos plan installed: a server that
//! dies mid-task must still settle the pending count (§4's termination
//! is that count reaching zero), so a panicking body ends the run with
//! an error instead of hanging it; a declared-idempotent body is
//! retried within `RuntimeConfig::retry_limit` with exactly-once
//! effects; and a pool that falls below `RuntimeConfig::degrade_floor`
//! finishes on the waiting thread with the sequential answer.

mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::{guard, quietly, PanicOnLock};
use curare_lisp::{Interp, LispError, Value};
use curare_runtime::{CriRuntime, RuntimeConfig, SchedMode};

/// A walker whose body can fail between its spawn and its one effect.
const WALK: &str = "(defun walk (l)
                      (when l
                        (cri-enqueue 0 walk (cdr l))
                        (cri-lock l 'car)
                        (atomic-incf *visits* 1)
                        (cri-unlock l 'car)))";
const N: i64 = 64;
const MODES: [SchedMode; 2] = [SchedMode::Central, SchedMode::Sharded];

/// `WALK` loaded on a pool of `servers`, with the first `panics` lock
/// acquisitions panicking.
fn pool(servers: usize, config: RuntimeConfig, panics: usize) -> (CriRuntime, Value) {
    let interp = Arc::new(Interp::new());
    interp.load_str(WALK).unwrap();
    interp.load_str("(defparameter *visits* 0)").unwrap();
    let rt = CriRuntime::with_config(Arc::clone(&interp), servers, config);
    PanicOnLock::install(&interp, 0, panics);
    let mut l = Value::NIL;
    for i in (0..N).rev() {
        l = interp.heap().cons(Value::int(i), l);
    }
    (rt, l)
}

fn visits(rt: &CriRuntime) -> Value {
    rt.interp().load_str("*visits*").unwrap()
}

#[test]
fn a_panicking_task_ends_the_run_with_an_error() {
    let _g = guard();
    let (rt, l) = pool(2, RuntimeConfig::default(), 1);
    // On its own thread: the defect this guards against is `run` never
    // returning, which only a time-out can report.
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let result = quietly(|| rt.run("walk", &[l]));
        tx.send((result, rt.stats())).unwrap();
    });
    let (result, stats) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("run must return after a task panicked, not wait for its pending count forever");
    runner.join().unwrap();
    let err = result.unwrap_err();
    assert!(
        matches!(&err, LispError::User(m) if m.contains("task panicked: body failed")),
        "{err}"
    );
    assert_eq!(stats.task_retries, 0, "`walk` is not declared idempotent: {stats:?}");
    assert_eq!(stats.servers_poisoned, 1, "{stats:?}");
}

#[test]
fn a_declared_idempotent_body_is_retried_within_the_limit_exactly_once() {
    let _g = guard();
    for mode in MODES {
        // One server, so all three panics hit the first invocation: three
        // retries fit a limit of 3 (the default of 2 would poison).
        let config = RuntimeConfig { mode, retry_limit: 3, ..RuntimeConfig::default() };
        let (rt, l) = pool(1, config, 3);
        rt.declare_idempotent("walk");
        quietly(|| rt.run("walk", &[l])).expect("retries absorb the panics");
        let stats = rt.stats();
        assert_eq!(stats.task_retries, 3, "{mode:?}: {stats:?}");
        assert_eq!(stats.servers_poisoned, 0, "{mode:?}: {stats:?}");
        assert!(!rt.degraded());
        // The failed attempts' buffered successors died with them — on
        // the central queue too, which publishes any other body's
        // spawns at once.
        assert_eq!(visits(&rt), Value::int(N), "{mode:?}");
        assert_eq!(stats.tasks, N as u64 + 1, "{mode:?}: {stats:?}");
    }
}

#[test]
fn a_pool_below_its_floor_finishes_sequentially_with_the_same_answer() {
    let _g = guard();
    // Until an attempt of the first invocation completes, its buffered
    // successor is unpublished and it is the only task there is: both
    // panics hit it, exhaust a limit of 1, and whichever server ran the
    // second attempt requeues it and leaves. One live server is below a
    // floor of 2 (the waiting thread drains) but not below a floor of 1
    // (the survivor finishes); the answer is the same either way.
    for (mode, degrade_floor, degrades) in
        MODES.into_iter().flat_map(|m| [(m, 2, true), (m, 1, false)])
    {
        let config =
            RuntimeConfig { mode, retry_limit: 1, degrade_floor, ..RuntimeConfig::default() };
        let (rt, l) = pool(2, config, 2);
        rt.declare_idempotent("walk");
        quietly(|| rt.run("walk", &[l])).expect("the run completes");
        let stats = rt.stats();
        assert_eq!(stats.task_retries, 1, "{mode:?}: {stats:?}");
        assert_eq!(stats.servers_poisoned, 1, "{mode:?}: {stats:?}");
        assert_eq!(rt.alive(), 1);
        assert_eq!(rt.degraded(), degrades, "{mode:?}, floor {degrade_floor}: {stats:?}");
        assert_eq!(visits(&rt), Value::int(N), "{mode:?}");
        assert_eq!(stats.tasks, N as u64 + 1, "{mode:?}: {stats:?}");
    }
}
