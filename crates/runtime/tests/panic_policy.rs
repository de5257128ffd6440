//! The pool's panic policy with no chaos plan installed: a server that
//! dies mid-task must still settle the pending count (§4's termination
//! is that count reaching zero), so a panicking body ends the run with
//! an error instead of hanging it — the body is never run again — and
//! the server leaves the pool; once no server is left, the waiting
//! thread runs the next run sequentially, to the same answer.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use curare_lisp::{Interp, LispError, Value};
use curare_runtime::{CriRuntime, RuntimeConfig, SchedMode};
use curare_testkit::{guard, list_of, quietly, Hook, PanicOn};

/// A walker whose body can fail between its spawn and its one effect.
const WALK: &str = "(defun walk (l)
                      (when l
                        (cri-enqueue 0 walk (cdr l))
                        (cri-lock l 'car)
                        (atomic-incf *visits* 1)
                        (cri-unlock l 'car)))";
const N: i64 = 64;

/// `WALK` loaded on a pool of `servers`, with the first `panics` lock
/// acquisitions panicking.
fn pool(servers: usize, config: RuntimeConfig, panics: usize) -> (CriRuntime, Value) {
    let interp = Arc::new(Interp::new());
    interp.load_str(WALK).unwrap();
    interp.load_str("(defparameter *visits* 0)").unwrap();
    let rt = CriRuntime::with_config(Arc::clone(&interp), servers, config);
    PanicOn::install(&interp, Hook::Lock, 0, panics);
    (rt, list_of(&interp, 0..N))
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
fn a_pool_with_no_server_left_runs_the_next_run_sequentially() {
    let _g = guard();
    for mode in [SchedMode::Central, SchedMode::Sharded] {
        // One server: the panic that ends run 1 takes the pool's last
        // server with it.
        let (rt, l) = pool(1, RuntimeConfig { mode, ..RuntimeConfig::default() }, 1);
        let err = quietly(|| rt.run("walk", &[l])).expect_err("the panic ends run 1");
        assert!(format!("{err}").contains("task panicked: body failed"), "{mode:?}: {err}");
        assert_eq!((rt.alive(), rt.degraded()), (0, true), "{mode:?}");
        // Run 2 drains on this thread, to the answer the walker gives
        // sequentially: every cell visited once.
        rt.interp().load_str("(setq *visits* 0)").unwrap();
        rt.run("walk", &[list_of(rt.interp(), 0..N)]).expect("a degraded pool still runs");
        assert_eq!(visits(&rt), Value::int(N), "{mode:?}");
        let stats = rt.stats();
        assert!(stats.degraded, "{mode:?}: {stats:?}");
        assert_eq!(stats.servers_poisoned, 1, "{mode:?}: {stats:?}");
    }
}

/// A poisoned server leaves the server set with its pool: a runtime
/// built after the poisoning one is dropped gets as many live servers
/// as it asks for, and they run. (A poisoned thread handed out again
/// would leave at once, and a one-server pool's run would never end.)
#[test]
fn a_poisoned_server_never_serves_again() {
    let _g = guard();
    for servers in [1, 2] {
        let (rt, l) = pool(servers, RuntimeConfig::default(), 1);
        quietly(|| rt.run("walk", &[l])).expect_err("the panic ends the run");
        assert_eq!(rt.alive(), servers - 1, "S = {servers}");
        drop(rt);
        let interp = Arc::new(Interp::new());
        interp.load_str(WALK).unwrap();
        interp.load_str("(defparameter *visits* 0)").unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), servers);
        assert_eq!(rt.alive(), servers);
        let l = list_of(&interp, 0..N);
        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let result = rt.run("walk", &[l]);
            tx.send((result, rt.stats(), visits(&rt))).unwrap();
        });
        let (result, stats, visits) =
            rx.recv_timeout(Duration::from_secs(30)).expect("the new pool's servers run");
        runner.join().unwrap();
        result.expect("a clean run");
        assert_eq!(visits, Value::int(N), "S = {servers}");
        assert_eq!((stats.servers_poisoned, stats.degraded), (0, false), "S = {servers}");
    }
}
