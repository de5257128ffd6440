//! The pool's panic policy with no chaos plan installed: a server that
//! dies mid-task must still settle the pending count (§4's termination
//! is that count reaching zero), so a panicking body ends the run with
//! an error instead of hanging it — the body is never run again — and
//! the server's thread leaves the pool; another thread takes its index,
//! so the next run is served as every run is, to the same answer.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use curare_lisp::{Interp, LispError, Value};
use curare_obs::{EventKind, Tracer};
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

/// One server: the panic that ends run 1 poisons the pool's only
/// server. Run 2 is served by the thread lent to its index — its tasks
/// on server 0's lane, none on the owner's lane 0 — to the answer the
/// walker gives sequentially: every cell visited once.
#[test]
fn a_poisoned_servers_index_serves_the_next_run() {
    let _g = guard();
    for mode in [SchedMode::Central, SchedMode::Sharded] {
        let (rt, l) = pool(1, RuntimeConfig { mode, ..RuntimeConfig::default() }, 1);
        let err = quietly(|| rt.run("walk", &[l])).expect_err("the panic ends run 1");
        assert!(format!("{err}").contains("task panicked: body failed"), "{mode:?}: {err}");
        rt.interp().load_str("(setq *visits* 0)").unwrap();
        let l = list_of(rt.interp(), 0..N);
        let tracer = Tracer::new(1);
        curare_obs::install(Some(Arc::clone(&tracer)));
        let ran = rt.run("walk", &[l]);
        curare_obs::install(None);
        ran.expect("the replaced server runs run 2");
        assert_eq!(visits(&rt), Value::int(N), "{mode:?}");
        let stats = rt.stats();
        assert_eq!((stats.tasks, stats.servers_poisoned), (N as u64 + 1, 1), "{mode:?}: {stats:?}");
        let starts: Vec<usize> = tracer
            .snapshot()
            .iter()
            .map(|snap| snap.events.iter().filter(|e| e.kind == EventKind::TaskStart).count())
            .collect();
        assert_eq!(starts, [0, N as usize + 1], "{mode:?}: task starts on lanes 0 and 1");
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
        assert_eq!(rt.stats().servers_poisoned, 1, "S = {servers}");
        drop(rt);
        let interp = Arc::new(Interp::new());
        interp.load_str(WALK).unwrap();
        interp.load_str("(defparameter *visits* 0)").unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), servers);
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
        assert_eq!(stats.servers_poisoned, 0, "S = {servers}");
    }
}
