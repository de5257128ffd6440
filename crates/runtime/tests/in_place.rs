//! A tail-position spawn that restarts its frame in place must be
//! indistinguishable from the chained task it replaces: same heap,
//! same output order, same `tasks` and `chained_tasks`, same errors,
//! same trace — and it must not happen at all where the two could be
//! told apart (a batch with a task for the same or a lower site in
//! it, a task whose value a toucher waits for, a helping `touch`, an
//! eager pool, a run that is aborting).
//!
//! The materialised path is forced without a switch in product code:
//! the `NoInPlace` hooks wrapper answers every in-place request `no`.
//!
//! An unobserved link skips the records a task leaves, so each observer
//! (the tracer, invocation ids, a chaos plan, a watchdog) is armed alone
//! and must still see every link.
//!
//! Tests install the process-wide tracer, profiler switch and chaos
//! plan, so every test here holds the suite's guard: no other pool may
//! record into the rings, mint ids or draw faults meanwhile.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use curare_lisp::{FuncId, Interp, LispError, RuntimeHooks, Value};
use curare_obs::{EventKind, Profile, Tracer};
use curare_runtime::chaos::{self, ChaosProfile, FaultPlan};
use curare_runtime::{CriRuntime, PoolStats, RuntimeConfig, SchedMode};
use curare_testkit::{guard, list_of, NoInPlace};
use curare_transform::Curare;

const FIGURE_3: &str = "(defun f3 (l) (when l (print (car l)) (f3 (cdr l))))";
const FIGURE_5: &str = "(defun f5 (l)
                          (cond ((null l) nil)
                                ((null (cdr l)) (f5 (cdr l)))
                                (t (setf (cadr l) (+ (car l) (cadr l)))
                                   (f5 (cdr l)))))";
const SUM_WALK: &str = "(curare-declare (reorderable +))
                        (defun walk (l)
                          (when l
                            (setq *sum* (+ *sum* (car l)))
                            (walk (cdr l))))";
/// Hand-written, two sites: the *second* spawn is in tail position,
/// behind a leaf the invocation still buffers. `fan` prints negatives,
/// `leaf` positives, so one server's output shows which ran first.
const FAN: &str = "(defun fan (l)
                     (when l
                       (print (- 0 (car l)))
                       (cri-enqueue 0 leaf (car l))
                       (cri-enqueue 1 fan (cdr l))))
                   (defun leaf (v) (print v))";
/// The same with the sites exchanged: the buffered leaf goes to the
/// *higher* site, so a lowest-site-first dequeue would take the tail
/// spawn next wherever the leaf is — it chains past the leaf, which is
/// published first.
const SPREAD: &str = "(defun spread (l)
                        (when l
                          (print (- 0 (car l)))
                          (cri-enqueue 1 leaf (car l))
                          (cri-enqueue 0 spread (cdr l))))
                      (defun leaf (v) (print v))";

/// Restructure `src` (a hand-written CRI program passes through
/// unchanged) and load it with the globals the walkers use.
fn load(src: &str) -> Arc<Interp> {
    let out = Curare::new().transform_source(src).expect("transforms");
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).expect("loads");
    interp.load_str("(defparameter *sum* 0)").unwrap();
    interp
}

/// A pool over `interp`; `materialise` keeps every link a task.
fn pool(interp: &Arc<Interp>, servers: usize, mode: SchedMode, materialise: bool) -> CriRuntime {
    let rt = CriRuntime::with_mode(Arc::clone(interp), servers, mode);
    if materialise {
        NoInPlace::install(interp);
    }
    rt
}

struct Outcome {
    heap: String,
    sum: String,
    output: Vec<String>,
    stats: PoolStats,
}

fn run(src: &str, entry: &str, n: i64, servers: usize, mode: SchedMode, mat: bool) -> Outcome {
    let interp = load(src);
    let rt = pool(&interp, servers, mode, mat);
    let l = list_of(&interp, 1..=n);
    rt.run(entry, &[l]).expect("runs");
    Outcome {
        heap: interp.heap().display(l),
        sum: interp.heap().display(interp.load_str("*sum*").unwrap()),
        output: interp.take_output(),
        stats: rt.stats(),
    }
}

#[test]
fn in_place_and_materialised_chains_leave_the_same_run() {
    let _g = guard();
    let n = 300;
    // (source, entry, links that restart in place on a lazy pool)
    let programs = [
        (FIGURE_3, "f3", n as u64),
        (FIGURE_5, "f5", n as u64),
        (SUM_WALK, "walk", n as u64),
        // The leaf beside the tail spawn is bound for a lower site,
        // which a dequeue would serve first: never in place.
        (FAN, "fan", 0),
        (SPREAD, "spread", n as u64),
    ];
    for (src, entry, lazy_links) in programs {
        for servers in [1, 2, 4] {
            for mode in [SchedMode::Sharded, SchedMode::Central] {
                let what = format!("{entry}, S = {servers}, {mode:?}");
                let mut here = run(src, entry, n, servers, mode, false);
                let mut there = run(src, entry, n, servers, mode, true);
                // A central pool publishes every spawn at the spawn.
                let links = if mode == SchedMode::Sharded { lazy_links } else { 0 };
                assert_eq!(here.stats.in_place_tasks, links, "{what}: {:?}", here.stats);
                assert_eq!(there.stats.in_place_tasks, 0, "{what}: {:?}", there.stats);
                assert_eq!(here.stats.tasks, there.stats.tasks, "{what}");
                assert_eq!(here.stats.chained_tasks, there.stats.chained_tasks, "{what}");
                assert_eq!(here.stats.batched_submits, there.stats.batched_submits, "{what}");
                assert_eq!(here.heap, there.heap, "{what}");
                assert_eq!(here.sum, there.sum, "{what}");
                if matches!(entry, "fan" | "spread") && servers > 1 {
                    // Leaves and fans run on different servers.
                    here.output.sort();
                    there.output.sort();
                }
                assert_eq!(here.output, there.output, "{what}");
            }
        }
    }
    // What "the same" is the same as: Figure 3 prints in list order,
    // and one server runs each buffered leaf before the fan behind it.
    let f3 = run(FIGURE_3, "f3", n, 2, SchedMode::Sharded, false);
    assert_eq!(f3.output, (1..=n).map(|i| i.to_string()).collect::<Vec<_>>());
    assert_eq!((f3.stats.tasks, f3.stats.chained_tasks), (n as u64 + 1, n as u64));
    let fan = run(FAN, "fan", n, 1, SchedMode::Sharded, false);
    let expect: Vec<String> = (1..=n).flat_map(|i| [(-i).to_string(), i.to_string()]).collect();
    assert_eq!(fan.output, expect, "leaf i runs before fan i + 1");
    // The spreader's chain outranks every leaf: one server walks the
    // whole list, then runs the leaves in the order it published them,
    // one batch per link.
    let spread = run(SPREAD, "spread", n, 1, SchedMode::Sharded, false);
    let expect: Vec<String> =
        (1..=n).map(|i| (-i).to_string()).chain((1..=n).map(|i| i.to_string())).collect();
    assert_eq!(spread.output, expect, "leaves run after the walk, in list order");
    let PoolStats { tasks, chained_tasks, in_place_tasks, batched_submits, .. } = spread.stats;
    let n = n as u64;
    assert_eq!((tasks, chained_tasks, in_place_tasks, batched_submits), (2 * n + 1, n, n, n));
}

#[test]
fn a_future_root_resolves_after_its_first_invocation_not_its_last() {
    let _g = guard();
    // The first invocation's value is the spawn's nil; only the last
    // one returns `done`. A toucher must get the former. (It touches
    // after the run, so that the server ran the root, not its help.)
    let interp = load(
        "(defun tick (n)
           (if (> n 0)
               (progn (atomic-incf *sum* 1) (cri-enqueue 0 tick (- n 1)))
               'done))",
    );
    let rt = pool(&interp, 1, SchedMode::Sharded, false);
    let n = 1000;
    let fut = rt.spawn_future("tick", &[Value::int(n)]).unwrap();
    rt.wait_idle();
    assert_eq!(rt.touch(fut).unwrap(), Value::NIL);
    assert_eq!(interp.load_str("*sum*").unwrap(), Value::int(n));
    let stats = rt.stats();
    // The root is a task of its own (it resolves the future); its
    // successor is chained, and everything after restarts in place.
    assert_eq!(stats.tasks, n as u64 + 1, "{stats:?}");
    assert_eq!(stats.chained_tasks, n as u64, "{stats:?}");
    assert_eq!(stats.in_place_tasks, n as u64 - 1, "{stats:?}");
}

#[test]
fn an_error_in_link_k_is_the_same_error_over_the_same_heap_prefix() {
    let _g = guard();
    let src = "(defun bump (l)
                 (when l
                   (rplaca l (1+ (car l)))
                   (cri-enqueue 0 bump (cdr l))))";
    let (n, k) = (200, 120);
    let outcome = |materialise: bool| {
        let interp = load(src);
        let rt = pool(&interp, 2, SchedMode::Sharded, materialise);
        let l = list_of(&interp, 1..=n);
        let mut cell = l;
        for _ in 0..k {
            cell = interp.heap().cdr(cell).unwrap();
        }
        interp.heap().set_car(cell, interp.heap().sym_value("not-a-number")).unwrap();
        let err = rt.run("bump", &[l]).expect_err("link k fails");
        let stats = rt.stats();
        (format!("{err:?}"), interp.heap().display(l), stats.tasks, stats.chained_tasks)
    };
    let (here, there) = (outcome(false), outcome(true));
    assert_eq!(here, there);
    assert_eq!(here.2, k as u64 + 1, "links 0..=k ran, nothing after");
}

#[test]
fn an_error_in_another_task_stops_an_in_place_chain() {
    let _g = guard();
    // `spin` would restart in place fifty million times; `bad` fails
    // on the other server meanwhile, and `aborting` is read per link.
    let interp = load(
        "(defun driver (n) (cri-enqueue 0 spin n) (cri-enqueue 1 bad))
         (defun spin (n)
           (when (> n 0)
             (atomic-incf *sum* 1)
             (cri-enqueue 0 spin (- n 1))))
         (defun bad () (error \"boom\"))",
    );
    let rt = pool(&interp, 2, SchedMode::Sharded, false);
    let n = 50_000_000;
    let err = rt.run("driver", &[Value::int(n)]).expect_err("bad fails the run");
    assert!(format!("{err:?}").contains("boom"), "{err:?}");
    let links = interp.load_str("*sum*").unwrap().as_int().unwrap();
    assert!(links < n, "the chain outlived the abort");
}

#[test]
fn a_helping_touch_returns_at_the_first_task_boundary_after_its_future_resolves() {
    let _g = guard();
    // One server, kept busy by `hold` until link 100 of a chain that
    // only the toucher can be running. The chain ends when `*stop*` is
    // set, which happens after `touch` returns: a toucher that ran the
    // chain in place would reach the five-million-link limit instead.
    let limit = 5_000_000;
    let interp = load(&format!(
        "(defparameter *started* 0) (defparameter *go* 0) (defparameter *held* 0)
         (defparameter *stop* 0) (defparameter *links* 0)
         (defun hold ()
           (setq *started* 1)
           (while (= *go* 0) nil)
           (setq *held* 1)
           'held)
         (defun spin (k)
           (when (and (= *stop* 0) (< k {limit}))
             (setq *links* k)
             (when (= k 100) (setq *go* 1) (while (= *held* 0) nil))
             (cri-enqueue 0 spin (+ k 1))))"
    ));
    let rt = pool(&interp, 1, SchedMode::Sharded, false);
    let held = rt.spawn_future("hold", &[]).unwrap();
    while interp.load_str("*started*").unwrap() == Value::int(0) {
        std::thread::yield_now();
    }
    let chain = rt.spawn_future("spin", &[Value::int(0)]).unwrap();
    assert_eq!(rt.touch(held).unwrap(), interp.heap().sym_value("held"));
    interp.load_str("(setq *stop* 1)").unwrap();
    rt.wait_idle();
    assert_eq!(rt.touch(chain).unwrap(), Value::NIL);
    let links = interp.load_str("*links*").unwrap().as_int().unwrap();
    assert!((100..limit - 1).contains(&links), "the toucher finished the chain: {links}");
}

/// Per-kind event counts of one profiled Figure 5 run on one server,
/// parking aside (an idle server parks when it parks).
fn event_counts(materialise: bool) -> BTreeMap<&'static str, u64> {
    let n = 2000;
    let interp = load(FIGURE_5);
    let l = list_of(&interp, 1..=n);
    curare_obs::set_profiling(true);
    let tracer = Tracer::new(1);
    curare_obs::install(Some(Arc::clone(&tracer)));
    let rt = pool(&interp, 1, SchedMode::Sharded, materialise);
    let ran = rt.run("f5", &[l]);
    let in_place = rt.stats().in_place_tasks;
    drop(rt);
    curare_obs::install(None);
    curare_obs::set_profiling(false);
    ran.expect("runs");
    assert_eq!(in_place, if materialise { 0 } else { n as u64 });
    let mut counts = BTreeMap::new();
    for snap in tracer.snapshot() {
        assert_eq!(snap.dropped, 0, "the rings hold the whole run");
        for e in snap.events {
            if !matches!(e.kind, EventKind::Park | EventKind::Unpark) {
                *counts.entry(e.kind.name()).or_insert(0) += 1;
            }
        }
    }
    counts
}

#[test]
fn a_traced_in_place_run_records_what_a_materialised_run_records() {
    let _g = guard();
    let (here, there) = (event_counts(false), event_counts(true));
    assert_eq!(here, there);
    // Every link is a spawned, chained, started and stopped invocation.
    for kind in [EventKind::Enqueue, EventKind::Chain] {
        assert_eq!(here[kind.name()], 2000, "{here:?}");
    }
    for kind in [EventKind::Spawn, EventKind::TaskStart] {
        assert_eq!(here[kind.name()], 2001, "{here:?}");
    }
}

// ---- every observer sees every link ----
//
// An in-place link that nothing observes is the count alone; each test
// below arms one observer on its own and checks that it still sees
// every link of Figure 5 over 200 cells: 201 tasks, 200 of them in
// place, on one server.

const CELLS: i64 = 200;

/// Run `f5` over [`CELLS`] cells on one server, with `arm` called once
/// the pool is built, and return the pool's statistics.
fn observed_run(arm: impl FnOnce(&Arc<Interp>)) -> PoolStats {
    observed_run_on(FIGURE_5, "f5", RuntimeConfig::default(), arm)
}

fn observed_run_on(
    src: &str,
    entry: &str,
    config: RuntimeConfig,
    arm: impl FnOnce(&Arc<Interp>),
) -> PoolStats {
    let interp = load(src);
    let rt = CriRuntime::with_config(Arc::clone(&interp), 1, config);
    arm(&interp);
    let l = list_of(&interp, 1..=CELLS);
    rt.run(entry, &[l]).expect("runs");
    let stats = rt.stats();
    assert_eq!((stats.tasks, stats.in_place_tasks), (CELLS as u64 + 1, CELLS as u64));
    stats
}

#[test]
fn the_tracer_sees_every_link() {
    let _g = guard();
    let tracer = Tracer::new(1);
    curare_obs::install(Some(Arc::clone(&tracer)));
    observed_run(|_| {});
    curare_obs::install(None);
    let mut counts = BTreeMap::new();
    for e in tracer.snapshot().into_iter().flat_map(|snap| snap.events) {
        *counts.entry(e.kind.name()).or_insert(0u64) += 1;
    }
    // Each link is enqueued and chained, and brackets a task of its
    // own; the root task is the one bracket more.
    let links = CELLS as u64;
    for (kind, want) in [
        (EventKind::Enqueue, links),
        (EventKind::Chain, links),
        (EventKind::TaskStart, links + 1),
        (EventKind::TaskStop, links + 1),
    ] {
        assert_eq!(counts.get(kind.name()), Some(&want), "{}: {counts:?}", kind.name());
    }
}

/// Forwards to the pool's hooks and notes the invocation each in-place
/// link is bound to once it restarts.
struct SeeIds(Arc<dyn RuntimeHooks>, Arc<Mutex<Vec<u64>>>);

impl RuntimeHooks for SeeIds {
    fn chain_in_place(&self, s: usize, f: FuncId) -> bool {
        let restarted = self.0.chain_in_place(s, f);
        if restarted {
            self.1.lock().unwrap().push(curare_obs::current_invocation());
        }
        restarted
    }
    fn enqueue(&self, i: &Interp, s: usize, f: FuncId, a: Vec<Value>) -> Result<(), LispError> {
        self.0.enqueue(i, s, f, a)
    }
    fn handoff(&self, i: &Interp, s: usize, f: FuncId, a: Vec<Value>) -> Result<(), LispError> {
        self.0.handoff(i, s, f, a)
    }
    fn future(&self, i: &Interp, f: FuncId, a: Vec<Value>) -> Result<Value, LispError> {
        self.0.future(i, f, a)
    }
    fn touch(&self, i: &Interp, v: Value) -> Result<Value, LispError> {
        self.0.touch(i, v)
    }
    fn lock(&self, i: &Interp, c: Value, f: u32, x: bool) -> Result<(), LispError> {
        self.0.lock(i, c, f, x)
    }
    fn unlock(&self, i: &Interp, c: Value, f: u32, x: bool) -> Result<(), LispError> {
        self.0.unlock(i, c, f, x)
    }
}

#[test]
fn the_profiler_sees_every_link() {
    let _g = guard();
    // Ids alone, no tracer: each link is bound to an invocation of its
    // own, a fresh one.
    let ids = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&ids);
    curare_obs::set_profiling(true);
    observed_run(move |interp| {
        interp.set_hooks(Arc::new(SeeIds(interp.hooks(), log)));
    });
    curare_obs::set_profiling(false);
    let ids = ids.lock().unwrap();
    let distinct: BTreeSet<u64> = ids.iter().copied().collect();
    assert_eq!((ids.len(), distinct.len()), (CELLS as usize, CELLS as usize), "{ids:?}");
    assert!(!distinct.contains(&0), "{ids:?}");
    // With the tracer as well, the causal profile counts every task.
    let tracer = Tracer::new(1);
    curare_obs::set_profiling(true);
    curare_obs::install(Some(Arc::clone(&tracer)));
    let stats = observed_run(|_| {});
    curare_obs::install(None);
    curare_obs::set_profiling(false);
    let profile = Profile::from_trace(&tracer.snapshot());
    assert_eq!(profile.invocations as u64, stats.tasks, "{stats:?}");
}

#[test]
fn a_chaos_plan_sees_every_link() {
    let _g = guard();
    // A delay (of at most a microsecond) at every task start.
    let profile =
        ChaosProfile { delay_ppm: 1_000_000, delay_max_us: 1, ..ChaosProfile::quiet("all") };
    chaos::install(Some(FaultPlan::new(1, profile)));
    let stats = observed_run(|_| {});
    chaos::install(None);
    assert_eq!(stats.faults_injected, stats.tasks, "{stats:?}");
}

#[test]
fn a_watchdog_sees_every_link() {
    let _g = guard();
    // Figure 5 (as restructured) with links 60 and 140 held, each past
    // the budget, until the test lets them go. Each held link is a
    // stall of its own: the links between are progress, so the second
    // hold dumps again. Seen only at task boundaries, the whole chain
    // would be one stall, dumped once.
    let src = "(defparameter *links* 0) (defparameter *held* 0) (defparameter *go* 0)
               (defun f5h (l)
                 (setq *links* (+ *links* 1))
                 (when (or (= *links* 60) (= *links* 140))
                   (setq *held* *links*)
                   (while (< *go* *links*) nil))
                 (cond ((null l) nil)
                       ((null (cdr l)) (cri-enqueue 0 f5h (cdr l)))
                       (t (setf (cadr l) (+ (car l) (cadr l)))
                          (cri-enqueue 1 f5h (cdr l)))))";
    let budget = Duration::from_millis(30);
    let config = RuntimeConfig { stall_budget: Some(budget), ..RuntimeConfig::default() };
    let stats = std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel();
        let run = scope.spawn(move || {
            observed_run_on(src, "f5h", config, |i| tx.send(Arc::clone(i)).unwrap())
        });
        let interp = rx.recv().unwrap();
        for link in [60, 140] {
            while interp.load_str("*held*").unwrap() != Value::int(link) {
                std::thread::yield_now();
            }
            std::thread::sleep(4 * budget);
            interp.load_str(&format!("(setq *go* {link})")).unwrap();
        }
        run.join().unwrap()
    });
    // At least: a loaded host may stall an unheld link too.
    assert!(stats.stall_dumps >= 2, "{stats:?}");
}
