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
//! One test installs the process-wide tracer, so every test here holds
//! the suite's guard: no other pool may record into its rings.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use common::{guard, NoInPlace};
use curare_lisp::{Interp, Value};
use curare_obs::{EventKind, Tracer};
use curare_runtime::{CriRuntime, PoolStats, SchedMode};
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

fn int_list(interp: &Interp, n: i64) -> Value {
    (1..=n).rev().fold(Value::NIL, |l, i| interp.heap().cons(Value::int(i), l))
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
    let l = int_list(&interp, n);
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
        let l = int_list(&interp, n);
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
    let l = int_list(&interp, n);
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
