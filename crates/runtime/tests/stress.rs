//! Stress and robustness tests for the CRI runtime: repeated runs,
//! contention on one location, mixed devices, and rapid pool
//! create/destroy cycles.

use std::sync::Arc;

use curare_lisp::{Interp, Value};
use curare_runtime::{CriRuntime, RuntimeConfig, SchedMode};
use curare_testkit::{agree, int_list, list_of, Config, Oracle, Program, Rng};
use curare_transform::Curare;

#[test]
fn hundred_consecutive_runs_are_all_exact() {
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
    let rt = CriRuntime::new(Arc::clone(&interp), 4);
    for run in 0..100 {
        interp.load_str("(setq *sum* 0)").unwrap();
        let n = 50 + run;
        let l = int_list(&interp, n);
        rt.run("walk", &[l]).unwrap();
        let v = interp.load_str("*sum*").unwrap();
        assert_eq!(v, Value::int(n * (n + 1) / 2), "run {run}");
    }
}

#[test]
fn maximal_contention_single_cell() {
    // Every invocation CASes the same cell: the total must be exact.
    let out = Curare::new()
        .transform_source(
            "(curare-declare (reorderable +))
             (defun hammer (acc l)
               (when l
                 (hammer acc (cdr l))
                 (setf (car acc) (+ (car acc) 1))))",
        )
        .unwrap();
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 8);
    let acc = interp.heap().cons(Value::int(0), Value::NIL);
    let l = int_list(&interp, 10_000);
    rt.run("hammer", &[acc, l]).unwrap();
    assert_eq!(interp.heap().car(acc).unwrap(), Value::int(10_000));
}

#[test]
fn pools_create_and_destroy_rapidly() {
    let interp = Arc::new(Interp::new());
    interp.load_str("(defun nopwalk (l) (when l (cri-enqueue 0 nopwalk (cdr l))))").unwrap();
    for servers in [1usize, 2, 3, 4, 1, 8, 2] {
        let rt = CriRuntime::new(Arc::clone(&interp), servers);
        let l = int_list(&interp, 100);
        rt.run("nopwalk", &[l]).unwrap();
        drop(rt); // joins all servers
    }
    // After the last drop, sequential semantics are restored.
    let l = int_list(&interp, 5);
    interp.call("nopwalk", &[l]).unwrap();
}

#[test]
fn two_functions_share_one_pool() {
    let out = Curare::new()
        .transform_source(
            "(curare-declare (reorderable +))
             (defun up (l)
               (when l (setq *a* (+ *a* 1)) (up (cdr l))))
             (defun down (l)
               (when l (setq *b* (+ *b* 1)) (down (cdr l))))",
        )
        .unwrap();
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).unwrap();
    interp.load_str("(defparameter *a* 0) (defparameter *b* 0)").unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 4);
    for _ in 0..10 {
        let l1 = int_list(&interp, 200);
        rt.run("up", &[l1]).unwrap();
        let l2 = int_list(&interp, 300);
        rt.run("down", &[l2]).unwrap();
    }
    assert_eq!(interp.load_str("*a*").unwrap(), Value::int(2000));
    assert_eq!(interp.load_str("*b*").unwrap(), Value::int(3000));
}

#[test]
fn future_sync_deep_chain_on_tiny_pool() {
    // 1-server pool with 1000 nested touches: helping keeps it alive.
    let out = Curare::new()
        .transform_source(
            "(defun rot (l)
               (when l
                 (rot (cdr l))
                 (setf (cdr l) (car l))))",
        )
        .unwrap();
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 1);
    let l = int_list(&interp, 1000);
    rt.run("rot", &[l]).unwrap();
    let car = interp.heap().car(l).unwrap();
    let cdr = interp.heap().cdr(l).unwrap();
    assert_eq!(car, cdr, "each cell's cdr holds its car after rotate");
}

#[test]
fn pool_sum_equals_the_closed_form() {
    let src = "(curare-declare (reorderable +))
               (defun walk (l)
                 (when l (setq *s* (+ *s* (car l))) (walk (cdr l))))";
    let out = Curare::new().transform_source(src).unwrap();
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).unwrap();
    interp.load_str("(defparameter *s* 0)").unwrap();
    let pool = CriRuntime::new(Arc::clone(&interp), 4);
    let l = int_list(&interp, 5000);
    pool.run("walk", &[l]).unwrap();
    assert_eq!(interp.load_str("*s*").unwrap(), Value::int(5000 * 5001 / 2));
}

#[test]
fn per_site_fifo_order_is_preserved_by_both_schedulers() {
    // One server makes dequeue order observable as execution order.
    // Each `fan` invocation publishes a batch of three tasks — two
    // leaves at site 0 and the next fan at site 1 — so this exercises
    // batch publication keeping within-site FIFO order, and the
    // lowest-site-first rule draining site 0 before site 1.
    let src = "(defun fan (n)
                 (when (> n 0)
                   (cri-enqueue 0 leaf (* 2 n))
                   (cri-enqueue 0 leaf (+ (* 2 n) 1))
                   (cri-enqueue 1 fan (- n 1))))
               (defun leaf (v) (setq *ord* (cons v *ord*)))";
    let rounds = 60;
    let mut expected = Vec::new();
    for n in (1..=rounds).rev() {
        expected.push(2 * n);
        expected.push(2 * n + 1);
    }
    for mode in [SchedMode::Central, SchedMode::Sharded] {
        let interp = Arc::new(Interp::new());
        interp.load_str(src).unwrap();
        interp.load_str("(defparameter *ord* nil)").unwrap();
        let rt = CriRuntime::with_mode(Arc::clone(&interp), 1, mode);
        rt.run("fan", &[Value::int(rounds)]).unwrap();
        let mut got = Vec::new();
        let mut l = interp.load_str("*ord*").unwrap();
        while !l.is_nil() {
            got.push(interp.heap().car(l).unwrap().as_int().unwrap());
            l = interp.heap().cdr(l).unwrap();
        }
        got.reverse();
        assert_eq!(got, expected, "per-site FIFO order broken under {mode:?}");
    }
}

/// The E11 property: a future-synced program with conflicting writes
/// (Figure 5 over 1500 cells) leaves what the program as written
/// leaves sequentially, whatever the scheduler or server count.
fn e11(configs: &[Config]) {
    agree(&Program { oracle: Oracle::Written, ..Program::named("figure-5", 1500) }, configs);
}

#[test]
fn e11_sequentializability_across_modes_and_pool_sizes() {
    let modes = [SchedMode::Central, SchedMode::Sharded];
    e11(&modes.into_iter().flat_map(|m| [2, 8].map(|s| Config::pool(s, m))).collect::<Vec<_>>());
}

#[test]
fn chaining_fast_path_survives_a_long_walk() {
    // A 30k single-successor walk: nearly every task should run
    // chained on its producing server, and the effect total must
    // still be exact.
    let interp = Arc::new(Interp::new());
    interp
        .load_str(
            "(defun walk (l)
               (when l
                 (atomic-incf *n* (car l))
                 (cri-enqueue 0 walk (cdr l))))",
        )
        .unwrap();
    interp.load_str("(defparameter *n* 0)").unwrap();
    let rt = CriRuntime::with_mode(Arc::clone(&interp), 4, SchedMode::Sharded);
    let n = 30_000;
    let l = int_list(&interp, n);
    rt.run("walk", &[l]).unwrap();
    assert_eq!(interp.load_str("*n*").unwrap(), Value::int(n * (n + 1) / 2));
    let stats = rt.stats();
    assert_eq!(stats.tasks, n as u64 + 1);
    assert!(
        stats.chained_tasks >= n as u64 - 100,
        "long single-successor walk should chain almost always: {stats:?}"
    );
}

#[test]
fn multi_call_site_fanout_is_exact_under_contention() {
    // Three call sites per invocation force batch publication (a
    // 3-task batch can never chain) while several servers drain the
    // shards concurrently.
    let src = "(defun tri (n)
                 (when (> n 0)
                   (cri-enqueue 0 bump-a 1)
                   (cri-enqueue 1 bump-b 1)
                   (cri-enqueue 2 tri (- n 1))))
               (defun bump-a (k) (atomic-incf *a* k))
               (defun bump-b (k) (atomic-incf *b* k))";
    for mode in [SchedMode::Central, SchedMode::Sharded] {
        let interp = Arc::new(Interp::new());
        interp.load_str(src).unwrap();
        interp.load_str("(defparameter *a* 0) (defparameter *b* 0)").unwrap();
        let rt = CriRuntime::with_mode(Arc::clone(&interp), 4, mode);
        let n = 2000;
        rt.run("tri", &[Value::int(n)]).unwrap();
        assert_eq!(interp.load_str("*a*").unwrap(), Value::int(n), "{mode:?}");
        assert_eq!(interp.load_str("*b*").unwrap(), Value::int(n), "{mode:?}");
        let stats = rt.stats();
        assert_eq!(stats.tasks, 3 * n as u64 + 1, "{mode:?}");
        if mode == SchedMode::Sharded {
            assert!(stats.batched_submits > 0, "multi-site fanout must batch: {stats:?}");
        }
    }
}

/// Multi-site spreader over `k` leaf sites: `spread` walks the value
/// list, enqueueing one `leaf` per element on site `v + 1` (the cond
/// ladder — `cri-enqueue` takes literal site indices) plus its own
/// continuation on site 0. Each step publishes a two-task batch, so
/// every leaf goes through the site queues and a skewed value list
/// strands queued work on one owner — the shape stealing exists for.
fn skew_src(k: usize) -> String {
    let mut arms = String::new();
    for v in 0..k {
        arms.push_str(&format!("((= v {v}) (cri-enqueue {} leaf v))\n", v + 1));
    }
    format!(
        "(defparameter *sum* 0)
         (defun spread (l)
           (when l
             (let ((v (car l)))
               (cond {arms} (t nil)))
             (cri-enqueue 0 spread (cdr l))))
         (defun leaf (v) (atomic-incf *sum* (+ v 1)))"
    )
}

#[test]
fn skewed_workload_is_exact_with_and_without_stealing() {
    // 90% of the leaves land on one site: on the central queue every
    // server drains the one group and nothing is stolen; on the
    // sharded one idle servers migrate sites / steal-pop the hot
    // queue. Either way the oracle sum and the exactly-once task count
    // must hold.
    let n = 3000usize;
    let k = 4usize;
    let values: Vec<i64> =
        (0..n).map(|i| if i % 10 == 0 { (i / 10 % k) as i64 } else { 0 }).collect();
    let expect: i64 = values.iter().map(|v| v + 1).sum();
    for mode in [SchedMode::Central, SchedMode::Sharded] {
        let interp = Arc::new(Interp::new());
        interp.load_str(&skew_src(k)).unwrap();
        let rt = CriRuntime::with_mode(Arc::clone(&interp), 4, mode);
        let l = list_of(&interp, &values);
        rt.run("spread", &[l]).unwrap();
        assert_eq!(interp.load_str("*sum*").unwrap(), Value::int(expect), "{mode:?}");
        let stats = rt.stats();
        assert_eq!(stats.tasks, 2 * n as u64 + 1, "exactly-once: {mode:?} {stats:?}");
        if mode == SchedMode::Central {
            assert_eq!(stats.steal_attempts, 0, "one group has no victims: {stats:?}");
            assert_eq!(stats.sites_migrated, 0, "one group has no victims: {stats:?}");
        }
    }
}

#[test]
fn chained_successors_follow_migrated_sites() {
    // The steal-vs-chain race: a single-successor walk chains on site
    // 0 while a hot fan loads sites 1 and 2, so stealing migrates
    // sites between servers mid-walk. The chain check must consult
    // the *current* owner on every step — chaining onto a server that
    // no longer drains the site would strand or reorder the
    // continuation. Exactness of both totals is the detector.
    let src = "(defun driver (l n)
                 (cri-enqueue 0 walk l)
                 (cri-enqueue 1 fan n))
               (defun walk (l)
                 (when l
                   (atomic-incf *w* (car l))
                   (cri-enqueue 0 walk (cdr l))))
               (defun fan (n)
                 (when (> n 0)
                   (cri-enqueue 2 leaf 1)
                   (cri-enqueue 1 fan (- n 1))))
               (defun leaf (v) (atomic-incf *f* v))";
    for round in 0..10 {
        let interp = Arc::new(Interp::new());
        interp.load_str(src).unwrap();
        interp.load_str("(defparameter *w* 0) (defparameter *f* 0)").unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 4);
        let n = 800i64;
        let l = int_list(&interp, n);
        rt.run("driver", &[l, Value::int(n)]).unwrap();
        assert_eq!(interp.load_str("*w*").unwrap(), Value::int(n * (n + 1) / 2), "round {round}");
        assert_eq!(interp.load_str("*f*").unwrap(), Value::int(n), "round {round}");
        // driver + (n+1) walks + (n+1) fans + n leaves.
        assert_eq!(rt.stats().tasks, 3 * n as u64 + 3, "round {round}");
    }
}

/// E11 with the thief in play: idle servers of a sharded pool migrate
/// sites and steal-pop hot queues.
#[test]
fn e11_sequentializability_holds_under_stealing() {
    e11(&[2, 8].map(|s| Config::pool(s, SchedMode::Sharded)));
}

#[test]
fn parked_servers_never_trip_the_stall_watchdog() {
    // An idle server parks on its condvar with an escalating timeout.
    // Parked is the idle phase, not a stall: sitting parked far past
    // the stall budget must produce zero watchdog dumps, and the pool
    // must still serve the next run afterwards.
    let interp = Arc::new(Interp::new());
    interp.load_str(&skew_src(2)).unwrap();
    let rt = CriRuntime::with_config(
        Arc::clone(&interp),
        4,
        RuntimeConfig {
            stall_budget: Some(std::time::Duration::from_millis(40)),
            ..RuntimeConfig::default()
        },
    );
    let values = vec![0i64; 200];
    let l = list_of(&interp, &values);
    rt.run("spread", &[l]).unwrap();
    // All four servers now sit parked; the 40ms budget elapses many
    // times over.
    std::thread::sleep(std::time::Duration::from_millis(250));
    assert!(
        rt.stall_dumps().is_empty(),
        "parked servers must not be counted as stalled: {:?}",
        rt.stall_dumps()
    );
    interp.load_str("(setq *sum* 0)").unwrap();
    let l = list_of(&interp, &values);
    rt.run("spread", &[l]).unwrap();
    assert_eq!(interp.load_str("*sum*").unwrap(), Value::int(200));
    assert!(rt.stats().parks > 0, "the idle gap must actually have parked servers");
}

#[test]
fn random_skewed_workloads_run_exactly_once() {
    // Every scheduler × 1–6 servers four times over, with seeded site
    // counts and skews; every case must keep the oracle sum and the
    // exactly-once task count.
    let mut rng = Rng::new(0xC0FF_EE00);
    for case in 0..48 {
        let k = 1 + rng.below(6);
        let n = 100 + rng.below(500);
        let servers = 1 + case / 2 % 6;
        let mode = [SchedMode::Central, SchedMode::Sharded][case % 2];
        // Skew: each value biased toward site 0 with a drawn
        // probability, the rest spread by the stream.
        let hot_pct = rng.below(101);
        let values: Vec<i64> = (0..n)
            .map(|_| if rng.below(100) < hot_pct { 0 } else { rng.below(k) as i64 })
            .collect();
        let expect: i64 = values.iter().map(|v| v + 1).sum();
        let interp = Arc::new(Interp::new());
        interp.load_str(&skew_src(k)).unwrap();
        let rt = CriRuntime::with_mode(Arc::clone(&interp), servers, mode);
        let l = list_of(&interp, &values);
        rt.run("spread", &[l]).unwrap();
        let ctx = format!("case {case}: k={k} n={n} servers={servers} {mode:?}");
        assert_eq!(interp.load_str("*sum*").unwrap(), Value::int(expect), "{ctx}");
        assert_eq!(rt.stats().tasks, 2 * n as u64 + 1, "{ctx}");
    }
}

#[test]
fn hash_workload_under_unordered_insert_declaration() {
    let out = Curare::new()
        .transform_source(
            "(curare-declare (unordered-insert puthash))
             (defun index (l h)
               (when l
                 (puthash (car l) (car l) h)
                 (index (cdr l) h)))",
        )
        .unwrap();
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 4);
    let h = interp.heap().make_hash();
    let l = int_list(&interp, 3000);
    rt.run("index", &[l, h]).unwrap();
    assert_eq!(interp.heap().hash_table(h).unwrap().len(), 3000);
}
