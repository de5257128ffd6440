//! Invariants that must survive every fault the chaos harness can
//! inject — per-site FIFO under dequeue shuffling, first-write-wins
//! futures, a watchdog that fires on genuine stalls but never on a
//! merely-slow healthy run — and the two a genuine panic must keep: a
//! crashed producer's future fails, and a speculative run escalates
//! with every effect exactly once.

use std::sync::Arc;
use std::time::Duration;

use curare_lisp::{Interp, LispError, Val, Value};
use curare_obs::{report, Json};
use curare_runtime::chaos::{self, ChaosProfile, FaultPlan};
use curare_runtime::queue::ShardedQueues;
use curare_runtime::{CriRuntime, FutureTable, RuntimeConfig, SchedMode, Task};
use curare_testkit::{agree, guard, int_list, quietly, Config, Hook, Oracle, PanicOn, Program};
use curare_transform::Curare;

/// Run `f` with `plan` installed, uninstalling on the way out — even
/// when `f` panics, so one failed assertion cannot cascade into every
/// later test in the process.
fn with_plan<T>(plan: Arc<FaultPlan>, f: impl FnOnce() -> T) -> T {
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            chaos::install(None);
        }
    }
    chaos::install(Some(plan));
    let _u = Uninstall;
    f()
}

fn task(site: usize, tag: i64) -> Task {
    Task { fid: 0, args: vec![Value::int(tag)], site, future: None, inv: 0, root: false }
}

/// Drain `pop` to exhaustion and assert tags stay ascending within
/// each site (tags are assigned per-site in push order).
fn assert_per_site_fifo(mut pop: impl FnMut() -> Option<Task>, sites: usize) {
    let mut last = vec![-1i64; sites];
    let mut popped = 0usize;
    while let Some(t) = pop() {
        let tag = match t.args[0].decode() {
            Val::Int(i) => i,
            other => panic!("not an int tag: {other:?}"),
        };
        assert!(
            tag > last[t.site],
            "site {} went backwards: {} after {}",
            t.site,
            tag,
            last[t.site]
        );
        last[t.site] = tag;
        popped += 1;
    }
    assert_eq!(popped, sites * 40, "shuffled pops must not drop or duplicate tasks");
}

/// A plan that shuffles every single dequeue.
fn always_shuffle(seed: u64) -> Arc<FaultPlan> {
    FaultPlan::new(seed, ChaosProfile { shuffle_ppm: 1_000_000, ..ChaosProfile::quiet("t") })
}

/// Forty tags on each of four sites, pushed round-robin.
fn loaded(q: ShardedQueues) -> ShardedQueues {
    for tag in 0..40 {
        for site in 0..4 {
            q.push(task(site, tag));
        }
    }
    q
}

#[test]
fn pop_shuffle_preserves_per_site_fifo_in_the_central_queue() {
    // The central queue is the one-group structure drained the way a
    // central pool's servers drain it: every server pops the group.
    let _g = guard();
    for seed in 0..8u64 {
        with_plan(always_shuffle(seed), || {
            let q = loaded(ShardedQueues::new());
            let mut server = 0;
            let next = || {
                server += 1;
                q.pop_local(server)
            };
            assert_per_site_fifo(next, 4);
        });
    }
}

#[test]
fn pop_shuffle_preserves_per_site_fifo_in_the_sharded_queues() {
    // The ownership-oblivious pop (helping touch, degraded drain)
    // across two groups' sites.
    let _g = guard();
    for seed in 0..8u64 {
        with_plan(always_shuffle(seed), || {
            let q = loaded(ShardedQueues::with_servers(2));
            assert_per_site_fifo(|| q.pop(), 4);
        });
    }
}

#[test]
fn steal_under_shuffle_preserves_per_site_fifo() {
    // Stealing composes with the chaos dequeue shuffle: server 1
    // drains its own (shuffle-rotated) sites, then migrates /
    // steal-pops server 0's. Within-site order must survive both
    // perturbations at once — migration moves whole queues and
    // steal-pop takes the front, so FIFO holds by construction even
    // while the shuffle legalizes any cross-site order.
    let _g = guard();
    for seed in 0..8u64 {
        with_plan(always_shuffle(seed), || {
            let q = loaded(ShardedQueues::with_servers(2));
            let mut rng = seed.wrapping_add(1);
            assert_per_site_fifo(|| q.pop_local(1).or_else(|| q.steal(1, &mut rng)), 4);
            assert!(q.is_empty(), "thief must have drained both groups");
        });
    }
}

#[test]
fn futures_stay_first_write_wins_under_resolution_stalls() {
    let _g = guard();
    let plan = FaultPlan::new(
        3,
        ChaosProfile { stall_ppm: 1_000_000, stall_max_us: 50, ..ChaosProfile::quiet("t") },
    );
    with_plan(plan, || {
        let t = FutureTable::new();
        let id = match t.create().decode() {
            Val::Future(id) => id,
            other => panic!("not a future: {other:?}"),
        };
        assert!(t.resolve(id, Value::int(1)));
        assert!(!t.resolve(id, Value::int(2)), "a second producer must not overwrite");
        assert!(!t.fail(id, LispError::User("late".into())));
        assert_eq!(t.touch(id).unwrap(), Value::int(1));
    });
}

fn sum_walk_interp() -> Arc<Interp> {
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
    interp
}

/// A slow-but-healthy run (sub-millisecond injected delays) against a
/// generous budget: the watchdog must stay silent.
#[test]
fn watchdog_never_fires_on_a_merely_slow_healthy_run() {
    let _g = guard();
    let plan = FaultPlan::new(9, ChaosProfile::named("delays").unwrap());
    with_plan(plan, || {
        let interp = sum_walk_interp();
        let rt = CriRuntime::with_config(
            Arc::clone(&interp),
            4,
            RuntimeConfig {
                stall_budget: Some(Duration::from_millis(500)),
                ..RuntimeConfig::default()
            },
        );
        let l = int_list(&interp, 400);
        rt.run("walk", &[l]).unwrap();
        let stats = rt.stats();
        assert_eq!(stats.stall_dumps, 0, "no false positives: {stats:?}");
        assert!(rt.stall_dumps().is_empty());
    });
    // No plan: the walk is one task whose frame restarts in place
    // 20 000 times, far longer in all than the budget. Each link is
    // progress and must refresh the heartbeat.
    let interp = Arc::new(Interp::new());
    interp
        .load_str(
            "(defun slow-walk (l)
               (when l
                 (dotimes (i 400) (car l))
                 (cri-enqueue 0 slow-walk (cdr l))))",
        )
        .unwrap();
    let budget = Duration::from_millis(50);
    let config = RuntimeConfig { stall_budget: Some(budget), ..RuntimeConfig::default() };
    let rt = CriRuntime::with_config(Arc::clone(&interp), 2, config);
    let l = int_list(&interp, 20_000);
    let started = std::time::Instant::now();
    rt.run("slow-walk", &[l]).unwrap();
    assert!(started.elapsed() > 2 * budget, "the chain must outlast the budget to test it");
    let stats = rt.stats();
    assert_eq!(stats.in_place_tasks, 20_000, "{stats:?}");
    assert_eq!(stats.stall_dumps, 0, "no false positives: {stats:?}");
}

/// Genuine stalls (task-start delays far past the budget) must produce
/// at least one stall dump — and the run must still finish with the
/// right answer, because the watchdog only reports.
#[test]
fn watchdog_dumps_on_a_genuine_stall() {
    let _g = guard();
    let n = 8i64;
    let plan = FaultPlan::new(
        2,
        ChaosProfile {
            delay_ppm: 1_000_000,
            delay_max_us: 120_000,
            ..ChaosProfile::quiet("wedge")
        },
    );
    with_plan(plan, || {
        let interp = sum_walk_interp();
        let rt = CriRuntime::with_config(
            Arc::clone(&interp),
            2,
            RuntimeConfig {
                stall_budget: Some(Duration::from_millis(20)),
                ..RuntimeConfig::default()
            },
        );
        let l = int_list(&interp, n);
        rt.run("walk", &[l]).unwrap();
        assert_eq!(interp.load_str("*sum*").unwrap(), Value::int(n * (n + 1) / 2));
        let stats = rt.stats();
        assert!(stats.stall_dumps >= 1, "a 20ms budget against ~60ms delays: {stats:?}");
        let doc = report::document("walk", [("stalls", Json::Arr(rt.stall_dumps()))]);
        let doc = report::validate(&doc.to_string(), &["stalls"]).unwrap();
        let dumps = doc.get("stalls").and_then(Json::as_arr).unwrap();
        assert!(dumps[0].get("phase").is_some(), "a dump names the stuck phase: {doc}");
    });
}

// ----------------------------------------------------------------
// SpecMode × chaos
// ----------------------------------------------------------------

/// ⊤-write walker: parallel only under speculation (transform case A).
const SCRUB: &str = "(defun frob (l) l)
     (defun crunch (x) (+ x 1))
     (defun scrub (l)
       (when (consp l)
         (scrub (cdr l))
         (setf (car (frob l)) (crunch (car l)))))";

/// Genuine panics under `SpecMode` must not poison or double any
/// effect: panicked invocations park as errored, the validator
/// escalates, the rollback erases every journaled write, and the
/// sequential rerun applies each effect exactly once.
#[test]
fn speculative_effects_stay_exactly_once_when_panics_force_escalation() {
    let _g = guard();
    let n = 120i64;
    let out = Curare::new()
        .with_speculation(true)
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
    let rt = CriRuntime::with_config(
        Arc::clone(&interp),
        4,
        RuntimeConfig { speculate: true, ..RuntimeConfig::default() },
    );
    // Link 41 dies at its spawn: the chain's suffix is never spawned,
    // so only the rerun can leave the right sum.
    PanicOn::install(&interp, Hook::Enqueue, 40, 1);
    let l = int_list(&interp, n);
    quietly(|| rt.run("walk", &[l])).expect("speculative run completes");
    assert_eq!(
        interp.load_str("*sum*").unwrap(),
        Value::int(n * (n + 1) / 2),
        "rollback + sequential rerun must leave each increment exactly once"
    );
    let stats = rt.stats();
    assert!(stats.spec_escalated, "a panicked invocation must escalate: {stats:?}");
    assert_eq!(stats.servers_poisoned, 0, "SpecMode never poisons servers: {stats:?}");
    assert!(!stats.degraded, "escalation is not the poison/degrade ladder: {stats:?}");
}

/// The abort machinery racing the chaos adversary: full-rate dequeue
/// shuffling plus small delays, on the two speculation-specific
/// programs, across 32 seeds and both schedulers — every run must
/// still land on the sequential oracle exactly.
#[test]
fn shuffled_speculative_sweep_matches_oracle_across_32_seeds() {
    for mode in [SchedMode::Central, SchedMode::Sharded] {
        for seed in 0..32u64 {
            let n = 24 + (seed as i64 % 13);
            let program = if seed % 2 == 0 {
                Program {
                    args: Arc::new(move |interp| vec![int_list(interp, n)]),
                    oracle: Oracle::Restructured,
                    ..Program::entered(format!("scrub (n = {n})"), SCRUB, "scrub")
                }
            } else {
                Program::named("aliased-mix", n)
            };
            agree(&program, &[Config::pool(4, mode).chaos("shuffle-all", seed).speculating()]);
        }
    }
}

/// Regression (orphaned-future fix): a producer that dies between
/// future creation and resolution must fail the future so waiters get
/// an error instead of blocking forever. Before the fix this test
/// hung in `touch`.
#[test]
fn crashed_producer_fails_its_future_instead_of_orphaning_waiters() {
    let _g = guard();
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
    let rt = CriRuntime::with_config(Arc::clone(&interp), 2, RuntimeConfig::default());
    // `rot` touches the future of its recursive call. The root's
    // future is created; the invocation producing it dies creating its
    // own, so an orphaned future would wedge the root's touch.
    PanicOn::install(&interp, Hook::Future, 1, 1);
    let l = int_list(&interp, 50);
    let err = quietly(|| rt.run("rot", &[l])).expect_err("the crash must surface as an error");
    let msg = format!("{err:?}");
    assert!(msg.contains("task panicked"), "panic surfaces in the run error: {msg}");
}
