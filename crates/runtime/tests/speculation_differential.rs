//! Speculative-execution differential battery (`SpecMode`).
//!
//! The contract under test: a speculative run — optimistic parallel
//! execution, journaled effects, commit-time validation with
//! abort/replay, sequential-rerun escalation — produces *exactly* the
//! sequential oracle's observable outcome (structure, globals, and
//! printed output), for every program, under both schedulers. The
//! programs mirror the example set (`examples/lisp`) and the chaos
//! battery's fixtures, plus two speculation-specific ones:
//!
//! - `Scrub`, a ⊤-write walker (`(setf (car (frob l)) ...)`) the
//!   static analysis must refuse — it runs in parallel *only* under
//!   speculation (transform case A), and must commit clean;
//! - `AliasedMix`, a cross-parameter walker called with both
//!   arguments aliased to one list — the single-access-path premise
//!   is violated at runtime in a way no static check can see, so the
//!   validator must abort and replay until the sequential answer
//!   emerges;
//! - `FutureRead` and `HelperGlobal`, ⊤-write walkers whose tails
//!   read–modify–write one accumulator (a cons cell; a global, written
//!   inside a helper the admission rule does not see). Tails run in
//!   spawn order and rank in unwind order, so every tail but one reads
//!   what a sequentially *later* tail stored: the reader must abort
//!   with the writer, and a global must be journaled whichever engine
//!   touches it.

mod common;

use std::sync::Arc;

use common::{guard, with_big_stack};
use curare_lisp::{Engine, Interp, Value};
use curare_runtime::{CriRuntime, PoolStats, RuntimeConfig, SchedMode};
use curare_transform::Curare;

#[derive(Clone, Copy, Debug)]
enum Prog {
    /// Paper Figure 5: conflicting neighbour-sum walker (head order).
    Figure5,
    /// Distance-1 tail writer (lock pipeline).
    Rotate,
    /// Commutative global accumulation (`reorderable +`), with output.
    SumWalk,
    /// Tail writer with conflict distance `k`.
    DistanceK(usize),
    /// Paper Figure 12 `remq` via the DPS transform.
    Remq,
    /// The `examples/lisp/sum.lisp` fold: pure reduction through an
    /// accumulator cell and atomic RMWs.
    SumFold,
    /// ⊤-write walker: unanalyzable write root, admitted only under
    /// speculation.
    Scrub,
    /// Cross-parameter walker, called with aliased arguments.
    AliasedMix,
    /// Tails accumulate into one cons cell, each from a value a
    /// sequentially later tail stored first.
    FutureRead,
    /// The same through a global variable set in a helper.
    HelperGlobal,
}

/// `(defun bump (v) ...)`: read the accumulator `place`, count sixteen
/// up from it, store that plus `v` — a window for other tails to land
/// in, and 17 per cell of a list of ones.
fn bump(place: &str, store: &str) -> String {
    let steps = "(setq x (1+ x)) ".repeat(16);
    format!(
        "(defun veil (l) l)
         (defun bump (v) (let ((x {place})) {steps} ({store} (+ x v))))
         (defun f (l)
           (when (consp l)
             (f (cdr l))
             (bump (car l))
             (setf (car (veil l)) 0)))"
    )
}

impl Prog {
    fn source(self) -> String {
        match self {
            Prog::Figure5 => "(defun f (l)
                  (cond ((null l) nil)
                        ((null (cdr l)) (f (cdr l)))
                        (t (setf (cadr l) (+ (car l) (cadr l)))
                           (f (cdr l)))))"
                .into(),
            Prog::Rotate => "(defun rotate (l)
                  (when l
                    (rotate (cdr l))
                    (setf (cdr l) (car l))))"
                .into(),
            Prog::SumWalk => "(curare-declare (reorderable +))
                 (defun walk (l)
                   (when l
                     (setq *sum* (+ *sum* (car l)))
                     (walk (cdr l))))"
                .into(),
            Prog::DistanceK(k) => {
                let mut place = "l".to_string();
                for _ in 0..k {
                    place = format!("(cdr {place})");
                }
                format!(
                    "(defun fk (l)
                       (when l
                         (fk (cdr l))
                         (when {place}
                           (setf (car {place}) (car l)))))"
                )
            }
            Prog::Remq => "(defun remq (obj lst)
                  (cond ((null lst) nil)
                        ((eq obj (car lst)) (remq obj (cdr lst)))
                        (t (cons (car lst) (remq obj (cdr lst))))))"
                .into(),
            Prog::SumFold => "(curare-declare (reorderable +))
                 (defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))"
                .into(),
            Prog::Scrub => "(defun frob (l) l)
                 (defun crunch (x) (+ x 1))
                 (defun scrub (l)
                   (when (consp l)
                     (scrub (cdr l))
                     (setf (car (frob l)) (crunch (car l)))))"
                .into(),
            Prog::AliasedMix => "(defun mix (a b)
                  (when (consp b)
                    (mix (cddr a) (cdr b))
                    (setf (car b) (car a))))"
                .into(),
            Prog::FutureRead => {
                let defs = bump("(car *acc*)", "setf (car (veil *acc*))");
                format!("(defparameter *acc* (cons 0 nil)) {defs}")
            }
            Prog::HelperGlobal => {
                format!("(defparameter *sum* 0) {}", bump("*sum*", "setq *sum*"))
            }
        }
    }

    /// Transform (with speculation admission on) and load into a
    /// fresh interpreter. Returns the interpreter and whether the
    /// function converted at all.
    fn interp(self) -> Arc<Interp> {
        let out = Curare::new()
            .with_speculation(true)
            .transform_source(&self.source())
            .expect("transforms");
        let interp = Arc::new(Interp::new());
        interp.load_str(&out.source()).expect("loads");
        interp
    }

    /// Build this program's input, run its entry through `exec`, and
    /// return the canonical observation (mutated structure, global,
    /// accumulator, or DPS result — plus any printed output) as one
    /// display string.
    fn observe(self, interp: &Arc<Interp>, n: i64, exec: &dyn Fn(&str, &[Value])) -> String {
        let heap = interp.heap();
        let structure = match self {
            Prog::Figure5 => {
                let mut data = Value::NIL;
                for _ in 0..n {
                    data = heap.cons(Value::int(1), data);
                }
                exec("f", &[data]);
                heap.display(data)
            }
            Prog::Rotate | Prog::DistanceK(_) => {
                let entry = if matches!(self, Prog::Rotate) { "rotate" } else { "fk" };
                let mut data = Value::NIL;
                for i in 0..n {
                    data = heap.cons(Value::int(i + 1), data);
                }
                exec(entry, &[data]);
                heap.display(data)
            }
            Prog::SumWalk => {
                interp.load_str("(defparameter *sum* 0)").unwrap();
                let mut data = Value::NIL;
                for i in 0..n {
                    data = heap.cons(Value::int(i + 1), data);
                }
                exec("walk", &[data]);
                let v = interp.load_str("*sum*").unwrap();
                heap.display(v)
            }
            Prog::Remq => {
                let obj = heap.sym_value("a");
                let syms = ["a", "b", "a", "c", "d"];
                let mut lst = Value::NIL;
                for i in 0..n {
                    lst = heap.cons(heap.sym_value(syms[i as usize % syms.len()]), lst);
                }
                let dest = heap.cons(Value::NIL, Value::NIL);
                exec("remq-d", &[dest, obj, lst]);
                heap.display(heap.cdr(dest).unwrap())
            }
            Prog::SumFold => {
                let mut data = Value::NIL;
                for i in 0..n {
                    data = heap.cons(Value::int(i + 1), data);
                }
                let acc = heap.cons(Value::int(0), Value::NIL);
                exec("sum-acc", &[acc, data]);
                heap.display(heap.car(acc).unwrap())
            }
            Prog::Scrub => {
                let mut data = Value::NIL;
                for i in 0..n {
                    data = heap.cons(Value::int(i + 1), data);
                }
                exec("scrub", &[data]);
                heap.display(data)
            }
            Prog::AliasedMix => {
                let mut data = Value::NIL;
                for i in 0..n {
                    data = heap.cons(Value::int(i + 1), data);
                }
                // Both parameters alias one list: the analysis's
                // unaliased-parameters premise is false at runtime.
                exec("mix", &[data, data]);
                heap.display(data)
            }
            Prog::FutureRead | Prog::HelperGlobal => {
                let mut data = Value::NIL;
                for _ in 0..n {
                    data = heap.cons(Value::int(1), data);
                }
                exec("f", &[data]);
                let acc = if matches!(self, Prog::FutureRead) { "(car *acc*)" } else { "*sum*" };
                format!("{} {}", heap.display(interp.load_str(acc).unwrap()), heap.display(data))
            }
        };
        let output = interp.take_output().join("\n");
        format!("{structure}\n--output--\n{output}")
    }

    /// Sequential oracle observation for size `n` (the transformed
    /// source under `SequentialHooks`).
    fn oracle(self, n: i64) -> String {
        with_big_stack(|| {
            let interp = self.interp();
            self.observe(&interp, n, &|entry, args| {
                interp.call(entry, args).expect("oracle run");
            })
        })
    }

    /// One speculative pooled run.
    fn spec_run(self, n: i64, mode: SchedMode, servers: usize) -> (String, PoolStats) {
        self.spec_run_on(Engine::Vm, n, mode, servers)
    }

    fn spec_run_on(
        self,
        engine: Engine,
        n: i64,
        mode: SchedMode,
        servers: usize,
    ) -> (String, PoolStats) {
        let interp = self.interp();
        interp.set_engine(engine);
        let rt = CriRuntime::with_config(
            Arc::clone(&interp),
            servers,
            RuntimeConfig { mode, speculate: true, ..RuntimeConfig::default() },
        );
        assert!(rt.speculating(), "speculation must be armed");
        let observed = self.observe(&interp, n, &|entry, args| {
            rt.run(entry, args).expect("speculative run completes");
        });
        let stats = rt.stats();
        drop(rt);
        (observed, stats)
    }
}

const PROGRAMS: [Prog; 10] = [
    Prog::Figure5,
    Prog::Rotate,
    Prog::SumWalk,
    Prog::DistanceK(2),
    Prog::Remq,
    Prog::SumFold,
    Prog::Scrub,
    Prog::AliasedMix,
    Prog::FutureRead,
    Prog::HelperGlobal,
];

fn sweep(mode: SchedMode) {
    let _g = guard();
    for prog in PROGRAMS {
        for round in 0..4u64 {
            let n = 24 + (round as i64 * 13);
            let expect = prog.oracle(n);
            let (got, stats) = prog.spec_run(n, mode, 4);
            assert_eq!(
                got, expect,
                "{prog:?} diverged from the sequential oracle ({mode:?}, n {n}); \
                 stats: commits {} aborts {} replays {} escalated {}",
                stats.spec_commits, stats.spec_aborts, stats.spec_replays, stats.spec_escalated
            );
        }
    }
}

#[test]
fn every_program_matches_oracle_central() {
    sweep(SchedMode::Central);
}

#[test]
fn every_program_matches_oracle_sharded() {
    sweep(SchedMode::Sharded);
}

/// The ⊤-write walker is the speculation headline: statically Blocked
/// (unanalyzable write root), it must actually run as parallel
/// invocations under `SpecMode` and commit without escalation.
#[test]
fn top_write_walker_commits_clean_in_parallel() {
    let _g = guard();
    let n = 64;
    let expect = Prog::Scrub.oracle(n);
    let (got, stats) = Prog::Scrub.spec_run(n, SchedMode::Sharded, 4);
    assert_eq!(got, expect);
    assert!(!stats.spec_escalated, "scrub must not need the sequential fallback");
    assert!(
        stats.spec_commits >= n as u64,
        "one committed invocation per cell, got {}",
        stats.spec_commits
    );
    assert_eq!(
        stats.spec_clean, stats.spec_commits,
        "writes are per-cell disjoint: every invocation must commit clean"
    );
}

/// The under-declared-aliasing fixture: `mix` looks conflict-free to
/// the analysis (distinct parameters), but both arguments alias one
/// list. The validator must detect the cross-invocation read/write
/// races, abort, and converge to the sequential answer.
#[test]
fn aliased_arguments_abort_and_converge() {
    let _g = guard();
    let mut aborts = 0u64;
    for round in 0..6u64 {
        let n = 32 + (round as i64 * 11);
        let expect = Prog::AliasedMix.oracle(n);
        let (got, stats) = Prog::AliasedMix.spec_run(n, SchedMode::Sharded, 4);
        assert_eq!(got, expect, "aliased mix diverged (n {n})");
        aborts += stats.spec_aborts;
        if stats.spec_escalated {
            // Escalation is a legal outcome (it reruns sequentially);
            // count it as detection too.
            aborts += 1;
        }
    }
    assert!(
        aborts > 0,
        "the aliasing race must have been detected at least once across the battery"
    );
}

/// Both accumulators, on every pool shape and both engines, from the
/// smallest list on which a tail can read from the future. On one
/// server the schedule is fixed: tail k runs before tail k + 1 and
/// ranks after it, so all but one invocation must abort (or the run
/// escalate) — a validator that commits them clean has committed
/// 17·(2n − 1) for 17·n.
#[test]
fn a_tail_that_read_a_later_tails_store_never_commits_its_sum() {
    let _g = guard();
    for prog in [Prog::FutureRead, Prog::HelperGlobal] {
        for n in [2, 3, 300] {
            let expect = prog.oracle(n);
            assert!(expect.starts_with(&format!("{} (0 0", 17 * n)), "{prog:?}: {expect}");
            for engine in [Engine::Vm, Engine::Tree] {
                for mode in [SchedMode::Sharded, SchedMode::Central] {
                    for servers in [1, 2, 4] {
                        let (got, stats) = prog.spec_run_on(engine, n, mode, servers);
                        let what = format!("{prog:?}, n {n}, {engine:?}, {mode:?}, S = {servers}");
                        assert_eq!(got, expect, "{what}: {stats:?}");
                        if servers == 1 {
                            assert!(
                                stats.spec_escalated || stats.spec_aborts >= n as u64 - 1,
                                "{what}: {stats:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Speculative runs print through the journal: committed lines come
/// out in sequential order, aborted invocations leave no output.
#[test]
fn printed_output_is_committed_in_sequential_order() {
    let _g = guard();
    let src = "(defun chant (l)
           (when (consp l)
             (chant (cdr l))
             (print (car l))))";
    let build = || {
        let out = Curare::new().with_speculation(true).transform_source(src).expect("transforms");
        let interp = Arc::new(Interp::new());
        interp.load_str(&out.source()).expect("loads");
        interp
    };
    let mk_list = |interp: &Arc<Interp>, n: i64| {
        let mut data = Value::NIL;
        for i in 0..n {
            data = interp.heap().cons(Value::int(i + 1), data);
        }
        data
    };
    let n = 40;
    let oracle = with_big_stack(|| {
        let interp = build();
        let data = mk_list(&interp, n);
        interp.call("chant", &[data]).expect("oracle");
        interp.take_output()
    });
    let interp = build();
    let rt = CriRuntime::with_config(
        Arc::clone(&interp),
        4,
        RuntimeConfig { speculate: true, ..RuntimeConfig::default() },
    );
    let data = mk_list(&interp, n);
    rt.run("chant", &[data]).expect("speculative run");
    assert_eq!(interp.take_output(), oracle, "printed lines must commit in sequential order");
}

/// A pool configured without speculation reports `speculating() == false` and journals nothing.
#[test]
fn speculation_off_is_the_default() {
    let _g = guard();
    let interp = Prog::Figure5.interp();
    let rt = CriRuntime::with_config(Arc::clone(&interp), 2, RuntimeConfig::default());
    assert!(!rt.speculating());
    let mut data = Value::NIL;
    for _ in 0..8 {
        data = interp.heap().cons(Value::int(1), data);
    }
    rt.run("f", &[data]).expect("plain run");
    assert_eq!(rt.stats().spec_commits, 0);
}

// ---------------------------------------------------------------
// One journal, armed at one of two levels by one run at a time.
// ---------------------------------------------------------------

/// `hold` keeps its run in flight, polling a global (with some
/// busywork between polls, so a slow host journals few reads) until
/// the test lets go; then it scrubs.
const HOLD: &str = "(defparameter *go* 0)
     (defun nap (i) (if (< i 2000) (nap (+ i 1)) i))
     (defun hold (l) (nap 0) (if (= *go* 0) (hold l) (scrub l)))
     (defun scrub (l)
       (when (consp l)
         (cri-enqueue 0 scrub (cdr l))
         (setf (car l) (+ (car l) 1))))";
const HELD_LIST: &str = "(1 2 3 4 5 6 7 8)";
const SCRUBBED: &str = "(2 3 4 5 6 7 8 9)";

/// A fresh interpreter with `HOLD` loaded, a two-server pool over it
/// and `HELD_LIST` on its heap.
fn hold_pool(speculate: bool) -> (Arc<Interp>, CriRuntime, Value) {
    let interp = Arc::new(Interp::new());
    interp.load_str(HOLD).expect("loads");
    let config = RuntimeConfig { speculate, ..RuntimeConfig::default() };
    let rt = CriRuntime::with_config(Arc::clone(&interp), 2, config);
    let data = interp.load_str(&format!("(list {})", &HELD_LIST[1..HELD_LIST.len() - 1])).unwrap();
    (interp, rt, data)
}

/// Keep a speculative `hold` run in flight on a pool of its own while
/// `during` runs, then let it go: returns what `during` made, the
/// held run's list as it left it, and its pool's statistics. The run
/// is let go on every path out of `during`, a panic included — a
/// failed assertion in there must fail the test, not leave the scope
/// joining a run that never ends and the suite spinning for good.
fn while_a_speculative_run_is_held<R>(during: impl FnOnce() -> R) -> (R, String, PoolStats) {
    struct LetGo<'a>(&'a Interp);
    impl Drop for LetGo<'_> {
        fn drop(&mut self) {
            self.0.load_str("(setq *go* 1)").expect("lets go");
        }
    }
    let (held, held_rt, held_data) = hold_pool(true);
    let made = std::thread::scope(|s| {
        let in_flight = s.spawn(|| held_rt.run("hold", &[held_data]));
        let let_go = LetGo(&held);
        while !curare_lisp::speclog::armed() && !in_flight.is_finished() {
            std::thread::yield_now();
        }
        let made = during();
        drop(let_go);
        in_flight.join().expect("no panic").expect("the held run is unharmed");
        made
    });
    (made, held.heap().display(held_data), held_rt.stats())
}

/// The journal is process-wide, so one speculative run may be in
/// flight at a time. A second pool's `run` during it must fail with an
/// explicit error — before touching the journal, the heap or the first
/// run, which commits as if nothing had happened — and work once the
/// first is done.
#[test]
fn a_second_speculative_run_in_flight_is_refused() {
    let _g = guard();
    let (second, second_rt, second_data) = hold_pool(true);
    let ((refused, after_refusal, still_armed), held_list, held) =
        while_a_speculative_run_is_held(|| {
            let refused = second_rt.run("scrub", &[second_data]).unwrap_err().to_string();
            (refused, second.heap().display(second_data), curare_lisp::speclog::armed())
        });
    assert!(refused.contains("a speculative run is already in flight"), "{refused}");
    assert_eq!(after_refusal, HELD_LIST, "refused means untouched");
    assert!(still_armed, "the first run keeps its journal");
    assert_eq!(held_list, SCRUBBED);
    assert_eq!((held.spec_commits, held.spec_aborts, held.spec_escalated), (9, 0, false));
    second_rt.run("scrub", &[second_data]).expect("free again once the first resolved");
    assert_eq!(second.heap().display(second_data), SCRUBBED);
    assert_eq!(second_rt.stats().spec_commits, 9);
}

/// A speculative run's order is made of its own pool's spawns. A plain
/// pool running beside it gets invocation ids while the journal is
/// armed, and its accesses are journaled — but it must stay out of the
/// speculative run's tree: its invocations are nobody's to commit,
/// abort or replay.
#[test]
fn a_plain_pool_beside_a_speculative_run_stays_out_of_its_tree() {
    let _g = guard();
    let (plain, plain_rt, plain_data) = hold_pool(false);
    let (ran, held_list, held) =
        while_a_speculative_run_is_held(|| plain_rt.run("scrub", &[plain_data]));
    ran.expect("a plain pool runs beside a speculative one");
    assert_eq!(plain.heap().display(plain_data), SCRUBBED);
    assert_eq!(plain_rt.stats().spec_commits, 0);
    assert_eq!(held_list, SCRUBBED);
    assert_eq!((held.spec_commits, held.spec_aborts, held.spec_escalated), (9, 0, false));
}

/// The journal's other level, `observe`, is the sanitizer's: it
/// records the run and leaves it alone. Printed lines reach the output
/// log as they are printed, not through a commit; a body error is the
/// run's error, not a parked one for a validator that will never run.
#[test]
fn an_observed_run_prints_and_fails_like_an_unobserved_one() {
    let _g = guard();
    let src = "(defun chant (l)
           (cond ((null l) (car 7))
                 (t (print (car l)) (cri-enqueue 0 chant (cdr l)))))";
    let interp = Arc::new(Interp::new());
    interp.load_str(src).expect("loads");
    let rt = CriRuntime::with_config(Arc::clone(&interp), 1, RuntimeConfig::default());
    let data = interp.load_str("(list 1 2 3 4 5)").unwrap();
    curare_lisp::speclog::observe().expect("a free journal");
    let err = rt.run("chant", &[data]).expect_err("the last invocation's error is the run's");
    let seen = curare_lisp::speclog::observed();
    assert!(err.to_string().contains("car"), "{err}");
    assert_eq!(interp.take_output(), ["1", "2", "3", "4", "5"], "undiverted, in order");
    assert_eq!(seen.spawns.len(), 6, "and every invocation was seen");
    assert!(!curare_lisp::speclog::armed());
}
