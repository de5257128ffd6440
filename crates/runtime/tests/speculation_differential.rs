//! Speculative-execution differential battery (`SpecMode`).
//!
//! The contract under test: a speculative run — optimistic parallel
//! execution, journaled effects, commit-time validation with
//! abort/replay, sequential-rerun escalation — leaves *exactly* what
//! the sequential oracle leaves (`agree`: value, output, heap,
//! globals), for every program, under both schedulers. The programs
//! are `curare-bench`'s table's, among them two speculation-specific
//! ones:
//!
//! - `scrub-top`, a ⊤-write walker the static analysis must refuse —
//!   it runs in parallel *only* under speculation, and must commit
//!   clean;
//! - `aliased-mix`, a cross-parameter walker called with both
//!   arguments aliased to one list — the single-access-path premise is
//!   violated at runtime in a way no static check can see, so the
//!   validator must abort and replay until the sequential answer
//!   emerges;
//!
//! and, beside them, the `sum.lisp` fold and two ⊤-write walkers whose
//! tails read–modify–write one accumulator (a cons cell; a global,
//! written inside a helper the admission rule does not see). Tails run
//! in spawn order and rank in unwind order, so every tail but one reads
//! what a sequentially *later* tail stored: the reader must abort with
//! the writer, and a global must be journaled whichever engine touches
//! it.

use std::sync::Arc;

use curare_lisp::{Interp, Value};
use curare_runtime::{CriRuntime, PoolStats, RuntimeConfig, SchedMode};
use curare_testkit::{agree, guard, int_list, list_of, Config, Engine, Oracle, Program};
use curare_transform::Curare;

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

/// `f` over `n` ones, its tails accumulating into one cons cell or,
/// with `global`, into a global set in a helper. Held to the program
/// as written.
fn accumulator(global: bool, n: usize) -> Program {
    let (name, source) = if global {
        ("helper-global", format!("(defparameter *sum* 0) {}", bump("*sum*", "setq *sum*")))
    } else {
        let defs = bump("(car *acc*)", "setf (car (veil *acc*))");
        ("future-read", format!("(defparameter *acc* (cons 0 nil)) {defs}"))
    };
    Program {
        args: Arc::new(move |interp| vec![list_of(interp, vec![1; n])]),
        ..Program::entered(format!("{name} (n = {n})"), &source, "f")
    }
}

/// The `examples/lisp/sum.lisp` fold over `(n … 1)`: a pure reduction
/// through an accumulator cell and atomic RMWs. Its entry passes the
/// accumulator, so its value is not compared.
fn sum_fold(n: i64) -> Program {
    let source = "(curare-declare (reorderable +))
                  (defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))";
    Program {
        args: Arc::new(move |i| vec![i.heap().cons(Value::int(0), Value::NIL), int_list(i, n)]),
        oracle: Oracle::Restructured,
        root_value: false,
        ..Program::entered(format!("sum-fold (n = {n})"), source, "sum-acc")
    }
}

fn sweep(mode: SchedMode) {
    let table =
        ["figure-5", "rotate", "sum-walk", "distance-2", "remq-d", "scrub-top", "aliased-mix"];
    for round in 0..4 {
        let n = 24 + round * 13;
        let extra = [sum_fold(n as i64), accumulator(false, n), accumulator(true, n)];
        for program in table.iter().map(|name| Program::named(name, n as i64)).chain(extra) {
            agree(&program, &[Config::pool(4, mode).speculating()]);
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

/// One speculative run of `program` on a sharded pool of four, held to
/// the oracle.
fn speculated(program: &Program) -> PoolStats {
    agree(program, &[Config::pool(4, SchedMode::Sharded).speculating()])[0]
}

/// The ⊤-write walker is the speculation headline: statically Blocked
/// (unanalyzable write root), it must actually run as parallel
/// invocations under `SpecMode` and commit without escalation.
#[test]
fn top_write_walker_commits_clean_in_parallel() {
    let n = 64;
    let stats = speculated(&Program::named("scrub-top", n));
    assert!(!stats.spec_escalated, "scrub must not need the sequential fallback");
    assert!(stats.spec_commits >= n as u64, "one committed invocation per cell: {stats:?}");
    assert_eq!(
        stats.spec_clean, stats.spec_commits,
        "writes are per-cell disjoint: every invocation must commit clean"
    );
}

/// The under-declared-aliasing fixture: `mix` looks conflict-free to
/// the analysis (distinct parameters), but both arguments alias one
/// list. The validator must detect the cross-invocation read/write
/// races, abort, and converge to the sequential answer (escalation is
/// a legal outcome — it reruns sequentially — and counts as detection).
#[test]
fn aliased_arguments_abort_and_converge() {
    let aborts: u64 = (0..6)
        .map(|round| speculated(&Program::named("aliased-mix", 32 + round * 11)))
        .map(|stats| stats.spec_aborts + u64::from(stats.spec_escalated))
        .sum();
    assert!(aborts > 0, "the aliasing race must have been detected at least once");
}

/// Both accumulators, on every pool shape and both engines, from the
/// smallest list on which a tail can read from the future. On one
/// server the schedule is fixed: tail k runs before tail k + 1 and
/// ranks after it, so all but one invocation must abort (or the run
/// escalate) — a validator that commits them clean has committed
/// 17·(2n − 1) for 17·n.
#[test]
fn a_tail_that_read_a_later_tails_store_never_commits_its_sum() {
    let configs: Vec<Config> = [Engine::Vm, Engine::Tree]
        .into_iter()
        .flat_map(|engine| [SchedMode::Sharded, SchedMode::Central].map(|m| (engine, m)))
        .flat_map(|(engine, m)| [1, 2, 4].map(|s| Config { engine, ..Config::pool(s, m) }))
        .map(Config::speculating)
        .collect();
    for global in [false, true] {
        for n in [2, 3, 300] {
            let program = accumulator(global, n);
            let sequential = Interp::new();
            sequential.load_str(&program.source).unwrap();
            let cells = (program.args)(&sequential)[0];
            sequential.call("f", &[cells]).unwrap();
            let acc = sequential.load_str(["(car *acc*)", "*sum*"][usize::from(global)]).unwrap();
            let heap = sequential.heap();
            let left = format!("{} {}", heap.display(acc), heap.display(cells));
            assert!(left.starts_with(&format!("{} (0 0", 17 * n)), "{}: {left}", program.name);
            for (config, stats) in configs.iter().zip(agree(&program, &configs)) {
                let ok =
                    config.servers > 1 || stats.spec_escalated || stats.spec_aborts >= n as u64 - 1;
                assert!(ok, "{} under {config:?}: {stats:?}", program.name);
            }
        }
    }
}

/// Speculative runs print through the journal: committed lines come
/// out in sequential order, aborted invocations leave no output.
#[test]
fn printed_output_is_committed_in_sequential_order() {
    let src = "(defun chant (l)
           (when (consp l)
             (chant (cdr l))
             (print (car l))))";
    let program = Program {
        args: Arc::new(|interp| vec![int_list(interp, 40)]),
        oracle: Oracle::Restructured,
        ..Program::entered("chant", src, "chant")
    };
    speculated(&program);
}

/// A pool configured without speculation reports `speculating() == false` and journals nothing.
#[test]
fn speculation_off_is_the_default() {
    let _g = guard();
    let source = Program::named("figure-5", 8).source;
    let interp = Arc::new(Interp::new());
    interp.load_str(&Curare::new().transform_source(&source).unwrap().source()).unwrap();
    let rt = CriRuntime::with_config(Arc::clone(&interp), 2, RuntimeConfig::default());
    assert!(!rt.speculating());
    rt.run("f", &[int_list(&interp, 8)]).expect("plain run");
    assert_eq!(rt.stats().spec_commits, 0);
}

/// Two speculative runs that escalate, on one server, so the schedule
/// is fixed: `f`'s tails read `*x*` before its successor writes it and
/// abort, and the replays create futures; `g`'s last link fails. The
/// rerun under the sequential hooks completes for `f` and returns the
/// body's error for `g`, and `f`'s value is the rerun's. Either way the interpreter runs under the
/// pool's hooks again: a following run puts its n spawns on the server,
/// n + 1 tasks.
#[test]
fn an_escalated_rerun_hands_the_interpreter_back_to_the_pool() {
    let _g = guard();
    let interp = Arc::new(Interp::new());
    interp
        .load_str(
            "(defparameter *x* 0)
             (defparameter *log* nil)
             (defun id (n) n)
             (defun f (n)
               (when (> n 0)
                 (setq *x* n)
                 (cri-enqueue 0 f (- n 1))
                 (setq *log* (cons *x* *log*))
                 (touch (future (id n)))))
             (defun g (n)
               (when (> n 0)
                 (cri-enqueue 0 g (- n 1))
                 (when (= n 1) (error \"boom\"))))
             (defun walk (l) (when l (cri-enqueue 0 walk (cdr l))))",
        )
        .unwrap();
    let config = RuntimeConfig { speculate: true, ..RuntimeConfig::default() };
    let rt = CriRuntime::with_config(Arc::clone(&interp), 1, config);
    let hooks = |i: &Interp| Arc::as_ptr(&i.hooks()) as *const ();
    let pool_hooks = hooks(&interp);
    let the_next_run_reaches_the_server = || {
        assert_eq!(hooks(&interp), pool_hooks, "the pool's hooks are installed again");
        let before = rt.stats().tasks;
        let l = interp.load_str("(list 1 2 3 4)").unwrap();
        rt.run("walk", &[l]).expect("a clean run");
        assert_eq!(rt.stats().tasks, before + 5, "4 spawns and the root, run as tasks");
    };

    let value = rt.run("f", &[Value::int(2)]).expect("the rerun completes");
    assert_eq!(value, Value::int(2), "the run's value is the rerun's");
    let stats = rt.stats();
    assert!(stats.spec_replays >= 1 && stats.spec_escalated, "a replay escalated: {stats:?}");
    let log = interp.load_str("*log*").unwrap();
    assert_eq!(interp.heap().display(log), "(1 1)", "the sequential answer");
    the_next_run_reaches_the_server();

    let err = rt.run("g", &[Value::int(3)]).expect_err("the rerun fails as the body did");
    assert!(err.to_string().contains("boom"), "{err}");
    the_next_run_reaches_the_server();
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
