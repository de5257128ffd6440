//! Randomized speculation battery (`heavy-tests`).
//!
//! A seeded generator emits recursive list-walker programs in three
//! families — provably independent own-cell writers, distance-`k`
//! conflicting writers, and ⊤-write walkers the static analysis must
//! refuse — with randomized operators, write positions, conflict
//! distances, and input sizes. Every generated program runs
//! speculatively and must reproduce the *tree-walker* oracle's
//! observation exactly (the oracle runs on `Engine::Tree`, the
//! speculative pool on the default engine, so the sweep is also an
//! engine differential). Independent programs must additionally show a
//! 100% commit-clean ratio: speculation may never abort an invocation
//! the static analysis could have proven safe.

mod common;

use std::sync::Arc;

use common::{guard, with_big_stack};
use curare_lisp::{Engine, Interp, Value};
use curare_runtime::{CriRuntime, PoolStats, RuntimeConfig, SchedMode};
use curare_transform::Curare;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A generated program: its source, entry point, and which guarantees
/// the speculative run owes.
struct Case {
    source: String,
    /// Statically provable independence — the run must commit 100%
    /// clean (no abort, no escalation).
    independent: bool,
}

/// A random small integer operator expression over `x`.
fn rand_op(rng: &mut XorShift, x: &str) -> String {
    match rng.below(4) {
        0 => format!("(+ {x} {})", 1 + rng.below(5)),
        1 => format!("(- {x} {})", 1 + rng.below(5)),
        2 => format!("(* {x} 2)"),
        _ => format!("(+ {x} {x})"),
    }
}

fn generate(rng: &mut XorShift) -> Case {
    match rng.below(3) {
        // Independent: write the own cell only; head or tail position.
        0 => {
            let op = rand_op(rng, "(car l)");
            let body = if rng.below(2) == 0 {
                format!("(setf (car l) {op}) (walk (cdr l))")
            } else {
                format!("(walk (cdr l)) (setf (car l) {op})")
            };
            Case { source: format!("(defun walk (l) (when (consp l) {body}))"), independent: true }
        }
        // Conflicting: tail write at random distance 1..=3.
        1 => {
            let k = 1 + rng.below(3);
            let mut place = "l".to_string();
            for _ in 0..k {
                place = format!("(cdr {place})");
            }
            let op = rand_op(rng, "(car l)");
            Case {
                source: format!(
                    "(defun walk (l)
                       (when (consp l)
                         (walk (cdr l))
                         (when {place} (setf (car {place}) {op}))))"
                ),
                independent: false,
            }
        }
        // ⊤-write: the write root passes through an identity helper
        // the analysis cannot see through — admitted only under
        // speculation (per-cell disjoint at runtime, but the clean
        // ratio is not owed: the admission is optimistic).
        _ => {
            let op = rand_op(rng, "(car l)");
            Case {
                source: format!(
                    "(defun veil (l) l)
                     (defun walk (l)
                       (when (consp l)
                         (walk (cdr l))
                         (setf (car (veil l)) {op})))"
                ),
                independent: false,
            }
        }
    }
}

fn load(case: &Case, engine: Engine) -> Arc<Interp> {
    let out =
        Curare::new().with_speculation(true).transform_source(&case.source).expect("transforms");
    let interp = Arc::new(Interp::new());
    interp.set_engine(engine);
    interp.load_str(&out.source()).expect("loads");
    interp
}

fn int_list(interp: &Interp, n: i64, rng: &mut XorShift) -> Value {
    let mut l = Value::NIL;
    for _ in 0..n {
        l = interp.heap().cons(Value::int(rng.below(100) as i64), l);
    }
    l
}

/// Tree-walker oracle observation (sequential hooks, `Engine::Tree`).
fn oracle(case: &Case, n: i64, input_seed: u64) -> String {
    with_big_stack(|| {
        let interp = load(case, Engine::Tree);
        let l = int_list(&interp, n, &mut XorShift(input_seed));
        interp.call("walk", &[l]).expect("oracle run");
        interp.heap().display(l)
    })
}

fn spec_run(case: &Case, n: i64, input_seed: u64, mode: SchedMode) -> (String, PoolStats) {
    let interp = load(case, Engine::Vm);
    let rt = CriRuntime::with_config(
        Arc::clone(&interp),
        4,
        RuntimeConfig { mode, speculate: true, ..RuntimeConfig::default() },
    );
    let l = int_list(&interp, n, &mut XorShift(input_seed));
    rt.run("walk", &[l]).expect("speculative run completes");
    let got = interp.heap().display(l);
    let stats = rt.stats();
    drop(rt);
    (got, stats)
}

#[test]
fn generated_walkers_match_the_tree_walker_oracle() {
    let _g = guard();
    let mut rng = XorShift(0x5EED_0D15_7A4C_E000);
    let mut clean_independent = 0u64;
    for case_no in 0..48u64 {
        let case = generate(&mut rng);
        let n = 16 + rng.below(64) as i64;
        let input_seed = rng.next() | 1;
        let mode = if case_no % 2 == 0 { SchedMode::Central } else { SchedMode::Sharded };
        let expect = oracle(&case, n, input_seed);
        let (got, stats) = spec_run(&case, n, input_seed, mode);
        assert_eq!(
            got, expect,
            "case {case_no} diverged ({mode:?}, n {n}):\n{}\ncommits {} aborts {} escalated {}",
            case.source, stats.spec_commits, stats.spec_aborts, stats.spec_escalated
        );
        if case.independent {
            assert!(!stats.spec_escalated, "case {case_no}: independent program escalated");
            assert_eq!(
                stats.spec_aborts, 0,
                "case {case_no}: speculation aborted a provably independent program:\n{}",
                case.source
            );
            assert_eq!(
                stats.spec_clean, stats.spec_commits,
                "case {case_no}: commit-clean ratio must be 100% for independent programs"
            );
            clean_independent += 1;
        }
    }
    assert!(
        clean_independent >= 8,
        "the generator must actually have produced independent programs ({clean_independent})"
    );
}
