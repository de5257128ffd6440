//! Schedule-permutation differential battery (chaos harness).
//!
//! Every seeded fault plan is a legal adversary: it perturbs *when*
//! things happen (delays, stalls, cross-site dequeue choice), never
//! *what* the program means. So for every program the
//! paper's claim must hold verbatim — the chaos run's observable
//! outcome equals the sequential oracle's, for every seed, under both
//! schedulers.
//!
//! The oracle is the *transformed* source executed sequentially (the
//! default `SequentialHooks` run `cri-enqueue`/`future` inline) on a
//! big-stack thread, which uniformly handles the DPS entry points.

mod common;

use std::sync::Arc;

use common::{guard, with_big_stack};
use curare_lisp::{Interp, Value};
use curare_runtime::chaos::{self, ChaosProfile, FaultPlan};
use curare_runtime::{CriRuntime, PoolStats, RuntimeConfig, SchedMode};
use curare_transform::Curare;

/// The five experiment programs (mirrors `curare-bench`'s fixtures;
/// runtime tests cannot depend on the bench crate).
#[derive(Clone, Copy, Debug)]
enum Prog {
    /// Paper Figure 5: conflicting neighbour-sum walker.
    Figure5,
    /// Distance-1 tail writer (forces the lock pipeline).
    Rotate,
    /// Commutative global accumulation (`reorderable +`).
    SumWalk,
    /// Tail writer with conflict distance `k`.
    DistanceK(usize),
    /// Paper Figure 12 `remq` via the DPS transform.
    Remq,
    /// `examples/lisp/tail_heavy.lisp`: a conflict-free 256-step tail
    /// the pipeline spawns with `cri-handoff`.
    TailHeavy,
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
            Prog::TailHeavy => include_str!("../../../examples/lisp/tail_heavy.lisp").into(),
        }
    }

    /// Load the transformed source into a fresh interpreter.
    fn interp(self) -> Arc<Interp> {
        let out = Curare::new().transform_source(&self.source()).expect("transforms");
        let interp = Arc::new(Interp::new());
        interp.load_str(&out.source()).expect("loads");
        interp
    }

    /// Build this program's input, run its entry through `exec`, and
    /// return the canonical observation (mutated structure, global, or
    /// DPS result) as a display string.
    fn observe(self, interp: &Arc<Interp>, n: i64, exec: &dyn Fn(&str, &[Value])) -> String {
        let heap = interp.heap();
        match self {
            Prog::Figure5 => {
                let mut data = Value::NIL;
                for _ in 0..n {
                    data = heap.cons(Value::int(1), data);
                }
                exec("f", &[data]);
                heap.display(data)
            }
            Prog::Rotate | Prog::DistanceK(_) | Prog::TailHeavy => {
                let entry = match self {
                    Prog::Rotate => "rotate",
                    Prog::TailHeavy => "th",
                    _ => "fk",
                };
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
        }
    }

    /// Sequential oracle observation for size `n`.
    fn oracle(self, n: i64) -> String {
        with_big_stack(|| {
            let interp = self.interp();
            self.observe(&interp, n, &|entry, args| {
                interp.call(entry, args).expect("oracle run");
            })
        })
    }

    /// One pooled run on `servers` servers under an installed fault
    /// plan.
    fn chaos_run(
        self,
        n: i64,
        seed: u64,
        (mode, servers): (SchedMode, usize),
        profile: ChaosProfile,
    ) -> (String, PoolStats) {
        // Uninstall on the way out even when an assertion panics, so
        // one failure cannot leak the plan into every later test.
        struct Uninstall;
        impl Drop for Uninstall {
            fn drop(&mut self) {
                chaos::install(None);
            }
        }
        chaos::install(Some(FaultPlan::new(seed, profile)));
        let _u = Uninstall;
        let interp = self.interp();
        let rt = CriRuntime::with_config(
            Arc::clone(&interp),
            servers,
            RuntimeConfig { mode, ..RuntimeConfig::default() },
        );
        let observed = self.observe(&interp, n, &|entry, args| {
            rt.run(entry, args).expect("chaos run completes");
        });
        let stats = rt.stats();
        drop(rt);
        (observed, stats)
    }
}

const PROGRAMS: [Prog; 5] =
    [Prog::Figure5, Prog::Rotate, Prog::SumWalk, Prog::DistanceK(2), Prog::Remq];

fn sweep(mode: SchedMode, programs: &[Prog]) {
    let _g = guard();
    let mut injected_somewhere = 0u64;
    for &prog in programs {
        for seed in 0..32u64 {
            let n = 32 + (seed as i64 % 17);
            let expect = prog.oracle(n);
            let mixed = ChaosProfile::named("mixed").unwrap();
            let (got, stats) = prog.chaos_run(n, seed, (mode, 4), mixed);
            assert_eq!(
                got, expect,
                "{prog:?} diverged from the sequential oracle (seed {seed}, {mode:?}, n {n})"
            );
            injected_somewhere += stats.faults_injected;
        }
    }
    assert!(injected_somewhere > 0, "the sweep must actually have exercised fault injection");
}

#[test]
fn five_programs_match_oracle_across_32_seeds_central() {
    sweep(SchedMode::Central, &PROGRAMS);
}

#[test]
fn five_programs_match_oracle_across_32_seeds_sharded() {
    sweep(SchedMode::Sharded, &PROGRAMS);
}

/// The hand-off path under the same adversary: successors published
/// at the spawn, task starts delayed, dequeues shuffled.
#[test]
fn handed_off_tail_heavy_matches_oracle_across_32_seeds_both_schedulers() {
    assert!(Prog::TailHeavy.interp().named_funcs().iter().any(|f| f.name == "th"));
    let out = Curare::new().transform_source(&Prog::TailHeavy.source()).unwrap();
    assert!(out.source().contains("(cri-handoff 0 th (cdr l))"), "{}", out.source());
    sweep(SchedMode::Central, &[Prog::TailHeavy]);
    sweep(SchedMode::Sharded, &[Prog::TailHeavy]);
}

/// Per-profile sanity on one representative program each: every named
/// profile (not just `mixed`) preserves the oracle.
#[test]
fn every_named_profile_preserves_the_oracle() {
    let _g = guard();
    for name in ChaosProfile::NAMES {
        for prog in [Prog::Figure5, Prog::SumWalk] {
            let expect = prog.oracle(40);
            let profile = ChaosProfile::named(name).unwrap();
            let (got, _) = prog.chaos_run(40, 7, (SchedMode::Sharded, 4), profile);
            assert_eq!(got, expect, "profile {name} broke {prog:?}");
        }
    }
}

/// A plan perturbs only the schedule, so a chaos run takes the path an
/// unarmed one takes: under every named profile, a lazy pool of 2 or 4
/// servers restarts the tail-spawn walkers' links in place — the path
/// the benchmark's tiny-grain walk runs — and matches the oracle.
#[test]
fn every_named_profile_restarts_tail_spawns_in_place() {
    let _g = guard();
    let n = 240;
    for prog in [Prog::Figure5, Prog::SumWalk] {
        let expect = prog.oracle(n);
        for name in ChaosProfile::NAMES {
            for servers in [2, 4] {
                let profile = ChaosProfile::named(name).unwrap();
                let (got, stats) = prog.chaos_run(n, 3, (SchedMode::Sharded, servers), profile);
                let what = format!("{prog:?} under {name}, S = {servers}");
                assert_eq!(got, expect, "{what}");
                assert!(stats.in_place_tasks > 0, "{what}: {stats:?}");
            }
        }
    }
}

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
}

/// Random-program battery: templates × random sizes × random seeds ×
/// alternating modes (the PR-4 generator idea applied to the chaos
/// sweep).
#[test]
fn random_program_battery_matches_oracle() {
    let _g = guard();
    let mut rng = XorShift(0x5EED_CAFE_F00D_0001);
    for case in 0..24 {
        let prog = match rng.next() % 5 {
            0 => Prog::Figure5,
            1 => Prog::Rotate,
            2 => Prog::SumWalk,
            3 => Prog::DistanceK(1 + (rng.next() % 3) as usize),
            _ => Prog::Remq,
        };
        let n = 16 + (rng.next() % 48) as i64;
        let seed = rng.next();
        let mode = if case % 2 == 0 { SchedMode::Central } else { SchedMode::Sharded };
        let expect = prog.oracle(n);
        let mixed = ChaosProfile::named("mixed").unwrap();
        let (got, _) = prog.chaos_run(n, seed, (mode, 4), mixed);
        assert_eq!(got, expect, "case {case}: {prog:?} n={n} seed={seed} {mode:?}");
    }
}
