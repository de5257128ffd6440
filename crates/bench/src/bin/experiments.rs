//! The experiments: what the paper's evaluation says and the
//! benchmark cannot — worked figures, closed forms, simulator
//! crossovers, oracle verdicts — as one table over one driver
//! (`curare_bench::drive`; EXPERIMENTS.md records the results).
//!
//! ```text
//! experiments list                 # the table: name, paper section, one line
//! experiments                      # every row
//! experiments e4 e7 locksynth      # some
//! experiments e8 --json            # its curare-report/2 document instead of prose
//! experiments --quick              # CI-sized cells; the exit code is the gate
//! ```
//!
//! Run it from the repository root (`differential` reads
//! `examples/lisp`). Every number a row reports is tagged `model`
//! (simulator, formula, static analysis), `count` (events of a real
//! run) or `host` (wall clock on this machine: the four cells no
//! benchmark workload covers). A gate that fails — an oracle, an
//! invariant, a ratio — is named on stderr and the process exits 1; a
//! word that is neither an experiment nor `list`, `--json`, `--quick`
//! exits 2. Timing claims are `benchmark/run.sh`'s.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use curare::check::{predicted_pairs, sanitized_run};
use curare::lisp::{Engine, Interp};
use curare::obs;
use curare::prelude::*;
use curare::runtime::chaos::{self, ChaosProfile, FaultPlan};
use curare::runtime::{Location, LockTable, RuntimeConfig};
use curare::sim::formula;
use curare_bench::*;

static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "e1",
        source: "Fig. 2-5, §2.2",
        about: "conflict detection on the paper's figures",
        run: e1_conflict_detection,
    },
    Experiment {
        name: "e2",
        source: "§3.1",
        about: "CRI concurrency (|H|+|T|)/|H| vs the simulator",
        run: e2_concurrency_formula,
    },
    Experiment {
        name: "e3",
        source: "Fig. 6-7, §4.1",
        about: "simulated time and speedup vs servers",
        run: e3_servers_sweep,
    },
    Experiment {
        name: "e4",
        source: "§3.2.1",
        about: "lock-limited concurrency equals the minimum conflict distance",
        run: e4_lock_distance,
    },
    Experiment {
        name: "e5",
        source: "§3.2.2",
        about: "delay: the head grows, the devices shrink",
        run: e5_delays,
    },
    Experiment {
        name: "e6",
        source: "§3.2.3",
        about: "a declared-commutative sum reorders; undeclared it is refused",
        run: e6_reorder,
    },
    Experiment {
        name: "e7",
        source: "Fig. 10, §4.1",
        about: "T(S) and the capped optimum S* = sqrt(d(h+t)/h)",
        run: e7_server_optimum,
    },
    Experiment {
        name: "e8",
        source: "§4.1",
        about: "the central-queue bottleneck: model, and central vs sharded counted",
        run: e8_queue_bottleneck,
    },
    Experiment {
        name: "e9",
        source: "Fig. 12-13, §5",
        about: "destination-passing style: remq-d on the pool equals remq",
        run: e9_dps_remq,
    },
    Experiment {
        name: "e11",
        source: "§3.1.1",
        about: "final-state sequentializability of the restructured programs",
        run: e11_sequentializability,
    },
    Experiment {
        name: "e13",
        source: "§3.1, §4.1",
        about: "lazy vs hand-off publication against tail cost, measured at S = 2",
        run: e13_handoff_crossover,
    },
    Experiment {
        name: "interp",
        source: "DESIGN: VM",
        about: "tree-walker vs bytecode VM on tiny-grain bodies, measured (VM >= 2x)",
        run: interp_engines,
    },
    Experiment {
        name: "hir",
        source: "DESIGN: HIR",
        about: "superinstruction fusion: static and dispatched op counts",
        run: hir_fusion,
    },
    Experiment {
        name: "differential",
        source: "DESIGN: VM",
        about: "tree = fused VM = unfused VM on examples/lisp, as written and restructured",
        run: differential,
    },
    Experiment {
        name: "sanitize",
        source: "§2 (oracle)",
        about: "observed conflicting pairs vs the static prediction, plain and reordered",
        run: sanitize,
    },
    Experiment {
        name: "speculate",
        source: "DESIGN: SPEC",
        about: "commit-clean share of statically refused programs vs predicted pairs",
        run: speculate,
    },
    Experiment {
        name: "chaos",
        source: "DESIGN: CHAOS",
        about: "what the mixed fault profile injects; in-place links survive it",
        run: chaos_counts,
    },
    Experiment {
        name: "profile",
        source: "§3.1, §3.2.1",
        about: "measured work/span vs the static concurrency bound",
        run: profile,
    },
    Experiment {
        name: "locksynth",
        source: "§3.2.1",
        about: "naive exclusive vs synthesised rw lock placements",
        run: locksynth,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    drive(EXPERIMENTS, &args).exit_code()
}

/// The oracle sweeps' programs (chaos, profile); `sanitize` swaps the
/// global sum for the hand-off example.
const POOL_SET: [&str; 5] = ["figure-5", "rotate", "sum-walk", "distance-2", "remq-d"];
const SANITIZE_SET: [&str; 5] = ["figure-5", "rotate", "distance-2", "remq-d", "tail-heavy"];
/// E8-shaped tiny-grain bodies, run as written on one engine.
const ENGINE_SET: [&str; 5] = ["bare-walk", "sum", "padded-8", "fib", "remq"];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Install the named fault profile under `seed`; `chaos::install(None)`
/// takes it out again.
fn arm_chaos(profile: &str, seed: u64) {
    let profile = ChaosProfile::named(profile).expect("a named chaos profile");
    chaos::install(Some(FaultPlan::new(seed, profile)));
}

/// E1 — the worked conflict-detection examples of §2 (Figures 2–5).
fn e1_conflict_detection(r: &mut Run) {
    for (figure, src, distance) in [
        ("Figure 3", FIGURE_3, None),
        ("Figure 4", FIGURE_4, Some(1)),
        ("Figure 5", FIGURE_5, Some(1)),
    ] {
        let a = analyze_first(src);
        r.say(format!("--- {figure} ---\n{}", a.explain().trim_end()));
        r.row([
            ("figure", figure.into()),
            ("conflicts", count(a.conflicts.conflicts.len())),
            ("min_distance", a.conflicts.min_distance.map_or("none".into(), count)),
        ]);
        r.gate(
            &format!("{figure}: minimum conflict distance is {distance:?}"),
            a.conflicts.min_distance == distance,
            format!("found {:?}", a.conflicts.min_distance),
        );
    }
    r.say(
        "paper: Fig.3 conflict-free; Fig.4 conflict at distance 1; Fig.5 write cdr.car ⊙ \
         read car at distance 1, no conflict with read cdr.",
    );
}

/// E2 — concurrency = (|H|+|T|)/|H| (§3.1).
fn e2_concurrency_formula(r: &mut Run) {
    let mut worst: f64 = 1.0;
    for (h, t) in [(1u64, 19u64), (2, 18), (4, 16), (8, 12), (10, 10), (16, 4), (19, 1)] {
        let bound = formula::concurrency(h as f64, t as f64);
        let sim = simulate(&SimConfig::new(4096, 64, h, t)).achieved_concurrency;
        worst = worst.min(sim / bound);
        r.row([
            ("h", count(h)),
            ("t", count(t)),
            ("formula", model(bound)),
            ("simulated", model(sim)),
            ("ratio", model(sim / bound)),
        ]);
    }
    r.gate("simulated concurrency within 1% of (h+t)/h", worst >= 0.99, format!("{worst:.3}"));
}

/// One `S` of a T(S) sweep: the simulator's time next to the §4.1
/// expression where it applies (S·h ≤ h+t). `Some(true)`: they agree.
fn time_vs_formula(r: &mut Run, d: u64, s: u64, h: u64, t: u64) -> (u64, Option<bool>) {
    let sim = simulate(&SimConfig::new(d, s, h, t));
    let expected = (s * h <= h + t).then(|| formula::total_time(d, s, h, t));
    r.row([
        ("d", count(d)),
        ("S", count(s)),
        ("sim_time", model(sim.total_time as f64)),
        ("formula", expected.map_or("-".into(), |f| model(f as f64))),
        ("speedup", model(sim.speedup)),
    ]);
    (sim.total_time, expected.map(|f| f == sim.total_time))
}

/// E3 — speedup vs number of servers (Figures 6–7 made quantitative).
fn e3_servers_sweep(r: &mut Run) {
    let (d, h, t) = (1024u64, 1u64, 15u64);
    r.say(format!("workload: d={d}, h={h}, t={t}; concurrency bound c_f = {}", (h + t) / h));
    let mut exact = true;
    for s in [1u64, 2, 4, 8, 16, 32, 64] {
        exact &= time_vs_formula(r, d, s, h, t).1.unwrap_or(true);
    }
    r.gate("simulated time equals the §4.1 expression wherever S·h ≤ h+t", exact, "");
    r.say("shape: time falls with S until c_f = 16, then flattens.");
}

/// E4 — locking caps concurrency at min conflict distance (§3.2.1).
fn e4_lock_distance(r: &mut Run) {
    let (d, h, t) = (4096u64, 1u64, 31u64);
    let mut bounded = true;
    for dc in [1u64, 2, 4, 8, 16] {
        let sim = simulate(&SimConfig::new(d, 64, h, t).with_conflict_distance(dc));
        bounded &= sim.achieved_concurrency <= dc as f64 + 1e-9;
        r.row([("distance", count(dc)), ("concurrency", model(sim.achieved_concurrency))]);
    }
    let free = simulate(&SimConfig::new(d, 64, h, t));
    r.row([("distance", "none".into()), ("concurrency", model(free.achieved_concurrency))]);
    r.gate("simulated concurrency never exceeds the conflict distance", bounded, "");

    // Real runs: distance-k tail writers. Their conflicting writes
    // execute after the recursive call — sequentially in *unwind*
    // order — so the pipeline synchronizes them with future+touch.
    let mut failures = Vec::new();
    for k in [1usize, 2, 4] {
        let p = Program { source: distance_k_writer(k), ..Program::named("distance-2") };
        match p.sequentializable(if r.quick { 500 } else { 2000 }) {
            Ok(out) => r.row([
                ("k", count(k)),
                ("devices", format!("{:?}", out.report("fk").expect("fk reported").devices).into()),
            ]),
            Err(e) => failures.push(format!("k = {k}: {e}")),
        }
    }
    r.gate(
        "threaded distance-k tail writers leave the sequential state",
        failures.is_empty(),
        failures.join("; "),
    );
}

/// E5 — delays enlarge the head, trading concurrency for lock-free
/// correctness (§3.2.2).
fn e5_delays(r: &mut Run) {
    // Mixed tail: the (car l) writes are conflict-free and movable;
    // the accumulator update is order-sensitive and must stay for
    // future synchronization.
    let src = "(defun f (acc l)
       (when l
         (f acc (cdr l))
         (setf (car l) (* 2 (car l)))
         (setf (car acc) (+ (car acc) (car l)))))";
    let out = Curare::new().transform_source(src).expect("transforms");
    // The partition of the text the devices left, read the way any
    // program's is: from the record of restructuring it.
    let again = Curare::new().transform_forms(&out.forms).expect("the output is a program");
    let partition = |out: &CurareOutput| out.reports[0].analysis.head_tail.clone();
    let stages = [("as written", partition(&out)), ("delayed", partition(&again))];
    for (stage, ht) in &stages {
        let sim =
            simulate(&SimConfig::new(2048, 16, ht.head_size.max(1) as u64, ht.tail_size as u64));
        r.row([
            ("stage", (*stage).into()),
            ("|H|", count(ht.head_size)),
            ("|T|", count(ht.tail_size)),
            ("concurrency", model(ht.concurrency())),
            ("sim_speedup", model(sim.speedup)),
        ]);
    }
    let devices = &out.report("f").expect("f reported").devices;
    r.say(format!("devices: {devices:?}"));
    r.gate(
        "the conflict-free write moved into the head; the accumulator stayed and is future-synced",
        stages[1].1.head_size > stages[0].1.head_size
            && devices.iter().any(|d| matches!(d, Device::Delay(_)))
            && devices.iter().any(|d| matches!(d, Device::FutureSync(_))),
        format!("{devices:?}"),
    );
}

/// E6 — reordering beats locking for commutative updates (§3.2.3).
fn e6_reorder(r: &mut Run) {
    let p = Program::named("sum-walk");
    let n: i64 = if r.quick { 5_000 } else { 50_000 };
    let (interp, out) = p.restructured(Curare::new());
    let run = p.pooled(&interp, n, 4, RuntimeConfig::default()).0;
    let sum = interp.heap().display(interp.load_str("*sum*").expect("*sum* is bound"));
    r.row([
        ("declaration", "(reorderable +)".into()),
        ("converted", true.into()),
        ("sum", sum.as_str().into()),
    ]);
    r.gate(
        "declared reorderable: atomic-incf on 4 servers gives the exact sum",
        run.is_ok() && out.source().contains("atomic-incf") && sum == (n * (n + 1) / 2).to_string(),
        format!("run {run:?}, sum {sum}"),
    );
    // Without the declaration the function is blocked — the §6
    // feedback tells the programmer why.
    let undeclared = p.source.replace("(curare-declare (reorderable +))", "");
    let blocked = Curare::new().transform_source(&undeclared).expect("transforms");
    let report = blocked.report("walk").expect("walk reported");
    r.row([
        ("declaration", "none".into()),
        ("converted", report.converted.into()),
        ("sum", "-".into()),
    ]);
    r.say(format!("feedback:\n{}", report.feedback().trim_end()));
    r.gate("undeclared: the walker is refused", !report.converted, "");
}

/// E7 — the §4.1 total-time formula and server optimum (Figure 10).
fn e7_server_optimum(r: &mut Run) {
    let mut exact = true;
    let mut at_best = true;
    for (d, h, t) in [(64u64, 1u64, 1u64), (256, 1, 4), (1024, 1, 16)] {
        let c_f = (h + t) / h;
        let s_star = formula::optimal_servers(d, h, t);
        let s_used = (s_star.round() as u64).min(c_f).max(1);
        let mut best = u64::MAX;
        for s in [1u64, 2, 4, 8, 16, 32, 64, 128].into_iter().filter(|s| *s <= d) {
            let (time, agrees) = time_vs_formula(r, d, s, h, t);
            best = best.min(time);
            exact &= agrees.unwrap_or(true);
        }
        let used = simulate(&SimConfig::new(d, s_used, h, t)).total_time;
        at_best &= used <= best;
        r.say(format!(
            "  d={d} h={h} t={t}: S* = {s_star:.1}, c_f = {c_f}; T(min(S*, c_f) = {s_used}) = \
             {used}, best sampled T = {best}"
        ));
    }
    r.gate("simulated time equals the §4.1 expression wherever S·h ≤ h+t", exact, "");
    r.gate("the capped optimum min(S*, c_f) is no slower than any sampled S", at_best, "");
}

/// E8 — the central queue bottleneck (§4.1) and its remedy.
fn e8_queue_bottleneck(r: &mut Run) {
    r.say("model (d=4096, S=16, t=15): per-spawn queue cost, then batched submit at cost 8");
    for q in [0u64, 1, 2, 4, 8] {
        let sim = simulate(&SimConfig::new(4096, 16, 1, 15).with_spawn_overhead(q));
        r.row([
            ("queue_cost", count(q)),
            ("total_time", model(sim.total_time as f64)),
            ("speedup", model(sim.speedup)),
        ]);
    }
    for b in [1u64, 2, 4, 8, 32, 4096] {
        let sim =
            simulate(&SimConfig::new(4096, 16, 1, 15).with_spawn_overhead(8).with_spawn_batch(b));
        r.row([
            ("batch", count(b)),
            ("total_time", model(sim.total_time as f64)),
            ("speedup", model(sim.speedup)),
        ]);
    }
    // Counted: the tiniest grain under the paper's central queue (one
    // published task per spawn) and under the default pool (chaining,
    // batched submit), same binary, 8 servers, one run per mode.
    let p = Program::named("bare-walk");
    r.say(format!("counted: {} cells, 8 servers, one run per mode", p.n));
    let mut cells = Vec::new();
    r.per_mode(|r, mode, mode_name| {
        let (interp, _) = p.restructured(Curare::new());
        let rt = CriRuntime::with_mode(Arc::clone(&interp), 8, mode);
        let args = (p.args)(&interp, p.n);
        rt.run(p.entry, &args).expect("pool run");
        let stats = rt.stats();
        r.row([
            ("mode", mode_name.into()),
            ("tasks", count(stats.tasks)),
            ("chained", count(stats.chained_tasks)),
            ("batched", count(stats.batched_submits)),
            ("parks", count(stats.parks)),
        ]);
        let lazy = stats.chained_tasks + stats.batched_submits;
        cells.push((stats.tasks, lazy, interp.heap().display(args[0])));
    });
    r.gate(
        "central and sharded run the same tasks and leave the same list",
        cells[0].0 == cells[1].0 && cells[0].2 == cells[1].2,
        format!("{} vs {} tasks", cells[0].0, cells[1].0),
    );
    r.gate(
        "central publishes every spawn at the spawn (nothing chained or batched)",
        cells[0].1 == 0,
        "",
    );
    r.say(
        "shape: per-invocation queue cost caps throughput and batching amortises it; the \
         measured central vs sharded time is the benchmark's: tiny_grain \
         runtime.par_central_p50_ms against runtime.par_p50_ms.",
    );
}

/// E9 — remq vs remq-d (Figures 12–13, §5).
fn e9_dps_remq(r: &mut Run) {
    let (written, dps) = (Program::named("remq"), Program::named("remq-d"));
    let sizes: &[i64] = if r.quick { &[1_000] } else { &[1_000, 5_000, 20_000] };
    let mut equal = true;
    for &n in sizes {
        let expect = written.sequential(&written.written(), n);
        let (interp, out) = dps.restructured(Curare::new());
        let (run, got, stats) = dps.pooled(&interp, n, 4, RuntimeConfig::default());
        let (got, expect) = (got.value, expect.value);
        equal &= run.is_ok() && got == expect;
        r.row([
            ("n", count(n)),
            ("devices", format!("{:?}", out.report("remq").expect("remq reported").devices).into()),
            ("pool_tasks", count(stats.tasks)),
            ("equal", (got == expect).into()),
        ]);
    }
    r.gate("remq-d on 4 servers returns the list remq returns", equal, "");
}

/// E11 — sequentializability: concurrent result == sequential result.
fn e11_sequentializability(r: &mut Run) {
    let mut failures = Vec::new();
    for p in pick(&["figure-5", "rotate", "sum-walk", "distance-2", "tail-heavy"]) {
        let mut held = 0u64;
        for trial in 0..5 {
            match p.sequentializable(500 + 300 * trial) {
                Ok(_) => held += 1,
                Err(e) => failures.push(e),
            }
        }
        r.row([("program", p.name.into()), ("sequentializable", count(held)), ("of", count(5u64))]);
    }
    r.gate(
        "every concurrent execution leaves the sequential final state",
        failures.is_empty(),
        failures.join("; "),
    );
}

/// E13 — where handing the successor off starts to pay (§3.1, §4.1).
/// The same hand-written CRI walker with a tail of `pad` arithmetic
/// steps, spawned with `cri-enqueue` (lazy: batch and chain) and with
/// `cri-handoff` (published at the spawn), timed at S = 2. The
/// crossover justifies `transform::HANDOFF_THRESHOLD`.
fn e13_handoff_crossover(r: &mut Run) {
    const CELLS: i64 = 1000;
    let reps: usize = if r.quick { 11 } else { 201 };
    r.say(format!("measured, S = 2, {CELLS} cells, p10 / median of {reps} pool runs, µs:"));
    let mut exactly_once = true;
    for pad in [0usize, 8, 64, 128, 192, 256, 512] {
        let source = |spawn: &str| {
            format!(
                "(defun crunch (v) (let ((x v)) {} x))
                 (defun th (l)
                   (when l
                     ({spawn} 0 th (cdr l))
                     (setf (car l) (crunch (car l)))))",
                "(setq x (+ x 1)) ".repeat(pad)
            )
        };
        // The cost the transformer sees for this tail.
        let out = Curare::new().transform_source(&source("cri-enqueue")).expect("transforms");
        let tail_cost = out.reports[1].analysis.head_tail.tail_cost;
        let mut cells = Vec::new();
        for spawn in ["cri-enqueue", "cri-handoff"] {
            let interp = Arc::new(Interp::new());
            interp.load_str(&source(spawn)).expect("loads");
            let rt = CriRuntime::new(Arc::clone(&interp), 2);
            // A fresh list per run, built outside the timed region.
            let mut samples: Vec<Duration> = (0..reps)
                .map(|_| {
                    let l = int_list(&interp, CELLS);
                    time_once(|| rt.run("th", &[l]).map(drop).expect("run"))
                })
                .collect();
            samples.sort();
            exactly_once &= rt.stats().tasks == reps as u64 * (CELLS as u64 + 1);
            cells.push((samples[reps / 10], samples[reps / 2]));
        }
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        r.row([
            ("tail_pad", count(pad)),
            ("tail_cost", tail_cost.to_string().into()),
            ("lazy_p10", host(us(cells[0].0))),
            ("lazy_p50", host(us(cells[0].1))),
            ("handoff_p10", host(us(cells[1].0))),
            ("handoff_p50", host(us(cells[1].1))),
            ("p10_ratio", host(us(cells[1].0) / us(cells[0].0))),
        ]);
    }
    r.gate("every timed run executed each invocation exactly once", exactly_once, "");
    r.say(
        "shape: hand-off loses where the tail is shorter than a queue round trip and wins where \
         it is longer; HANDOFF_THRESHOLD sits at the crossover.",
    );
}

/// `p` as written on the VM of an interpreter from `build`
/// (`Interp::new` fuses, `Interp::unfused` does not): the entry's static (total, fused) op counts and the VM's
/// counters for one call.
fn vm_counts(p: &Program, build: fn() -> Interp) -> ([u64; 2], curare::lisp::VmStats) {
    with_big_stack(|| {
        let interp = p.written_in(build());
        interp.set_engine(Engine::Vm);
        let args = (p.args)(&interp, p.n);
        interp.call(p.entry, &args).expect("warm-up call");
        let id = interp.lookup_func_by_name(p.entry).expect("entry defined");
        let code = interp.func_entry(id).code.clone().expect("entry compiled");
        let fused = code.ops.iter().filter(|o| o.is_fused()).count() as u64;
        let statics = [code.ops.len() as u64, fused];
        curare::lisp::vm_stats_reset();
        interp.call(p.entry, &args).expect("counted call");
        (statics, curare::lisp::vm_stats())
    })
}

/// `interp` — the tree-walking evaluator against the bytecode VM on
/// tiny-grain, E8-shaped bodies (the per-invocation work the §4.1
/// queue-bottleneck analysis is about). No benchmark workload runs
/// the tree-walker, so the ratio is measured here (`hir` has the op
/// counts of the same bodies).
fn interp_engines(r: &mut Run) {
    const REPS: usize = 5;
    const MIN_GEOMEAN: f64 = 2.0;
    let set = pick(&ENGINE_SET);
    let mut log_sum = 0.0;
    for p in &set {
        // Deep recursion needs the big stack for the tree-walker's
        // native frames.
        let median_on = |engine: Engine| {
            with_big_stack(|| {
                let interp = p.written();
                interp.set_engine(engine);
                let args = (p.args)(&interp, p.n);
                interp.call(p.entry, &args).expect("warm-up call");
                time_median(REPS, || {
                    interp.call(p.entry, &args).expect("timed call");
                })
            })
        };
        let (tree, vm) = (median_on(Engine::Tree), median_on(Engine::Vm));
        let speedup = tree.as_secs_f64() / vm.as_secs_f64().max(1e-12);
        log_sum += speedup.ln();
        r.row([
            ("program", p.name.into()),
            ("n", count(p.n)),
            ("tree_ms", host(ms(tree))),
            ("vm_ms", host(ms(vm))),
            ("speedup", host(speedup)),
        ]);
    }
    let geomean = (log_sum / set.len() as f64).exp();
    r.row([("geomean speedup", host(geomean))]);
    r.gate(
        &format!("VM at least {MIN_GEOMEAN}x the tree-walker (geomean, median of {REPS})"),
        geomean >= MIN_GEOMEAN,
        format!("{geomean:.2}x"),
    );
}

/// `hir` — the superinstruction ablation: the same bodies compiled
/// with fusion on and off, static code size and dispatches per call.
/// Fusion must never *increase* dispatch for the same call (the
/// differential row checks the identical-results half).
fn hir_fusion(r: &mut Run) {
    let mut regressed = Vec::new();
    for p in pick(&ENGINE_SET) {
        let ([total, fused], on) = vm_counts(&p, Interp::new);
        let ([total_off, ..], off) = vm_counts(&p, Interp::unfused);
        if on.dispatched_ops > off.dispatched_ops {
            regressed.push(p.name);
        }
        r.row([
            ("program", p.name.into()),
            ("code_ops", count(total)),
            ("code_unfused", count(total_off)),
            ("code_fused", count(fused)),
            ("dispatched", count(on.dispatched_ops)),
            ("disp_unfused", count(off.dispatched_ops)),
            ("dyn_fused", count(on.fused_ops)),
        ]);
    }
    r.gate("fusion never increases dispatched ops", regressed.is_empty(), regressed.join(", "));
}

/// `differential` — every `examples/lisp` program and fixture under
/// the tree-walker, the fused VM and the unfused VM in fresh
/// interpreters: same result (or error), same printed output, same
/// global bindings (rendered through the heap, so any structure
/// reachable from a global is compared too). Each file then goes
/// through the restructurer and its output through the same three
/// engines (so every form the transformer can emit — `cri-enqueue`,
/// `cri-handoff`, lock brackets, `atomic-incf` — is compiled, fused
/// and tree-walked), and must leave the output and globals the file
/// as written leaves.
fn differential(r: &mut Run) {
    let run_engine = |src: &str, engine: Engine, build: fn() -> Interp| -> String {
        with_big_stack(move || {
            let interp = build();
            interp.set_engine(engine);
            let outcome = match interp.load_str(src) {
                Ok(v) => format!("ok: {}", interp.heap().display(v)),
                Err(e) => format!("err: {e}"),
            };
            let output = interp.take_output().join("\n");
            let mut globals: Vec<String> = interp
                .globals_snapshot()
                .into_iter()
                .map(|(sym, v)| {
                    format!("{}={}", interp.heap().sym_name(sym), interp.heap().display(v))
                })
                .collect();
            globals.sort();
            format!("{outcome}\noutput: {output}\nglobals: {}", globals.join(" "))
        })
    };
    // The three engines on one text: `Ok(outcome)` when they agree.
    let three_way = |src: &str| -> Result<String, String> {
        let tree = run_engine(src, Engine::Tree, Interp::new);
        let vm = run_engine(src, Engine::Vm, Interp::new);
        let vm_nofuse = run_engine(src, Engine::Vm, Interp::unfused);
        if tree == vm && vm == vm_nofuse {
            Ok(tree)
        } else {
            Err(format!(
                "--- tree ---\n{tree}\n--- vm (fused) ---\n{vm}\n--- vm (unfused) ---\n{vm_nofuse}"
            ))
        }
    };
    // Output and globals, without the first (value) line: a converted
    // function's return value is not meaningful, its effects are.
    let effects = |outcome: &str| outcome.split_once('\n').map(|(_, e)| e.to_string());
    let mut files: Vec<std::path::PathBuf> = ["examples/lisp", "examples/lisp/fixtures"]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).into_iter().flatten().flatten())
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == "lisp"))
        .collect();
    files.sort();
    r.gate(
        "examples/lisp and its fixtures found",
        files.len() >= 2,
        "run from the repository root",
    );
    let mut diverged = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path).expect("example readable");
        // The file as written, then as restructured (sequential
        // hooks: every spawn form is a direct call).
        let restructured = Curare::new().transform_source(&src).map(|out| out.source());
        let verdict = three_way(&src).and_then(|plain| {
            let Ok(text) = &restructured else { return Ok(plain) };
            let after = three_way(text).map_err(|d| format!("(restructured)\n{d}"))?;
            if effects(&after) == effects(&plain) {
                Ok(plain)
            } else {
                Err(format!("--- as written ---\n{plain}\n--- restructured ---\n{after}"))
            }
        });
        let file = path.display().to_string();
        match verdict {
            Ok(plain) => r.row([
                ("file", file.into()),
                ("engines agree", plain.lines().next().unwrap_or("").into()),
            ]),
            Err(detail) => {
                r.say(format!("{file}: ENGINE DIVERGENCE\n{detail}"));
                diverged.push(file);
            }
        }
    }
    r.gate(
        "tree = fused VM = unfused VM, as written and as restructured",
        diverged.is_empty(),
        diverged.join(", "),
    );
}

/// The sanitizer's cells: every program under both schedulers with
/// every heap word access recorded and cross-checked against the
/// static prediction (DESIGN.md, "heap-access sanitizer"). With
/// `reorder` the `reorder` fault profile perturbs the schedule: the
/// verdict must not depend on it.
fn sanitize_cells(r: &mut Run, reorder: Option<u64>) -> bool {
    let schedule = reorder.map_or("as scheduled".to_string(), |seed| format!("reorder/{seed}"));
    let mut all_sound = true;
    for p in pick(&SANITIZE_SET) {
        r.per_mode(|r, mode, mode_name| {
            if let Some(seed) = reorder {
                arm_chaos("reorder", seed);
            }
            let check = sanitized_run(&p.source, p.entry, 4, mode, |i| (p.args)(i, p.n));
            chaos::install(None);
            let check = check.unwrap_or_else(|e| panic!("sanitize {}/{mode_name}: {e}", p.name));
            all_sound &= check.sound();
            r.row([
                ("program", p.name.into()),
                ("mode", mode_name.into()),
                ("schedule", schedule.as_str().into()),
                ("sound", check.sound().into()),
                ("manifested", count(check.predicted.keys.intersection(&check.observed).count())),
                ("predicted", count(check.predicted.keys.len())),
                ("events", count(check.events)),
                ("pairs", count(check.pairs_checked)),
            ]);
            for u in &check.unpredicted {
                r.say(format!(
                    "    UNPREDICTED loc={:#x} key={:?} invs={:?}",
                    u.loc, u.key, u.invs
                ));
            }
        });
    }
    all_sound
}

/// `sanitize` — the soundness oracle, as scheduled and under the
/// seeded reorder profile.
fn sanitize(r: &mut Run) {
    let plain = sanitize_cells(r, None);
    r.gate("no observed conflicting pair is both unordered and unpredicted", plain, "");
    let reordered = sanitize_cells(r, Some(7));
    r.gate("the verdict is schedule-independent (reorder profile, seed 7)", reordered, "");
}

/// Median wall time (ms) of five speculative runs of `p` over `n`
/// cells, each on a fresh interpreter and pool: the whole `run`, and
/// the part of it inside the commit-time resolver.
fn speculative_run_ms(p: &Program, n: i64, servers: usize, mode: SchedMode) -> (f64, f64) {
    const REPS: usize = 5;
    let (run, resolve): (Vec<f64>, Vec<f64>) = (0..REPS)
        .map(|_| {
            let (interp, _) = p.restructured(Curare::new().with_speculation(true));
            let args = (p.args)(&interp, n);
            let config = RuntimeConfig { mode, speculate: true, ..RuntimeConfig::default() };
            let rt = CriRuntime::with_config(Arc::clone(&interp), servers, config);
            let wall = time_once(|| rt.run(p.entry, &args).map(drop).expect("speculative run"));
            (ms(wall), rt.stats().spec_resolve_ns as f64 / 1e6)
        })
        .unzip();
    let median = |mut ms: Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        ms[REPS / 2]
    };
    (median(run), median(resolve))
}

/// `speculate` — programs the static pipeline refuses (a ⊤-write
/// walker and an under-declared-aliasing walker) run optimistically
/// on 4 servers: how often do *unpredicted* programs actually
/// conflict (commit-clean share; how often *predicted* pairs manifest
/// is the `sanitize` row's first table), and where a speculative
/// run's time goes (executing vs resolving). That every
/// such run lands on the sequential oracle is
/// `speculation_differential.rs`'s claim, not this row's.
fn speculate(r: &mut Run) {
    let mut completed = true;
    let mut top_write_clean = true;
    let programs = pick(&["scrub-top", "aliased-mix"]);
    for p in &programs {
        r.per_mode(|r, mode, mode_name| {
            let (interp, out) = p.restructured(Curare::new().with_speculation(true));
            let predicted = predicted_pairs(&out);
            let admitted = out
                .report(p.entry)
                .is_some_and(|f| f.converted && f.devices.contains(&Device::Speculate));
            let config = RuntimeConfig { mode, speculate: true, ..RuntimeConfig::default() };
            let (run, _, stats) = p.pooled(&interp, p.n, 4, config);
            completed &= run.is_ok();
            // The ⊤-write program must actually run parallel (a commit
            // per cell, no escalation) and commit 100% clean; the
            // aliased program only owes convergence.
            if p.name == "scrub-top" {
                top_write_clean &= admitted
                    && !stats.spec_escalated
                    && stats.spec_aborts == 0
                    && stats.spec_commits >= p.n as u64;
            }
            let (run_ms, resolve_ms) = speculative_run_ms(p, p.n, 4, mode);
            r.row([
                ("program", p.name.into()),
                ("mode", mode_name.into()),
                ("admitted", admitted.into()),
                ("commits", count(stats.spec_commits)),
                ("clean", count(stats.spec_clean)),
                ("aborts", count(stats.spec_aborts)),
                ("replays", count(stats.spec_replays)),
                ("escalated", stats.spec_escalated.into()),
                ("static_top", predicted.top.into()),
                ("static_pairs", count(predicted.keys.len())),
                ("run_ms", host(run_ms)),
                ("resolve_ms", host(resolve_ms)),
            ]);
        });
    }
    r.say("executing vs resolving at the benchmark's sizes (sharded; medians of 5):");
    for (p, n) in programs.iter().zip([4000, 2000]) {
        let n = if r.quick { p.n } else { n };
        for servers in [1, 2] {
            let (run_ms, resolve_ms) = speculative_run_ms(p, n, servers, SchedMode::Sharded);
            r.row([
                ("program", p.name.into()),
                ("n", count(n)),
                ("servers", count(servers)),
                ("run_ms", host(run_ms)),
                ("execute_ms", host(run_ms - resolve_ms)),
                ("resolve_ms", host(resolve_ms)),
            ]);
        }
    }
    r.gate("every speculative run completed", completed, "");
    r.gate(
        "the ⊤-write walker commits 100% clean, in parallel, under both schedulers",
        top_write_clean,
        "",
    );
}

/// `chaos` — what the seeded `mixed` fault profile does to the pool's
/// programs (faults injected, links restarted in place), each run held
/// to the sequential oracle. A plan perturbs only the schedule, so a
/// program whose tail spawns restart in place unarmed must still do so
/// armed. The 32-seed differential is `chaos_differential.rs`; this row
/// is the account of the adversary.
fn chaos_counts(r: &mut Run) {
    let seeds: u64 = if r.quick { 2 } else { 8 };
    const N: i64 = 96;
    let (mut mismatches, mut lost_in_place) = (Vec::new(), Vec::new());
    for p in pick(&POOL_SET) {
        // The restructured program under the calling side's inline
        // hooks: the same code path the pool executes, sequentially.
        let expect = p.sequential(&p.restructured(Curare::new()).0, N);
        r.per_mode(|r, mode, mode_name| {
            let config = || RuntimeConfig { mode, ..RuntimeConfig::default() };
            let unarmed = p.pooled(&p.restructured(Curare::new()).0, N, 4, config()).2;
            let (mut matched, mut faults, mut in_place) = (0u64, 0, 0);
            for seed in 0..seeds {
                arm_chaos("mixed", seed);
                let (interp, _) = p.restructured(Curare::new());
                let (run, got, stats) = p.pooled(&interp, N, 4, config());
                chaos::install(None);
                faults += stats.faults_injected;
                in_place += stats.in_place_tasks;
                if run.is_ok() && got == expect {
                    matched += 1;
                } else {
                    mismatches.push(format!("{}/{mode_name} seed {seed}", p.name));
                }
            }
            if unarmed.in_place_tasks > 0 && in_place == 0 {
                lost_in_place.push(format!("{}/{mode_name}", p.name));
            }
            r.row([
                ("program", p.name.into()),
                ("mode", mode_name.into()),
                ("seeds", count(seeds)),
                ("matched", count(matched)),
                ("faults", count(faults)),
                ("in_place", count(in_place)),
            ]);
        });
    }
    r.gate(
        "every fault schedule left the sequential oracle's observation",
        mismatches.is_empty(),
        mismatches.join(", "),
    );
    r.gate(
        "a program that restarts in place unarmed restarts in place under the plan",
        lost_in_place.is_empty(),
        lost_in_place.join(", "),
    );
}

/// `profile` — the bound experiment: every pool program under both
/// schedulers with the causal profiler armed, the spawn/touch DAG
/// reconstructed from the trace rings, and the *measured* parallelism
/// (work/span) next to the *predicted* concurrency bound of the
/// untransformed source (head/tail estimate capped by minimum
/// conflict distance, §3.1/§3.2.1). span ≤ work and parallelism ≥ 1
/// hold by construction — a violation means the reconstruction broke.
fn profile(r: &mut Run) {
    const SERVERS: usize = 4;
    let mut broken = Vec::new();
    for p in pick(&POOL_SET) {
        let predicted = analyze_first(&p.source).concurrency_bound();
        r.per_mode(|r, mode, mode_name| {
            obs::set_profiling(true);
            let tracer = Tracer::with_capacity(SERVERS, 1 << 16);
            obs::install(Some(Arc::clone(&tracer)));
            let (interp, _) = p.restructured(Curare::new());
            let config = RuntimeConfig { mode, ..RuntimeConfig::default() };
            let (run, ..) = p.pooled(&interp, 96, SERVERS, config);
            obs::install(None);
            obs::set_profiling(false);
            run.expect("profiled pool run");
            let snaps = tracer.snapshot();
            obs::warn_if_dropped(&snaps, &format!("profile {}/{mode_name}", p.name));
            let dag = obs::Profile::from_trace(&snaps);
            if dag.span_ns > dag.work_ns || dag.parallelism < 1.0 {
                broken.push(format!("{}/{mode_name}", p.name));
            }
            let path = &dag.critical_path;
            r.row([
                ("program", p.name.into()),
                ("mode", mode_name.into()),
                ("predicted", model(predicted)),
                ("work_us", host(dag.work_ns as f64 / 1e3)),
                ("span_us", host(dag.span_ns as f64 / 1e3)),
                ("parallelism", host(dag.parallelism)),
                ("achieved", host(dag.parallelism / predicted.max(1e-9))),
                ("queue_share", host(path.queue_ns as f64 / (path.total_ns() as f64).max(1.0))),
            ]);
        });
    }
    r.gate("span ≤ work and parallelism ≥ 1 in every cell", broken.is_empty(), broken.join(", "));
    r.say(
        "reading achieved = measured / predicted: near 1 the pool realises the analysed \
         concurrency; above 1 the distance bound was conservative (locks serialise only the \
         conflicting step); well below 1 the run was queue- or future-bound — queue_share says \
         which. The benchmark's obs.* per-layer metrics are the timed version.",
    );
}

/// `locksynth` — the lock-synthesis sweep (§3.2.1): for the
/// read-window walker family (each invocation writes its own car and
/// reads the cars `k` and `k+1` cells ahead), the synthesised
/// placement (exclusive writer + shared readers) against the naive
/// all-pairs exclusive placement, across k ∈ {1,2,4,8}. Both are
/// written as the pipeline writes every placement: one bracket per run
/// of statements with the same lock set.
///
/// The placement's effect is a change of *effective conflict
/// distance*: under all-exclusive locking, adjacent invocations lock
/// the same read-ahead word exclusively (invocation i's far word is
/// i+1's near word), pinning the effective distance to 1 for every k;
/// under the rw placement readers never exclude readers, so the only
/// remaining exclusion is the writer against its distance-k readers
/// and the bound min(d₁…d_u) = k is restored. The simulator turns
/// those distances into concurrency — a model number. Each threaded
/// run executes for real, must match the sequential oracle, and its
/// lock counters show the traffic shift; the measured cost is the
/// benchmark's `locked_window`.
fn locksynth(r: &mut Run) {
    const SERVERS: usize = 4;
    const N: i64 = 256;
    const READS: usize = 8;
    let mut failures = Vec::new();
    for k in [1usize, 2, 4, 8] {
        let rw_src = read_window_walker(k, READS);
        let excl_src = read_window_walker_naive_locks(k, READS);
        let analysis = analyze_first(&rw_src);
        // The program is single-writer-per-cell, so every sound
        // schedule must reproduce the untransformed walker exactly.
        let walker = |source: &str| Program {
            source: source.to_string(),
            entry: "fw",
            ..Program::named("figure-5")
        };
        let expect = walker(&rw_src).sequential(&walker(&rw_src).written(), N);
        for (variant, src, d_eff) in [("exclusive", &excl_src, 1), ("rw", &rw_src, k)] {
            // head = guard + spawn, tail = the 2*READS+1 bracketed
            // statements, exclusion radius = the effective distance.
            let sim = simulate(
                &SimConfig::new(N as u64, SERVERS as u64, 1, 2 * READS as u64 + 1)
                    .with_conflict_distance(d_eff as u64),
            );
            let p = walker(src);
            let (interp, out) = p.restructured(Curare::new());
            let locked = out
                .report("fw")
                .is_some_and(|f| f.devices.iter().any(|d| matches!(d, Device::Locks(_))));
            // Central mode: no task chaining, so adjacent invocations
            // land on different servers and their read brackets
            // genuinely overlap — the schedule where lock *modes*
            // (not just placement) matter.
            let config = RuntimeConfig { mode: SchedMode::Central, ..RuntimeConfig::default() };
            let (run, got, stats) = p.pooled(&interp, N, SERVERS, config);
            let result_ok = run.is_ok() && locked && got.matches_written(&expect);
            if !result_ok {
                failures.push(format!("k={k} {variant}: locked={locked} run={run:?}"));
            }
            r.row([
                ("k", count(k)),
                ("variant", variant.into()),
                ("predicted", model(analysis.concurrency_bound())),
                ("d_eff", model(d_eff as f64)),
                ("sim_par", model(sim.achieved_concurrency)),
                ("acquired", count(stats.lock_acquisitions)),
                ("shared", count(stats.lock_shared_acquisitions)),
                ("contended", count(stats.lock_contended)),
                ("result_ok", result_ok.into()),
            ]);
        }
    }
    r.gate(
        "every placement was applied and left the sequential list (result_ok)",
        failures.is_empty(),
        failures.join("; "),
    );
    // What one bracket costs when nobody else wants the location: the
    // walker's own pattern (1 exclusive + 8 shared per cell, 2000
    // cells), one thread, median of five.
    let table = LockTable::new();
    let cells: Vec<Value> = (0..2000 + 8).map(Value::cons).collect();
    let sweep = time_median(5, || {
        for w in cells.windows(9) {
            for (i, &cell) in w.iter().enumerate() {
                let loc = Location::new(cell, 0);
                table.lock(loc, i == 0);
                assert!(table.unlock(loc, i == 0));
            }
        }
    });
    let ns_per_pair = sweep.as_nanos() as f64 / (2000.0 * 9.0);
    r.row([("uncontended lock + unlock pair, ns", host(ns_per_pair))]);
    r.say(
        "shape: all-exclusive pins the effective distance to 1, so its model concurrency stays \
         1 at every k; the rw placement restores min(d) = k and reaches min(k, servers). rw \
         moves most acquisitions to the shared path. A run of statements with one lock set is \
         one bracket, so a cell's 17 bracketed statements take 9 acquisitions.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The words after `experiments` wherever a document quotes a
    /// command line: `` `experiments e8` ``, `--bin experiments -- e4`,
    /// `target/release/experiments --quick`.
    fn quoted_command_lines(text: &str) -> Vec<Vec<String>> {
        let mut lines = Vec::new();
        for (at, word) in text.match_indices("experiments ") {
            let before = &text[..at];
            if !(before.ends_with('`') || before.ends_with('/') || before.ends_with("--bin ")) {
                continue;
            }
            let rest = &text[at + word.len()..];
            let end = rest.find(|c| "`\n#>|;&".contains(c)).unwrap_or(rest.len());
            lines.push(rest[..end].split_whitespace().map(str::to_string).collect());
        }
        lines
    }

    /// The flags of every `curare run` command line `text` quotes —
    /// `` `curare run FILE --servers 2` ``, `target/release/curare run
    /// …`, `--bin curare -- run …`, continued over `\`-ended lines —
    /// that `parsed` lacks.
    fn unknown_run_flags(text: &str, parsed: &[String]) -> Vec<String> {
        let text = text.replace("\\\n", " ");
        let mut unknown = Vec::new();
        for (at, word) in text.match_indices("curare ") {
            let before = &text[..at];
            let inline = before.ends_with('`');
            let rest = text[at + word.len()..].trim_start();
            let rest = rest.strip_prefix("-- ").unwrap_or(rest).trim_start();
            let quoted = inline || before.ends_with('/') || before.ends_with("--bin ");
            if !quoted || !rest.starts_with("run ") {
                continue;
            }
            let end = rest.find(|c| c == '`' || (!inline && c == '\n')).unwrap_or(rest.len());
            let flags = rest[..end].split_whitespace().filter(|w| w.starts_with("--"));
            unknown.extend(flags.filter(|f| !parsed.contains(&f.to_string())).map(str::to_string));
        }
        unknown
    }

    /// The options `curare run` parses: its match arms' `"--flag" =>`.
    fn run_flags() -> Vec<String> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let cli = std::fs::read_to_string(format!("{root}/crates/curare/src/bin/curare.rs"))
            .expect("the CLI's source");
        let body = &cli[cli.find("fn run(").expect("fn run")..cli.find("fn repl(").expect("repl")];
        let arms = body.match_indices("\"--").filter_map(|(at, _)| {
            let flag = &body[at + 1..];
            let end = flag.find('"')?;
            flag[end..].starts_with("\" =>").then(|| flag[..end].to_string())
        });
        arms.collect()
    }

    #[test]
    fn a_documented_run_flag_that_is_not_parsed_is_found() {
        let parsed = run_flags();
        assert!(parsed.contains(&"--report".to_string()), "{parsed:?}");
        let planted = "run it: `curare run f.lisp --servers 2\n  --metrics m.json`, or\n\
                       target/release/curare \\\n    run f.lisp --profile p.json --trace t.json\n\
                       cargo run --bin curare -- \\\n  run f.lisp --report r.json --stats\n";
        assert_eq!(unknown_run_flags(planted, &parsed), ["--metrics", "--profile", "--stats"]);
    }

    /// "Every experiment still reachable by name", made permanent: a
    /// name a document tells the reader to type is a row of the table,
    /// and a flag it gives `curare run` is one the CLI parses.
    #[test]
    fn names_are_unique_and_every_documented_command_line_resolves() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|f| f.name != e.name), "duplicate row {}", e.name);
            assert!(
                !["list", "--json", "--quick"].contains(&e.name),
                "{} is a driver word",
                e.name
            );
        }
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let product: String = product_sources().into_iter().map(|(_, text)| text).collect();
        let parsed = run_flags();
        let mut seen = 0;
        for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"] {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).expect(doc);
            // A schema a document names is one some product code emits.
            for (at, _) in text.match_indices("curare-") {
                let end = text[at..]
                    .find(|c: char| !(c.is_alphanumeric() || "-/".contains(c)))
                    .unwrap_or(text.len() - at);
                let word = &text[at..at + end];
                let is_schema = word
                    .split_once('/')
                    .is_some_and(|(_, n)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
                assert!(
                    !is_schema || product.contains(word),
                    "{doc} names the schema {word}, which no non-test source emits"
                );
            }
            let unknown = unknown_run_flags(&text, &parsed);
            assert!(
                unknown.is_empty(),
                "{doc} gives `curare run` flags it does not parse: {unknown:?}"
            );
            for line in quoted_command_lines(&text) {
                seen += 1;
                for word in line.iter().filter(|w| *w != "--") {
                    // `NAME...`, `[list | NAME...]`: usage placeholders.
                    let placeholder =
                        word.contains(|c: char| c.is_uppercase() || "[]|.".contains(c));
                    assert!(
                        placeholder
                            || ["list", "--json", "--quick"].contains(&word.as_str())
                            || EXPERIMENTS.iter().any(|e| e.name == word),
                        "{doc} quotes `experiments {}`: '{word}' is not in the table",
                        line.join(" ")
                    );
                }
            }
        }
        assert!(seen >= 20, "the scan found only {seen} command lines: has the quoting changed?");
    }

    /// Every `.rs` file under the workspace's `crates/*/src` and
    /// `examples/`, cut at its first `#[cfg(test)]`: the code a product
    /// root can reach.
    fn product_sources() -> Vec<(std::path::PathBuf, String)> {
        fn walk(dir: &std::path::Path, out: &mut Vec<(std::path::PathBuf, String)>) {
            for entry in std::fs::read_dir(dir).expect("a source directory").flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = std::fs::read_to_string(&path).expect("a source file");
                    let cut = text.find("#[cfg(test)]").unwrap_or(text.len());
                    out.push((path, text[..cut].to_string()));
                }
            }
        }
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let mut out = Vec::new();
        walk(&root.join("examples"), &mut out);
        for krate in std::fs::read_dir(root.join("crates")).expect("crates/").flatten() {
            walk(&krate.path().join("src"), &mut out);
        }
        out
    }

    /// Product code is reachable from a product root: a `pub mod` of a
    /// crate's `lib.rs` is named in a path (`name::` or `::name`) by
    /// some non-test, non-comment line outside its own file. A module
    /// only its own unit tests and the crate's `tests/` reach fails.
    #[test]
    fn every_public_module_is_named_outside_itself() {
        let sources = product_sources();
        let mut modules = 0;
        for (lib, text) in sources.iter().filter(|(p, _)| p.ends_with("src/lib.rs")) {
            for name in text.lines().filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';')) {
                modules += 1;
                let own = lib.with_file_name(format!("{name}.rs"));
                let named = sources.iter().filter(|(p, _)| *p != own).any(|(_, text)| {
                    text.lines().filter(|l| !l.trim_start().starts_with("//")).any(|l| {
                        l.match_indices(name).any(|(at, _)| {
                            let (before, after) = (&l[..at], &l[at + name.len()..]);
                            let word = |c: char| c.is_alphanumeric() || c == '_';
                            !before.ends_with(word)
                                && !after.starts_with(word)
                                && (before.ends_with("::") || after.starts_with("::"))
                        })
                    })
                });
                assert!(named, "{}: `pub mod {name}` is named by no product code", lib.display());
            }
        }
        assert!(modules >= 60, "the scan found only {modules} modules: has the layout changed?");
    }

    /// One RNG in the tests: no test source — `crates/*/tests`,
    /// `tests/tests`, the `#[cfg(test)]` tail of a `crates/*/src` file —
    /// spells a PRNG step (the xorshift shift triple, the splitmix
    /// increment, an LCG multiplier) outside `crates/testkit`, whose
    /// `Rng` every battery draws from; the product's one step is
    /// `curare_lisp::interp::splitmix64` (`(random n)`, the queues, the
    /// chaos plans); and no product crate depends on the kit. (`benchmark/` is the
    /// contract and keeps its own; this file spells the steps it looks
    /// for.)
    #[test]
    fn the_tests_draw_from_one_rng() {
        fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
            for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    rust_files(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    out.push(path);
                }
            }
        }
        /// The PRNG steps `text` spells, read with whitespace and `_`
        /// dropped and in lower case.
        fn steps(text: &str) -> Vec<&'static str> {
            let flat: String =
                text.chars().filter(|c| !c.is_whitespace() && *c != '_').collect::<String>();
            let flat = flat.to_lowercase();
            let mut found = Vec::new();
            if ["<<13", ">>7", "<<17"].iter().all(|shift| flat.contains(shift)) {
                found.push("xorshift");
            }
            if flat.contains("wrappingadd(0x9e3779b97f4a7c15)") {
                found.push("splitmix");
            }
            let lcg = ["6364136223846793005", "0x5851f42d4c957f2d", "1103515245", "0x5deece66d"];
            if lcg.iter().any(|m| flat.contains(&format!("wrappingmul({m})"))) {
                found.push("LCG");
            }
            found
        }
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let mut files = Vec::new();
        rust_files(&root.join("tests/tests"), &mut files);
        for krate in std::fs::read_dir(root.join("crates")).expect("crates/").flatten() {
            let krate = krate.path();
            if krate.ends_with("testkit") {
                continue;
            }
            rust_files(&krate.join("tests"), &mut files);
            rust_files(&krate.join("src"), &mut files);
            let manifest = std::fs::read_to_string(krate.join("Cargo.toml")).expect("a manifest");
            let mut deps = manifest.split("\n[").filter(|s| s.starts_with("dependencies"));
            assert!(
                !deps.any(|section| section.contains("curare-testkit")),
                "{}: a product crate depends on the test kit",
                krate.display()
            );
        }
        let (mut scanned, mut product_streams) = (0, Vec::new());
        for path in files.iter().filter(|p| !p.ends_with("src/bin/experiments.rs")) {
            let text = std::fs::read_to_string(path).expect("a source file");
            let in_src = path.components().any(|c| c.as_os_str() == "src");
            let cut = if in_src { text.find("#[cfg(test)]").unwrap_or(text.len()) } else { 0 };
            let (product, tests) = text.split_at(cut);
            let found = steps(tests);
            assert!(found.is_empty(), "{}: a test spells its own {found:?} step", path.display());
            if !steps(product).is_empty() {
                product_streams.push(path.clone());
            }
            scanned += 1;
        }
        assert!(scanned >= 100, "the scan found only {scanned} files: has the layout changed?");
        product_streams.sort();
        let streams = [root.join("crates/lisp/src/interp.rs")];
        assert_eq!(product_streams, streams, "the product's PRNG steps");
    }

    /// One table of statement shapes: a control keyword is spelt as a
    /// string literal by no non-test, non-comment line of
    /// `crates/transform/src` outside `shape.rs`. A device that matched
    /// on one would be a private copy of the grammar again — the copies
    /// disagreed about `while` bodies, `and` / `or` and `unless` / `let`
    /// before there was a table.
    #[test]
    fn control_keywords_live_in_one_transform_file() {
        const KEYWORDS: [&str; 10] =
            ["progn", "when", "unless", "cond", "if", "while", "let", "let*", "and", "or"];
        const EXCEPTIONS: [(&str, &str); 2] = [
            (
                "fold.rs",
                "emits the accumulating walker's `unless` (it reads `if` / `cond` as views)",
            ),
            ("reorder.rs", "scopes binders (`defun`, `lambda`, `dolist`, `let`), not control"),
        ];
        let mut files = 0;
        let mut offenders = Vec::new();
        for (path, text) in product_sources() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
            if !path.ends_with(format!("crates/transform/src/{name}"))
                || name == "shape.rs"
                || EXCEPTIONS.iter().any(|(file, _)| *file == name)
            {
                continue;
            }
            files += 1;
            let spelt = text
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .any(|l| KEYWORDS.iter().any(|k| l.contains(&format!("\"{k}\""))));
            if spelt {
                offenders.push(name);
            }
        }
        offenders.sort();
        assert!(offenders.is_empty(), "control keywords outside shape.rs: {offenders:?}");
        assert!(files >= 9, "the scan found only {files} files: has the layout changed?");
    }

    /// The pool's protocol keeps to its module: no non-test,
    /// non-comment line of `pool.rs` (or its `pool/` files) builds JSON
    /// or runs speculation's commit (`speclog::resolve…`), and no
    /// runtime file but `watchdog.rs` names a heartbeat (`ServerBeat`).
    /// The protocol's one struct carried the watchdog's beats and
    /// dumps, the commit's totals and the run report's fields before.
    #[test]
    fn the_pool_protocol_keeps_to_its_module() {
        let mut files = 0;
        let mut offenders = Vec::new();
        for (path, text) in product_sources() {
            let path = path.to_string_lossy().replace('\\', "/");
            let Some((_, file)) = path.split_once("crates/runtime/src/") else { continue };
            files += 1;
            let code: Vec<&str> =
                text.lines().filter(|l| !l.trim_start().starts_with("//")).collect();
            let names = |word: &str| code.iter().any(|l| l.contains(word));
            let protocol = file == "pool.rs" || file.starts_with("pool/");
            for word in ["Json", "speclog::resolve"].into_iter().filter(|_| protocol) {
                if names(word) {
                    offenders.push(format!("{file} names {word}"));
                }
            }
            if file != "watchdog.rs" && names("ServerBeat") {
                offenders.push(format!("{file} names ServerBeat"));
            }
        }
        assert!(offenders.is_empty(), "the pool's protocol reaches out: {offenders:?}");
        assert!(files >= 9, "the scan found only {files} files: has the layout changed?");
    }

    /// One document format: no non-test, non-comment line of product
    /// code outside `obs/src/report.rs` spells a `curare-<name>/<n>`
    /// schema, and none but `report.rs` and `chrome.rs` (which takes
    /// `SCHEMA_TRACE` from it) sets a `"schema"` key. Eight producers
    /// stamped eight tags of their own before.
    #[test]
    fn the_document_format_lives_in_one_module() {
        let mut offenders = Vec::new();
        for (path, text) in product_sources() {
            let path = path.to_string_lossy().replace('\\', "/");
            let code = text.lines().filter(|l| !l.trim_start().starts_with("//"));
            for line in code {
                let schema = line.match_indices("\"curare-").any(|(at, _)| {
                    let word = &line[at + 1..];
                    let word = &word[..word.find('"').unwrap_or(word.len())];
                    word.split_once('/').is_some_and(|(_, n)| n.bytes().all(|b| b.is_ascii_digit()))
                });
                let stamps = line.contains("set(\"schema\"");
                if schema && !path.ends_with("crates/obs/src/report.rs") {
                    offenders.push(format!("{path} spells a schema: {}", line.trim()));
                }
                let stamper = ["crates/obs/src/report.rs", "crates/obs/src/chrome.rs"];
                if stamps && !stamper.iter().any(|f| path.ends_with(f)) {
                    offenders.push(format!("{path} sets a schema: {}", line.trim()));
                }
            }
        }
        assert!(offenders.is_empty(), "the document format leaks: {offenders:#?}");
    }

    /// One reading of the trace: an invocation's bracket is named by no
    /// non-test, non-comment line of `crates/obs/src` outside
    /// `sweep.rs`, which pairs it (and `event.rs`, which defines it).
    /// The timeline, the Chrome export and the profiler each paired the
    /// ring themselves before, with three overflow rules, and only the
    /// profiler nested a helping touch.
    #[test]
    fn trace_brackets_are_paired_in_one_obs_file() {
        let mut files = 0;
        let mut offenders = Vec::new();
        for (path, text) in product_sources() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
            if !path.ends_with(format!("crates/obs/src/{name}")) {
                continue;
            }
            files += 1;
            let named = text
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .any(|l| l.contains("EventKind::TaskStart") || l.contains("EventKind::TaskStop"));
            if named && name != "sweep.rs" && name != "event.rs" {
                offenders.push(name);
            }
        }
        assert!(offenders.is_empty(), "task brackets read outside sweep.rs: {offenders:?}");
        assert!(files >= 12, "the scan found only {files} files: has the layout changed?");
    }

    /// One front door: the steps that prepare a lowered program for
    /// analysis — its declarations, the canonicalizer its inverse pairs
    /// resolve to, the cost of its bodies — are each spelt by one
    /// non-test, non-comment line of product code, all in one file
    /// (`Analyzer::of_program`). A second speller is a second door, and
    /// the doors disagreed: `analyze` passed no canonicalizer, the
    /// certifier and the sanitizer each derived a placement of their own.
    #[test]
    fn a_program_is_prepared_in_one_place() {
        let sources = product_sources();
        for step in ["DeclDb::from_program", "Canonicalizer::from_decls", "CallCosts::of_program"] {
            let spelt: Vec<String> = sources
                .iter()
                .filter(|(_, text)| {
                    text.lines().any(|l| !l.trim_start().starts_with("//") && l.contains(step))
                })
                .map(|(path, _)| path.display().to_string())
                .collect();
            assert!(
                matches!(&spelt[..], [one] if one.ends_with("crates/analysis/src/analyze.rs")),
                "`{step}` is spelt in {spelt:?}"
            );
        }
    }
}
