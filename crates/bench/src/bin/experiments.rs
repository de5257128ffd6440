//! The experiment harness: regenerates every result of the paper's
//! evaluation (see DESIGN.md's per-experiment index and
//! EXPERIMENTS.md for recorded outputs).
//!
//! ```text
//! cargo run --release -p curare-bench --bin experiments           # all
//! cargo run --release -p curare-bench --bin experiments e4 e7    # some
//! cargo run ... experiments e8 --trace t.json --metrics m.json   # traced
//! cargo run ... experiments validate FILE KEY...                 # CI gate
//! cargo run ... experiments sanitize [--json] [--chaos-seed N]   # oracle
//! cargo run ... experiments interp [--json] [--min-speedup X]
//!                                  # tree vs VM sweep (+ CI gate)
//! cargo run ... experiments hir [--json]  # typed-HIR/fusion ablation
//! cargo run ... experiments differential FILE...  # engine parity gate
//!                                  # (tree vs fused VM vs --no-fuse VM)
//! cargo run ... experiments chaos [--json] [--seeds N]
//!                                  # seeded fault-injection sweep
//! cargo run ... experiments profile [--json]
//!                                  # causal profiler: work/span vs the
//!                                  # static concurrency bound
//! cargo run ... experiments locksynth [--json]
//!                                  # lock-synthesis sweep: predicted
//!                                  # min-distance bound vs realized
//!                                  # parallelism, exclusive vs rw vs
//!                                  # coalesced placements
//! cargo run ... experiments steal [--json] [--n N] [--sites K]
//!                                  # skew sweep: uniform / 90-10 /
//!                                  # Zipf site loads × central,
//!                                  # sharded
//! cargo run ... experiments speculate [--json] [--seeds N]
//!                                  # SpecMode: statically refused
//!                                  # programs run optimistically,
//!                                  # commit-clean % + abort/replay
//!                                  # convergence + seq-vs-spec timing
//! ```
//!
//! `--trace` writes a Chrome `trace_event` document of every threaded
//! run (open in `chrome://tracing` or Perfetto); `--metrics` writes
//! the last threaded run's `curare-report/1` document with the
//! concurrency timeline attached. `validate` parses a JSON file and
//! checks the given top-level keys exist (exit 1 otherwise).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use curare::analysis::headtail;
use curare::lisp::{Interp, Lowerer, Value};
use curare::prelude::*;
use curare::sim::formula;
use curare_bench::*;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("validate") {
        return validate_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("sanitize") {
        return sanitize_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("interp") {
        return interp_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("hir") {
        return hir_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("differential") {
        return differential_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("chaos") {
        return chaos_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("profile") {
        return profile_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("locksynth") {
        return locksynth_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("steal") {
        return steal_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("speculate") {
        return speculate_cmd(&args[1..]);
    }
    // The largest pool any experiment spawns is 8 servers; the tracer
    // clamps larger lane indices to the external lane anyway.
    let obs = match ObsSink::from_args(&mut args, 8) {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("experiments: {e}");
            return ExitCode::from(2);
        }
    };
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);

    println!("Curare reproduction — experiment harness");
    println!(
        "host: {} hardware thread(s); wall-clock speedups are bounded by that.\n",
        hardware_threads()
    );

    if want("e1") {
        e1_conflict_detection();
    }
    if want("e2") {
        e2_concurrency_formula();
    }
    if want("e3") {
        e3_servers_sweep();
    }
    if want("e4") {
        e4_lock_distance();
    }
    if want("e5") {
        e5_delays();
    }
    if want("e6") {
        e6_reorder_vs_lock();
    }
    if want("e7") {
        e7_server_optimum();
    }
    if want("e8") {
        e8_queue_bottleneck(&obs);
    }
    if want("e9") {
        e9_dps_remq();
    }
    if want("e10") {
        e10_spawn_vs_server();
    }
    if want("e11") {
        e11_sequentializability();
    }
    if want("e12") {
        e12_scheduler_ablation(&obs);
    }
    if want("e13") {
        e13_handoff_crossover();
    }
    if want("sched") {
        sched_contention(&obs);
    }
    if let Err(e) = obs.finish() {
        eprintln!("experiments: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `experiments validate FILE KEY...` — parse FILE as JSON and check
/// every KEY exists at the top level. The CI smoke gate runs this on
/// the emitted trace/metrics/BENCH documents.
fn validate_cmd(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: experiments validate FILE [KEY...]");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("experiments: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let keys: Vec<&str> = args[1..].iter().map(String::as_str).collect();
    match curare::obs::validate_keys(&text, &keys) {
        Ok(_) => {
            println!("{path}: ok ({} required keys present)", keys.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("experiments: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `experiments interp [--json] [--min-speedup X]` — time the
/// tree-walking evaluator against the bytecode VM on tiny-grain,
/// E8-shaped microbenchmarks (the per-invocation work the §4.1
/// queue-bottleneck analysis is about) and write the sweep to
/// `BENCH_interp.json` (`curare-bench/2`, with per-program dispatched
/// / typed / fused VM op counts — the process-wide counters reset
/// between programs so each row is a per-call delta). The CI gate
/// validates the document's keys and enforces `--min-speedup` against
/// the geometric-mean tree→VM speedup.
fn interp_cmd(args: &[String]) -> ExitCode {
    use curare::lisp::Engine;

    let mut json = false;
    let mut min_speedup: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--min-speedup" => {
                min_speedup = args.get(i + 1).and_then(|s| s.parse().ok());
                if min_speedup.is_none() {
                    eprintln!("experiments: --min-speedup needs a number");
                    return ExitCode::from(2);
                }
                i += 2;
            }
            other => {
                eprintln!("experiments: unknown interp option {other}");
                return ExitCode::from(2);
            }
        }
    }
    const SUM: &str = "(defun s (l acc) (if l (s (cdr l) (+ acc (car l))) acc))";
    const FIB: &str = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
    type ArgsFor = fn(&Interp, i64) -> Vec<Value>;
    fn list_arg(interp: &Interp, n: i64) -> Vec<Value> {
        vec![int_list(interp, n)]
    }
    fn list_acc_args(interp: &Interp, n: i64) -> Vec<Value> {
        vec![int_list(interp, n), Value::int(0)]
    }
    fn int_arg(_: &Interp, n: i64) -> Vec<Value> {
        vec![Value::int(n)]
    }
    fn remq_args(interp: &Interp, n: i64) -> Vec<Value> {
        vec![interp.heap().sym_value("a"), sym_list(interp, n as usize, &["a", "b", "c"])]
    }
    let padded = padded_walker(8);
    let programs: [(&str, &str, &str, i64, ArgsFor); 5] = [
        ("bare-walk", "(defun w (l) (when l (w (cdr l))))", "w", 20_000, list_arg),
        ("sum", SUM, "s", 20_000, list_acc_args),
        ("padded-8", &padded, "padded", 20_000, list_arg),
        ("fib", FIB, "fib", 20, int_arg),
        ("remq", FIGURE_12_REMQ, "remq", 2_000, remq_args),
    ];

    // Best-of-5 of one entry call (deep recursion needs the big
    // stack for the tree-walker's native frames).
    let time_engine = |src: &str, entry: &str, n: i64, argf: ArgsFor, engine: Engine| {
        with_big_stack(|| {
            let interp = Interp::new();
            interp.set_engine(Some(engine));
            interp.set_recursion_limit(10_000_000);
            interp.load_str(src).expect("program loads");
            let args = argf(&interp, n);
            interp.call(entry, &args).expect("warmup call");
            let mut best = Duration::MAX;
            for _ in 0..5 {
                best = best.min(time_once(|| {
                    interp.call(entry, &args).expect("timed call");
                }));
            }
            best
        })
    };

    // Per-program dynamic op counts for one entry call on the VM.
    // The process-wide counters are reset between programs so rows
    // carry deltas, not a cumulative total across the sweep.
    let count_vm_ops = |src: &str, entry: &str, n: i64, argf: ArgsFor| {
        with_big_stack(|| {
            let interp = Interp::new();
            interp.set_engine(Some(Engine::Vm));
            interp.set_recursion_limit(10_000_000);
            interp.load_str(src).expect("program loads");
            let args = argf(&interp, n);
            curare::lisp::vm_stats_reset();
            interp.call(entry, &args).expect("counted call");
            curare::lisp::vm_stats()
        })
    };

    if !json {
        println!("interpreter engines: tree-walker vs bytecode VM (best of 5)");
        println!(
            "  {:>12} {:>8} {:>12} {:>12} {:>9} {:>10} {:>8} {:>8}",
            "program", "n", "tree", "vm", "speedup", "vm-ops", "typed", "fused"
        );
    }
    let mut runs = Vec::new();
    let mut speedups = Vec::new();
    for (name, src, entry, n, argf) in programs {
        let tree = time_engine(src, entry, n, argf, Engine::Tree);
        let vm = time_engine(src, entry, n, argf, Engine::Vm);
        let vs = count_vm_ops(src, entry, n, argf);
        let speedup = tree.as_secs_f64() / vm.as_secs_f64().max(1e-12);
        speedups.push(speedup);
        let row = Json::obj()
            .set("program", name)
            .set("n", n as u64)
            .set("tree_ns", tree.as_nanos() as u64)
            .set("vm_ns", vm.as_nanos() as u64)
            .set("speedup", speedup)
            .set("vm_dispatched_ops", vs.dispatched_ops)
            .set("vm_typed_ops", vs.typed_ops)
            .set("vm_fused_ops", vs.fused_ops);
        if json {
            println!("{row}");
        } else {
            println!(
                "  {name:>12} {n:>8} {tree:>12?} {vm:>12?} {speedup:>8.2}x {:>10} {:>8} {:>8}",
                vs.dispatched_ops, vs.typed_ops, vs.fused_ops
            );
        }
        runs.push(row);
    }
    let geomean =
        (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len().max(1) as f64).exp();
    if !json {
        println!("  geometric-mean speedup: {geomean:.2}x");
    }
    let doc = Json::obj()
        .set("schema", "curare-bench/2")
        .set("bench", "interp")
        .set("host_threads", hardware_threads())
        .set("geomean_speedup", geomean)
        .set("runs", Json::Arr(runs));
    match std::fs::write("BENCH_interp.json", format!("{doc}\n")) {
        Ok(()) => {
            if !json {
                println!("  wrote BENCH_interp.json");
            }
        }
        Err(e) => {
            eprintln!("experiments: BENCH_interp.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(min) = min_speedup {
        if geomean < min {
            eprintln!(
                "experiments: interp regression: geomean VM speedup {geomean:.2}x < required {min:.2}x"
            );
            return ExitCode::FAILURE;
        }
        println!("  interp gate: geomean {geomean:.2}x >= {min:.2}x");
    }
    ExitCode::SUCCESS
}

/// `experiments hir [--json]` — the typed-HIR / superinstruction
/// ablation: run the interp microbenchmarks on the VM with fusion on
/// and off, reporting static code size (total / typed / fused ops in
/// the entry function) and dynamic per-call dispatch counts for each
/// configuration (`curare-hir/1` rows). This quantifies exactly what
/// the tentpole buys: fused rows should dispatch fewer ops for the
/// same call, at identical results (the differential gate checks the
/// identical-results half).
fn hir_cmd(args: &[String]) -> ExitCode {
    use curare::lisp::Engine;

    let json = args.iter().any(|a| a == "--json");
    const SUM: &str = "(defun s (l acc) (if l (s (cdr l) (+ acc (car l))) acc))";
    const FIB: &str = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
    type ArgsFor = fn(&Interp, i64) -> Vec<Value>;
    fn list_arg(interp: &Interp, n: i64) -> Vec<Value> {
        vec![int_list(interp, n)]
    }
    fn list_acc_args(interp: &Interp, n: i64) -> Vec<Value> {
        vec![int_list(interp, n), Value::int(0)]
    }
    fn int_arg(_: &Interp, n: i64) -> Vec<Value> {
        vec![Value::int(n)]
    }
    fn remq_args(interp: &Interp, n: i64) -> Vec<Value> {
        vec![interp.heap().sym_value("a"), sym_list(interp, n as usize, &["a", "b", "c"])]
    }
    let padded = padded_walker(8);
    let programs: [(&str, &str, &str, i64, ArgsFor); 5] = [
        ("bare-walk", "(defun w (l) (when l (w (cdr l))))", "w", 20_000, list_arg),
        ("sum", SUM, "s", 20_000, list_acc_args),
        ("padded-8", &padded, "padded", 20_000, list_arg),
        ("fib", FIB, "fib", 20, int_arg),
        ("remq", FIGURE_12_REMQ, "remq", 2_000, remq_args),
    ];

    // (static total/typed/fused ops of the entry fn, dynamic per-call
    // stats, best-of-5 call time) for one fusion setting.
    let measure = |src: &str, entry: &str, n: i64, argf: ArgsFor, fuse: bool| {
        with_big_stack(move || {
            let prev = curare::lisp::fusion_enabled();
            curare::lisp::set_fusion_enabled(fuse);
            let interp = Interp::new();
            interp.set_engine(Some(Engine::Vm));
            interp.set_recursion_limit(10_000_000);
            interp.load_str(src).expect("program loads");
            // Compilation happened at load time; restore the flag
            // before anything else observes it.
            curare::lisp::set_fusion_enabled(prev);
            let args = argf(&interp, n);
            interp.call(entry, &args).expect("warmup call");
            let id = interp.lookup_func_by_name(entry).expect("entry defined");
            let code = interp.func_entry(id).code.clone().expect("entry compiled");
            let total = code.ops.len() as u64;
            let styped = code.ops.iter().filter(|o| o.is_typed()).count() as u64;
            let sfused = code.ops.iter().filter(|o| o.is_fused()).count() as u64;
            curare::lisp::vm_stats_reset();
            interp.call(entry, &args).expect("counted call");
            let vs = curare::lisp::vm_stats();
            let mut best = Duration::MAX;
            for _ in 0..5 {
                best = best.min(time_once(|| {
                    interp.call(entry, &args).expect("timed call");
                }));
            }
            (total, styped, sfused, vs, best)
        })
    };

    if !json {
        println!("typed HIR + superinstruction ablation (VM, fused vs --no-fuse)");
        println!(
            "  {:>12} {:>14} {:>14} {:>12} {:>12} {:>8}",
            "program", "code f/u", "typed/fused", "ops fused", "ops unfused", "speedup"
        );
    }
    let mut rows = Vec::new();
    for (name, src, entry, n, argf) in programs {
        let (fu_total, fu_typed, fu_fused, fu_vs, fu_t) = measure(src, entry, n, argf, true);
        let (un_total, _, _, un_vs, un_t) = measure(src, entry, n, argf, false);
        let speedup = un_t.as_secs_f64() / fu_t.as_secs_f64().max(1e-12);
        let row = Json::obj()
            .set("schema", "curare-hir/1")
            .set("program", name)
            .set("n", n as u64)
            .set("code_ops_fused", fu_total)
            .set("code_ops_unfused", un_total)
            .set("code_typed_ops", fu_typed)
            .set("code_fused_ops", fu_fused)
            .set("dispatched_fused", fu_vs.dispatched_ops)
            .set("dispatched_unfused", un_vs.dispatched_ops)
            .set("dyn_typed_ops", fu_vs.typed_ops)
            .set("dyn_fused_ops", fu_vs.fused_ops)
            .set("fused_ns", fu_t.as_nanos() as u64)
            .set("unfused_ns", un_t.as_nanos() as u64)
            .set("fusion_speedup", speedup);
        if json {
            println!("{row}");
        } else {
            println!(
                "  {name:>12} {:>14} {:>14} {:>12} {:>12} {speedup:>7.2}x",
                format!("{fu_total}/{un_total}"),
                format!("{fu_typed}/{fu_fused}"),
                fu_vs.dispatched_ops,
                un_vs.dispatched_ops
            );
        }
        rows.push(row);
    }
    // The ablation is informative, not a gate: fusion must never
    // *increase* dispatch for the same call.
    let regressed: Vec<&Json> = rows
        .iter()
        .filter(|r| {
            let get = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
            get("dispatched_fused") > get("dispatched_unfused")
        })
        .collect();
    if !regressed.is_empty() {
        eprintln!(
            "experiments: hir: fusion increased dispatched ops on {} row(s)",
            regressed.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `experiments differential FILE...` — load every file under the
/// tree-walker, the fused bytecode VM, and the `--no-fuse` VM in
/// fresh interpreters and require identical outcomes: same result (or
/// error), same printed output, and the same global bindings
/// (rendered through the heap, so any structure reachable from a
/// global is compared too). The three-way comparison makes the fusion
/// escape hatch a checked equivalence, not just an off switch. Each
/// file then goes through the restructurer and its output through the
/// same three engines (so every form the transformer can emit —
/// `cri-enqueue`, `cri-handoff`, lock brackets, `atomic-incf` — is
/// compiled, fused and tree-walked), and must leave the output and
/// globals the file as written leaves. The CI gate runs this over
/// `examples/lisp/*.lisp` and the fixtures.
fn differential_cmd(args: &[String]) -> ExitCode {
    use curare::lisp::Engine;

    if args.is_empty() {
        eprintln!("usage: experiments differential FILE...");
        return ExitCode::from(2);
    }
    let run_engine = |src: &str, engine: Engine, fuse: bool| -> String {
        with_big_stack(move || {
            // Fusion applies at compile (= load) time; restore the
            // previous setting before returning.
            let prev = curare::lisp::fusion_enabled();
            curare::lisp::set_fusion_enabled(fuse);
            let interp = Interp::new();
            interp.set_engine(Some(engine));
            let outcome = match interp.load_str(src) {
                Ok(v) => format!("ok: {}", interp.heap().display(v)),
                Err(e) => format!("err: {e}"),
            };
            curare::lisp::set_fusion_enabled(prev);
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
        let tree = run_engine(src, Engine::Tree, true);
        let vm = run_engine(src, Engine::Vm, true);
        let vm_nofuse = run_engine(src, Engine::Vm, false);
        if tree == vm && vm == vm_nofuse {
            Ok(tree)
        } else {
            Err(format!(
                "--- tree ---\n{tree}\n--- vm (fused) ---\n{vm}\n--- vm (--no-fuse) ---\n{vm_nofuse}"
            ))
        }
    };
    // Output and globals, without the first (value) line: a converted
    // function's return value is not meaningful, its effects are.
    let effects = |outcome: &str| outcome.split_once('\n').map(|(_, e)| e.to_string());
    let mut all_ok = true;
    for path in args {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("experiments: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        // The file as written, then as restructured (sequential hooks:
        // every spawn form is a direct call), which must also leave
        // the effects the original leaves.
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
        match verdict {
            Ok(plain) => {
                println!("{path}: engines agree ({})", plain.lines().next().unwrap_or(""));
            }
            Err(detail) => {
                all_ok = false;
                eprintln!("{path}: ENGINE DIVERGENCE\n{detail}");
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `experiments sanitize [--json]` — run the heap-access sanitizer
/// over the experiment programs under both schedulers and cross-check
/// every observed conflicting pair against the static prediction (the
/// soundness oracle; see DESIGN.md). Exits 0 iff every run is sound.
fn sanitize_cmd(args: &[String]) -> ExitCode {
    use curare::check::sanitized_run;
    use curare::runtime::SchedMode;

    let json = args.iter().any(|a| a == "--json");
    // `--chaos-seed N` arms the no-panic `reorder` fault profile for
    // every cell: the soundness verdict must be schedule-independent,
    // so a perturbed interleaving has to stay sound too. (Panic
    // profiles are excluded — a retried body would record its heap
    // accesses twice.)
    let chaos_seed: Option<u64> = match args.iter().position(|a| a == "--chaos-seed") {
        None => None,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse().ok()) {
            Some(n) => Some(n),
            None => {
                eprintln!("experiments: --chaos-seed needs a number");
                return ExitCode::from(2);
            }
        },
    };
    if let Some(seed) = chaos_seed {
        use curare::runtime::chaos::{self, ChaosProfile, FaultPlan};
        chaos::install(Some(FaultPlan::new(seed, ChaosProfile::named("reorder").unwrap())));
        if !json {
            println!("chaos: seed {seed}, profile 'reorder' armed for every cell");
        }
    }
    type ArgsFor = fn(&Interp, i64) -> Vec<Value>;
    fn int_args(interp: &Interp, n: i64) -> Vec<Value> {
        vec![int_list(interp, n)]
    }
    fn remq_args(interp: &Interp, n: i64) -> Vec<Value> {
        vec![interp.heap().sym_value("a"), sym_list(interp, n as usize, &["a", "b", "c"])]
    }
    let fk = distance_k_writer(2);
    // The hand-off example: its successors overlap their producers'
    // tails, which is only sound because the tails do not conflict.
    let tail_heavy = include_str!("../../../../examples/lisp/tail_heavy.lisp");
    let programs: [(&str, &str, &str, i64, ArgsFor); 5] = [
        ("figure-5", FIGURE_5, "f", 512, int_args),
        ("rotate", ROTATE, "rotate", 512, int_args),
        ("distance-2", &fk, "fk", 512, int_args),
        ("remq", FIGURE_12_REMQ, "remq", 256, remq_args),
        ("tail-heavy", tail_heavy, "th", 512, int_args),
    ];
    let mut all_sound = true;
    // Per-cell precision rows for the machine-readable summary doc:
    // the speculate experiment diffs its commit-clean ratios against
    // these, so they must be available outside stdout prose.
    let mut precision_rows: Vec<Json> = Vec::new();
    let mut diag_set = curare::check::DiagnosticSet::new("experiments sanitize");
    if !json {
        println!("heap-access sanitizer vs static conflict prediction (4 servers):");
    }
    for (name, src, entry, n, argf) in programs {
        for mode in [SchedMode::Central, SchedMode::Sharded] {
            let mode_name = match mode {
                SchedMode::Central => "central",
                SchedMode::Sharded => "sharded",
            };
            let check = match sanitized_run(src, entry, 4, mode, |i| argf(i, n)) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("experiments: sanitize {name}/{mode_name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            all_sound &= check.sound();
            precision_rows.push(
                Json::obj()
                    .set("program", name)
                    .set("mode", mode_name)
                    .set("sound", check.sound())
                    .set("precision", check.precision())
                    .set("unobserved_ratio", check.unobserved_ratio())
                    .set("predicted_top", check.predicted.top)
                    .set("predicted_pairs", check.predicted.keys.len())
                    .set("observed_pairs", check.observed.len()),
            );
            if !check.sound() {
                diag_set.push(curare::check::Diagnostic::new(
                    curare::check::Code::C007,
                    format!("{name}/{mode_name}"),
                    format!(
                        "sanitizer observed {} unordered unpredicted pair(s) the static \
                         analysis missed",
                        check.unpredicted_total
                    ),
                ));
            }
            if json {
                let doc = Json::obj()
                    .set("program", name)
                    .set("mode", mode_name)
                    .set("check", check.to_json());
                println!("{doc}");
            } else {
                println!(
                    "  {name:>12} {mode_name:>8}: sound={} precision={:.2} unobserved={:.2} \
                     events={} pairs={}{}",
                    check.sound(),
                    check.precision(),
                    check.unobserved_ratio(),
                    check.events,
                    check.pairs_checked,
                    if check.capped { " (capped)" } else { "" }
                );
                for u in &check.unpredicted {
                    println!("    UNPREDICTED loc={:#x} key={:?} invs={:?}", u.loc, u.key, u.invs);
                }
            }
        }
    }
    if chaos_seed.is_some() {
        curare::runtime::chaos::install(None);
    }
    // The curare-diag/1 summary: clean when every cell was sound (one
    // C007 finding per unsound cell otherwise), with the per-cell
    // precision ratios attached so downstream tooling — notably
    // `experiments speculate` — can diff against them without
    // scraping prose.
    let diag_doc = diag_set.to_json().set("precision", Json::Arr(precision_rows));
    if json {
        println!("{diag_doc}");
    }
    if let Err(e) = std::fs::write("BENCH_sanitize.json", format!("{diag_doc}\n")) {
        eprintln!("experiments: BENCH_sanitize.json: {e}");
        return ExitCode::FAILURE;
    }
    if !json {
        println!("  wrote BENCH_sanitize.json");
        let verdict = if all_sound {
            "sound (no observed-but-unpredicted unordered pairs)"
        } else {
            "UNSOUND — the static analysis missed an observed conflict"
        };
        println!("overall: {verdict}");
    }
    if all_sound {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `experiments speculate [--json] [--seeds N]` — the SpecMode
/// experiment: programs the static pipeline refuses (a ⊤-write
/// walker and an under-declared-aliasing walker) run optimistically
/// in parallel under both schedulers; every run must reproduce the
/// sequential oracle exactly. Records per-cell commit-clean ratios
/// next to the static predicted-pair verdicts (and, when a prior
/// `experiments sanitize` left `BENCH_sanitize.json` behind, its
/// measured precision ratios) plus a forced-sequential vs
/// speculative timing of the ⊤-write program, into
/// `BENCH_spec.json`. A seeded shuffle+speculate chaos sweep rides
/// along (`--seeds N`, default 16). Exits 0 iff every
/// speculative run converged to the oracle and the ⊤-write program
/// committed 100% clean.
fn speculate_cmd(args: &[String]) -> ExitCode {
    use curare::runtime::{RuntimeConfig, SchedMode};

    let json = args.iter().any(|a| a == "--json");
    let flag_val =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let seeds: u64 = match flag_val("--seeds").map(|s| s.parse()) {
        None => 16,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("experiments: --seeds needs a number");
            return ExitCode::from(2);
        }
    };

    let scrub = scrub_top_write(8192);
    // (name, source, entry, list length, aliased call?). `scrub-top`
    // carries the C002/⊤-write verdict (acceptance demo: parallel and
    // 100% commit-clean); `aliased-mix` must abort/replay (or
    // escalate) and still converge.
    let programs: [(&str, &str, &str, i64, bool); 2] = [
        ("scrub-top", &scrub, "scrub", 512, false),
        ("aliased-mix", ALIASED_MIX, "mix", 192, true),
    ];

    let run_args = |l: Value, aliased: bool| if aliased { vec![l, l] } else { vec![l] };
    // Sequential oracles (the transformed entry under default inline
    // hooks — the same code path the pool executes).
    let expects: Vec<String> = programs
        .iter()
        .map(|&(_, src, entry, n, aliased)| {
            with_big_stack(|| {
                let (interp, _) = speculative_interp(src);
                let l = int_list(&interp, n);
                interp.call(entry, &run_args(l, aliased)).expect("sequential oracle runs");
                interp.heap().display(l)
            })
        })
        .collect();

    let mut ok = true;
    let mut rows = Vec::new();
    if !json {
        println!("SpecMode: statically refused programs run optimistically (4 servers):");
    }
    for ((name, src, entry, n, aliased), expect) in programs.iter().zip(&expects) {
        let predicted = match curare::check::predicted_pairs(src) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("experiments: speculate {name}: predicted_pairs: {e}");
                return ExitCode::FAILURE;
            }
        };
        for mode in [SchedMode::Central, SchedMode::Sharded] {
            let mode_name = match mode {
                SchedMode::Central => "central",
                SchedMode::Sharded => "sharded",
            };
            let (interp, out) = speculative_interp(src);
            let admitted = out
                .report(entry)
                .is_some_and(|r| r.converted && r.devices.contains(&Device::Speculate));
            let l = int_list(&interp, *n);
            let argv = run_args(l, *aliased);
            let rt = CriRuntime::with_config(
                Arc::clone(&interp),
                4,
                RuntimeConfig { mode, speculate: true, ..RuntimeConfig::default() },
            );
            let run = rt.run(entry, &argv);
            let got = interp.heap().display(l);
            let stats = rt.stats();
            drop(rt);
            let matched = run.is_ok() && got == *expect;
            let clean_ratio = if stats.spec_commits == 0 {
                1.0
            } else {
                stats.spec_clean as f64 / stats.spec_commits as f64
            };
            // The acceptance demo: the ⊤-write program must actually
            // run parallel (many commits, no escalation) and commit
            // 100% clean; the aliased program only owes convergence.
            let demo_ok = *aliased
                || (admitted
                    && !stats.spec_escalated
                    && stats.spec_aborts == 0
                    && stats.spec_commits >= *n as u64);
            ok &= matched && demo_ok;
            if !matched {
                eprintln!(
                    "  MISMATCH {name}/{mode_name}: {}",
                    match run {
                        Ok(()) => format!("got {got}, want {expect}"),
                        Err(e) => format!("run failed: {e}"),
                    }
                );
            } else if !demo_ok {
                eprintln!(
                    "  DEMO FAILED {name}/{mode_name}: admitted={admitted} commits={} \
                     aborts={} escalated={}",
                    stats.spec_commits, stats.spec_aborts, stats.spec_escalated
                );
            }
            let row = Json::obj()
                .set("program", *name)
                .set("mode", mode_name)
                .set("matched", matched)
                .set("admitted_speculatively", admitted)
                .set("spec_commits", stats.spec_commits)
                .set("spec_clean", stats.spec_clean)
                .set("commit_clean_ratio", clean_ratio)
                .set("spec_aborts", stats.spec_aborts)
                .set("spec_replays", stats.spec_replays)
                .set("spec_escalated", stats.spec_escalated)
                .set("predicted_top", predicted.top)
                .set("predicted_pairs", predicted.keys.len());
            if json {
                println!("{row}");
            } else {
                println!(
                    "  {name:>12} {mode_name:>8}: matched={matched} commits={} clean={:.2} \
                     aborts={} replays={} escalated={} (static: top={} pairs={})",
                    stats.spec_commits,
                    clean_ratio,
                    stats.spec_aborts,
                    stats.spec_replays,
                    stats.spec_escalated,
                    predicted.top,
                    predicted.keys.len()
                );
            }
            rows.push(row);
        }
    }

    // Forced-sequential vs speculative timing of the ⊤-write program:
    // the speedup the static pipeline leaves on the table. Fresh
    // interpreter and input per sample; only the run is timed.
    let timing = {
        let (name, src, entry, n, _) = programs[0];
        let sample = |spec: bool| -> Duration {
            let mut samples: Vec<Duration> = (0..3)
                .map(|_| {
                    let (interp, _) = speculative_interp(src);
                    let l = int_list(&interp, n);
                    if spec {
                        let rt = CriRuntime::with_config(
                            Arc::clone(&interp),
                            4,
                            RuntimeConfig { speculate: true, ..RuntimeConfig::default() },
                        );
                        time_once(|| rt.run(entry, &[l]).expect("speculative run"))
                    } else {
                        time_once(|| {
                            interp.call(entry, &[l]).expect("sequential run");
                        })
                    }
                })
                .collect();
            samples.sort();
            samples[samples.len() / 2]
        };
        let seq = with_big_stack(|| sample(false));
        let spec = sample(true);
        let speedup = seq.as_secs_f64() / spec.as_secs_f64().max(1e-9);
        // Wall-clock speedup is bounded by the host's hardware
        // threads (single-thread CI hosts can at best break even), so
        // the §4.1 total-time formula's prediction for this
        // tail-heavy shape rides along: the grain is almost entirely
        // tail (the padded rewrite runs after the spawn), modeled as
        // h:t = 1:64.
        let predicted = formula::total_time(n as u64, 1, 1, 64) as f64
            / formula::total_time(n as u64, 4, 1, 64) as f64;
        // Only hold the measured number to > 1 where the hardware can
        // express it; the convergence and commit-clean gates above
        // carry the correctness story regardless.
        if hardware_threads() >= 2 && speedup <= 1.0 {
            ok = false;
            eprintln!("  TIMING FAILED {name}: speculative run not faster ({speedup:.2}x)");
        }
        if !json {
            println!(
                "  timing {name} (n={n}): sequential {:.2} ms, speculative {:.2} ms, \
                 speedup {speedup:.2}x measured ({predicted:.2}x predicted at 4 servers, \
                 host has {} thread(s))",
                seq.as_secs_f64() * 1e3,
                spec.as_secs_f64() * 1e3,
                hardware_threads()
            );
        }
        Json::obj()
            .set("program", name)
            .set("n", n)
            .set("sequential_ms", seq.as_secs_f64() * 1e3)
            .set("speculative_ms", spec.as_secs_f64() * 1e3)
            .set("speedup", speedup)
            .set("predicted_speedup", predicted)
            .set("host_threads", hardware_threads())
    };

    // Shuffle+speculate chaos sweep: perturbed interleavings must not
    // change any observable result.
    let chaos_doc = {
        use curare::runtime::chaos::{self, ChaosProfile, FaultPlan};
        let mut sweep = Vec::new();
        let mut swept_ok = true;
        for ((name, src, entry, n, aliased), expect) in programs.iter().zip(&expects) {
            for mode in [SchedMode::Central, SchedMode::Sharded] {
                let mode_name = match mode {
                    SchedMode::Central => "central",
                    SchedMode::Sharded => "sharded",
                };
                let mut matched = 0u64;
                for seed in 0..seeds {
                    let profile = ChaosProfile::named("shuffle").expect("shuffle profile");
                    chaos::install(Some(FaultPlan::new(seed, profile)));
                    let (interp, _) = speculative_interp(src);
                    let l = int_list(&interp, *n);
                    let argv = run_args(l, *aliased);
                    let rt = CriRuntime::with_config(
                        Arc::clone(&interp),
                        4,
                        RuntimeConfig { mode, speculate: true, ..RuntimeConfig::default() },
                    );
                    let run = rt.run(entry, &argv);
                    let got = interp.heap().display(l);
                    drop(rt);
                    chaos::install(None);
                    if run.is_ok() && got == *expect {
                        matched += 1;
                    } else {
                        swept_ok = false;
                        eprintln!("  CHAOS MISMATCH {name}/{mode_name} seed {seed}");
                    }
                }
                sweep.push(
                    Json::obj()
                        .set("program", *name)
                        .set("mode", mode_name)
                        .set("seeds", seeds)
                        .set("matched", matched),
                );
            }
        }
        ok &= swept_ok;
        if !json {
            println!(
                "  chaos sweep: {} cells x {seeds} seeds, profile 'shuffle': {}",
                sweep.len(),
                if swept_ok { "all matched" } else { "MISMATCH" }
            );
        }
        Json::obj().set("profile", "shuffle").set("runs", Json::Arr(sweep))
    };

    // The sanitizer's measured precision ratios, when a prior
    // `experiments sanitize` run left its curare-diag/1 doc behind —
    // the static-precision baseline the commit-clean ratios above are
    // diffed against.
    let sanitizer_doc = std::fs::read_to_string("BENCH_sanitize.json")
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .map_or_else(|| Json::obj().set("present", false), |doc| doc.set("present", true));

    let doc = Json::obj()
        .set("schema", "curare-bench/1")
        .set("bench", "speculate")
        .set("host_threads", hardware_threads())
        .set("programs", Json::Arr(rows))
        .set("timing", timing)
        .set("chaos", chaos_doc)
        .set("sanitizer", sanitizer_doc);
    if let Err(e) = std::fs::write("BENCH_spec.json", format!("{doc}\n")) {
        eprintln!("experiments: BENCH_spec.json: {e}");
        return ExitCode::FAILURE;
    }
    if !json {
        println!("  wrote BENCH_spec.json");
        println!(
            "overall: {}",
            if ok {
                "every speculative run converged to the sequential oracle"
            } else {
                "FAILED — a speculative run diverged or the ⊤-write demo did not hold"
            }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `experiments chaos [--json] [--seeds N] [--profile P]` — the
/// fault-injection differential sweep: every experiment program, under
/// both schedulers, across N seeded fault plans, must produce exactly
/// the sequential oracle's observation; plus one collapse run proving
/// the poison → drain → degrade fallback still returns the right
/// answer. Writes `BENCH_chaos.json`; exits 0 iff every cell matched.
fn chaos_cmd(args: &[String]) -> ExitCode {
    use curare::runtime::chaos::{self, ChaosProfile, FaultPlan};
    use curare::runtime::{RuntimeConfig, SchedMode};

    let json = args.iter().any(|a| a == "--json");
    let flag_val =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let seeds: u64 = match flag_val("--seeds").map(|s| s.parse()) {
        None => 32,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("experiments: --seeds needs a number");
            return ExitCode::from(2);
        }
    };
    let profile_name = flag_val("--profile").unwrap_or_else(|| "mixed".into());
    if ChaosProfile::named(&profile_name).is_none() {
        eprintln!(
            "experiments: unknown chaos profile '{profile_name}' (one of {:?})",
            ChaosProfile::NAMES
        );
        return ExitCode::from(2);
    }

    type BuildFor = fn(&Interp, i64) -> Vec<Value>;
    type ObserveFor = fn(&Interp, &[Value]) -> String;
    fn int_args(interp: &Interp, n: i64) -> Vec<Value> {
        vec![int_list(interp, n)]
    }
    fn remq_args(interp: &Interp, n: i64) -> Vec<Value> {
        let heap = interp.heap();
        vec![
            heap.cons(Value::NIL, Value::NIL),
            heap.sym_value("a"),
            sym_list(interp, n as usize, &["a", "b", "c"]),
        ]
    }
    fn show_first(interp: &Interp, args: &[Value]) -> String {
        interp.heap().display(args[0])
    }
    fn show_sum(interp: &Interp, _args: &[Value]) -> String {
        let v = interp.load_str("*sum*").expect("*sum* readable");
        interp.heap().display(v)
    }
    fn show_dest_cdr(interp: &Interp, args: &[Value]) -> String {
        interp.heap().display(interp.heap().cdr(args[0]).expect("dest is a cons"))
    }
    let fk = distance_k_writer(2);
    // (name, source, pooled entry, n, argument builder, observation,
    // per-run setup). The entry is the transformed one, so the oracle
    // runs the same code path sequentially (default hooks run
    // cri-enqueue/future inline).
    type Program<'a> = (&'a str, &'a str, &'a str, i64, BuildFor, ObserveFor, Option<&'a str>);
    let programs: [Program; 5] = [
        ("figure-5", FIGURE_5, "f", 96, int_args, show_first, None),
        ("rotate", ROTATE, "rotate", 96, int_args, show_first, None),
        ("sum-walk", SUM_WALK, "walk", 96, int_args, show_sum, Some("(defparameter *sum* 0)")),
        ("distance-2", &fk, "fk", 96, int_args, show_first, None),
        ("remq", FIGURE_12_REMQ, "remq-d", 64, remq_args, show_dest_cdr, None),
    ];

    if !json {
        println!(
            "chaos differential sweep: {} programs x 2 schedulers x {seeds} seeds, \
             profile '{profile_name}' (4 servers):",
            programs.len()
        );
    }
    let mut all_match = true;
    let mut runs = Vec::new();
    for (name, src, entry, n, build, observe, setup) in programs {
        let expect = with_big_stack(|| {
            let (interp, _) = transformed_interp(src);
            if let Some(s) = setup {
                interp.load_str(s).expect("setup loads");
            }
            let args = build(&interp, n);
            interp.call(entry, &args).expect("sequential oracle runs");
            observe(&interp, &args)
        });
        for mode in [SchedMode::Central, SchedMode::Sharded] {
            let mode_name = match mode {
                SchedMode::Central => "central",
                SchedMode::Sharded => "sharded",
            };
            let mut matched = 0u64;
            let mut faults = 0u64;
            let mut retries = 0u64;
            let mut poisoned = 0u64;
            for seed in 0..seeds {
                let profile = ChaosProfile::named(&profile_name).expect("validated above");
                chaos::install(Some(FaultPlan::new(seed, profile)));
                let (interp, _) = transformed_interp(src);
                if let Some(s) = setup {
                    interp.load_str(s).expect("setup loads");
                }
                let args = build(&interp, n);
                let rt = CriRuntime::with_config(
                    Arc::clone(&interp),
                    4,
                    RuntimeConfig { mode, ..RuntimeConfig::default() },
                );
                let run = rt.run(entry, &args);
                let got = observe(&interp, &args);
                let stats = rt.stats();
                drop(rt);
                chaos::install(None);
                faults += stats.faults_injected;
                retries += stats.task_retries;
                poisoned += stats.servers_poisoned;
                if run.is_ok() && got == expect {
                    matched += 1;
                } else {
                    all_match = false;
                    eprintln!(
                        "  MISMATCH {name}/{mode_name} seed {seed}: {}",
                        match run {
                            Ok(()) => format!("got {got}, want {expect}"),
                            Err(e) => format!("run failed: {e}"),
                        }
                    );
                }
            }
            let row = Json::obj()
                .set("program", name)
                .set("mode", mode_name)
                .set("seeds", seeds)
                .set("matched", matched)
                .set("faults_injected", faults)
                .set("task_retries", retries)
                .set("servers_poisoned", poisoned);
            if json {
                println!("{row}");
            } else {
                println!(
                    "  {name:>12} {mode_name:>8}: {matched}/{seeds} matched, \
                     {faults} faults, {retries} retries, {poisoned} poisoned"
                );
            }
            runs.push(row);
        }
    }

    // The degradation demo: a profile that panics every task on every
    // server collapses the pool below its floor; the drain must still
    // produce the exact sequential answer and flag the run degraded.
    let demo = {
        chaos::install(Some(FaultPlan::new(1, ChaosProfile::named("collapse").unwrap())));
        let (interp, _) = transformed_interp(SUM_WALK);
        interp.load_str("(defparameter *sum* 0)").expect("setup loads");
        let n = 100i64;
        let args = int_args(&interp, n);
        let rt = CriRuntime::with_config(
            Arc::clone(&interp),
            4,
            RuntimeConfig { retry_limit: 1, ..RuntimeConfig::default() },
        );
        let run = rt.run("walk", &args);
        let got = show_sum(&interp, &args);
        let stats = rt.stats();
        let report_degraded = rt
            .run_report("collapse-demo")
            .get("pool")
            .and_then(|p| p.get("degraded"))
            .and_then(|d| d.as_bool())
            .unwrap_or(false);
        drop(rt);
        chaos::install(None);
        let want = (n * (n + 1) / 2).to_string();
        let ok = run.is_ok() && got == want && stats.degraded && report_degraded;
        if !ok {
            all_match = false;
            eprintln!(
                "  DEGRADE DEMO FAILED: run {:?}, got {got} want {want}, \
                 degraded {} report {report_degraded}",
                run.as_ref().map_err(|e| e.to_string()),
                stats.degraded
            );
        }
        Json::obj()
            .set("program", "sum-walk")
            .set("profile", "collapse")
            .set("value_ok", run.is_ok() && got == want)
            .set("degraded", stats.degraded)
            .set("report_degraded", report_degraded)
            .set("servers_poisoned", stats.servers_poisoned)
    };
    if !json {
        let d = &demo;
        println!(
            "  degrade demo: value_ok={} degraded={} report_degraded={}",
            d.get("value_ok").and_then(|v| v.as_bool()).unwrap_or(false),
            d.get("degraded").and_then(|v| v.as_bool()).unwrap_or(false),
            d.get("report_degraded").and_then(|v| v.as_bool()).unwrap_or(false),
        );
    }

    let doc = Json::obj()
        .set("schema", "curare-bench/1")
        .set("bench", "chaos")
        .set("host_threads", hardware_threads())
        .set("seeds", seeds)
        .set("profile", profile_name.as_str())
        .set("runs", Json::Arr(runs))
        .set("degrade_demo", demo);
    if let Err(e) = std::fs::write("BENCH_chaos.json", format!("{doc}\n")) {
        eprintln!("experiments: BENCH_chaos.json: {e}");
        return ExitCode::FAILURE;
    }
    if !json {
        println!("  wrote BENCH_chaos.json");
        println!(
            "overall: {}",
            if all_match {
                "every chaos run matched the sequential oracle"
            } else {
                "MISMATCH — a fault schedule changed an observable result"
            }
        );
    }
    if all_match {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `experiments profile [--json]` — the bound experiment: run every
/// experiment program under both schedulers with the causal profiler
/// armed, reconstruct the spawn/touch DAG from the trace rings, and
/// compare the *measured* parallelism (work/span) against the
/// *predicted* concurrency bound the static analysis derives from the
/// untransformed source (head/tail estimate capped by minimum conflict
/// distance, §3.1/§3.2.1). Writes `BENCH_profile.json`; exits nonzero
/// if any cell violates span ≤ work or parallelism ≥ 1 (both hold by
/// construction — a violation means the DAG reconstruction broke).
///
/// Each cell also reports its hottest VM opcodes by accumulated
/// handler time (`hot_ops`).
fn profile_cmd(args: &[String]) -> ExitCode {
    use curare::runtime::{RuntimeConfig, SchedMode};

    let json = args.iter().any(|a| a == "--json");
    type BuildFor = fn(&Interp, i64) -> Vec<Value>;
    fn int_args(interp: &Interp, n: i64) -> Vec<Value> {
        vec![int_list(interp, n)]
    }
    fn remq_args(interp: &Interp, n: i64) -> Vec<Value> {
        let heap = interp.heap();
        vec![
            heap.cons(Value::NIL, Value::NIL),
            heap.sym_value("a"),
            sym_list(interp, n as usize, &["a", "b", "c"]),
        ]
    }
    let fk = distance_k_writer(2);
    // (name, source, pooled entry, n, argument builder, per-run
    // setup). Same programs as the chaos sweep so the two BENCH
    // documents describe the same workloads.
    type Program<'a> = (&'a str, &'a str, &'a str, i64, BuildFor, Option<&'a str>);
    let programs: [Program; 5] = [
        ("figure-5", FIGURE_5, "f", 96, int_args, None),
        ("rotate", ROTATE, "rotate", 96, int_args, None),
        ("sum-walk", SUM_WALK, "walk", 96, int_args, Some("(defparameter *sum* 0)")),
        ("distance-2", &fk, "fk", 96, int_args, None),
        ("remq", FIGURE_12_REMQ, "remq-d", 64, remq_args, None),
    ];

    // The static prediction comes from the *untransformed* source:
    // that's the paper's claim under test — how much of the analyzed
    // concurrency does the restructured program actually realize?
    let predicted_for = |src: &str| -> f64 {
        let heap = curare::lisp::Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog =
            lw.lower_program(&parse_all(src).expect("program parses")).expect("program lowers");
        analyze_function(&prog.funcs[0], &DeclDb::new()).concurrency_bound()
    };

    const SERVERS: usize = 4;
    if !json {
        println!(
            "causal profiler: measured work/span vs the static concurrency bound \
             ({SERVERS} servers):"
        );
        println!(
            "  {:>12} {:>8} {:>9} {:>12} {:>12} {:>6} {:>9} {:>9}",
            "program", "mode", "predicted", "work", "span", "par", "achieved", "queue%"
        );
    }
    curare::lisp::set_op_profiling(true);
    let mut ok = true;
    let mut runs = Vec::new();
    for (name, src, entry, n, build, setup) in programs {
        let predicted = predicted_for(src);
        for mode in [SchedMode::Central, SchedMode::Sharded] {
            let mode_name = match mode {
                SchedMode::Central => "central",
                SchedMode::Sharded => "sharded",
            };
            curare::obs::set_profiling(true);
            let tracer = Tracer::with_capacity(SERVERS, 1 << 16);
            curare::obs::install(Some(Arc::clone(&tracer)));
            curare::lisp::op_profile_reset();
            let (interp, _) = transformed_interp(src);
            if let Some(s) = setup {
                interp.load_str(s).expect("setup loads");
            }
            let call_args = build(&interp, n);
            let rt = CriRuntime::with_config(
                Arc::clone(&interp),
                SERVERS,
                RuntimeConfig { mode, ..RuntimeConfig::default() },
            );
            let dt = time_once(|| rt.run(entry, &call_args).expect("pool run"));
            drop(rt);
            curare::obs::install(None);
            curare::obs::set_profiling(false);
            let snaps = tracer.snapshot();
            curare::obs::warn_if_dropped(&snaps, &format!("profile {name}/{mode_name}"));
            let profile = curare::obs::Profile::from_trace(&snaps);
            let hot: Vec<Json> = curare::lisp::op_profile_top(8)
                .into_iter()
                .map(|r| Json::obj().set("op", r.name).set("count", r.count).set("ns", r.ns))
                .collect();

            // The structural invariants the DAG reconstruction
            // guarantees; a violation is a profiler bug, not a bad run.
            if profile.span_ns > profile.work_ns {
                ok = false;
                eprintln!(
                    "  INVARIANT BROKEN {name}/{mode_name}: span {} > work {}",
                    profile.span_ns, profile.work_ns
                );
            }
            if profile.parallelism < 1.0 {
                ok = false;
                eprintln!(
                    "  INVARIANT BROKEN {name}/{mode_name}: parallelism {} < 1",
                    profile.parallelism
                );
            }
            let achieved = profile.parallelism / predicted.max(1e-9);
            let queue_frac = profile.critical_path.queue_ns as f64
                / (profile.critical_path.total_ns() as f64).max(1.0);
            let row = Json::obj()
                .set("program", name)
                .set("mode", mode_name)
                .set("n", n as u64)
                .set("wall_ns", dt.as_nanos() as u64)
                .set("predicted_parallelism", predicted)
                .set("measured_parallelism", profile.parallelism)
                .set("achieved_over_predicted", achieved)
                .set("profile", profile.to_json())
                .set("hot_ops", Json::Arr(hot));
            if json {
                println!("{row}");
            } else {
                println!(
                    "  {name:>12} {mode_name:>8} {predicted:>9.2} {:>12} {:>12} \
                     {:>6.2} {achieved:>8.2}x {:>8.1}%",
                    profile.work_ns,
                    profile.span_ns,
                    profile.parallelism,
                    100.0 * queue_frac
                );
            }
            runs.push(row);
        }
    }
    curare::lisp::set_op_profiling(false);

    let doc = Json::obj()
        .set("schema", "curare-bench/1")
        .set("bench", "profile")
        .set("host_threads", hardware_threads())
        .set("servers", SERVERS as u64)
        .set("runs", Json::Arr(runs));
    if let Err(e) = std::fs::write("BENCH_profile.json", format!("{doc}\n")) {
        eprintln!("experiments: BENCH_profile.json: {e}");
        return ExitCode::FAILURE;
    }
    if !json {
        println!("  wrote BENCH_profile.json");
        println!(
            "expected shape: ratios near 1 mean the pool realizes the analyzed concurrency;\n\
             above 1 the static distance bound was conservative (locks only serialize the\n\
             conflicting step of each body, the rest overlaps); well below 1 the run was\n\
             queue- or future-bound on these tiny grains — the queue% column says which.\n"
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `experiments locksynth [--json]` — the lock-synthesis sweep
/// (§3.2.1): for the read-window walker family (each invocation
/// writes its own car and reads the cars `k` and `k+1` cells ahead),
/// compare the synthesized placement (exclusive writer + shared
/// readers) and its bracket-coalesced variant against the naive
/// all-pairs exclusive placement, across k ∈ {1,2,4,8}.
///
/// Parallelism is measured in the deterministic CRI-model simulator
/// (the same event-driven engine E4 uses), because the placement's
/// effect is a change of *effective conflict distance*: under the
/// naive all-exclusive placement, adjacent invocations lock the same
/// read-ahead word exclusively (invocation i's far word is i+1's near
/// word), pinning the effective distance to 1 for every k; under the
/// rw placement readers never exclude readers, so the only remaining
/// exclusion is the writer against its distance-k readers and the
/// §3.2.1 bound min(d₁…d_u) = k is restored. The simulator turns
/// those distances into achieved concurrency, host-independently — a
/// wall-clock comparison would just measure the host (on a 1-core
/// container every variant runs at 1x).
///
/// Each threaded run still executes for real and must match the
/// sequential oracle; its lock counters make the placement's traffic
/// shift observable (shared vs exclusive acquisitions, coalescing's
/// bracket reduction), and the causal profiler's work/makespan ratio
/// is recorded for multi-core hosts. Writes `BENCH_locks.json`;
/// exits 0 iff every run applied its placement and matched the
/// oracle.
fn locksynth_cmd(args: &[String]) -> ExitCode {
    use curare::runtime::{RuntimeConfig, SchedMode};

    let json = args.iter().any(|a| a == "--json");
    const SERVERS: usize = 4;
    const N: i64 = 256;
    const READS: usize = 8;
    /// Timing samples per cell; the reported row is the median by
    /// realized parallelism (correctness is checked on every sample).
    const SAMPLES: usize = 3;

    // Predicted bound from the *untransformed* source — the paper's
    // `min(d₁…d_u)` claim under test.
    let predicted_for = |src: &str| -> (f64, Option<usize>) {
        let heap = curare::lisp::Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog =
            lw.lower_program(&parse_all(src).expect("program parses")).expect("program lowers");
        let a = analyze_function(&prog.funcs[0], &DeclDb::new());
        (a.concurrency_bound(), a.conflicts.min_distance)
    };
    // Sequential oracle: the untransformed walker on the same list
    // (the program is single-writer-per-cell, so every sound schedule
    // must reproduce this exactly).
    let sequential_result = |src: &str| -> String {
        let interp = Interp::new();
        interp.load_str(src).expect("source loads");
        let l = int_list(&interp, N);
        interp.call("fw", &[l]).expect("sequential run");
        interp.heap().display(l)
    };

    if !json {
        println!(
            "lock synthesis sweep: naive exclusive all-pairs vs synthesized rw vs coalesced\n\
             (read-window walker, {SERVERS} servers, n={N}, {READS} reads per window side):"
        );
        println!(
            "  {:>3} {:>10} {:>9} {:>5} {:>7} {:>8} {:>8} {:>9} {:>6}",
            "k", "variant", "predicted", "d-eff", "sim-par", "acquis", "shared", "realized", "ok"
        );
    }

    let mut ok = true;
    let mut runs = Vec::new();
    let mut best_rw = 0.0f64;
    let mut best_co = 0.0f64;
    for k in [1usize, 2, 4, 8] {
        let rw_src = read_window_walker(k, READS);
        let excl_src = read_window_walker_naive_locks(k, READS);
        let (predicted, min_d) = predicted_for(&rw_src);
        let expect = sequential_result(&rw_src);
        let mut sim_of = Vec::new();
        for (variant, src, coalesce, d_eff) in [
            // All-exclusive locking makes adjacent invocations
            // exclude each other on the shared read-ahead word:
            // effective distance 1 regardless of k.
            ("exclusive", &excl_src, false, 1),
            ("rw", &rw_src, false, k),
            ("coalesced", &rw_src, true, k),
        ] {
            // Deterministic CRI-model concurrency for this placement:
            // head = guard + spawn, tail = the 2*READS+1 lock
            // brackets, exclusion radius = the effective distance.
            let sim = simulate(
                &SimConfig::new(N as u64, SERVERS as u64, 1, 2 * READS as u64 + 1)
                    .with_conflict_distance(d_eff as u64),
            );
            let sim_par = sim.achieved_concurrency;
            // (realized, wall_ns, stats, profile) per sample.
            let mut samples = Vec::new();
            let mut cell_ok = true;
            for _ in 0..SAMPLES {
                curare::obs::set_profiling(true);
                let tracer = Tracer::with_capacity(SERVERS, 1 << 16);
                curare::obs::install(Some(Arc::clone(&tracer)));
                let (interp, out) = if coalesce {
                    transformed_interp_coalesced(src)
                } else {
                    transformed_interp(src)
                };
                let locked = out
                    .report("fw")
                    .is_some_and(|r| r.devices.iter().any(|d| matches!(d, Device::Locks(_))));
                let l = int_list(&interp, N);
                // Central mode: no task chaining, so adjacent
                // invocations land on different servers and their
                // read brackets genuinely overlap — the schedule
                // where lock *modes* (not just placement) matter.
                let rt = CriRuntime::with_config(
                    Arc::clone(&interp),
                    SERVERS,
                    RuntimeConfig { mode: SchedMode::Central, ..RuntimeConfig::default() },
                );
                let dt = time_once(|| rt.run("fw", &[l]).expect("pool run"));
                let stats = rt.stats();
                drop(rt);
                curare::obs::install(None);
                curare::obs::set_profiling(false);
                let snaps = tracer.snapshot();
                curare::obs::warn_if_dropped(&snaps, &format!("locksynth k={k} {variant}"));
                let profile = curare::obs::Profile::from_trace(&snaps);
                let got = interp.heap().display(l);
                let matched = got == expect;
                if !locked {
                    eprintln!(
                        "  NOT LOCKED k={k} {variant}: the pipeline did not apply a placement"
                    );
                }
                if !matched {
                    eprintln!("  DIVERGED k={k} {variant}:\n    want {expect}\n    got  {got}");
                }
                cell_ok &= matched && locked;
                let realized = profile.work_ns as f64 / (profile.makespan_ns as f64).max(1.0);
                samples.push((realized, dt, stats, profile));
            }
            samples.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (realized, dt, stats, profile) = samples.swap_remove(SAMPLES / 2);
            sim_of.push(sim_par);
            ok &= cell_ok;
            let row = Json::obj()
                .set("k", k as u64)
                .set("variant", variant)
                .set("n", N as u64)
                .set("predicted_bound", predicted)
                .set("min_distance", min_d.unwrap_or(0) as u64)
                .set("effective_distance", d_eff as u64)
                .set("sim_parallelism", sim_par)
                .set("realized_parallelism", realized)
                .set("wall_ns", dt.as_nanos() as u64)
                .set("lock_acquisitions", stats.lock_acquisitions)
                .set("lock_shared_acquisitions", stats.lock_shared_acquisitions)
                .set("lock_contended", stats.lock_contended)
                .set("lock_wait_ns", stats.lock_wait_total_ns)
                .set("result_ok", cell_ok)
                .set("profile", profile.to_json());
            if json {
                println!("{row}");
            } else {
                println!(
                    "  {k:>3} {variant:>10} {predicted:>9.2} {d_eff:>5} {sim_par:>7.2} {:>8} \
                     {:>8} {realized:>9.2} {:>6}",
                    stats.lock_acquisitions, stats.lock_shared_acquisitions, cell_ok
                );
            }
            runs.push(row);
        }
        let excl = sim_of[0].max(1e-9);
        let rw_speed = sim_of[1] / excl;
        let co_speed = sim_of[2] / excl;
        best_rw = best_rw.max(rw_speed);
        best_co = best_co.max(co_speed);
        if !json {
            println!(
                "      k={k}: rw {rw_speed:.2}x, coalesced {co_speed:.2}x over exclusive all-pairs"
            );
        }
    }

    let doc = Json::obj()
        .set("schema", "curare-bench/1")
        .set("bench", "locksynth")
        .set("host_threads", hardware_threads())
        .set("servers", SERVERS as u64)
        .set("best_rw_speedup", best_rw)
        .set("best_coalesced_speedup", best_co)
        .set("runs", Json::Arr(runs));
    if let Err(e) = std::fs::write("BENCH_locks.json", format!("{doc}\n")) {
        eprintln!("experiments: BENCH_locks.json: {e}");
        return ExitCode::FAILURE;
    }
    if !json {
        println!("  wrote BENCH_locks.json");
        println!(
            "expected shape: exclusive all-pairs locking pins the effective conflict\n\
             distance to 1 (adjacent invocations exclude on the shared read-ahead word),\n\
             so its simulated concurrency stays ~1 at every k; the rw placement restores\n\
             the \u{a7}3.2.1 bound min(d) = k and reaches min(k, servers) (best here: rw\n\
             {best_rw:.2}x, coalesced {best_co:.2}x over exclusive). In the threaded runs\n\
             the rw placements move most acquisitions to the shared path and coalescing\n\
             halves the bracket count; wall-clock discrimination needs >1 host core.\n"
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `experiments steal [--json] [--n N] [--sites K]` — the work-stealing
/// skew sweep (ISSUE 9 / ROADMAP item 3). Three site-load
/// distributions (uniform, 90/10, Zipf) each run under the pool's two
/// schedulers: the central queue and the ownership-partitioned,
/// stealing sharded one.
///
/// Each cell pairs a deterministic model run ([`simulate_steal`], the
/// same protocol the threaded pool executes: steal-half site
/// migration plus steal-pop on a lone hot site) with a threaded pool
/// run of the multi-site spreader workload. The headline ratios are
/// the model's stealing run against its static-sharding baseline
/// (ownership without stealing — a configuration only the model still
/// has) — on a single-core host threaded wall-clock cannot
/// discriminate schedulers (the E2–E4 precedent) — while every
/// threaded run is held to the sequential oracle (`*skew-sum*` and
/// exact task counts) and contributes the real steal/park counters to
/// `BENCH_steal.json`.
///
/// The gate fails on any oracle mismatch, or if the model's
/// static/stealing makespan ratio is < 1.5 on either skewed
/// distribution, or if stealing costs more than 5% on uniform load.
fn steal_cmd(args: &[String]) -> ExitCode {
    use curare::runtime::{RuntimeConfig, SchedMode};
    use curare::sim::{hot_split, simulate_steal, zipf_split, StealSimConfig};

    let mut json = false;
    let mut n: usize = 4000;
    let mut k: usize = 8;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--n" => {
                match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(v) if v > 0 => n = v,
                    _ => {
                        eprintln!("experiments: --n needs a positive integer");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--sites" => {
                match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(v) if v > 0 => k = v,
                    _ => {
                        eprintln!("experiments: --sites needs a positive integer");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("experiments: unknown steal option {other}");
                return ExitCode::from(2);
            }
        }
    }

    const SERVERS: usize = 4;
    // "Uniform" must mean uniform per *owner*: static ownership homes
    // site `k` on server `k mod SERVERS`, so a site count that does
    // not divide evenly would skew even the uniform distribution and
    // the ±5% gate below would measure ownership imbalance, not
    // stealing overhead.
    let k = k.div_ceil(SERVERS) * SERVERS;
    /// Model ticks per task (matches the leaf pad loosely; only the
    /// ratios matter).
    const GRAIN: u64 = 100;
    /// Arithmetic busywork per leaf in the threaded runs.
    const PAD: usize = 16;
    const SEED: u64 = 9;

    if !json {
        println!(
            "work-stealing skew sweep: {n} leaf tasks over {k} sites, {SERVERS} servers\n\
             (model grain {GRAIN}, steal cost 25; threaded leaves pad {PAD}):"
        );
        println!(
            "  {:>8} {:>15} {:>11} {:>9} {:>8} {:>7} {:>6} {:>6} {:>5}",
            "dist",
            "scheduler",
            "model-time",
            "model-par",
            "wall-us",
            "steals",
            "migr",
            "parks",
            "ok"
        );
    }

    let dists = [SkewDist::Uniform, SkewDist::Hot90, SkewDist::Zipf];
    let mut ok = true;
    let mut runs = Vec::new();
    // Model makespans per dist: [central, static sharding, sharded].
    let mut model = std::collections::BTreeMap::new();
    for dist in dists {
        let counts: Vec<u64> = match dist {
            SkewDist::Uniform => (0..k).map(|i| (n / k) as u64 + u64::from(i < n % k)).collect(),
            SkewDist::Hot90 => hot_split(n as u64, k, 90),
            SkewDist::Zipf => zipf_split(n as u64, k),
        };
        // Central model: one shared queue balances perfectly; the
        // makespan is the work bound whatever the site distribution.
        let central_time = (n as u64 * GRAIN).div_ceil(SERVERS as u64).max(GRAIN);
        let nosteal = simulate_steal(
            &StealSimConfig::new(counts.clone()).grain(GRAIN).servers(SERVERS).steal(false),
        );
        let steal =
            simulate_steal(&StealSimConfig::new(counts.clone()).grain(GRAIN).servers(SERVERS));
        model.insert(dist.name(), [central_time, nosteal.total_time, steal.total_time]);

        let values = skew_values(n, k, dist, SEED);
        let expect_sum = skew_expected_sum(&values);
        let program = skew_spreader(k, PAD);
        if !json {
            println!(
                "  {:>8} {:>15} {:>11} {:>9.2}   (model only)",
                dist.name(),
                "static sharding",
                nosteal.total_time,
                nosteal.achieved_concurrency
            );
        }
        for (sched, mode, model_time, model_par) in [
            ("central", SchedMode::Central, central_time, SERVERS as f64),
            ("sharded", SchedMode::Sharded, steal.total_time, steal.achieved_concurrency),
        ] {
            let interp = Arc::new(Interp::new());
            interp.load_str(&program).expect("spreader loads");
            let rt = CriRuntime::with_config(
                Arc::clone(&interp),
                SERVERS,
                RuntimeConfig { mode, ..RuntimeConfig::default() },
            );
            let l = value_list(&interp, &values);
            let dt = time_once(|| rt.run("spread", &[l]).expect("pool run"));
            let stats = rt.stats();
            drop(rt);
            let got = interp.load_str("*skew-sum*").expect("oracle global");
            // 1 root + n spread continuations + n leaves, exactly once.
            let cell_ok = got == Value::int(expect_sum) && stats.tasks == 2 * n as u64 + 1;
            if !cell_ok {
                eprintln!(
                    "  DIVERGED {} {sched}: want sum {expect_sum} over {} tasks, \
                     got {} over {}",
                    dist.name(),
                    2 * n + 1,
                    interp.heap().display(got),
                    stats.tasks
                );
            }
            ok &= cell_ok;
            let row = Json::obj()
                .set("dist", dist.name())
                .set("scheduler", sched)
                .set("n", n as u64)
                .set("sites", k as u64)
                .set("model_time", model_time)
                .set("model_parallelism", model_par)
                .set("wall_ns", dt.as_nanos() as u64)
                .set("tasks", stats.tasks)
                .set("steal_attempts", stats.steal_attempts)
                .set("steal_successes", stats.steal_successes)
                .set("sites_migrated", stats.sites_migrated)
                .set("parks", stats.parks)
                .set("park_ns", stats.park_ns)
                .set("peak_idle_servers", stats.peak_idle_servers as u64)
                .set("result_ok", cell_ok);
            if json {
                println!("{row}");
            } else {
                println!(
                    "  {:>8} {sched:>15} {model_time:>11} {model_par:>9.2} {:>8} {:>7} {:>6} {:>6} {cell_ok:>5}",
                    dist.name(),
                    dt.as_micros(),
                    stats.steal_successes,
                    stats.sites_migrated,
                    stats.parks,
                );
            }
            runs.push(row);
        }
    }

    // The headline model ratios the gate enforces.
    let ratio = |d: &str| {
        let m = model[d];
        m[1] as f64 / (m[2] as f64).max(1.0)
    };
    let hot_ratio = ratio("90-10");
    let zipf_ratio = ratio("zipf");
    let uniform_delta = {
        let m = model["uniform"];
        (m[2] as f64 - m[1] as f64) / (m[1] as f64).max(1.0)
    };
    if hot_ratio < 1.5 {
        eprintln!("experiments: 90/10 model speedup {hot_ratio:.2}x < 1.5x gate");
        ok = false;
    }
    if zipf_ratio < 1.5 {
        eprintln!("experiments: Zipf model speedup {zipf_ratio:.2}x < 1.5x gate");
        ok = false;
    }
    if uniform_delta.abs() > 0.05 {
        eprintln!(
            "experiments: stealing moved uniform makespan by {:.1}% (±5% gate)",
            uniform_delta * 100.0
        );
        ok = false;
    }

    let doc = Json::obj()
        .set("schema", "curare-bench/1")
        .set("bench", "steal")
        .set("host_threads", hardware_threads())
        .set("servers", SERVERS as u64)
        .set("n", n as u64)
        .set("sites", k as u64)
        .set("hot90_model_speedup", hot_ratio)
        .set("zipf_model_speedup", zipf_ratio)
        .set("uniform_model_delta", uniform_delta)
        .set("runs", Json::Arr(runs));
    if let Err(e) = std::fs::write("BENCH_steal.json", format!("{doc}\n")) {
        eprintln!("experiments: BENCH_steal.json: {e}");
        return ExitCode::FAILURE;
    }
    if !json {
        println!("  wrote BENCH_steal.json");
        println!(
            "expected shape: with a uniform site load every server drains its own sites and\n\
             stealing changes nothing ({:+.1}% here); under 90/10 or Zipf skew the static\n\
             owner of the hot site(s) becomes the bottleneck and stealing re-balances —\n\
             model speedups {hot_ratio:.2}x (90/10) and {zipf_ratio:.2}x (Zipf). Threaded\n\
             runs on this host verify the oracle and count real steals/parks; wall-clock\n\
             scheduler discrimination needs >1 host core.\n",
            uniform_delta * 100.0
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Serialize one threaded run's counters as a single-line
/// `curare-report/1` document (replacing the old ad-hoc stats line)
/// and remember it as the `--metrics` snapshot.
fn report_stats(obs: &ObsSink, label: &str, dt: Duration, rt: &CriRuntime) -> Json {
    let tasks = rt.stats().tasks;
    let secs = dt.as_secs_f64();
    let report = rt.run_report(label).set(
        "wall",
        Json::obj().set("seconds", secs).set("tasks_per_sec", tasks as f64 / secs.max(1e-9)),
    );
    println!("  {report}");
    obs.note(report.clone());
    report
}

fn banner(id: &str, title: &str, source: &str) {
    println!("================================================================");
    println!("{id}: {title}   [paper: {source}]");
    println!("================================================================");
}

/// E1 — the worked conflict-detection examples of §2 (Figures 2–5).
fn e1_conflict_detection() {
    banner("E1", "conflict detection on the paper's figures", "Fig. 2-5, §2.2");
    let cases = [("Figure 3", FIGURE_3), ("Figure 4", FIGURE_4), ("Figure 5", FIGURE_5)];
    for (name, src) in cases {
        let heap = curare::lisp::Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        let a = analyze_function(&prog.funcs[0], &DeclDb::new());
        println!("--- {name} ---");
        print!("{}", a.explain());
    }
    println!(
        "expected (paper): Fig.3 conflict-free; Fig.4 conflict at distance 1;\n\
         Fig.5 write cdr.car ⊙ read car at distance 1, no conflict with read cdr.\n"
    );
}

/// E2 — concurrency = (|H|+|T|)/|H| (§3.1).
fn e2_concurrency_formula() {
    banner("E2", "CRI concurrency vs head fraction", "§3.1 formula");
    println!("{:>6} {:>6} {:>12} {:>12} {:>10}", "h", "t", "formula", "simulated", "ratio");
    for (h, t) in [(1u64, 19u64), (2, 18), (4, 16), (8, 12), (10, 10), (16, 4), (19, 1)] {
        let bound = formula::concurrency(h as f64, t as f64);
        let sim = simulate(&SimConfig::new(4096, 64, h, t));
        println!(
            "{h:>6} {t:>6} {bound:>12.2} {:>12.2} {:>10.3}",
            sim.achieved_concurrency,
            sim.achieved_concurrency / bound
        );
    }
    println!("expected shape: simulated concurrency tracks (h+t)/h; head-heavy → no overlap.\n");
}

/// E3 — speedup vs number of servers (Figures 6–7 made quantitative).
fn e3_servers_sweep() {
    banner("E3", "speedup vs servers", "Fig. 6-7, §4.1");
    let (d, h, t) = (1024u64, 1u64, 15u64);
    println!("workload: d={d}, h={h}, t={t}; concurrency bound c_f = {}", (h + t) / h);
    println!("{:>4} {:>12} {:>12} {:>10}", "S", "sim time", "formula", "speedup");
    for s in [1u64, 2, 4, 8, 16, 32, 64] {
        let sim = simulate(&SimConfig::new(d, s, h, t));
        let f =
            if s * h <= h + t { formula::total_time(d, s, h, t).to_string() } else { "-".into() };
        println!("{s:>4} {:>12} {f:>12} {:>10.2}", sim.total_time, sim.speedup);
    }

    // A real threaded run (single data point per S; 1-CPU hosts show
    // overhead, multi-CPU hosts show the speedup shape).
    let (interp, _) = transformed_interp(&padded_walker(16));
    println!("threaded run of the padded walker (20k invocations):");
    for s in [1usize, 2, 4, 8] {
        let rt = CriRuntime::new(Arc::clone(&interp), s);
        let l = int_list(&interp, 20_000);
        let dt = time_once(|| rt.run("padded", &[l]).expect("run"));
        println!("  S = {s}: {dt:?}");
    }
    println!("expected shape: sim time falls with S until c_f = 16, then flattens.\n");
}

/// E4 — locking caps concurrency at min conflict distance (§3.2.1).
fn e4_lock_distance() {
    banner("E4", "lock-limited concurrency vs conflict distance", "§3.2.1");
    let (d, h, t) = (4096u64, 1u64, 31u64);
    println!("{:>9} {:>14} {:>12} {:>8}", "distance", "sim concurrency", "bound", "ok");
    for dc in [1u64, 2, 4, 8, 16] {
        let sim = simulate(&SimConfig::new(d, 64, h, t).with_conflict_distance(dc));
        let ok = sim.achieved_concurrency <= dc as f64 + 1e-9;
        println!("{dc:>9} {:>14.2} {dc:>12} {ok:>8}", sim.achieved_concurrency);
    }
    let free = simulate(&SimConfig::new(d, 64, h, t));
    println!("{:>9} {:>14.2} {:>12} {:>8}", "none", free.achieved_concurrency, (h + t) / h, true);

    // Real runs: distance-k tail writers. Their conflicting writes
    // execute after the recursive call — sequentially in *unwind*
    // order — so the pipeline synchronizes them with future+touch;
    // the parallel result must equal the sequential one.
    println!("threaded distance-k tail writers (n = 2000, 4 servers): correctness check");
    for k in [1usize, 2, 4] {
        let src = distance_k_writer(k);
        let expect = with_big_stack(|| {
            let seq = Interp::new();
            seq.load_str(&src).unwrap();
            seq.set_recursion_limit(10_000_000);
            let seq_l = int_list(&seq, 2000);
            seq.call("fk", &[seq_l]).unwrap();
            seq.heap().display(seq_l)
        });

        let (interp, out) = transformed_interp(&src);
        let report = out.report("fk").unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 4);
        let l = int_list(&interp, 2000);
        rt.run("fk", &[l]).expect("parallel run");
        let ok = interp.heap().display(l) == expect;
        println!("  k = {k}: devices = {:?}, sequentializable = {ok}", report.devices);
        assert!(ok, "distance-{k} writer diverged");
    }
    println!(
        "expected shape: simulated concurrency == min distance (the §3.2.1 bound);\n\
         threaded runs use future-sync (tail writes need unwind order) and stay exact.\n"
    );
}

/// E5 — delays enlarge the head, trading concurrency for lock-free
/// correctness (§3.2.2).
fn e5_delays() {
    banner("E5", "delay transformation: head growth vs devices", "§3.2.2");
    // Mixed tail: the (car l) writes are conflict-free and movable;
    // the accumulator update is order-sensitive and must stay for
    // future synchronization.
    let src = "(defun f (acc l)
       (when l
         (f acc (cdr l))
         (setf (car l) (* 2 (car l)))
         (setf (car acc) (+ (car acc) (car l)))))";
    let heap = curare::lisp::Heap::new();
    let mut lw = Lowerer::new(&heap);
    let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
    let before = headtail::head_tail(&prog.funcs[0]);
    println!(
        "before: |H| = {}, |T| = {}, concurrency = {:.2}",
        before.head_size,
        before.tail_size,
        before.concurrency()
    );

    let out = Curare::new().transform_source(src).unwrap();
    let report = out.report("f").unwrap();
    println!("devices: {:?}", report.devices);
    // Measure the transformed function's partition.
    let heap2 = curare::lisp::Heap::new();
    let mut lw2 = Lowerer::new(&heap2);
    let prog2 = lw2.lower_program(&out.forms).unwrap();
    let after = headtail::head_tail(&prog2.funcs[0]);
    println!(
        "after:  |H| = {}, |T| = {}, concurrency = {:.2}",
        after.head_size,
        after.tail_size,
        after.concurrency()
    );
    println!(
        "simulated loss: before {:.2}x, after {:.2}x (head grew by {})",
        simulate(&SimConfig::new(
            2048,
            16,
            before.head_size.max(1) as u64,
            before.tail_size as u64
        ))
        .speedup,
        simulate(&SimConfig::new(2048, 16, after.head_size.max(1) as u64, after.tail_size as u64))
            .speedup,
        after.head_size.saturating_sub(before.head_size)
    );
    println!(
        "expected shape: the conflict-free tail write moves into the head (|H| grows);\n\
         the order-sensitive accumulator stays and is future-synced.\n"
    );
}

/// E6 — reordering beats locking for commutative updates (§3.2.3).
fn e6_reorder_vs_lock() {
    banner("E6", "reordering vs serialization for a global sum", "§3.2.3");
    let n = 50_000;

    // (a) declared reorderable → atomic-incf, fully concurrent.
    let (interp, out) = transformed_interp(SUM_WALK);
    assert!(out.source().contains("atomic-incf"));
    interp.load_str("(defparameter *sum* 0)").unwrap();
    let rt = CriRuntime::new(Arc::clone(&interp), 4);
    let l = int_list(&interp, n);
    let dt_atomic = time_once(|| rt.run("walk", &[l]).expect("run"));
    let sum = interp.load_str("*sum*").unwrap();
    println!(
        "reorderable (atomic-incf): {dt_atomic:?}, sum = {} (expected {})",
        interp.heap().display(sum),
        n * (n + 1) / 2
    );
    drop(rt);

    // (b) without the declaration the function is blocked — the §6
    // feedback tells the programmer why.
    let out_blocked = Curare::new()
        .transform_source(
            "(defun walk (l)
               (when l (setq *sum* (+ *sum* (car l))) (walk (cdr l))))",
        )
        .unwrap();
    let rep = out_blocked.report("walk").unwrap();
    println!("undeclared: converted = {}, feedback:\n{}", rep.converted, rep.feedback);

    // (c) sequential baseline for the time comparison.
    let seq = Interp::new();
    seq.load_str("(defun walk (l) (when l (setq *sum* (+ *sum* (car l))) (walk (cdr l))))")
        .unwrap();
    seq.load_str("(defparameter *sum* 0)").unwrap();
    seq.set_recursion_limit(10_000_000);
    curare::lisp::set_thread_stack_budget(6 << 20);
    let seq_l = int_list(&seq, n);
    let dt_seq = time_once(|| {
        seq.call("walk", &[seq_l]).expect("sequential run");
    });
    println!("sequential baseline: {dt_seq:?}");
    println!(
        "expected shape: atomic version correct and concurrent; undeclared version blocked.\n"
    );
}

/// E7 — the §4.1 total-time formula and server optimum (Figure 10).
fn e7_server_optimum() {
    banner("E7", "T(S) and the optimum S* = sqrt(d(h+t)/h)", "Fig. 10, §4.1");
    for (d, h, t) in [(64u64, 1u64, 1u64), (256, 1, 4), (1024, 1, 16)] {
        let c_f = (h + t) / h;
        let s_star = formula::optimal_servers(d, h, t);
        let s_used = (s_star.round() as u64).min(c_f).max(1);
        println!("d={d} h={h} t={t}: S* = {s_star:.1}, c_f = {c_f}, S_used = min = {s_used}");
        println!("  {:>4} {:>12} {:>12}", "S", "sim time", "formula");
        let mut best = (u64::MAX, 0u64);
        for s in [1u64, 2, 4, 8, 16, 32, 64, 128] {
            if s > d {
                continue;
            }
            let sim = simulate(&SimConfig::new(d, s, h, t)).total_time;
            if sim < best.0 {
                best = (sim, s);
            }
            let f = if s * h <= h + t {
                formula::total_time(d, s, h, t).to_string()
            } else {
                "-".into()
            };
            println!("  {s:>4} {sim:>12} {f:>12}");
        }
        let at_recommended = simulate(&SimConfig::new(d, s_used, h, t)).total_time;
        println!(
            "  best simulated: T = {} at S = {}; T(S_used={}) = {} ({:.0}% of best)",
            best.0,
            best.1,
            s_used,
            at_recommended,
            100.0 * at_recommended as f64 / best.0 as f64
        );
    }
    println!("expected shape: T(S) falls then flattens; the capped S* lands near the minimum.\n");
}

/// E8 — the central queue bottleneck (§4.1) and its remedy.
fn e8_queue_bottleneck(obs: &ObsSink) {
    banner("E8", "central-queue bottleneck vs invocation grain", "§4.1");
    // Simulated: spawn overhead as a fraction of head work.
    println!("simulated (d=4096, S=16, t=15):");
    println!("  {:>12} {:>12} {:>10}", "queue cost", "total time", "speedup");
    for q in [0u64, 1, 2, 4, 8] {
        let sim = simulate(&SimConfig::new(4096, 16, 1, 15).with_spawn_overhead(q));
        println!("  {q:>12} {:>12} {:>10.2}", sim.total_time, sim.speedup);
    }
    // Simulated remedy: the same loaded workload with the queue cost
    // amortized over `b` spawns per publication (batched submit).
    println!("simulated batched submit (d=4096, S=16, t=15, q=8):");
    println!("  {:>12} {:>12} {:>10}", "batch b", "total time", "speedup");
    for b in [1u64, 2, 4, 8, 32, 4096] {
        let sim =
            simulate(&SimConfig::new(4096, 16, 1, 15).with_spawn_overhead(8).with_spawn_batch(b));
        println!("  {b:>12} {:>12} {:>10.2}", sim.total_time, sim.speedup);
    }
    // Real: tasks/second through the pool as grain shrinks.
    println!("threaded pool throughput (4 servers, sharded scheduler):");
    for pad in [0usize, 8, 64] {
        let (interp, _) = transformed_interp(&padded_walker(pad));
        let rt = CriRuntime::new(Arc::clone(&interp), 4);
        let n = 20_000i64;
        let l = int_list(&interp, n);
        let dt = time_once(|| rt.run("padded", &[l]).expect("run"));
        let rate = (n + 1) as f64 / dt.as_secs_f64();
        println!("  grain pad = {pad:3}: {rate:>12.0} invocations/s  ({dt:?} total)");
    }
    // Real remedy: the tiniest grain under the central single-mutex
    // scheduler vs the sharded one, on the same binary. Best of three
    // runs per mode (1-CPU hosts jitter badly).
    println!("threaded tiny-grain walk, central vs sharded (8 servers, n = 20000):");
    const BARE_WALK: &str = "(defun w (l) (when l (w (cdr l))))";
    let n = 20_000i64;
    let mut rates = Vec::new();
    let mut left = Vec::new();
    for (label, mode) in [("central (§4.1)", SchedMode::Central), ("sharded", SchedMode::Sharded)]
    {
        let (interp, _) = transformed_interp(BARE_WALK);
        let rt = CriRuntime::with_mode(Arc::clone(&interp), 8, mode);
        let l = int_list(&interp, n);
        let mut best = Duration::MAX;
        for _ in 0..3 {
            best = best.min(time_once(|| rt.run("w", &[l]).expect("run")));
        }
        report_stats(obs, label, best, &rt);
        rates.push((n + 1) as f64 / best.as_secs_f64());
        let stats = rt.stats();
        if mode == SchedMode::Central {
            let lazy = (stats.chained_tasks, stats.batched_submits);
            assert_eq!(lazy, (0, 0), "central must publish every spawn at the spawn");
        }
        left.push((stats.tasks, interp.heap().display(l)));
    }
    println!("  sharded / central throughput: {:.2}x", rates[1] / rates[0].max(1e-9));
    assert!(left[0] == left[1], "central and sharded disagree on task count or final list");
    println!(
        "expected shape: per-invocation queue cost caps throughput; larger grains amortize it\n\
         (the paper: the bottleneck 'will not adversely affect performance if the time spent\n\
         executing an invocation is much longer than the time spent waiting for the queue').\n\
         Chaining + batching remove the per-task lock round trip, so the sharded scheduler\n\
         clears the tiny-grain bottleneck the central queue hits.\n"
    );
}

/// E9 — remq vs remq-d (Figures 12–13, §5).
fn e9_dps_remq() {
    banner("E9", "destination-passing style: remq vs remq-d", "Fig. 12-13, §5");
    let out = Curare::new().transform_source(FIGURE_12_REMQ).unwrap();
    println!("devices: {:?}", out.report("remq").unwrap().devices);

    println!("  {:>7} {:>14} {:>14} {:>8}", "n", "sequential", "pool (4)", "equal");
    for n in [1_000usize, 5_000, 20_000] {
        // Sequential original (deep non-tail recursion: big stack).
        let (dt_seq, seq_result) = with_big_stack(move || {
            let seq = Interp::new();
            seq.load_str(FIGURE_12_REMQ).unwrap();
            seq.set_recursion_limit(10_000_000);
            let seq_l = sym_list(&seq, n, &["a", "b", "c"]);
            let mut seq_result = String::new();
            let dt = time_once(|| {
                let v = seq.call("remq", &[seq.heap().sym_value("a"), seq_l]).expect("seq remq");
                seq_result = seq.heap().display(v);
            });
            (dt, seq_result)
        });

        // Parallel DPS version.
        let interp = Arc::new(Interp::new());
        interp.load_str(&out.source()).unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 4);
        let par_l = sym_list(&interp, n, &["a", "b", "c"]);
        let dest = interp.heap().cons(Value::NIL, Value::NIL);
        let obj = interp.heap().sym_value("a");
        let dt_par = time_once(|| rt.run("remq-d", &[dest, obj, par_l]).expect("par remq-d"));
        let par_result = interp.heap().display(interp.heap().cdr(dest).unwrap());
        let equal = par_result == seq_result;
        println!("  {n:>7} {dt_seq:>14?} {dt_par:>14?} {equal:>8}");
        assert!(equal, "DPS result diverged at n = {n}");
    }
    println!(
        "expected shape: identical results; the DPS version runs without futures or locks\n\
         (its destination writes are provenance-safe) and avoids deep native stacks.\n"
    );
}

/// E10 — process-per-invocation vs server reuse (§1.2).
fn e10_spawn_vs_server() {
    banner("E10", "thread-per-invocation vs server pool", "§1.2");
    let src = "
(curare-declare (reorderable +))
(defun walk (l)
  (when l
    (setq *n* (+ *n* 1))
    (walk (cdr l))))";
    let n = 4_000i64;

    let (interp, _) = transformed_interp(src);
    interp.load_str("(defparameter *n* 0)").unwrap();

    // Server pool.
    let dt_pool = {
        let rt = CriRuntime::new(Arc::clone(&interp), 4);
        let l = int_list(&interp, n);
        time_once(|| rt.run("walk", &[l]).expect("pool run"))
    };
    let pool_count = interp.load_str("*n*").unwrap();

    // Thread per invocation.
    interp.load_str("(setq *n* 0)").unwrap();
    let (dt_spawn, spawned) = {
        let rt = SpawnRuntime::new(Arc::clone(&interp));
        let l = int_list(&interp, n);
        let dt = time_once(|| rt.run("walk", &[l]).expect("spawn run"));
        (dt, rt.threads_spawned())
    };
    let spawn_count = interp.load_str("*n*").unwrap();

    println!(
        "  server pool (4 servers): {dt_pool:?} (count {})",
        interp.heap().display(pool_count)
    );
    println!(
        "  thread per invocation:   {dt_spawn:?} ({spawned} threads, count {})",
        interp.heap().display(spawn_count)
    );
    println!(
        "  process-creation penalty: {:.1}x",
        dt_spawn.as_secs_f64() / dt_pool.as_secs_f64().max(1e-9)
    );
    println!(
        "expected shape: spawning loses by a large factor — the paper's argument that\n\
         'programmers cannot treat processes as a free and infinite resource'.\n"
    );
}

/// E11 — sequentializability: concurrent result == sequential result.
fn e11_sequentializability() {
    banner("E11", "final-state sequentializability", "§3.1.1");
    let programs = [
        ("figure-5", FIGURE_5, "f"),
        ("rotate", ROTATE, "rotate"),
        ("distance-2", &distance_k_writer(2) as &str, "fk"),
    ];
    for (name, src, fname) in programs {
        let mut ok_all = true;
        for trial in 0..5u64 {
            let n = 500 + 300 * trial as i64;
            let expect = with_big_stack(|| {
                let seq = Interp::new();
                seq.load_str(src).unwrap();
                seq.set_recursion_limit(1_000_000);
                let seq_l = int_list(&seq, n);
                seq.call(fname, &[seq_l]).unwrap();
                seq.heap().display(seq_l)
            });

            let (interp, _) = transformed_interp(src);
            let rt = CriRuntime::new(Arc::clone(&interp), 4);
            let l = int_list(&interp, n);
            rt.run(fname, &[l]).expect("parallel");
            let got = interp.heap().display(l);
            let ok = got == expect;
            ok_all &= ok;
            if !ok {
                println!("  {name} trial {trial}: MISMATCH");
            }
        }
        println!("  {name}: 5/5 trials sequentializable = {ok_all}");
        assert!(ok_all);
    }
    println!("expected: every concurrent execution reproduces the sequential final state.\n");
}

/// E12 (ablation) — the ordered server pool vs a work-stealing
/// scheduler on the same transformed program.
fn e12_scheduler_ablation(obs: &ObsSink) {
    banner("E12", "ordered pool vs unordered pool (ablation)", "DESIGN.md");
    let n = 20_000i64;
    let (interp, _) = transformed_interp(SUM_WALK);
    interp.load_str("(defparameter *sum* 0)").unwrap();
    let (dt_pool, report_pool) = {
        let rt = CriRuntime::new(Arc::clone(&interp), 4);
        let l = int_list(&interp, n);
        let dt = time_once(|| rt.run("walk", &[l]).expect("pool run"));
        (dt, rt.run_report("e12-ordered"))
    };
    let sum_pool = interp.load_str("*sum*").unwrap();
    interp.load_str("(setq *sum* 0)").unwrap();
    let dt_unord = {
        let rt = UnorderedRuntime::new(Arc::clone(&interp), 4);
        let l = int_list(&interp, n);
        time_once(|| rt.run("walk", &[l]).expect("unordered run"))
    };
    let sum_unord = interp.load_str("*sum*").unwrap();
    println!("  ordered pool:   {dt_pool:?} (sum {})", interp.heap().display(sum_pool));
    println!("  {report_pool}");
    obs.note(report_pool);
    println!("  unordered pool: {dt_unord:?} (sum {})", interp.heap().display(sum_unord));
    assert_eq!(sum_pool, sum_unord);
    println!(
        "expected shape: both exact; the ordered queue pays a small constant per task,\n\
         which §4.1 accepts while invocation grain dominates.\n"
    );
}

/// E13 — where handing the successor off starts to pay (§3.1, §4.1).
/// The same hand-written CRI walker with a tail of `pad` arithmetic
/// steps, spawned with `cri-enqueue` (lazy: batch and chain) and with
/// `cri-handoff` (published at the spawn), timed at S = 2. The
/// crossover justifies `transform::HANDOFF_THRESHOLD`.
fn e13_handoff_crossover() {
    banner("E13", "lazy vs hand-off publication against tail cost", "§3.1, §4.1");
    const CELLS: i64 = 1000;
    const REPS: usize = 201;
    println!("measured, S = 2, {CELLS} cells, p10 / median of {REPS} pool runs:");
    println!(
        "  {:>8} {:>10} {:>18} {:>18} {:>10}",
        "tail pad", "tail cost", "lazy p10/p50 µs", "hand-off p10/p50 µs", "p10 ratio"
    );
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
        // The cost the transformer would see for this tail.
        let heap = curare::lisp::Heap::new();
        let forms = curare::sexpr::parse_all(&source("cri-enqueue")).expect("parses");
        let prog = Lowerer::new(&heap).lower_program(&forms).expect("lowers");
        let tail_cost =
            curare::analysis::analyze_program(&prog).expect("analyses")[1].head_tail.tail_cost;
        let mut cells = Vec::new();
        for spawn in ["cri-enqueue", "cri-handoff"] {
            let interp = Arc::new(Interp::new());
            interp.load_str(&source(spawn)).expect("loads");
            let rt = CriRuntime::new(Arc::clone(&interp), 2);
            let mut samples: Vec<Duration> = (0..REPS)
                .map(|_| {
                    let l = int_list(&interp, CELLS);
                    time_once(|| rt.run("th", &[l]).expect("run"))
                })
                .collect();
            samples.sort();
            assert_eq!(rt.stats().tasks, REPS as u64 * (CELLS as u64 + 1), "exactly-once");
            cells.push((samples[REPS / 10], samples[REPS / 2]));
        }
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        println!(
            "  {pad:>8} {:>10} {:>8.0} /{:>8.0} {:>8.0} /{:>8.0} {:>10.2}",
            tail_cost.to_string(),
            us(cells[0].0),
            us(cells[0].1),
            us(cells[1].0),
            us(cells[1].1),
            us(cells[1].0) / us(cells[0].0)
        );
    }
    println!(
        "host: {} hardware thread(s). Expected shape: hand-off loses where the tail is\n\
         shorter than a queue round trip and wins where it is longer; the threshold sits\n\
         at the crossover.\n",
        hardware_threads()
    );
}

/// SCHED (ablation) — scheduler contention sweep: servers × mode on a
/// tiny-grain workload, with the new scheduler counters. Writes every
/// (mode, servers) cell's run report to `BENCH_sched.json`.
fn sched_contention(obs: &ObsSink) {
    banner("SCHED", "scheduler contention sweep: central vs sharded", "DESIGN.md §4");
    let n = 20_000i64;
    println!("tiny-grain walk, n = {n}:");
    let mut cells = Vec::new();
    for s in [1usize, 2, 4, 8] {
        let mut rates = Vec::new();
        for mode in [SchedMode::Central, SchedMode::Sharded] {
            let (interp, _) = transformed_interp(&padded_walker(0));
            let rt = CriRuntime::with_mode(Arc::clone(&interp), s, mode);
            let l = int_list(&interp, n);
            let dt = time_once(|| rt.run("padded", &[l]).expect("run"));
            let label = format!("sched-S{s}-{mode:?}");
            cells.push(report_stats(obs, &label, dt, &rt));
            rates.push((n + 1) as f64 / dt.as_secs_f64());
        }
        println!("    sharded / central: {:.2}x", rates[1] / rates[0].max(1e-9));
    }
    let doc = Json::obj()
        .set("schema", "curare-bench/1")
        .set("bench", "sched")
        .set("host_threads", hardware_threads())
        .set("runs", Json::Arr(cells));
    match std::fs::write("BENCH_sched.json", format!("{doc}\n")) {
        Ok(()) => println!("  wrote BENCH_sched.json"),
        Err(e) => eprintln!("  BENCH_sched.json: {e}"),
    }
    println!(
        "expected shape: the central mutex pays one lock + wakeup per task at every S;\n\
         the sharded scheduler chains tail spawns and batches the rest, so its advantage\n\
         grows as grain shrinks and S rises.\n"
    );
}
