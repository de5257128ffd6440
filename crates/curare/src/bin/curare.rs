//! The `curare` command-line tool: analyze, transform, and run Lisp
//! programs.
//!
//! ```text
//! curare analyze  FILE              # per-function §6-style feedback
//! curare check FILE... [--locks] [--json]  # structured diagnostics (C001–C008)
//! curare transform FILE            # transformed source on stdout
//! curare run FILE [options]        # load + evaluate, optionally on a pool
//! curare repl                      # interactive mini-Lisp
//!
//! check exits 0 when every file is clean, 1 when any warning was
//! reported, 2 on any error (or unreadable/unparsable input); --json
//! prints one curare-diag/1 line per file instead of prose. With
//! --locks the §3.2.1 lock-placement certifier runs too: declared or
//! pipeline-applied placements are re-checked against the conflict
//! report (C007 = unsound, error; C008 = non-minimal, warning), and
//! every conflicting function's placement is printed as a
//! machine-checkable curare-locks/1 document (one JSON line each under
//! --json, a summary line otherwise).
//!
//! run options:
//!   --servers N      execute `--call` on an N-server CRI pool
//!   --call  "(f …)"  transform the program, then run this entry
//!   --sequential     skip transformation (plain interpreter)
//!   --trace PATH     write a Chrome trace_event JSON of the pool run
//!                    (open in chrome://tracing or Perfetto)
//!   --metrics PATH   write the run's curare-report/1 JSON (pool,
//!                    heap, lock-wait, vm, wall, timeline, and
//!                    trace-health sections)
//!   --profile PATH   write a curare-profile/1 JSON of the pool run:
//!                    the spawn/touch DAG's work, span (critical
//!                    path), parallelism = work/span, and per-edge
//!                    critical-path attribution, plus the hottest
//!                    VM opcodes
//!   --engine E       invocation engine: 'vm' (default; register
//!                    bytecode) or 'tree' (the tree-walking oracle)
//!   --no-fuse        disable superinstruction fusion in the bytecode
//!                    compiler (differential escape hatch)
//!   --speculate      admit statically unproven functions optimistically:
//!                    the pool logs their heap accesses, validates them
//!                    against the sequential order at quiescence, and
//!                    aborts/replays (or reruns sequentially) on conflict
//!   --chaos-seed N   install a seeded fault plan for the pool run
//!   --chaos-profile P  fault profile for --chaos-seed: delays,
//!                    panics, stalls, shuffle, reorder, mixed
//!                    (default), or collapse
//!   --stall-budget-ms M  arm the stall watchdog: servers stuck past
//!                    M ms produce curare-stall/1 dumps on stderr
//! ```

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

use curare::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        // check owns its exit code (0 clean / 1 warnings / 2 errors).
        Some("check") => return check(&args[1..]),
        Some("transform") => transform(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("repl") => repl(),
        _ => {
            eprintln!("usage: curare <analyze|check|transform|run|repl> [FILE] [options]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("curare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_file(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("missing input file")?;
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Per-function §6 feedback, read from the record of the default
/// restructuring: the analysis each function's devices were chosen
/// from (of a function the reorder device rewrote, that is the
/// analysis of the rewritten form).
fn analyze(args: &[String]) -> Result<(), String> {
    let src = read_file(args)?;
    let out = Curare::new().transform_source(&src).map_err(|e| e.to_string())?;
    for r in &out.reports {
        print!("{}", r.analysis.explain());
    }
    Ok(())
}

fn check(args: &[String]) -> ExitCode {
    let json = args.iter().any(|a| a == "--json");
    let locks = args.iter().any(|a| a == "--locks");
    let files: Vec<&String> = args.iter().filter(|a| *a != "--json" && *a != "--locks").collect();
    if files.is_empty() {
        eprintln!("usage: curare check FILE... [--locks] [--json]");
        return ExitCode::from(2);
    }
    let mut worst = 0u8;
    for path in files {
        let report =
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")).and_then(|src| {
                if locks {
                    curare::check::check_locks_source(path, &src)
                        .map_err(|e| format!("{path}: {e}"))
                } else {
                    curare::check::check_source(path, &src)
                        .map(|diags| curare::check::LockCertReport { diags, placements: vec![] })
                        .map_err(|e| format!("{path}: {e}"))
                }
            });
        match report {
            Ok(report) => {
                if json {
                    println!("{}", report.diags.to_json());
                    for doc in &report.placements {
                        println!("{doc}");
                    }
                } else {
                    print!("{}", report.diags.render());
                    for doc in &report.placements {
                        let f = doc.get("function").and_then(Json::as_str).unwrap_or("?");
                        let clean = doc.get("certified_clean").and_then(Json::as_bool);
                        let n = doc.get("locks").and_then(Json::as_arr).map_or(0, <[Json]>::len);
                        let naive =
                            doc.get("naive_locks").and_then(Json::as_f64).unwrap_or(0.0) as usize;
                        println!(
                            "{path}: locks: function {f}: {n} lock(s) (naive {naive}), \
                             certified clean: {}",
                            if clean == Some(true) { "yes" } else { "NO" }
                        );
                    }
                }
                worst = worst.max(report.diags.exit_code());
            }
            Err(e) => {
                // Unreadable or unparsable input: nothing to diagnose,
                // and certainly not clean.
                eprintln!("curare: {e}");
                worst = 2;
            }
        }
    }
    ExitCode::from(worst)
}

/// The one-line per-function summary `transform` and `run` print.
/// `publication` is what the program text asks for; a speculating
/// pool publishes every spawn at the spawn whatever the text says, and
/// a run on one reports what runs.
fn report_line(r: &curare::transform::FunctionReport, speculating: bool) -> String {
    let mut line = format!(";; {}: converted = {}, devices = {:?}", r.name, r.converted, r.devices);
    if r.converted && speculating {
        line.push_str(", publication = eager (speculating pool)");
    } else if r.converted {
        line.push_str(&format!(", publication = {}", r.publication));
    }
    line
}

/// The summary lines of one restructuring: each function, then what
/// the analysis behind them cost. `transform` adds the feedback for
/// what was refused; `run --speculate` passes `speculating`.
fn print_reports(out: &curare::transform::CurareOutput, with_feedback: bool, speculating: bool) {
    for r in &out.reports {
        eprintln!("{}", report_line(r, speculating));
        if with_feedback && !r.converted {
            for line in r.feedback.lines() {
                eprintln!(";;   {line}");
            }
        }
    }
    let s = out.stats;
    eprintln!(
        ";; analysis: {} functions analysed, {} path classes, {} pair tests, {} automata built, \
         {} probe lowerings",
        s.functions_analysed, s.path_classes, s.pair_tests, s.automata_built, s.probe_lowerings
    );
}

fn transform(args: &[String]) -> Result<(), String> {
    let speculate = args.iter().any(|a| a == "--speculate");
    let files: Vec<String> = args.iter().filter(|a| *a != "--speculate").cloned().collect();
    let src = read_file(&files)?;
    let out = Curare::new()
        .with_speculation(speculate)
        .transform_source(&src)
        .map_err(|e| e.to_string())?;
    print!("{}", out.source());
    print_reports(&out, true, false);
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let src = read_file(args)?;
    let mut servers = 0usize;
    let mut call: Option<String> = None;
    let mut sequential = false;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut engine = curare::lisp::Engine::Vm;
    let mut no_fuse = false;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_profile = String::from("mixed");
    let mut stall_budget_ms: Option<u64> = None;
    let mut speculate = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--chaos-seed" => {
                chaos_seed = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--chaos-seed needs a number")?,
                );
                i += 2;
            }
            "--chaos-profile" => {
                chaos_profile = args.get(i + 1).ok_or("--chaos-profile needs a name")?.clone();
                i += 2;
            }
            "--stall-budget-ms" => {
                stall_budget_ms = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--stall-budget-ms needs a number")?,
                );
                i += 2;
            }
            "--engine" => {
                engine = match args.get(i + 1).map(String::as_str) {
                    Some("vm") => curare::lisp::Engine::Vm,
                    Some("tree") | Some("eval-tree") => curare::lisp::Engine::Tree,
                    _ => return Err("--engine needs 'vm' or 'tree'".into()),
                };
                i += 2;
            }
            "--no-fuse" => {
                no_fuse = true;
                i += 1;
            }
            "--speculate" => {
                speculate = true;
                i += 1;
            }
            "--servers" => {
                servers = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--servers needs a number")?;
                i += 2;
            }
            "--call" => {
                call = Some(args.get(i + 1).ok_or("--call needs an expression")?.clone());
                i += 2;
            }
            "--sequential" => {
                sequential = true;
                i += 1;
            }
            "--trace" => {
                trace_path = Some(args.get(i + 1).ok_or("--trace needs a file path")?.clone());
                i += 2;
            }
            "--metrics" => {
                metrics_path = Some(args.get(i + 1).ok_or("--metrics needs a file path")?.clone());
                i += 2;
            }
            "--profile" => {
                profile_path = Some(args.get(i + 1).ok_or("--profile needs a file path")?.clone());
                i += 2;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if (trace_path.is_some() || metrics_path.is_some() || profile_path.is_some()) && servers == 0 {
        return Err("--trace/--metrics/--profile need a pool run (--servers N with --call)".into());
    }
    if (chaos_seed.is_some() || stall_budget_ms.is_some()) && servers == 0 {
        return Err("--chaos-seed/--stall-budget-ms need a pool run (--servers N)".into());
    }
    if speculate && (servers == 0 || sequential) {
        return Err("--speculate needs a transformed pool run (--servers N with --call)".into());
    }

    curare::lisp::set_thread_stack_budget(6 << 20);
    if no_fuse {
        // Before the interpreter exists: functions compile (and fuse)
        // at load time.
        curare::lisp::set_fusion_enabled(false);
    }
    let interp = Arc::new(Interp::new());
    interp.set_engine(engine);
    let loaded_src = if sequential {
        src
    } else {
        let out = Curare::new()
            .with_speculation(speculate)
            .transform_source(&src)
            .map_err(|e| e.to_string())?;
        print_reports(&out, false, speculate);
        out.source()
    };
    let v = interp.load_str(&loaded_src).map_err(|e| e.to_string())?;
    for line in interp.take_output() {
        println!("{line}");
    }
    if call.is_none() {
        println!("{}", interp.heap().display(v));
        return Ok(());
    }

    let call_src = call.expect("checked above");
    let parsed = parse_one(&call_src).map_err(|e| e.to_string())?;
    let items = parsed.as_list().ok_or("--call must be a function call")?;
    let fname = items.first().and_then(Sexpr::as_symbol).ok_or("--call head must be a symbol")?;
    // Evaluate the arguments sequentially, then dispatch.
    let mut argv = Vec::new();
    for a in &items[1..] {
        argv.push(interp.eval_str(&a.to_string()).map_err(|e| e.to_string())?);
    }
    if servers > 0 {
        let tracer = (trace_path.is_some() || metrics_path.is_some() || profile_path.is_some())
            .then(|| {
                let t = Tracer::new(servers);
                curare::obs::install(Some(Arc::clone(&t)));
                t
            });
        // Arm the causal profiler (spawn/touch/future edge events +
        // invocation ids) and the per-opcode VM counters before the
        // pool spawns.
        if profile_path.is_some() {
            curare::obs::set_profiling(true);
            curare::lisp::set_op_profiling(true);
        }
        // Install the fault plan before the pool spawns so server
        // threads see it from their first task.
        if let Some(seed) = chaos_seed {
            let profile = curare::runtime::chaos::ChaosProfile::named(&chaos_profile)
                .ok_or_else(|| format!("unknown chaos profile '{chaos_profile}'"))?;
            curare::runtime::chaos::install(Some(curare::runtime::chaos::FaultPlan::new(
                seed, profile,
            )));
        }
        let config = curare::runtime::RuntimeConfig {
            stall_budget: stall_budget_ms.map(std::time::Duration::from_millis),
            speculate,
            ..curare::runtime::RuntimeConfig::default()
        };
        let rt = CriRuntime::with_config(Arc::clone(&interp), servers, config);
        let started = std::time::Instant::now();
        let run_result = rt.run(fname, &argv).map_err(|e| e.to_string());
        let seconds = started.elapsed().as_secs_f64();
        let stats = rt.stats();
        eprintln!(
            ";; pool: {} tasks ({} chained, {} of them in place), peak queue {}, \
             {} lock acquisitions",
            stats.tasks,
            stats.chained_tasks,
            stats.in_place_tasks,
            stats.peak_queue,
            stats.lock_acquisitions
        );
        if rt.speculating() {
            eprintln!(
                ";; speculation: {} commits ({} clean), {} aborts, {} replays, escalated: {}, \
                 resolve {:.2} ms of the {:.2} ms run",
                stats.spec_commits,
                stats.spec_clean,
                stats.spec_aborts,
                stats.spec_replays,
                stats.spec_escalated,
                stats.spec_resolve_ns as f64 / 1e6,
                seconds * 1e3
            );
        }
        if let Some(seed) = chaos_seed {
            eprintln!(
                ";; chaos: seed {seed}, profile {chaos_profile}: {} faults injected, \
                 {} retries, {} servers poisoned, degraded: {}",
                stats.faults_injected, stats.task_retries, stats.servers_poisoned, stats.degraded
            );
        }
        if stall_budget_ms.is_some() {
            for dump in rt.stall_dumps() {
                eprintln!("{dump}");
            }
        }
        if chaos_seed.is_some() {
            curare::runtime::chaos::install(None);
        }
        run_result?;
        if let Some(tracer) = tracer {
            curare::obs::install(None);
            if profile_path.is_some() {
                curare::obs::set_profiling(false);
                curare::lisp::set_op_profiling(false);
            }
            let snaps = tracer.snapshot();
            curare::obs::warn_if_dropped(&snaps, "curare run");
            let write = |path: &str, doc: &Json| -> Result<(), String> {
                std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))
            };
            if let Some(path) = &trace_path {
                write(path, &curare::obs::chrome::chrome_trace(&snaps))?;
                eprintln!(";; wrote chrome trace to {path}");
            }
            if let Some(path) = &metrics_path {
                let tasks_per_sec = stats.tasks as f64 / seconds.max(1e-9);
                let wall = Json::obj().set("seconds", seconds).set("tasks_per_sec", tasks_per_sec);
                let report = rt
                    .run_report(fname)
                    .set("wall", wall)
                    .set("timeline", Timeline::from_trace(&snaps).to_json())
                    .set("trace", curare::obs::trace_health_section(&snaps));
                write(path, &report)?;
                eprintln!(";; wrote metrics report to {path}");
            }
            if let Some(path) = &profile_path {
                let profile = curare::obs::Profile::from_trace(&snaps);
                let hot: Vec<Json> = curare::lisp::op_profile_top(8)
                    .into_iter()
                    .map(|r| Json::obj().set("op", r.name).set("count", r.count).set("ns", r.ns))
                    .collect();
                let doc = profile.to_json().set("label", fname).set("hot_ops", Json::Arr(hot));
                write(path, &doc)?;
                eprintln!(
                    ";; wrote causal profile to {path} (work {} ns, span {} ns, \
                     parallelism {:.2})",
                    profile.work_ns, profile.span_ns, profile.parallelism
                );
            }
        }
        for line in interp.take_output() {
            println!("{line}");
        }
    } else {
        let v = interp.call(fname, &argv).map_err(|e| e.to_string())?;
        for line in interp.take_output() {
            println!("{line}");
        }
        println!("{}", interp.heap().display(v));
    }
    Ok(())
}

fn repl() -> Result<(), String> {
    let interp = Interp::new();
    curare::lisp::set_thread_stack_budget(6 << 20);
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    eprintln!("curare mini-Lisp repl — ctrl-d to exit");
    loop {
        eprint!("* ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        if line.trim().is_empty() {
            continue;
        }
        match interp.load_str(&line) {
            Ok(v) => {
                for printed in interp.take_output() {
                    let _ = writeln!(out, "{printed}");
                }
                let _ = writeln!(out, "{}", interp.heap().display(v));
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two documents a traced pool run writes, by the top-level
    /// keys their readers (Perfetto; DESIGN.md's run-report contract)
    /// rely on.
    #[test]
    fn run_writes_the_trace_and_metrics_documents() {
        let dir = std::env::temp_dir();
        let path = |name: &str| dir.join(format!("curare-run-{}-{name}", std::process::id()));
        let (program, trace, metrics) =
            (path("walk.lisp"), path("trace.json"), path("metrics.json"));
        std::fs::write(&program, "(defun w (l) (when l (w (cdr l))))").unwrap();
        let args = [
            program.to_str().unwrap(),
            "--servers",
            "2",
            "--call",
            "(w (list 1 2 3 4 5 6 7 8))",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ];
        run(&args.map(String::from)).expect("traced pool run");
        for (file, keys) in [
            (&trace, &["traceEvents", "displayTimeUnit", "otherData"][..]),
            (&metrics, &["schema", "label", "pool", "heap", "locks", "vm", "wall", "timeline"]),
        ] {
            let text = std::fs::read_to_string(file).unwrap();
            let doc = curare::obs::validate_keys(&text, keys).unwrap_or_else(|e| panic!("{e}"));
            if let Some(pool) = doc.get("pool") {
                assert_eq!(pool.get("tasks").and_then(Json::as_u64), Some(9), "{pool}");
            }
        }
        // A flag without its path is refused before anything runs.
        assert!(run(&[args[0].to_string(), "--trace".into()]).is_err());
        for file in [&program, &trace, &metrics] {
            std::fs::remove_file(file).unwrap();
        }
    }
}
