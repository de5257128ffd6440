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
//! prints one report line per file (its `diagnostics` section) instead
//! of prose. With --locks the §3.2.1 lock-placement certifier runs too:
//! declared or pipeline-applied placements are re-checked against the
//! conflict report (C007 = unsound, error; C008 = non-minimal,
//! warning), and every conflicting function's placement is printed,
//! machine-checkable (the file's `placements` section under --json, a
//! summary line each otherwise).
//!
//! run options:
//!   --servers N      execute `--call` on an N-server CRI pool
//!   --call  "(f …)"  transform the program, then run this entry
//!   --sequential     skip transformation (plain interpreter)
//!   --trace PATH     write a Chrome trace_event JSON of the pool run
//!                    (open in chrome://tracing or Perfetto): one task
//!                    slice per invocation, a helping touch's nested
//!                    inside the toucher's, lock and future waits
//!                    inside them; vocabulary curare-trace/2
//!   --report PATH    write the pool run's report: pool, heap,
//!                    lock-wait, vm (with the hottest opcodes), wall,
//!                    timeline (a server is busy while any task slice
//!                    is open on it), trace-health, and profile (the
//!                    spawn/touch DAG's work, span, parallelism =
//!                    work/span, and critical-path attribution)
//!   --speculate      admit statically unproven functions optimistically:
//!                    the pool logs their heap accesses, validates them
//!                    against the sequential order at quiescence, and
//!                    aborts/replays (or reruns sequentially) on conflict
//!   --chaos-seed N   install a seeded fault plan for the pool run
//!   --chaos-profile P  fault profile for --chaos-seed: delays,
//!                    stalls, shuffle, reorder, or mixed (default)
//!   --stall-budget-ms M  arm the stall watchdog: servers stuck past
//!                    M ms are dumped in a report's stalls section,
//!                    printed on stderr
//! ```

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

use curare::prelude::*;
use curare::runtime::chaos::{self, ChaosProfile, FaultPlan};

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
                    let mut sections = vec![("diagnostics", report.diags.to_json())];
                    if locks {
                        sections.push(("placements", Json::Arr(report.placements.clone())));
                    }
                    println!("{}", curare::obs::report::document(path, sections));
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
            for line in r.feedback().lines() {
                eprintln!(";;   {line}");
            }
        }
    }
    let s = out.stats;
    eprintln!(
        ";; analysis: {} functions analysed, {} path classes, {} pair tests ({} alias tests), \
         {} automata built, {} probe lowerings",
        s.functions_analysed,
        s.path_classes,
        s.pair_tests,
        s.alias_tests,
        s.automata_built,
        s.probe_lowerings
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
    let mut report_path: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_profile = ChaosProfile::named("mixed").expect("a named profile");
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
                chaos_profile = args
                    .get(i + 1)
                    .and_then(|name| ChaosProfile::named(name))
                    .ok_or_else(|| {
                        format!("--chaos-profile needs one of: {}", ChaosProfile::NAMES.join(", "))
                    })?;
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
            "--report" => {
                report_path = Some(args.get(i + 1).ok_or("--report needs a file path")?.clone());
                i += 2;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if (trace_path.is_some() || report_path.is_some()) && servers == 0 {
        return Err("--trace/--report need a pool run (--servers N with --call)".into());
    }
    if (chaos_seed.is_some() || stall_budget_ms.is_some()) && servers == 0 {
        return Err("--chaos-seed/--stall-budget-ms need a pool run (--servers N)".into());
    }
    if speculate && (servers == 0 || sequential) {
        return Err("--speculate needs a transformed pool run (--servers N with --call)".into());
    }

    curare::lisp::set_thread_stack_budget(6 << 20);
    let interp = Arc::new(Interp::new());
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
    let value = if servers > 0 {
        let tracer = (trace_path.is_some() || report_path.is_some()).then(|| {
            let t = Tracer::new(servers);
            curare::obs::install(Some(Arc::clone(&t)));
            t
        });
        // A report carries the causal profile (spawn/touch/future edge
        // events + invocation ids) and the hottest VM opcodes: arm both
        // before the pool spawns.
        if report_path.is_some() {
            curare::obs::set_profiling(true);
            curare::lisp::set_op_profiling(true);
        }
        // Install the fault plan before the pool spawns so server
        // threads see it from their first task.
        if let Some(seed) = chaos_seed {
            chaos::install(Some(FaultPlan::new(seed, chaos_profile.clone())));
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
        // Disarm before anything can return: a failed run leaves
        // nothing armed behind it.
        if tracer.is_some() {
            curare::obs::install(None);
        }
        if report_path.is_some() {
            curare::obs::set_profiling(false);
            curare::lisp::set_op_profiling(false);
        }
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
                ";; chaos: seed {seed}, profile {}: {} faults injected, \
                 {} servers poisoned, degraded: {}",
                chaos_profile.name, stats.faults_injected, stats.servers_poisoned, stats.degraded
            );
            chaos::install(None);
        }
        if stall_budget_ms.is_some() {
            let stalls = Json::Arr(rt.stall_dumps());
            eprintln!("{}", curare::obs::report::document(fname, [("stalls", stalls)]));
        }
        // The documents asked for are written whether or not the run
        // failed: a failed run is when they are wanted most.
        if let Some(tracer) = tracer {
            let snaps = tracer.snapshot();
            curare::obs::warn_if_dropped(&snaps, "curare run");
            let write = |path: &str, doc: &Json| -> Result<(), String> {
                std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))
            };
            if let Some(path) = &trace_path {
                write(path, &curare::obs::chrome::chrome_trace(&snaps))?;
                eprintln!(";; wrote chrome trace to {path}");
            }
            if let Some(path) = &report_path {
                write(path, &rt.run_report(fname, seconds, &snaps))?;
                eprintln!(";; wrote run report to {path}");
            }
        }
        run_result?
    } else {
        interp.call(fname, &argv).map_err(|e| e.to_string())?
    };
    for line in interp.take_output() {
        println!("{line}");
    }
    println!("{}", interp.heap().display(value));
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

    // `run` installs the tracer and arms profiling process-wide; every
    // test that runs the pool traced holds this guard.
    static TRACE_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn trace_guard() -> std::sync::MutexGuard<'static, ()> {
        TRACE_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The two documents a traced pool run writes: the Chrome trace,
    /// named by the vocabulary Perfetto's readers of it rely on, and
    /// the run's report with every section a run report carries.
    #[test]
    fn run_writes_the_trace_and_report_documents() {
        let _guard = trace_guard();
        let dir = std::env::temp_dir();
        let path = |name: &str| dir.join(format!("curare-run-{}-{name}", std::process::id()));
        let (program, trace, report) = (path("walk.lisp"), path("trace.json"), path("report.json"));
        std::fs::write(&program, "(defun w (l) (when l (w (cdr l))))").unwrap();
        let args = [
            program.to_str().unwrap(),
            "--servers",
            "2",
            "--call",
            "(w (list 1 2 3 4 5 6 7 8))",
            "--trace",
            trace.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ];
        run(&args.map(String::from)).expect("traced pool run");
        let trace = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let vocabulary = trace.get("otherData").and_then(|d| d.get("schema")?.as_str());
        assert_eq!(vocabulary, Some(curare::obs::report::SCHEMA_TRACE));
        assert!(trace.get("traceEvents").and_then(Json::as_arr).is_some());
        let text = std::fs::read_to_string(&report).unwrap();
        let sections = ["pool", "heap", "locks", "vm", "wall", "timeline", "trace", "profile"];
        let doc = curare::obs::report::validate(&text, &sections).unwrap_or_else(|e| panic!("{e}"));
        let pool = doc.get("pool").unwrap();
        assert_eq!(pool.get("tasks").and_then(Json::as_u64), Some(9), "{pool}");
        // A flag without its path is refused before anything runs; the
        // two flags `--report` replaced and the engine differential's
        // two are unknown.
        assert!(run(&[args[0].to_string(), "--trace".into()]).is_err());
        let gone: [&[&str]; 4] = [
            &["--metrics", "x.json"],
            &["--profile", "x.json"],
            &["--engine", "tree"],
            &["--no-fuse"],
        ];
        for flag in gone {
            let line = [&[args[0], "--servers", "2"], flag].concat();
            let err = run(&line.iter().map(|a| a.to_string()).collect::<Vec<_>>());
            assert_eq!(err.unwrap_err(), format!("unknown option {}", flag[0]));
        }
        for file in [&program, &path("trace.json"), &report] {
            std::fs::remove_file(file).unwrap();
        }
    }

    /// A traced run whose program errors still writes what was asked
    /// for, and leaves nothing armed: no tracer installed, neither
    /// profiler on, for whatever runs next in the process.
    #[test]
    fn a_failed_observed_run_disarms_and_still_reports() {
        let _guard = trace_guard();
        let dir = std::env::temp_dir();
        let path = |name: &str| dir.join(format!("curare-fail-{}-{name}", std::process::id()));
        let files = ["walk.lisp", "trace.json", "report.json"].map(path);
        std::fs::write(&files[0], "(defun w (l) (when l (car 5) (w (cdr l))))").unwrap();
        let [program, trace, report] = files.each_ref().map(|f| f.to_str().unwrap());
        let args = [program, "--servers", "2", "--call", "(w (list 1 2 3))", "--trace", trace];
        let args = [&args[..], &["--report", report]].concat();
        assert!(run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>()).is_err());
        assert!(curare::obs::installed().is_none(), "the tracer is still installed");
        assert!(!curare::obs::profiling_enabled(), "the causal profiler is still armed");
        assert!(!curare::lisp::op_profiling_enabled(), "the opcode profiler is still armed");
        let text = std::fs::read_to_string(report).unwrap();
        curare::obs::report::validate(&text, &["pool", "profile"]).unwrap();
        assert!(std::fs::metadata(trace).is_ok(), "the trace was not written");
        for file in &files {
            std::fs::remove_file(file).unwrap();
        }
    }

    /// A future-synchronised walker's touches help: a toucher runs the
    /// task it waits for nested inside its own. Every reader of the
    /// trace must see the toucher's slice enclose the helper's and
    /// resume after it, so the Chrome slices' self time is the
    /// profile's work and the timeline is busy for at least that long.
    #[test]
    fn every_reader_of_a_traced_run_accounts_for_the_profiled_work() {
        let _guard = trace_guard();
        let dir = std::env::temp_dir();
        let path = |name: &str| dir.join(format!("curare-nest-{}-{name}", std::process::id()));
        let files = ["walk.lisp", "trace.json", "report.json"].map(path);
        std::fs::write(
            &files[0],
            "(defun f (l m)
               (when (cdr l)
                 (f (cdr l) (cdr m))
                 (setf (car m) (cadr l))
                 (setf (car l) (* (car l) 2))))
             (defparameter *l* (let ((l nil)) (dotimes (i 300) (setq l (cons 1 l))) l))
             (defparameter *m* (let ((l nil)) (dotimes (i 300) (setq l (cons 0 l))) l))",
        )
        .unwrap();
        let [program, trace, report] = files.each_ref().map(|f| f.to_str().unwrap());
        let args = [program, "--servers", "2", "--call", "(f *l* *m*)", "--trace", trace];
        let args = [&args[..], &["--report", report]].concat();
        run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>()).expect("traced pool run");
        let trace = Json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        let report = std::fs::read_to_string(report).unwrap();
        let report = curare::obs::report::validate(&report, &["pool", "timeline", "profile"])
            .unwrap_or_else(|e| panic!("{e}"));
        let count = |doc: &Json, path: &[&str]| {
            path.iter().try_fold(doc, |d, k| d.get(k)).and_then(Json::as_u64).unwrap()
        };
        let work_ns = count(&report, &["profile", "work_ns"]);
        assert_eq!(
            count(&report, &["profile", "edges", "touch"]),
            299,
            "one touch per non-last cell"
        );
        assert_eq!(count(&report, &["pool", "tasks"]), 300);

        // Self time of the task slices: each slice less the slices
        // (tasks and waits) directly inside it, per track.
        let mut tracks: std::collections::BTreeMap<u64, Vec<(f64, f64, bool)>> = Default::default();
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        for e in events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")) {
            let at = |k: &str| e.get(k).and_then(Json::as_f64).unwrap();
            let task = e.get("name").and_then(Json::as_str) == Some("task");
            tracks.entry(count(e, &["tid"])).or_default().push((at("ts"), at("dur"), task));
        }
        let (mut self_us, mut slices) = (0.0, 0);
        for slices_on_track in tracks.values_mut() {
            slices_on_track.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
            let mut open: Vec<f64> = Vec::new();
            for &(ts, dur, task) in slices_on_track.iter() {
                while open.last().is_some_and(|&end| end <= ts + 1e-6) {
                    open.pop();
                }
                if task {
                    self_us += dur;
                }
                if !open.is_empty() {
                    self_us -= dur;
                }
                open.push(ts + dur);
                slices += 1;
            }
        }
        let self_ns = self_us * 1e3;
        assert!(
            (self_ns - work_ns as f64).abs() <= slices as f64,
            "task slices' self time {self_ns} ns, profiled work {work_ns} ns"
        );

        let timeline = report.get("timeline").and_then(|t| t.get("points"));
        let points = timeline.and_then(Json::as_arr).unwrap();
        let at = |point: &Json, i: usize| point.as_arr().unwrap()[i].as_u64().unwrap();
        let busy_ns: u64 =
            points.windows(2).map(|w| (at(&w[1], 0) - at(&w[0], 0)) * at(&w[0], 1)).sum();
        assert!(busy_ns >= work_ns, "timeline busy {busy_ns} ns, profiled work {work_ns} ns");
        for file in &files {
            std::fs::remove_file(file).unwrap();
        }
    }
}
