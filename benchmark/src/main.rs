//! `bench`: the one benchmark for Curare. See `benchmark/README.md`.
//!
//! ```text
//! bench --workload NAME --seed N --seconds T --trace 0|1   one workload, one result line
//! bench all [--quick] [--runs R] [--seed N]                every workload, both modes
//! bench compare A.json B.json                              verdict per (workload, metric)
//! bench self-test                                          the checks check
//! bench manifest                                           print BENCHMARK.json
//! ```

mod all;
mod compare;
mod layers;
mod measure;
mod metrics;
mod pass;
mod programs;
mod reference;
mod rng;
mod selftest;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;

use curare::obs::Json;

/// Where run records, results and trace files go, relative to the
/// repository root the benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

/// Write `doc` as `benchmark/out/<file>`; returns the path.
pub fn write_out(file: &str, doc: &Json) -> Result<String, String> {
    let path = format!("{OUT_DIR}/{file}");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench --workload NAME --seed N --seconds T --trace 0|1 \
         [--quick] [--servers S] [--build-s X] [--setup-only]\n       \
         bench all [--quick] [--runs R] [--seed N] [--seconds T] [--build-s X]\n       \
         bench compare A.json B.json\n       bench self-test\n       bench manifest\n\
         workloads: {}",
        workload::WORKLOADS.map(|(n, _)| n).join(" ")
    );
    ExitCode::from(2)
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The server count every workload runs at unless `--servers` says
/// otherwise.
pub fn default_servers() -> usize {
    host_threads().min(4)
}

/// `--name value` pairs and bare flags after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    pub fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else { return Ok(None) };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.0.remove(i + 1);
        self.0.remove(i);
        raw.parse().map(Some).map_err(|_| format!("{name}: cannot read '{raw}'"))
    }

    pub fn finish(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(a) => Err(format!("unknown option {a}")),
            None => Ok(self.0),
        }
    }
}

/// First line a command prints, or "unknown" (the driver's checkout is
/// not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a result was measured on.
pub fn host_record() -> Json {
    Json::obj()
        .set("host_threads", host_threads())
        .set("git_revision", first_line("git", &["rev-parse", "HEAD"]))
        .set("rustc", first_line("rustc", &["--version"]))
}

fn run_one(mut args: Args) -> Result<ExitCode, String> {
    let opts = measure::Options {
        workload: args.value("--workload")?.ok_or("--workload is required")?,
        seed: args.value("--seed")?.unwrap_or(1),
        seconds: args.value("--seconds")?.unwrap_or(metrics::RUN_SECONDS as f64),
        trace: match args.value::<u8>("--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        quick: args.flag("--quick"),
        servers: args.value("--servers")?.unwrap_or_else(default_servers),
        build_s: args.value("--build-s")?.unwrap_or(0.0),
        setup_only: args.flag("--setup-only"),
    };
    args.finish()?;
    // Defaults are what is measured: no switch may arrive through the
    // environment, and the pool may not be oversubscribed.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("CURARE_"))
    {
        return Err(format!("{} is set; unset every CURARE_* variable", k.to_string_lossy()));
    }
    if opts.servers == 0 || opts.servers > host_threads() {
        return Err(format!(
            "--servers {} on a host with {} hardware threads",
            opts.servers,
            host_threads()
        ));
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }

    if opts.setup_only {
        println!("{}", measure::setup_only(&opts)?);
        return Ok(ExitCode::SUCCESS);
    }
    let outcome = measure::run(&opts)?;
    let metrics = outcome.metrics.iter().fold(Json::obj(), |doc, (name, value, unit)| {
        doc.set(name, Json::obj().set("value", *value).set("unit", *unit))
    });
    let result = Json::obj()
        .set("correct", outcome.failed == 0)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    let record = host_record()
        .set("workload", opts.workload.as_str())
        .set("seed", opts.seed)
        .set("servers", opts.servers)
        .set("seconds", opts.seconds)
        .set("trace", opts.trace)
        .set("counts", outcome.counts)
        .set("result", result.clone());
    write_out(&format!("run-{}-trace{}.json", opts.workload, u8::from(opts.trace)), &record)?;
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // Start the clock: setup_s is measured from here.
    pass::now_ns();
    // Deep non-tail recursion in the sequential baselines, as the
    // `curare` CLI sets it.
    curare::lisp::set_thread_stack_budget(6 << 20);
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => argv.remove(0),
        Some(_) => "run".to_string(),
        None => return usage(),
    };
    let args = Args(argv);
    let outcome = match sub.as_str() {
        "run" => run_one(args),
        "all" => all::run(args),
        "compare" => compare::run(args),
        "self-test" => selftest::run(),
        "manifest" => {
            println!("{}", metrics::manifest_text());
            Ok(ExitCode::SUCCESS)
        }
        _ => return usage(),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
