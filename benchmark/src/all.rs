//! `bench all`: every workload in both modes, each in a child process
//! of its own (so peak memory and the process-wide VM counters are per
//! workload), merged into `benchmark/out/results.json`.

use std::process::{Command, ExitCode, Stdio};

use curare::obs::Json;

use crate::metrics::{END_TO_END, FAILED_SHARE, PER_LAYER, RUN_SECONDS};
use crate::stats::{quantile, share};
use crate::workload::WORKLOADS;
use crate::{default_servers, host_record, write_out, Args};

/// Run one child and parse its result line.
fn child(workload: &str, trace: bool, extra: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} (trace {}) exited with {}", u8::from(trace), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or_else(|| format!("{workload}: no result line"))?;
    Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

/// One metric of a mode's table: name, unit, and for per-layer metrics
/// whether it must repeat exactly.
type Column = (&'static str, &'static str, Option<bool>);

/// Run one mode of one workload once per seed; print and return the
/// median, quartiles and values of every metric, and add the passes to
/// `attempted` / `failed`.
fn section(
    workload: &str,
    trace: bool,
    columns: &[Column],
    per_run_args: &[Vec<String>],
    tally: &mut (u64, u64),
) -> Result<Json, String> {
    let mut samples: Vec<Vec<f64>> = vec![vec![]; columns.len()];
    for extra in per_run_args {
        let result = child(workload, trace, extra)?;
        let attempted = result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        let failed = result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        tally.0 += attempted;
        tally.1 += failed;
        for (slot, (metric, ..)) in samples.iter_mut().zip(columns) {
            // The one metric a result line carries outside `metrics`.
            let value = if *metric == FAILED_SHARE {
                Some(share(failed as f64, attempted as f64))
            } else {
                result
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            slot.push(value.ok_or_else(|| format!("{workload}: result line lacks {metric}"))?);
        }
    }
    let mut doc = Json::obj();
    for ((metric, unit, exact), values) in columns.iter().zip(&samples) {
        println!("  {metric:<34} {:>14.4} {unit}", quantile(values, 0.5));
        let mut summary = Json::obj()
            .set("unit", *unit)
            .set("median", quantile(values, 0.5))
            .set("q1", quantile(values, 0.25))
            .set("q3", quantile(values, 0.75))
            .set("values", Json::Arr(values.iter().map(|&v| v.into()).collect()));
        if let Some(exact) = exact {
            summary = summary.set("exact", *exact);
        }
        doc = doc.set(metric, summary);
    }
    Ok(doc)
}

pub fn run(mut args: Args) -> Result<ExitCode, String> {
    let quick = args.flag("--quick");
    let runs: u64 = args.value("--runs")?.unwrap_or(1);
    let seed: u64 = args.value("--seed")?.unwrap_or(1);
    let seconds: f64 = args.value("--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let build_s: f64 = args.value("--build-s")?.unwrap_or(0.0);
    args.finish()?;

    let per_run_args: Vec<Vec<String>> = (0..runs)
        .map(|run| {
            let mut extra = vec![
                "--seed".to_string(),
                (seed + run).to_string(),
                "--seconds".to_string(),
                seconds.to_string(),
                "--build-s".to_string(),
                build_s.to_string(),
            ];
            if quick {
                extra.push("--quick".to_string());
            }
            extra
        })
        .collect();
    let end_to_end: Vec<Column> = END_TO_END.iter().map(|m| (m.name, m.unit, None)).collect();
    let per_layer: Vec<Column> =
        PER_LAYER.iter().map(|m| (m.name, m.unit, Some(m.exact))).collect();

    let mut workloads = Json::obj();
    let mut failed_total = 0;
    for (name, _) in WORKLOADS {
        println!("{name}");
        let mut tally = (0, 0);
        let e2e = section(name, false, &end_to_end, &per_run_args, &mut tally)?;
        let layers = section(name, true, &per_layer, &per_run_args, &mut tally)?;
        println!("  {} passes attempted, {} failed", tally.0, tally.1);
        failed_total += tally.1;
        workloads = workloads.set(
            name,
            Json::obj()
                .set("attempted", tally.0)
                .set("failed", tally.1)
                .set("end_to_end", e2e)
                .set("per_layer", layers),
        );
    }

    let doc = Json::obj()
        .set("schema", "curare-benchmark/1")
        .set(
            "record",
            host_record()
                .set("servers", default_servers())
                .set("seed", seed)
                .set("runs", runs)
                .set("seconds", seconds)
                .set("quick", quick),
        )
        .set("workloads", workloads);
    println!("wrote {}", write_out("results.json", &doc)?);
    Ok(if failed_total == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
