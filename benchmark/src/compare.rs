//! `bench compare A.json B.json`: one row per (workload, metric) with
//! both medians, the bound `BENCHMARK.json` records (printed from the
//! same table, `metrics::END_TO_END`), and a verdict.
//!
//! A is the parent, B the change. An end-to-end row is *worse* when
//! B's median is worse than A's by more than the bound, *better* when
//! it is better by more than the bound, *within* otherwise; when either
//! side's own run-to-run spread (interquartile distance over median) is
//! wider than the bound the row is *unresolved*, unless every run of B
//! reads better than every run of A. A bound of 0 (`failed_share`)
//! means any increase is a regression: there the worst run of each side
//! is compared, so one failing run cannot hide behind a median; a
//! failed pass in any run of either side, traced runs included, also
//! fails the comparison.
//! Per-layer rows have no bound:
//! they show the change, and counts that must repeat exactly say
//! whether they did.

use std::process::ExitCode;

use curare::obs::Json;

use crate::metrics::END_TO_END;
use crate::stats::share;
use crate::Args;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

struct Side {
    median: f64,
    spread: f64,
    values: Vec<f64>,
}

fn side(metric: &Json) -> Option<Side> {
    let median = metric.get("median")?.as_f64()?;
    let iqr = metric.get("q3")?.as_f64()? - metric.get("q1")?.as_f64()?;
    let values = metric.get("values")?.as_arr()?.iter().filter_map(Json::as_f64).collect();
    Some(Side { median, spread: share(iqr, median.abs()), values })
}

fn verdict(a: &Side, b: &Side, lower_is_better: bool, bound: f64) -> &'static str {
    // Positive = B is worse.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    if bound == 0.0 {
        let worst = |s: &Side| s.values.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
        return match worst(b).total_cmp(&worst(a)) {
            std::cmp::Ordering::Greater => "worse",
            std::cmp::Ordering::Less => "better",
            std::cmp::Ordering::Equal => "within",
        };
    }
    let worse_by = sign * share(b.median - a.median, a.median.abs());
    if a.spread.max(b.spread) > bound {
        let all_better = a.values.iter().all(|x| b.values.iter().all(|y| sign * (y - x) < 0.0));
        return if all_better { "better" } else { "unresolved" };
    }
    if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "within"
    }
}

pub fn run(args: Args) -> Result<ExitCode, String> {
    let files = args.finish()?;
    let [a_path, b_path] = files.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let Some(Json::Obj(workloads)) = a.get("workloads") else {
        return Err(format!("{a_path}: no workloads"));
    };

    let mut any_worse = false;
    println!(
        "{:<20} {:<34} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (workload, in_a) in workloads {
        let in_b = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("{b_path}: no workload {workload}"))?;
        for section in ["end_to_end", "per_layer"] {
            let Some(Json::Obj(metrics)) = in_a.get(section) else { continue };
            for (name, ma) in metrics {
                let (Some(sa), Some(sb)) =
                    (side(ma), in_b.get(section).and_then(|s| s.get(name)).and_then(side))
                else {
                    return Err(format!("{workload}/{name}: missing on one side"));
                };
                let change = 100.0 * share(sb.median - sa.median, sa.median.abs());
                let spec = END_TO_END.iter().find(|m| m.name == name);
                let (bound_text, word) = match spec {
                    Some(m) if section == "end_to_end" => {
                        let word = verdict(&sa, &sb, m.better != "higher", m.bound);
                        any_worse |= word == "worse";
                        (format!("{:.0}%", m.bound * 100.0), word)
                    }
                    _ if ma.get("exact").and_then(Json::as_bool) == Some(true) => (
                        "exact".to_string(),
                        if sa.values == sb.values { "same" } else { "differs" },
                    ),
                    _ => ("-".to_string(), "-"),
                };
                println!(
                    "{workload:<20} {name:<34} {:>14.4} {:>14.4} {change:>+7.1}% {bound_text:>7}  {word}",
                    sa.median, sb.median
                );
            }
        }
        // `failed_share` covers the end-to-end runs; a failure in a
        // traced run counts against the side just the same.
        for (label, doc) in [("A", in_a), ("B", in_b)] {
            if doc.get("failed").and_then(Json::as_u64) != Some(0) {
                println!("{workload:<20} {label} has failed passes");
                any_worse = true;
            }
        }
    }
    Ok(if any_worse { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
