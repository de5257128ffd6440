//! ASCII timelines in the style of the paper's Figures 6 and 7.
//!
//! Figure 6 shows sequential recursion: each invocation's head (H)
//! runs going down, then the tails (T) unwind back up. Figure 7 shows
//! CRI execution: invocation *i+1*'s head starts as soon as *i*'s head
//! finishes, overlapping every tail. [`render_timeline`] draws the
//! same picture from an actual simulation.

use crate::engine::{SimConfig, SimResult};
use curare_obs::Timeline;

/// The simulated run as a machine-readable concurrency timeline in
/// the shared `curare-timeline/1` schema (unit `"steps"`). The
/// threaded pool emits the same schema from its trace
/// (`Timeline::from_trace`, unit `"ns"`), so a simulated Figure 7/9
/// prediction diffs directly against a measured run.
pub fn concurrency_timeline(result: &SimResult) -> Timeline {
    let intervals: Vec<(u64, u64)> =
        result.starts.iter().copied().zip(result.finishes.iter().copied()).collect();
    Timeline::from_intervals("steps", &intervals)
}

/// Render one row per invocation: spaces for idle/waiting time, `H`
/// for head steps, `T` for tail steps. `max_rows` and `max_width`
/// bound the picture for wide runs.
pub fn render_timeline(
    cfg: &SimConfig,
    result: &SimResult,
    max_rows: usize,
    max_width: usize,
) -> String {
    let mut out = String::new();
    let rows = result.starts.len().min(max_rows);
    let head = (cfg.head + cfg.spawn_overhead) as usize;
    let tail = cfg.tail as usize;
    for i in 0..rows {
        let start = result.starts[i] as usize;
        if start + head + tail > max_width {
            out.push_str("  ⋯ (truncated)\n");
            break;
        }
        out.push_str(&format!("I{i:<3} "));
        out.push_str(&" ".repeat(start));
        out.push_str(&"H".repeat(head));
        out.push_str(&"T".repeat(tail));
        out.push('\n');
    }
    if result.starts.len() > rows {
        out.push_str(&format!("  … {} more invocations\n", result.starts.len() - rows));
    }
    out.push_str(&format!(
        "total = {} steps, speedup = {:.2}x, concurrency = {:.2}\n",
        result.total_time, result.speedup, result.achieved_concurrency
    ));
    out
}

/// The sequential (Figure 6) picture for the same function shape:
/// heads descend, tails unwind in reverse order.
pub fn render_sequential(
    head: u64,
    tail: u64,
    depth: u64,
    max_rows: usize,
    max_width: usize,
) -> String {
    let mut out = String::new();
    let d = depth as usize;
    let h = head as usize;
    let t = tail as usize;
    let rows = d.min(max_rows);
    for i in 0..rows {
        // Invocation i: head at i*h; its tail runs after all deeper
        // invocations complete: at d*h + (d-1-i)*t.
        let head_start = i * h;
        let tail_start = d * h + (d - 1 - i) * t;
        if tail_start + t > max_width {
            out.push_str("  ⋯ (truncated)\n");
            break;
        }
        out.push_str(&format!("I{i:<3} "));
        out.push_str(&" ".repeat(head_start));
        out.push_str(&"H".repeat(h));
        out.push_str(&" ".repeat(tail_start - head_start - h));
        out.push_str(&"T".repeat(t));
        out.push('\n');
    }
    if d > rows {
        out.push_str(&format!("  … {} more invocations\n", d - rows));
    }
    out.push_str(&format!("total = {} steps (sequential)\n", d * (h + t)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;

    #[test]
    fn cri_timeline_shows_overlap() {
        let cfg = SimConfig::new(4, 4, 1, 3);
        let r = simulate(&cfg);
        let pic = render_timeline(&cfg, &r, 10, 200);
        let lines: Vec<&str> = pic.lines().collect();
        // I0 starts at 0; I1's H starts right after I0's H (column 1
        // after the "I1  " prefix).
        assert!(lines[0].contains("HTTT"), "{pic}");
        assert!(lines[1].contains(" HTTT"), "{pic}");
        assert!(pic.contains("speedup"), "{pic}");
    }

    #[test]
    fn sequential_timeline_unwinds_in_reverse() {
        let pic = render_sequential(1, 2, 3, 10, 200);
        let lines: Vec<&str> = pic.lines().collect();
        // The deepest invocation's tail comes first: I2's T starts
        // before I1's, which starts before I0's.
        let t_pos = |s: &str| s.find('T').expect("has tail");
        assert!(t_pos(lines[2]) < t_pos(lines[1]), "{pic}");
        assert!(t_pos(lines[1]) < t_pos(lines[0]), "{pic}");
        assert!(pic.contains("total = 9 steps"), "{pic}");
    }

    #[test]
    fn truncation_markers() {
        let cfg = SimConfig::new(100, 4, 1, 3);
        let r = simulate(&cfg);
        let pic = render_timeline(&cfg, &r, 5, 60);
        assert!(pic.contains("more invocations") || pic.contains("truncated"), "{pic}");
    }

    #[test]
    fn concurrency_timeline_matches_engine_mean() {
        // The timeline's time-weighted mean over [first start, last
        // finish] is the engine's achieved concurrency (busy steps /
        // total time): same numerator, same span.
        let r = simulate(&SimConfig::new(500, 8, 1, 7).with_conflict_distance(5));
        let tl = concurrency_timeline(&r);
        assert_eq!(tl.unit, "steps");
        assert!(
            (tl.mean_concurrency - r.achieved_concurrency).abs() < 1e-9,
            "timeline {} vs engine {}",
            tl.mean_concurrency,
            r.achieved_concurrency
        );
        assert!(tl.peak_concurrency <= 8);
    }

    #[test]
    fn concurrency_timeline_approaches_cri_formula() {
        // §3.1: with ample servers the busy count approaches
        // c_f = (h + t) / h; the timeline must agree with the formula,
        // not just with the engine's own summary statistic.
        let (h, t) = (1u64, 9u64);
        let r = simulate(&SimConfig::new(10_000, 64, h, t));
        let tl = concurrency_timeline(&r);
        let bound = crate::formula::concurrency(h as f64, t as f64);
        assert!(
            (tl.mean_concurrency - bound).abs() / bound < 0.02,
            "timeline {} vs bound {}",
            tl.mean_concurrency,
            bound
        );
        assert_eq!(tl.peak_concurrency, bound as u64);
    }

    #[test]
    fn concurrency_timeline_emits_shared_schema() {
        let r = simulate(&SimConfig::new(16, 4, 1, 3));
        let j = concurrency_timeline(&r).to_json();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(curare_obs::timeline::SCHEMA));
        assert_eq!(j.get("unit").unwrap().as_str(), Some("steps"));
    }

    #[test]
    fn locked_timeline_shows_serialization() {
        let cfg = SimConfig::new(4, 4, 1, 3).with_conflict_distance(1);
        let r = simulate(&cfg);
        let pic = render_timeline(&cfg, &r, 10, 200);
        // Distance 1 serializes: each row starts where the previous
        // one ended.
        let lines: Vec<&str> = pic.lines().collect();
        let h_pos = |s: &str| s.find('H').expect("has head") - 5; // prefix "I0   " is 5 chars
        assert_eq!(h_pos(lines[1]), 4, "{pic}");
        assert_eq!(h_pos(lines[2]), 8, "{pic}");
    }
}
