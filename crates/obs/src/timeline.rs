//! Concurrency timelines: busy-servers-over-time.
//!
//! The paper's Figures 6/7/9 are exactly this picture — how many
//! invocations are in flight at each instant. [`Timeline`] is the
//! measured counterpart, read off the trace's per-lane invocation
//! slices (the `sweep` module) and written as a run report's
//! `timeline` section, so a threaded run can be set against the §3.1
//! CRI concurrency bound with no format shims.

use crate::json::Json;
use crate::ring::RingSnapshot;
use crate::sweep::sweep;

/// A step function of concurrently busy servers; see module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// `(t, busy)`, `t` in ns — at time `t` the busy count became `busy`.
    /// Sorted by `t`; the function holds its value until the next
    /// point.
    pub points: Vec<(u64, u64)>,
    /// Time-weighted mean busy count over the active span.
    pub mean_concurrency: f64,
    /// Peak busy count.
    pub peak_concurrency: u64,
}

impl Timeline {
    /// Build from busy intervals (`start`, `finish`) in any order.
    /// Zero-length and inverted intervals are ignored.
    pub fn from_intervals(intervals: &[(u64, u64)]) -> Timeline {
        // Sweep line: +1 at each start, -1 at each finish.
        let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(intervals.len() * 2);
        for &(s, f) in intervals {
            if f > s {
                deltas.push((s, 1));
                deltas.push((f, -1));
            }
        }
        // Ends sort before starts at equal times (a server finishing
        // as another starts is concurrency n, not n+1).
        deltas.sort_unstable_by_key(|&(t, d)| (t, d));
        let mut points = Vec::new();
        let mut busy = 0i64;
        let mut peak = 0u64;
        let mut weighted = 0u128;
        let mut prev_t = deltas.first().map(|&(t, _)| t).unwrap_or(0);
        let t0 = prev_t;
        let mut i = 0;
        while i < deltas.len() {
            let t = deltas[i].0;
            weighted += (t - prev_t) as u128 * busy.max(0) as u128;
            while i < deltas.len() && deltas[i].0 == t {
                busy += deltas[i].1;
                i += 1;
            }
            let b = busy.max(0) as u64;
            peak = peak.max(b);
            if points.last().map(|&(_, pb)| pb != b).unwrap_or(true) {
                points.push((t, b));
            }
            prev_t = t;
        }
        let span = prev_t.saturating_sub(t0);
        let mean = if span == 0 { 0.0 } else { weighted as f64 / span as f64 };
        Timeline { points, mean_concurrency: mean, peak_concurrency: peak }
    }

    /// Build from per-lane trace snapshots: a lane is busy while any
    /// invocation slice is open on it, so its busy intervals are its
    /// outermost slices (a helping touch's nested tasks run inside the
    /// toucher's). Overflow and lane 0 as the `sweep` module reads them.
    pub fn from_trace(snapshots: &[RingSnapshot]) -> Timeline {
        let intervals: Vec<(u64, u64)> = snapshots
            .iter()
            .flat_map(|snap| sweep(&snap.events).slices)
            .filter(|s| s.enclosing.is_none())
            .map(|s| (s.start, s.end))
            .collect();
        Timeline::from_intervals(&intervals)
    }

    /// The timeline as a run report's `timeline` section.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("unit", "ns")
            .set("mean_concurrency", self.mean_concurrency)
            .set("peak_concurrency", self.peak_concurrency)
            .set(
                "points",
                Json::Arr(
                    self.points.iter().map(|&(t, b)| Json::Arr(vec![t.into(), b.into()])).collect(),
                ),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    #[test]
    fn disjoint_intervals_never_overlap() {
        let t = Timeline::from_intervals(&[(0, 10), (10, 20)]);
        assert_eq!(t.peak_concurrency, 1);
        assert!((t.mean_concurrency - 1.0).abs() < 1e-9);
        assert_eq!(t.points, vec![(0, 1), (20, 0)]);
    }

    #[test]
    fn overlap_counts_busy_servers() {
        // [0,10) and [5,15): busy 1,2,1 then 0.
        let t = Timeline::from_intervals(&[(0, 10), (5, 15)]);
        assert_eq!(t.points, vec![(0, 1), (5, 2), (10, 1), (15, 0)]);
        assert_eq!(t.peak_concurrency, 2);
        // 20 busy units over a 15-unit span.
        assert!((t.mean_concurrency - 20.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let t = Timeline::from_intervals(&[]);
        assert_eq!(t.points, vec![]);
        assert_eq!(t.mean_concurrency, 0.0);
        let t = Timeline::from_intervals(&[(5, 5), (9, 3)]);
        assert_eq!(t.peak_concurrency, 0, "zero/inverted intervals ignored");
    }

    #[test]
    fn trace_pairs_start_stop_per_lane() {
        let lane = |evs: Vec<Event>| RingSnapshot { events: evs, dropped: 0 };
        let e = |ts, kind| Event { ts_ns: ts, kind, arg: 0 };
        let snaps = vec![
            lane(vec![
                e(0, EventKind::TaskStart),
                e(10, EventKind::TaskStop),
                e(12, EventKind::TaskStart),
                e(20, EventKind::TaskStop),
            ]),
            lane(vec![e(5, EventKind::TaskStart), e(15, EventKind::TaskStop)]),
        ];
        let t = Timeline::from_trace(&snaps);
        assert_eq!(t.peak_concurrency, 2);
        // Busy spans: [0,10),[12,20) and [5,15) → overlap [5,10) and [12,15).
        assert_eq!(t.points, vec![(0, 1), (5, 2), (10, 1), (12, 2), (15, 1), (20, 0)]);
    }

    #[test]
    fn json_round_trip() {
        let t = Timeline::from_intervals(&[(0, 4), (2, 8), (6, 10)]);
        let doc = crate::report::document("t", [("timeline", t.to_json())]).to_string();
        let doc = crate::report::validate(&doc, &["timeline"]).unwrap();
        let parsed = doc.get("timeline").unwrap();
        assert_eq!(parsed.get("unit").and_then(Json::as_str), Some("ns"));
        let points: Vec<(u64, u64)> = parsed
            .get("points")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|p| {
                let pair = p.as_arr().unwrap();
                (pair[0].as_u64().unwrap(), pair[1].as_u64().unwrap())
            })
            .collect();
        assert_eq!(points, t.points);
        assert_eq!(parsed.get("peak_concurrency").and_then(Json::as_u64), Some(t.peak_concurrency));
        let mean = parsed.get("mean_concurrency").and_then(Json::as_f64).unwrap();
        assert!((mean - t.mean_concurrency).abs() < 1e-9);
    }
}
