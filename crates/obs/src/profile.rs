//! The causal profiler: task-DAG reconstruction and critical-path
//! (work/span) analysis over trace-ring events.
//!
//! The paper's evaluation predicts speedup from static structure — the
//! §3.1 concurrency formula and the §3.2.1 `min(d₁…d_u)` locking
//! bound. This module measures the dynamic counterpart: it replays a
//! recorded trace into the causal DAG the scheduler actually executed
//! and computes
//!
//! - **work**: total executed nanoseconds across all invocations
//!   (exclusive — a touch that helps run nested tasks does not double
//!   count the helper's time);
//! - **span**: the longest causal chain through the DAG, where an edge
//!   is "parent spawned child" ([`EventKind::Spawn`]) or "touch waited
//!   for this future's producer" ([`EventKind::TouchWake`] against the
//!   producer recorded by [`EventKind::BindFuture`]);
//! - **parallelism**: work / span — the speedup an ideal scheduler
//!   with unlimited servers could reach, the measured analogue of the
//!   analysis crate's `concurrency_bound()`;
//! - **critical-path attribution**: walking the *realized* end-to-end
//!   path backward from the last invocation to finish, how much of the
//!   makespan went to execution vs queue wait vs future wait vs lock
//!   wait.
//!
//! Span is computed by a forward DP over the merged (timestamp-ordered)
//! event stream: each invocation's critical-path length at time `t` is
//! `base + exec(t) + boost`, where `base` is the parent's length at
//! spawn time, `exec(t)` the invocation's own exclusive execution up to
//! `t`, and `boost` accumulates max-with-producer adjustments at each
//! touch wake. Every length is a sum of disjoint execution intervals
//! along one causal chain, so **span ≤ work holds by construction** —
//! the CI profile gate checks it on every run.
//!
//! Invocation ids come from [`crate::sanitize::new_invocation`], which
//! assigns nonzero ids while either the access journal or this profiler
//! ([`set_profiling`]) is enabled. Two-id events pack both into the
//! ring's 56-bit arg via [`pack_pair`] (28 bits each — plenty for one
//! run). Ring overflow drops oldest events; the sweep clips what it
//! lost to the window the ring holds (the `sweep` module), and
//! [`Profile::dropped_events`] reports how much was lost so numbers
//! are never silently trusted from truncated rings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::event::{Event, EventKind};
use crate::json::Json;
use crate::ring::RingSnapshot;
use crate::sweep::{sweep, Segment, State};

/// Profile schema identifier (bump on breaking change).
pub const SCHEMA_PROFILE: &str = "curare-profile/1";

static PROFILING: AtomicBool = AtomicBool::new(false);

/// Enable/disable causal profiling. While enabled,
/// [`crate::sanitize::new_invocation`] hands out nonzero invocation
/// ids, which the runtime records in its `TaskStart`/`TaskStop`
/// brackets and `Spawn`/`BindFuture`/`TouchWake` events.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Release);
}

/// True while causal profiling is enabled.
#[inline]
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

const PAIR_BITS: u32 = 28;
const PAIR_MASK: u64 = (1 << PAIR_BITS) - 1;

/// Pack two ids into one 56-bit ring arg (28 bits each, `a` high).
/// Ids above 2^28 wrap; one run does not mint 268M invocations.
pub fn pack_pair(a: u64, b: u64) -> u64 {
    ((a & PAIR_MASK) << PAIR_BITS) | (b & PAIR_MASK)
}

/// Inverse of [`pack_pair`].
pub fn unpack_pair(arg: u64) -> (u64, u64) {
    ((arg >> PAIR_BITS) & PAIR_MASK, arg & PAIR_MASK)
}

#[derive(Debug, Default)]
struct InvData {
    segments: Vec<Segment>,
    start_ts: Option<u64>,
    stop_ts: Option<u64>,
    spawn_ts: Option<u64>,
    parent: Option<u64>,
    // Forward cursor for `exec_at`: phase 2 queries each invocation at
    // non-decreasing timestamps (global merge order), so prefix
    // execution sums amortize to O(segments) total.
    cursor_idx: usize,
    cursor_acc: u64,
}

impl InvData {
    /// Exclusive execution nanoseconds accumulated strictly before
    /// `ts`. Monotone in `ts` across calls (cursor-based).
    fn exec_at(&mut self, ts: u64) -> u64 {
        while let Some(seg) = self.segments.get(self.cursor_idx) {
            if seg.end > ts {
                break;
            }
            if seg.state == State::Exec {
                self.cursor_acc += seg.end - seg.start;
            }
            self.cursor_idx += 1;
        }
        let mut v = self.cursor_acc;
        if let Some(seg) = self.segments.get(self.cursor_idx) {
            if seg.state == State::Exec && seg.start < ts {
                v += ts - seg.start;
            }
        }
        v
    }

    fn exec_total(&self) -> u64 {
        self.segments.iter().filter(|s| s.state == State::Exec).map(|s| s.end - s.start).sum()
    }
}

/// Causal-edge counts by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeCounts {
    /// Parent invocation → child invocation (enqueue/chain/run).
    pub spawn: u64,
    /// Future bound to its producing invocation at creation.
    pub future: u64,
    /// Touch observed a resolved future and resumed.
    pub touch: u64,
    /// Contended lock acquisitions (wait begun).
    pub lock_wait: u64,
}

/// Where the realized critical path's nanoseconds went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathAttribution {
    /// Executing on a server.
    pub exec_ns: u64,
    /// Spawned but not yet started (scheduler queue time). This is
    /// the full spawn→start gap, so it charges *all* scheduler
    /// latency to the queue bucket — including time the task sat
    /// runnable while every server that could have taken it was
    /// parked (a missed or slow wakeup shows up here, not as exec).
    pub queue_ns: u64,
    /// Blocked on an unresolved future (includes wake latency).
    pub future_wait_ns: u64,
    /// Waiting for a contended location lock.
    pub lock_wait_ns: u64,
}

impl PathAttribution {
    /// Sum of all buckets.
    pub fn total_ns(&self) -> u64 {
        self.exec_ns + self.queue_ns + self.future_wait_ns + self.lock_wait_ns
    }
}

/// The reconstructed profile of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Distinct invocations observed (started or executed).
    pub invocations: usize,
    /// Total exclusive execution nanoseconds.
    pub work_ns: u64,
    /// Critical-path nanoseconds (longest causal chain). Always
    /// ≤ `work_ns`.
    pub span_ns: u64,
    /// Wall span of the run: first spawn/start to last stop.
    pub makespan_ns: u64,
    /// `work / span` — available parallelism; 1.0 for an empty run.
    pub parallelism: f64,
    /// Causal-edge counts by kind.
    pub edges: EdgeCounts,
    /// Realized critical-path attribution (backward walk from the
    /// last finisher; decomposes ≈ the makespan, not the span).
    pub critical_path: PathAttribution,
    /// Events lost to ring overflow, total across lanes.
    pub dropped_events: u64,
    /// Events lost to ring overflow, per lane.
    pub dropped_per_lane: Vec<u64>,
}

impl Profile {
    /// Reconstruct the causal profile from per-lane ring snapshots
    /// (index == lane, as returned by `Tracer::snapshot`).
    pub fn from_trace(snaps: &[RingSnapshot]) -> Profile {
        let mut invs: HashMap<u64, InvData> = HashMap::new();
        let mut edges = EdgeCounts::default();

        // Phase 1 — the per-lane sweep: each lane interval belongs to
        // the innermost open slice in its state. A helping touch nests
        // the helper's slice inside the toucher's FutureWait, so the
        // helper's time lands on the helper — work stays exclusive.
        // Invocation 0 (ids not minted) is nobody's.
        let mut causal: Vec<(u64, usize, Event)> = Vec::new();
        for (lane, snap) in snaps.iter().enumerate() {
            let read = sweep(&snap.events);
            for s in read.slices.iter().filter(|s| s.inv != 0) {
                let d = invs.entry(s.inv).or_default();
                d.start_ts.get_or_insert(s.start);
                d.stop_ts = Some(s.end);
            }
            for seg in read.segments {
                let inv = read.slices[seg.slice].inv;
                if inv != 0 {
                    invs.entry(inv).or_default().segments.push(seg);
                }
            }
            // The causal events phase 2 replays.
            for e in &snap.events {
                match e.kind {
                    EventKind::LockWaitBegin => edges.lock_wait += 1,
                    EventKind::Spawn
                    | EventKind::BindFuture
                    | EventKind::FutureResolve
                    | EventKind::TouchWake => causal.push((e.ts_ns, lane, *e)),
                    _ => {}
                }
            }
        }
        for d in invs.values_mut() {
            // Keep each invocation's segments time-ordered, whatever
            // lanes they were gathered from.
            d.segments.sort_by_key(|s| s.start);
        }

        // Phase 2 — span DP over the merged, timestamp-ordered causal
        // events. Ring timestamps are strictly increasing per lane;
        // cross-lane ties break by lane index.
        causal.sort_by_key(|&(ts, lane, _)| (ts, lane));

        let mut base_cp: HashMap<u64, u64> = HashMap::new();
        let mut boost: HashMap<u64, u64> = HashMap::new();
        let mut producer_of: HashMap<u64, u64> = HashMap::new();
        let mut resolve_cp: HashMap<u64, u64> = HashMap::new();
        let mut resolve_ts: HashMap<u64, u64> = HashMap::new();

        let cp_at = |invs: &mut HashMap<u64, InvData>,
                     base: &HashMap<u64, u64>,
                     boost: &HashMap<u64, u64>,
                     inv: u64,
                     ts: u64|
         -> u64 {
            if inv == 0 {
                return 0;
            }
            let b = base.get(&inv).copied().unwrap_or(0) + boost.get(&inv).copied().unwrap_or(0);
            match invs.get_mut(&inv) {
                Some(d) => b + d.exec_at(ts),
                None => b,
            }
        };

        for &(ts, _lane, e) in &causal {
            match e.kind {
                EventKind::Spawn => {
                    let (parent, child) = unpack_pair(e.arg);
                    let cp = cp_at(&mut invs, &base_cp, &boost, parent, ts);
                    base_cp.insert(child, cp);
                    let d = invs.entry(child).or_default();
                    d.spawn_ts = Some(ts);
                    d.parent = Some(parent);
                    edges.spawn += 1;
                }
                EventKind::BindFuture => {
                    let (producer, fid) = unpack_pair(e.arg);
                    producer_of.insert(fid, producer);
                    edges.future += 1;
                }
                EventKind::FutureResolve => {
                    // Resolution is recorded after the producer's
                    // slice ends, so its critical path is final here.
                    let cp = producer_of
                        .get(&e.arg)
                        .map(|&p| cp_at(&mut invs, &base_cp, &boost, p, ts))
                        .unwrap_or(0);
                    resolve_cp.insert(e.arg, cp);
                    resolve_ts.insert(e.arg, ts);
                }
                EventKind::TouchWake => {
                    let (toucher, fid) = unpack_pair(e.arg);
                    let cur = cp_at(&mut invs, &base_cp, &boost, toucher, ts);
                    if let Some(&rc) = resolve_cp.get(&fid) {
                        if rc > cur {
                            *boost.entry(toucher).or_insert(0) += rc - cur;
                        }
                    }
                    edges.touch += 1;
                }
                _ => {}
            }
        }
        // An invocation's length is final at its stop: its spawn and
        // every wake that boosted it came before.
        let span = (invs.iter().filter(|(_, d)| d.stop_ts.is_some()))
            .map(|(inv, d)| {
                base_cp.get(inv).unwrap_or(&0) + boost.get(inv).unwrap_or(&0) + d.exec_total()
            })
            .max()
            .unwrap_or(0);

        // Phase 3 — realized critical-path attribution: walk backward
        // from the last invocation to finish, following the blocking
        // structure (future waits jump to the producer's stop, the
        // invocation's start jumps to the parent at spawn time).
        let critical_path = attribute_path(&invs, &producer_of, &resolve_ts);

        let work_ns: u64 = invs.values().map(InvData::exec_total).sum();
        let invocations =
            invs.values().filter(|d| d.start_ts.is_some() || !d.segments.is_empty()).count();
        let first = invs.values().flat_map(|d| d.spawn_ts.into_iter().chain(d.start_ts)).min();
        let last = invs.values().filter_map(|d| d.stop_ts).max();
        let makespan_ns = match (first, last) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        };
        let parallelism = if span == 0 { 1.0 } else { work_ns as f64 / span as f64 };

        let dropped_per_lane: Vec<u64> = snaps.iter().map(|s| s.dropped).collect();
        Profile {
            invocations,
            work_ns,
            span_ns: span,
            makespan_ns,
            parallelism,
            edges,
            critical_path,
            dropped_events: dropped_per_lane.iter().sum(),
            dropped_per_lane,
        }
    }

    /// The profile as a versioned JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema", SCHEMA_PROFILE)
            .set("invocations", self.invocations)
            .set("work_ns", self.work_ns)
            .set("span_ns", self.span_ns)
            .set("makespan_ns", self.makespan_ns)
            .set("parallelism", self.parallelism)
            .set(
                "edges",
                Json::obj()
                    .set("spawn", self.edges.spawn)
                    .set("future", self.edges.future)
                    .set("touch", self.edges.touch)
                    .set("lock_wait", self.edges.lock_wait),
            )
            .set(
                "critical_path",
                Json::obj()
                    .set("exec_ns", self.critical_path.exec_ns)
                    .set("queue_ns", self.critical_path.queue_ns)
                    .set("future_wait_ns", self.critical_path.future_wait_ns)
                    .set("lock_wait_ns", self.critical_path.lock_wait_ns),
            )
            .set("dropped_events", self.dropped_events)
            .set(
                "dropped_per_lane",
                Json::Arr(self.dropped_per_lane.iter().map(|&d| d.into()).collect()),
            )
    }
}

fn attribute_path(
    invs: &HashMap<u64, InvData>,
    producer_of: &HashMap<u64, u64>,
    resolve_ts: &HashMap<u64, u64>,
) -> PathAttribution {
    let mut attr = PathAttribution::default();
    let start = invs.iter().filter_map(|(&inv, d)| d.stop_ts.map(|t| (t, inv))).max();
    let (mut t, mut inv) = match start {
        Some(s) => s,
        None => return attr,
    };
    // Every jump strictly decreases `t`; the counter is a backstop
    // against malformed traces (overflowed rings, clock anomalies).
    let total_segments: usize = invs.values().map(|d| d.segments.len()).sum();
    let mut budget = total_segments + invs.len() * 2 + 16;
    'walk: loop {
        if budget == 0 {
            break;
        }
        budget -= 1;
        let d = match invs.get(&inv) {
            Some(d) => d,
            None => break,
        };
        let mut idx = d.segments.partition_point(|s| s.start < t);
        while idx > 0 {
            idx -= 1;
            let seg = d.segments[idx];
            // `t` to `seg.start` covers the segment plus any gap above
            // it (a nested helper ran there); the gap inherits the
            // segment's state — the invocation was in it the whole
            // time.
            let hi = t;
            match seg.state {
                State::Exec => attr.exec_ns += hi - seg.start,
                State::LockWait(_) => attr.lock_wait_ns += hi - seg.start,
                State::FutureWait(fid) => {
                    let producer_stop = producer_of
                        .get(&fid)
                        .filter(|_| resolve_ts.contains_key(&fid))
                        .and_then(|p| invs.get(p).map(|pd| (*p, pd.stop_ts)));
                    if let Some((producer, Some(stop_p))) = producer_stop {
                        if stop_p < hi && producer != inv {
                            // The wait ended because the producer
                            // finished: charge the tail to future
                            // wait and follow the edge.
                            attr.future_wait_ns += hi - stop_p;
                            inv = producer;
                            t = stop_p;
                            continue 'walk;
                        }
                    }
                    attr.future_wait_ns += hi - seg.start;
                }
            }
            t = seg.start;
        }
        // Reached the invocation's start: charge queue time and
        // follow the spawn edge to the parent.
        match (d.parent.filter(|&p| p != 0), d.spawn_ts) {
            (Some(parent), Some(spawn)) if spawn < t && invs.contains_key(&parent) => {
                attr.queue_ns += t - spawn;
                inv = parent;
                t = spawn;
            }
            (_, Some(spawn)) if spawn < t => {
                // Root invocation: its queue wait still precedes
                // everything on the path.
                attr.queue_ns += t - spawn;
                break;
            }
            _ => break,
        }
    }
    attr
}

/// Total ring-overflow drops across lane snapshots.
pub fn dropped_total(snaps: &[RingSnapshot]) -> u64 {
    snaps.iter().map(|s| s.dropped).sum()
}

/// The `trace` section for `curare-report/1`: per-lane and total
/// dropped counts, so reports built from truncated rings say so.
pub fn trace_health_section(snaps: &[RingSnapshot]) -> Json {
    Json::obj()
        .set("dropped_events", dropped_total(snaps))
        .set("dropped_per_lane", Json::Arr(snaps.iter().map(|s| s.dropped.into()).collect()))
}

/// One-line stderr warning when any lane overflowed, naming the
/// consumer (`"profile"`, `"trace export"`, ...). Silent when clean.
pub fn warn_if_dropped(snaps: &[RingSnapshot], context: &str) {
    let total = dropped_total(snaps);
    if total > 0 {
        let per: Vec<String> = snaps.iter().map(|s| s.dropped.to_string()).collect();
        eprintln!(
            "warning: trace rings dropped {total} events (per lane: [{}]); {context} numbers undercount — raise the ring capacity",
            per.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, kind: EventKind, arg: u64) -> Event {
        Event { ts_ns, kind, arg }
    }

    fn snap(events: Vec<Event>) -> RingSnapshot {
        RingSnapshot { events, dropped: 0 }
    }

    #[test]
    fn pair_packing_round_trips() {
        for &(a, b) in &[(0u64, 0u64), (1, 2), (7, 1 << 27), (PAIR_MASK, PAIR_MASK)] {
            assert_eq!(unpack_pair(pack_pair(a, b)), (a, b));
        }
        // High bits drop, low 28 survive.
        assert_eq!(unpack_pair(pack_pair(PAIR_MASK + 3, 5)), (2, 5));
    }

    #[test]
    fn spawn_start_pairing_sequential_chain() {
        // External lane spawns inv 1; lane 1 runs it 100ns; inv 1
        // spawns inv 2 mid-run; lane 2 runs it 50ns after a queue
        // wait. Work 150, span 150 (pure chain: 2 starts after 1's
        // spawn point... spawned at 1's 40ns mark, so span =
        // 40 + 50 = 90? No — spawn copies the parent's cp at spawn
        // time (40), child adds its own 50 → 90; but inv 1's own stop
        // reaches 100. Span = max(100, 90) = 100.
        let external = snap(vec![ev(10, EventKind::Spawn, pack_pair(0, 1))]);
        let lane1 = snap(vec![
            ev(20, EventKind::TaskStart, pack_pair(0, 1)),
            ev(60, EventKind::Spawn, pack_pair(1, 2)),
            ev(120, EventKind::TaskStop, pack_pair(0, 1)),
        ]);
        let lane2 = snap(vec![
            ev(150, EventKind::TaskStart, pack_pair(0, 2)),
            ev(200, EventKind::TaskStop, pack_pair(0, 2)),
        ]);
        let p = Profile::from_trace(&[external, lane1, lane2]);
        assert_eq!(p.invocations, 2);
        assert_eq!(p.work_ns, 150);
        // inv 1: 100 exec. inv 2: base 40 (parent exec at spawn) + 50.
        assert_eq!(p.span_ns, 100);
        assert!(p.span_ns <= p.work_ns);
        assert_eq!(p.edges.spawn, 2);
        // Realized path: inv 2 stops last → 50 exec + 90 queue
        // (150-60) + parent exec 40 + parent queue 10 (20-10).
        assert_eq!(p.critical_path.exec_ns, 90);
        assert_eq!(p.critical_path.queue_ns, 100);
        assert_eq!(p.makespan_ns, 190);
        assert!(p.parallelism >= 1.0);
    }

    #[test]
    fn block_resolve_pairing_charges_future_wait() {
        // inv 1 (producer, future 9) runs 100ns on lane 1. inv 2
        // touches future 9 at t=30, blocks until the resolve at
        // t=125, wakes at t=130, runs 20ns more.
        let external = snap(vec![
            ev(1, EventKind::Spawn, pack_pair(0, 1)),
            ev(2, EventKind::BindFuture, pack_pair(1, 9)),
            ev(3, EventKind::Spawn, pack_pair(0, 2)),
        ]);
        let lane1 = snap(vec![
            ev(20, EventKind::TaskStart, pack_pair(0, 1)),
            ev(120, EventKind::TaskStop, pack_pair(0, 1)),
            ev(125, EventKind::FutureResolve, 9),
        ]);
        let lane2 = snap(vec![
            ev(10, EventKind::TaskStart, pack_pair(0, 2)),
            ev(30, EventKind::FutureBlock, 9),
            ev(130, EventKind::TouchWake, pack_pair(2, 9)),
            ev(150, EventKind::TaskStop, pack_pair(0, 2)),
        ]);
        let p = Profile::from_trace(&[external, lane1, lane2]);
        // Work: inv1 100 + inv2 (20 pre-block + 20 post-wake) = 140.
        assert_eq!(p.work_ns, 140);
        // Span: producer chain 100, toucher boosted to producer's 100
        // at wake + 20 after = 120.
        assert_eq!(p.span_ns, 120);
        assert!(p.span_ns <= p.work_ns);
        assert_eq!(p.edges.future, 1);
        assert_eq!(p.edges.touch, 1);
        // Realized path from inv 2's stop at 150: 20 exec back to the
        // wake... the FutureWait segment jumps to the producer's stop
        // (120): future_wait 130-120=10 then the wake-to-stop exec 20,
        // then producer exec 100, producer queue 20-1=19.
        assert_eq!(p.critical_path.exec_ns, 120);
        assert_eq!(p.critical_path.future_wait_ns, 10);
        assert_eq!(p.critical_path.queue_ns, 19);
    }

    #[test]
    fn interleaved_lanes_stay_exclusive() {
        // Touch-helping: inv 1 blocks on future 5 and helps by
        // running inv 2 nested on the same lane. The helper's exec
        // must not count toward inv 1.
        let external = snap(vec![
            ev(1, EventKind::Spawn, pack_pair(0, 1)),
            ev(2, EventKind::Spawn, pack_pair(0, 2)),
            ev(3, EventKind::BindFuture, pack_pair(2, 5)),
        ]);
        let lane1 = snap(vec![
            ev(10, EventKind::TaskStart, pack_pair(0, 1)),
            ev(20, EventKind::FutureBlock, 5),
            ev(25, EventKind::TaskStart, pack_pair(0, 2)), // helping: runs the producer itself
            ev(75, EventKind::TaskStop, pack_pair(0, 2)),
            ev(76, EventKind::FutureResolve, 5),
            ev(80, EventKind::TouchWake, pack_pair(1, 5)),
            ev(100, EventKind::TaskStop, pack_pair(0, 1)),
        ]);
        let p = Profile::from_trace(&[external, lane1]);
        // inv 1: 10 exec before block + 20 after wake; inv 2: 50.
        assert_eq!(p.work_ns, 80);
        // Span: inv 2's 50 at wake, +20 inv 1 after = 70.
        assert_eq!(p.span_ns, 70);
        assert!(p.span_ns <= p.work_ns);
        // Realized: exec 20 (post-wake) + future_wait 80-75=5 + inv 2
        // exec 50 + inv 2 queue 25-2=23.
        assert_eq!(p.critical_path.exec_ns, 70);
        assert_eq!(p.critical_path.future_wait_ns, 5);
        assert_eq!(p.critical_path.queue_ns, 23);
    }

    #[test]
    fn overflowed_ring_degrades_gracefully() {
        // A TaskStop whose TaskStart fell off the ring, plus a nonzero
        // dropped count: no panic, drops surfaced, invariant holds.
        let lane = RingSnapshot {
            events: vec![
                ev(50, EventKind::TaskStop, pack_pair(0, 7)),
                ev(60, EventKind::TaskStart, pack_pair(0, 8)),
                ev(90, EventKind::TaskStop, pack_pair(0, 8)),
            ],
            dropped: 123,
        };
        let p = Profile::from_trace(&[lane]);
        assert_eq!(p.dropped_events, 123);
        assert_eq!(p.dropped_per_lane, vec![123]);
        assert_eq!(p.work_ns, 30);
        assert!(p.span_ns <= p.work_ns);
        assert!(p.parallelism >= 1.0);
        let j = p.to_json();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(SCHEMA_PROFILE));
        assert_eq!(j.get("dropped_events").unwrap().as_u64(), Some(123));
    }

    #[test]
    fn lock_wait_segments_attributed() {
        let external = snap(vec![ev(1, EventKind::Spawn, pack_pair(0, 1))]);
        let lane1 = snap(vec![
            ev(10, EventKind::TaskStart, pack_pair(0, 1)),
            ev(20, EventKind::LockWaitBegin, 42),
            ev(70, EventKind::LockWaitEnd, 50),
            ev(100, EventKind::TaskStop, pack_pair(0, 1)),
        ]);
        let p = Profile::from_trace(&[external, lane1]);
        assert_eq!(p.work_ns, 40, "lock wait is not execution");
        assert_eq!(p.edges.lock_wait, 1);
        assert_eq!(p.critical_path.lock_wait_ns, 50);
        assert_eq!(p.critical_path.exec_ns, 40);
        assert_eq!(p.critical_path.queue_ns, 9);
    }

    #[test]
    fn empty_trace_is_identity() {
        let p = Profile::from_trace(&[snap(vec![])]);
        assert_eq!(p.work_ns, 0);
        assert_eq!(p.span_ns, 0);
        assert_eq!(p.parallelism, 1.0);
        assert_eq!(p.invocations, 0);
    }

    // Deterministic linear-congruential generator: the workspace has
    // no proptest dependency, so the "random DAGs" property test
    // drives a tiny scheduler simulation from seeded LCG draws.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// Simulate a random spawn-tree schedule over `lanes` lanes and
    /// return per-lane event streams consistent with how the runtime
    /// records them.
    fn random_dag_trace(seed: u64, lanes: usize) -> Vec<RingSnapshot> {
        let mut rng = Lcg(seed);
        let mut lane_events: Vec<Vec<Event>> = vec![Vec::new(); lanes + 1];
        let mut lane_free_at: Vec<u64> = vec![0; lanes + 1];
        let mut next_inv = 1u64;
        let mut next_future = 1u64;
        // (inv, spawn_ts, future produced by this inv, if any)
        let mut ready: Vec<(u64, u64, Option<u64>)> = Vec::new();
        // future id -> resolve_ts (resolved futures only)
        let mut resolved: Vec<(u64, u64)> = Vec::new();

        // Root spawns 1-4 children from the external lane.
        let roots = 1 + rng.below(4);
        let mut ts = 1u64;
        for _ in 0..roots {
            let inv = next_inv;
            next_inv += 1;
            lane_events[0].push(ev(ts, EventKind::Spawn, pack_pair(0, inv)));
            let fut = if rng.below(2) == 0 {
                let f = next_future;
                next_future += 1;
                lane_events[0].push(ev(ts + 1, EventKind::BindFuture, pack_pair(inv, f)));
                Some(f)
            } else {
                None
            };
            ready.push((inv, ts, fut));
            ts += 3;
        }

        let mut executed = 0;
        while let Some((inv, spawn_ts, fut)) = ready.pop() {
            executed += 1;
            if executed > 64 {
                break;
            }
            // Pick the lane that frees earliest; start after both the
            // lane frees and the spawn happened.
            let lane = (1..=lanes).min_by_key(|&l| lane_free_at[l]).unwrap();
            let mut t = lane_free_at[lane].max(spawn_ts) + 1 + rng.below(20);
            lane_events[lane].push(ev(t, EventKind::TaskStart, pack_pair(0, inv)));
            // Execute in 1-3 bursts; between bursts maybe spawn a
            // child, wait a lock, or touch an already-resolved future.
            let bursts = 1 + rng.below(3);
            for _ in 0..bursts {
                t += 1 + rng.below(200);
                match rng.below(4) {
                    0 if executed + ready.len() < 48 => {
                        let child = next_inv;
                        next_inv += 1;
                        lane_events[lane].push(ev(t, EventKind::Spawn, pack_pair(inv, child)));
                        let cf = if rng.below(3) == 0 {
                            let f = next_future;
                            next_future += 1;
                            lane_events[lane].push(ev(
                                t + 1,
                                EventKind::BindFuture,
                                pack_pair(child, f),
                            ));
                            t += 1;
                            Some(f)
                        } else {
                            None
                        };
                        ready.push((child, t, cf));
                        // LIFO vs FIFO scheduling, randomly.
                        if rng.below(2) == 0 {
                            let n = ready.len();
                            ready.swap(0, n - 1);
                        }
                    }
                    1 => {
                        lane_events[lane].push(ev(t, EventKind::LockWaitBegin, 7));
                        t += 1 + rng.below(50);
                        lane_events[lane].push(ev(t, EventKind::LockWaitEnd, 0));
                    }
                    2 if !resolved.is_empty() => {
                        let (f, rts) = resolved[rng.below(resolved.len() as u64) as usize];
                        lane_events[lane].push(ev(t, EventKind::FutureBlock, f));
                        t = t.max(rts) + 1 + rng.below(10);
                        lane_events[lane].push(ev(t, EventKind::TouchWake, pack_pair(inv, f)));
                    }
                    _ => {}
                }
            }
            t += 1 + rng.below(100);
            lane_events[lane].push(ev(t, EventKind::TaskStop, pack_pair(0, inv)));
            if let Some(f) = fut {
                t += 1;
                lane_events[lane].push(ev(t, EventKind::FutureResolve, f));
                resolved.push((f, t));
            }
            lane_free_at[lane] = t;
        }

        lane_events
            .into_iter()
            .map(|mut evs| {
                // Ring timestamps are strictly increasing per lane.
                evs.sort_by_key(|e| e.ts_ns);
                let mut last = 0;
                for e in &mut evs {
                    if e.ts_ns <= last {
                        e.ts_ns = last + 1;
                    }
                    last = e.ts_ns;
                }
                snap(evs)
            })
            .collect()
    }

    #[test]
    fn property_span_at_most_work_on_random_dags() {
        for seed in 0..100u64 {
            let lanes = 1 + (seed as usize % 4);
            let trace = random_dag_trace(seed * 2654435761 + 1, lanes);
            let p = Profile::from_trace(&trace);
            assert!(p.span_ns <= p.work_ns, "seed {seed}: span {} > work {}", p.span_ns, p.work_ns);
            assert!(p.parallelism >= 1.0, "seed {seed}: parallelism {}", p.parallelism);
            assert!(p.work_ns > 0, "seed {seed}: generator produced no work");
            // The realized path never exceeds first-spawn→last-stop.
            assert!(
                p.critical_path.total_ns() <= p.makespan_ns,
                "seed {seed}: path {} > makespan {}",
                p.critical_path.total_ns(),
                p.makespan_ns
            );
        }
    }

    #[test]
    fn timeline_busy_integral_cross_checks_profiler_work() {
        use crate::timeline::Timeline;
        // The concurrency timeline (outermost slices) and the profiler
        // (exclusive execution) read the same sweep. When no task nests
        // and nothing waits, the timeline's busy integral — mean
        // concurrency × active span — must equal the profiler's work
        // exactly.
        let external = snap(vec![
            ev(1, EventKind::Spawn, pack_pair(0, 1)),
            ev(2, EventKind::Spawn, pack_pair(0, 2)),
            ev(3, EventKind::Spawn, pack_pair(0, 3)),
        ]);
        let lane1 = snap(vec![
            ev(100, EventKind::TaskStart, pack_pair(0, 1)),
            ev(200, EventKind::TaskStop, pack_pair(0, 1)),
            ev(250, EventKind::TaskStart, pack_pair(0, 3)),
            ev(400, EventKind::TaskStop, pack_pair(0, 3)),
        ]);
        let lane2 = snap(vec![
            ev(150, EventKind::TaskStart, pack_pair(0, 2)),
            ev(300, EventKind::TaskStop, pack_pair(0, 2)),
        ]);
        let snaps = vec![external, lane1, lane2];
        let p = Profile::from_trace(&snaps);
        let tl = Timeline::from_trace(&snaps);
        assert_eq!(p.work_ns, 400);
        assert_eq!(p.span_ns, 150, "longest single chain (no causal edges between tasks)");
        let active = tl.points.last().unwrap().0 - tl.points.first().unwrap().0;
        let busy_integral = (tl.mean_concurrency * active as f64).round() as u64;
        assert_eq!(busy_integral, p.work_ns, "timeline and profiler disagree on busy ns");
        assert_eq!(tl.peak_concurrency, 2);
    }

    #[test]
    fn profiling_flag_toggles() {
        let _g = crate::sanitize::tests::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!profiling_enabled());
        set_profiling(true);
        assert!(profiling_enabled());
        set_profiling(false);
        assert!(!profiling_enabled());
    }

    #[test]
    fn trace_health_reports_drops() {
        let clean = snap(vec![]);
        let lossy = RingSnapshot { events: vec![], dropped: 9 };
        let j = trace_health_section(&[clean, lossy]);
        assert_eq!(j.get("dropped_events").unwrap().as_u64(), Some(9));
        assert_eq!(j.get("dropped_per_lane").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(dropped_total(&[]), 0);
    }
}
