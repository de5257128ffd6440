//! Chrome `trace_event` export.
//!
//! Converts per-lane ring snapshots into the JSON object format that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) open
//! directly, one track per server lane. Each slice the lane sweep
//! reads becomes a complete (`"X"`) `task` event (`args` = `{fid,
//! inv}`), nested as the tasks ran, with its lock and future waits as
//! `lock_wait` / `future_wait` events inside it: a task's self time is
//! its execution. Every other kind becomes a thread-scoped instant.
//! Timestamps are microseconds (the format's unit) as floats.
//!
//! When a trace was recorded under causal profiling
//! ([`crate::profile::set_profiling`]), the causal edges export as
//! **flow events** (`"s"`/`"f"` phases), which Perfetto draws as
//! arrows between slices: a `spawn` flow from the spawning site to the
//! start of the child's slice, and a `touch` flow from a future's
//! resolution to each touch that woke on it.

use crate::event::EventKind;
use crate::json::Json;
use crate::profile::unpack_pair;
use crate::report::SCHEMA_TRACE;
use crate::ring::RingSnapshot;
use crate::sweep::{self, State};

/// Flow-id namespace for future (resolve → wake) arrows, keeping them
/// disjoint from spawn arrows keyed by child invocation id.
const FUTURE_FLOW_BASE: u64 = 1 << 40;

fn us(ts_ns: u64) -> f64 {
    ts_ns as f64 / 1_000.0
}

fn complete(name: &str, lane: usize, start_ns: u64, end_ns: u64, args: Json) -> Json {
    Json::obj()
        .set("name", name)
        .set("ph", "X")
        .set("ts", us(start_ns))
        .set("dur", us(end_ns.saturating_sub(start_ns)))
        .set("pid", 1u64)
        .set("tid", lane)
        .set("args", args)
}

fn instant(name: &str, lane: usize, ts_ns: u64, arg: u64) -> Json {
    Json::obj()
        .set("name", name)
        .set("ph", "i")
        .set("ts", us(ts_ns))
        .set("pid", 1u64)
        .set("tid", lane)
        .set("s", "t")
        .set("args", Json::obj().set("arg", arg))
}

fn flow(name: &str, ph: &str, lane: usize, ts_ns: u64, id: u64) -> Json {
    let j = Json::obj()
        .set("name", name)
        .set("cat", "causal")
        .set("ph", ph)
        .set("id", id)
        .set("ts", us(ts_ns))
        .set("pid", 1u64)
        .set("tid", lane);
    // Bind the arrow head to the enclosing slice, not the next one.
    if ph == "f" {
        j.set("bp", "e")
    } else {
        j
    }
}

fn thread_name(lane: usize) -> Json {
    let name = if lane == 0 { "external".to_string() } else { format!("server-{}", lane - 1) };
    Json::obj()
        .set("name", "thread_name")
        .set("ph", "M")
        .set("pid", 1u64)
        .set("tid", lane)
        .set("args", Json::obj().set("name", name))
}

/// Export `snapshots` (index == lane) as one Chrome-trace document.
pub fn chrome_trace(snapshots: &[RingSnapshot]) -> Json {
    let mut events = Vec::new();
    let mut dropped_total = 0u64;
    for (lane, snap) in snapshots.iter().enumerate() {
        events.push(thread_name(lane));
        dropped_total += snap.dropped;
        let read = sweep::sweep(&snap.events);
        for s in &read.slices {
            let args = Json::obj().set("fid", s.fid).set("inv", s.inv);
            events.push(complete("task", lane, s.start, s.end, args));
            if s.inv != 0 {
                events.push(flow("spawn", "f", lane, s.start, s.inv));
            }
        }
        for seg in &read.segments {
            let (name, arg) = match seg.state {
                State::Exec => continue,
                State::LockWait(loc) => ("lock_wait", loc),
                State::FutureWait(id) => ("future_wait", id),
            };
            events.push(complete(name, lane, seg.start, seg.end, Json::obj().set("arg", arg)));
        }
        for e in &snap.events {
            match e.kind {
                kind if sweep::brackets(kind) => {}
                // Causal-profiling kinds: spawn → child slice and
                // resolve → wake become flow arrows; BindFuture is pure
                // metadata.
                EventKind::Spawn => {
                    let (_parent, child) = unpack_pair(e.arg);
                    events.push(flow("spawn", "s", lane, e.ts_ns, child));
                }
                EventKind::BindFuture => {}
                EventKind::FutureResolve => {
                    events.push(instant(e.kind.name(), lane, e.ts_ns, e.arg));
                    events.push(flow("touch", "s", lane, e.ts_ns, FUTURE_FLOW_BASE + e.arg));
                }
                EventKind::TouchWake => {
                    let (_toucher, fid) = unpack_pair(e.arg);
                    events.push(flow("touch", "f", lane, e.ts_ns, FUTURE_FLOW_BASE + fid));
                }
                kind => events.push(instant(kind.name(), lane, e.ts_ns, e.arg)),
            }
        }
    }
    Json::obj().set("traceEvents", Json::Arr(events)).set("displayTimeUnit", "ns").set(
        "otherData",
        Json::obj().set("schema", SCHEMA_TRACE).set("dropped_events", dropped_total),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::profile::pack_pair;

    fn snap(events: Vec<(u64, EventKind, u64)>, dropped: u64) -> RingSnapshot {
        RingSnapshot {
            events: events
                .into_iter()
                .map(|(ts_ns, kind, arg)| Event { ts_ns, kind, arg })
                .collect(),
            dropped,
        }
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let snaps = vec![
            snap(vec![(100, EventKind::Enqueue, 0)], 0),
            snap(
                vec![
                    (200, EventKind::TaskStart, pack_pair(7, 0)),
                    (250, EventKind::LockWaitBegin, 3),
                    (300, EventKind::LockWaitEnd, 50),
                    (400, EventKind::TaskStop, pack_pair(7, 0)),
                ],
                2,
            ),
        ];
        let doc = chrome_trace(&snaps);
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("chrome trace parses");
        assert_eq!(parsed, doc, "print → parse is the identity");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 thread_name metadata + 1 instant + task X + lock_wait X.
        assert_eq!(events.len(), 5);
        let other = parsed.get("otherData").unwrap();
        assert_eq!(other.get("dropped_events").unwrap().as_u64(), Some(2));
        assert_eq!(other.get("schema").unwrap().as_str(), Some(SCHEMA_TRACE));
    }

    #[test]
    fn tasks_become_complete_events_with_duration() {
        let (start, stop) = (EventKind::TaskStart, EventKind::TaskStop);
        let snaps =
            vec![snap(vec![(1_000, start, pack_pair(9, 4)), (3_500, stop, pack_pair(9, 4))], 0)];
        let doc = chrome_trace(&snaps);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let task = events.iter().find(|e| e.get("name").unwrap().as_str() == Some("task")).unwrap();
        assert_eq!(task.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(task.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(task.get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(task.get("tid").unwrap().as_u64(), Some(0));
        let args = task.get("args").unwrap();
        assert_eq!(args.get("fid").unwrap().as_u64(), Some(9));
        assert_eq!(args.get("inv").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn lanes_are_named_tracks() {
        let doc = chrome_trace(&[snap(vec![], 0), snap(vec![], 0)]);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["external", "server-0"]);
    }

    #[test]
    fn causal_edges_become_flow_arrows() {
        let snaps = vec![
            snap(vec![(5, EventKind::Spawn, pack_pair(0, 3))], 0),
            snap(
                vec![
                    (10, EventKind::TaskStart, pack_pair(7, 3)),
                    (40, EventKind::TaskStop, pack_pair(7, 3)),
                    (45, EventKind::FutureResolve, 9),
                ],
                0,
            ),
            snap(vec![(60, EventKind::TouchWake, pack_pair(4, 9))], 0),
        ];
        let doc = chrome_trace(&snaps);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let flows: Vec<(&str, &str, u64)> = events
            .iter()
            .filter(|e| matches!(e.get("ph").unwrap().as_str(), Some("s" | "f")))
            .map(|e| {
                (
                    e.get("name").unwrap().as_str().unwrap(),
                    e.get("ph").unwrap().as_str().unwrap(),
                    e.get("id").unwrap().as_u64().unwrap(),
                )
            })
            .collect();
        assert!(flows.contains(&("spawn", "s", 3)), "spawn start arrow: {flows:?}");
        assert!(flows.contains(&("spawn", "f", 3)), "spawn finish arrow: {flows:?}");
        assert!(flows.contains(&("touch", "s", super::FUTURE_FLOW_BASE + 9)));
        assert!(flows.contains(&("touch", "f", super::FUTURE_FLOW_BASE + 9)));
        // The finish end binds to the enclosing slice.
        let f = events.iter().find(|e| e.get("ph").unwrap().as_str() == Some("f")).unwrap();
        assert_eq!(f.get("bp").unwrap().as_str(), Some("e"));
        // Brackets are slices and BindFuture is metadata: no instants.
        assert!(!events.iter().any(|e| matches!(
            e.get("name").unwrap().as_str(),
            Some("task_start" | "task_stop" | "bind_future")
        )));
    }
}
