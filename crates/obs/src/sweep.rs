//! One reading of a lane's invocation brackets (`TaskStart`/`TaskStop`,
//! `arg` = [`crate::pack_pair`]`(fid, inv)`): which invocation ran at
//! each instant, nested in which, executing or waiting. The timeline
//! ([`crate::Timeline::from_trace`]), the Chrome export
//! ([`crate::chrome::chrome_trace`]) and phase 1 of the causal profiler
//! ([`crate::Profile::from_trace`]) all read [`sweep`]'s answer.
//! Brackets pair with a stack: a helping `touch` runs tasks inside the
//! toucher's task on the same lane, so slices nest but never overlap.
//!
//! **Overflow.** The ring overwrites its oldest events first, so a
//! bracket it lost is always a start. A slice is clipped to the window
//! the ring holds: a stop whose start was lost opens at the lane's
//! first event, and a start still open at the snapshot closes at the
//! lane's last event.
//!
//! **Lane 0.** Pairing assumes one writer per lane. Every thread that
//! never calls [`crate::set_lane`] shares lane 0, so its slices mean
//! something only while one such thread runs tasks (a helping `touch`
//! outside a pool, such as a pool owner's).

use crate::event::{Event, EventKind};
use crate::profile::unpack_pair;

/// What the innermost open slice was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    /// Executing its body.
    Exec,
    /// Waiting for a contended lock (location hash).
    LockWait(u64),
    /// Waiting for, or helping to resolve, a future (future id).
    FutureWait(u64),
}

/// One invocation's bracket on a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slice {
    /// Start, clipped to the lane's first event.
    pub(crate) start: u64,
    /// End, clipped to the lane's last event.
    pub(crate) end: u64,
    /// Function id.
    pub(crate) fid: u64,
    /// Invocation id (0 unless the journal or the profiler minted ids).
    pub(crate) inv: u64,
    /// Index of the slice this one ran nested in (a helping touch).
    pub(crate) enclosing: Option<usize>,
}

/// A stretch of the lane during which `slice` was the innermost open
/// slice, in `state`. Segments do not overlap; together with the
/// slices nested in it they cover each slice exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    /// Start, ns.
    pub(crate) start: u64,
    /// End, ns.
    pub(crate) end: u64,
    /// Index into [`Lane::slices`].
    pub(crate) slice: usize,
    /// What the slice was doing.
    pub(crate) state: State,
}

/// One lane, read: its slices in start order (an enclosing slice
/// before the slices nested in it) and their state segments in time
/// order.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Lane {
    /// Invocation brackets.
    pub(crate) slices: Vec<Slice>,
    /// State segments.
    pub(crate) segments: Vec<Segment>,
}

/// True for the kinds that open or close a duration [`sweep`] reads: a
/// task's bracket and a lock wait.
pub(crate) fn brackets(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::TaskStart
            | EventKind::TaskStop
            | EventKind::LockWaitBegin
            | EventKind::LockWaitEnd
    )
}

/// Read one lane's events (strictly time-ordered, as a
/// [`crate::RingSnapshot`] holds them); see the module docs.
pub(crate) fn sweep(events: &[Event]) -> Lane {
    let (Some(first), Some(last)) = (events.first(), events.last()) else {
        return Lane::default();
    };
    let mut lane = Lane::default();
    let mut stack: Vec<(usize, State)> = Vec::new();
    // A slice ends at the lane's last event until its stop is read.
    let open = |lane: &mut Lane, stack: &mut Vec<(usize, State)>, start: u64, arg: u64| {
        let ((fid, inv), enclosing) = (unpack_pair(arg), stack.last().map(|&(i, _)| i));
        stack.push((lane.slices.len(), State::Exec));
        lane.slices.push(Slice { start, end: last.ts_ns, fid, inv, enclosing });
    };
    // The stops whose starts the ring lost, innermost first: their
    // slices are open at the lane's first event, outermost at the
    // bottom of the stack.
    let mut depth = 0usize;
    let mut lost = Vec::new();
    for e in events {
        match e.kind {
            EventKind::TaskStart => depth += 1,
            EventKind::TaskStop if depth == 0 => lost.push(e.arg),
            EventKind::TaskStop => depth -= 1,
            _ => {}
        }
    }
    for &arg in lost.iter().rev() {
        open(&mut lane, &mut stack, first.ts_ns, arg);
    }
    let mut at = first.ts_ns;
    for e in events {
        if let Some(&(slice, state)) = stack.last() {
            if e.ts_ns > at {
                match lane.segments.last_mut() {
                    Some(s) if s.end == at && s.slice == slice && s.state == state => {
                        s.end = e.ts_ns
                    }
                    _ => lane.segments.push(Segment { start: at, end: e.ts_ns, slice, state }),
                }
            }
        }
        at = e.ts_ns;
        let next = match e.kind {
            EventKind::TaskStart => {
                open(&mut lane, &mut stack, e.ts_ns, e.arg);
                continue;
            }
            EventKind::TaskStop => {
                let (slice, _) = stack.pop().expect("a lost start is open from the first event");
                lane.slices[slice].end = e.ts_ns;
                continue;
            }
            EventKind::LockWaitBegin => State::LockWait(e.arg),
            EventKind::FutureBlock => State::FutureWait(e.arg),
            EventKind::LockWaitEnd | EventKind::TouchWake => State::Exec,
            _ => continue,
        };
        if let Some((_, state)) = stack.last_mut() {
            *state = next;
        }
    }
    lane
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::chrome_trace;
    use crate::json::Json;
    use crate::profile::{pack_pair, Profile};
    use crate::ring::RingSnapshot;
    use crate::timeline::Timeline;

    fn ev(ts_ns: u64, kind: EventKind, arg: u64) -> Event {
        Event { ts_ns, kind, arg }
    }

    fn slice(start: u64, end: u64, fid: u64, inv: u64, enclosing: Option<usize>) -> Slice {
        Slice { start, end, fid, inv, enclosing }
    }

    /// The Chrome document's `task` slices as `(ts, end, fid)`, µs.
    fn chrome_tasks(doc: &Json) -> Vec<(f64, f64, u64)> {
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("task"))
            .map(|e| {
                let ts = e.get("ts").and_then(Json::as_f64).unwrap();
                let dur = e.get("dur").and_then(Json::as_f64).unwrap();
                (ts, ts + dur, e.get("args").unwrap().get("fid").and_then(Json::as_u64).unwrap())
            })
            .collect()
    }

    #[test]
    fn a_helping_touch_nests_in_every_reader() {
        // fid 7 (invocation 1) on [10, 40) runs fid 8 (invocation 2)
        // nested on [20, 30), as a helping touch does.
        let events = vec![
            ev(10, EventKind::TaskStart, pack_pair(7, 1)),
            ev(20, EventKind::TaskStart, pack_pair(8, 2)),
            ev(30, EventKind::TaskStop, pack_pair(8, 2)),
            ev(40, EventKind::TaskStop, pack_pair(7, 1)),
        ];
        let lane = sweep(&events);
        assert_eq!(lane.slices, [slice(10, 40, 7, 1, None), slice(20, 30, 8, 2, Some(0))]);
        let segments: Vec<_> = lane.segments.iter().map(|s| (s.start, s.end, s.slice)).collect();
        assert_eq!(segments, [(10, 20, 0), (20, 30, 1), (30, 40, 0)]);

        let snaps = [RingSnapshot { events, dropped: 0 }];
        let timeline = Timeline::from_trace(&snaps);
        assert_eq!(timeline.points, [(10, 1), (40, 0)], "busy over [10, 40)");
        let tasks = chrome_tasks(&chrome_trace(&snaps));
        let (outer, inner) = (tasks.iter().find(|t| t.2 == 7), tasks.iter().find(|t| t.2 == 8));
        let (outer, inner) = (outer.unwrap(), inner.unwrap());
        assert!(outer.0 <= inner.0 && inner.1 <= outer.1, "{tasks:?}");
        assert_eq!(Profile::from_trace(&snaps).work_ns, 30);
    }

    #[test]
    fn a_stop_whose_start_was_lost_opens_at_the_lanes_first_event() {
        // The ring lost fid 3's start and, inside it, fid 4's: both
        // were open when the window opened at 5.
        let events = vec![
            ev(5, EventKind::Enqueue, 0),
            ev(8, EventKind::TaskStop, pack_pair(4, 0)),
            ev(12, EventKind::TaskStart, pack_pair(5, 0)),
            ev(15, EventKind::TaskStop, pack_pair(5, 0)),
            ev(20, EventKind::TaskStop, pack_pair(3, 0)),
            ev(30, EventKind::TaskStart, pack_pair(6, 0)),
            ev(35, EventKind::TaskStop, pack_pair(6, 0)),
        ];
        let lane = sweep(&events);
        assert_eq!(
            lane.slices,
            [
                slice(5, 20, 3, 0, None),
                slice(5, 8, 4, 0, Some(0)),
                slice(12, 15, 5, 0, Some(0)),
                slice(30, 35, 6, 0, None),
            ]
        );
        let snaps = [RingSnapshot { events, dropped: 9 }];
        assert_eq!(Timeline::from_trace(&snaps).points, [(5, 1), (20, 0), (30, 1), (35, 0)]);
    }

    #[test]
    fn a_start_still_open_at_the_snapshot_closes_at_the_lanes_last_event() {
        let events = vec![
            ev(1, EventKind::TaskStart, pack_pair(2, 0)),
            ev(4, EventKind::LockWaitBegin, 77),
            ev(6, EventKind::LockWaitEnd, 2),
            ev(9, EventKind::Enqueue, 0),
        ];
        let lane = sweep(&events);
        assert_eq!(lane.slices, [slice(1, 9, 2, 0, None)]);
        let states: Vec<_> = lane.segments.iter().map(|s| (s.start, s.end, s.state)).collect();
        assert_eq!(
            states,
            [(1, 4, State::Exec), (4, 6, State::LockWait(77)), (6, 9, State::Exec)],
            "an event that changes nothing does not split a segment"
        );
        let snaps = [RingSnapshot { events, dropped: 0 }];
        assert_eq!(Timeline::from_trace(&snaps).points, [(1, 1), (9, 0)]);
    }

    #[test]
    fn an_empty_lane_reads_as_nothing() {
        assert_eq!(sweep(&[]), Lane::default());
        let idle = sweep(&[ev(3, EventKind::Park, 0), ev(4, EventKind::LockWaitEnd, 0)]);
        assert_eq!(idle, Lane::default(), "a state change outside any slice is nobody's");
    }
}
