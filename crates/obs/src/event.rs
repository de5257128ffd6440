//! The trace event vocabulary.
//!
//! One variant per observable scheduler/heap transition; DESIGN.md's
//! Observability section is the authoritative prose description. The
//! set is closed on purpose — a stable vocabulary is what makes traces
//! comparable across PRs — and versioned through
//! [`crate::report::SCHEMA_TRACE`].

/// What happened. Packed into the ring as a `u8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A server began executing an invocation (`arg` = function id).
    TaskStart = 0,
    /// The invocation finished, successfully or not (`arg` = function
    /// id).
    TaskStop = 1,
    /// An invocation was submitted to the scheduler (`arg` = call
    /// site).
    Enqueue = 2,
    /// A singleton successor ran chained on its producing server,
    /// skipping the queues (`arg` = call site).
    Chain = 3,
    /// A batch of buffered successors was published under one
    /// notification (`arg` = batch size).
    BatchFlush = 4,
    /// A `touch` found its future unresolved and began waiting/helping
    /// (`arg` = future id).
    FutureBlock = 5,
    /// A future was resolved or failed (`arg` = future id).
    FutureResolve = 6,
    /// A lock acquisition found the location held and began waiting
    /// (`arg` = location hash).
    LockWaitBegin = 7,
    /// The contended acquisition completed (`arg` = wait nanoseconds).
    LockWaitEnd = 8,
    /// A heap arena refilled a thread-local allocation buffer
    /// (`arg` = slots reserved).
    TlabRefill = 9,
    /// The chaos harness injected a fault at a decision point
    /// (`arg` = decision-point code; see `curare_runtime::chaos`).
    FaultInjected = 10,
    /// A panicked retry-eligible task was requeued for another attempt
    /// (`arg` = function id).
    TaskRetry = 11,
    /// A server exhausted its retry budget (or hit a non-retryable
    /// panic) and left the pool (`arg` = servers still alive).
    ServerPoisoned = 12,
    /// The pool collapsed below its floor and fell back to sequential
    /// draining on the caller thread (`arg` = servers still alive).
    Degraded = 13,
    /// The current invocation spawned a child invocation (`arg` =
    /// parent and child invocation ids, [`crate::profile::pack_pair`]).
    /// Recorded only while causal profiling (or the access journal) assigns
    /// nonzero invocation ids.
    Spawn = 14,
    /// A server began executing invocation `arg` (the causal twin of
    /// [`EventKind::TaskStart`], whose `arg` is the function id).
    InvStart = 15,
    /// Invocation `arg` finished (the causal twin of
    /// [`EventKind::TaskStop`]).
    InvStop = 16,
    /// A freshly spawned invocation will resolve a future (`arg` =
    /// producer invocation id and future id, packed).
    BindFuture = 17,
    /// A touch observed its future resolved and resumed (`arg` =
    /// toucher invocation id and future id, packed).
    TouchWake = 18,
    /// An idle server stole work from a victim's site group (`arg` =
    /// the stolen task's call site).
    Steal = 19,
    /// A server found no runnable or stealable work and parked on its
    /// per-server condvar (`arg` = server index).
    Park = 20,
    /// A parked server woke — notified by a publisher or by the
    /// backstop timeout (`arg` = server index).
    Unpark = 21,
    /// The speculation validator committed an optimistically executed
    /// invocation: its logged accesses were consistent with the
    /// sequential order (`arg` = invocation id).
    SpecCommit = 22,
    /// The validator observed a cross-invocation conflict that
    /// contradicts sequential order and aborted the sequentially later
    /// invocation, undoing its journaled writes (`arg` = invocation
    /// id).
    SpecAbort = 23,
    /// An aborted invocation was re-executed after its conflictor
    /// (`arg` = invocation id).
    SpecReplay = 24,
}

/// Number of distinct kinds (for per-kind count tables).
pub const KIND_COUNT: usize = 25;

impl EventKind {
    /// The stable wire name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TaskStart => "task_start",
            EventKind::TaskStop => "task_stop",
            EventKind::Enqueue => "enqueue",
            EventKind::Chain => "chain",
            EventKind::BatchFlush => "batch_flush",
            EventKind::FutureBlock => "future_block",
            EventKind::FutureResolve => "future_resolve",
            EventKind::LockWaitBegin => "lock_wait_begin",
            EventKind::LockWaitEnd => "lock_wait_end",
            EventKind::TlabRefill => "tlab_refill",
            EventKind::FaultInjected => "fault_injected",
            EventKind::TaskRetry => "task_retry",
            EventKind::ServerPoisoned => "server_poisoned",
            EventKind::Degraded => "degraded",
            EventKind::Spawn => "spawn",
            EventKind::InvStart => "inv_start",
            EventKind::InvStop => "inv_stop",
            EventKind::BindFuture => "bind_future",
            EventKind::TouchWake => "touch_wake",
            EventKind::Steal => "steal",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::SpecCommit => "spec_commit",
            EventKind::SpecAbort => "spec_abort",
            EventKind::SpecReplay => "spec_replay",
        }
    }

    /// Decode a packed kind byte; `None` for out-of-range values.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => EventKind::TaskStart,
            1 => EventKind::TaskStop,
            2 => EventKind::Enqueue,
            3 => EventKind::Chain,
            4 => EventKind::BatchFlush,
            5 => EventKind::FutureBlock,
            6 => EventKind::FutureResolve,
            7 => EventKind::LockWaitBegin,
            8 => EventKind::LockWaitEnd,
            9 => EventKind::TlabRefill,
            10 => EventKind::FaultInjected,
            11 => EventKind::TaskRetry,
            12 => EventKind::ServerPoisoned,
            13 => EventKind::Degraded,
            14 => EventKind::Spawn,
            15 => EventKind::InvStart,
            16 => EventKind::InvStop,
            17 => EventKind::BindFuture,
            18 => EventKind::TouchWake,
            19 => EventKind::Steal,
            20 => EventKind::Park,
            21 => EventKind::Unpark,
            22 => EventKind::SpecCommit,
            23 => EventKind::SpecAbort,
            24 => EventKind::SpecReplay,
            _ => return None,
        })
    }
}

/// One recorded event. `arg`'s meaning depends on the kind (see the
/// variant docs); it is truncated to 56 bits by the ring's packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds on the [`crate::clock`] anchor.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (56 bits survive the ring).
    pub arg: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_u8() {
        for b in 0..KIND_COUNT as u8 {
            let k = EventKind::from_u8(b).expect("in range");
            assert_eq!(k as u8, b);
        }
        assert_eq!(EventKind::from_u8(KIND_COUNT as u8), None);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            (0..KIND_COUNT as u8).map(|b| EventKind::from_u8(b).unwrap().name()).collect();
        assert_eq!(names.len(), KIND_COUNT);
    }
}
