//! Stall detection: per-server heartbeats and the phases they report.
//!
//! Each watched server publishes a [`ServerBeat`] — a timestamped
//! (phase, detail) pair updated at every phase transition. The pool's
//! watchdog thread (spawned only when `RuntimeConfig::stall_budget` is
//! set, running `watch`) scans the beats on a coarse tick
//! and flags any server whose *last transition* is older than the
//! budget while in a non-idle phase — a blocked `touch`, a lock
//! convoy, or a body that simply never returns. Detection is separate
//! from policy: the watchdog makes a stall dump and leaves recovery to
//! the panic policy at the catch site (poison, replace), because a
//! stalled-but-alive server cannot be safely killed from outside.
//!
//! The beat state machine per server:
//!
//! ```text
//!        pop task              body returns
//! IDLE ────────────► EXECUTING ────────────► IDLE
//!                      │  ▲
//!          touch blocks│  │future resolved / helped task done
//!                      ▼  │
//!                  TOUCH_WAIT ──(helping: nested EXECUTING)──┐
//!                      ▲                                     │
//!                      └─────────────────────────────────────┘
//!                      │lock contended
//!                      ▼
//!                  LOCK_WAIT
//! ```
//!
//! Helping inside `touch` refreshes the timestamp on each completed
//! nested task (progress), but the `TOUCH_WAIT` entry timestamp is
//! *not* refreshed by the idle poll loop — a touch that waits without
//! helping ages into a stall, which is exactly the condition the
//! watchdog exists to catch. The watchdog re-arms per server once the
//! beat moves again, so one long stall produces one dump, not one per
//! tick.
//!
//! Beats are written only when the pool is watched: the hot path pays
//! a single non-atomic bool test otherwise.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use curare_lisp::sync::Mutex;
use curare_obs::Json;

use crate::pool::Shared;

/// Server is parked or between tasks; never considered stalled.
pub const PHASE_IDLE: u8 = 0;
/// Server is inside an invocation body.
pub const PHASE_EXECUTING: u8 = 1;
/// Server is blocked in `touch` on an unresolved future (`detail` =
/// future id).
pub const PHASE_TOUCH_WAIT: u8 = 2;
/// Server is waiting on a contended location lock (`detail` = location
/// hash).
pub const PHASE_LOCK_WAIT: u8 = 3;

/// Human-readable phase name for stall dumps.
pub fn phase_name(phase: u8) -> &'static str {
    match phase {
        PHASE_IDLE => "idle",
        PHASE_EXECUTING => "executing",
        PHASE_TOUCH_WAIT => "touch_wait",
        PHASE_LOCK_WAIT => "lock_wait",
        _ => "unknown",
    }
}

/// One server's heartbeat: the phase it is in, a phase-specific
/// detail word (function id, future id, or location hash), and the
/// timestamp of the last transition.
#[derive(Default)]
pub struct ServerBeat {
    /// `curare_obs::now_ns` at the last phase transition.
    pub ts_ns: AtomicU64,
    /// Current phase (`PHASE_*`).
    pub phase: AtomicU8,
    /// Phase-specific detail word.
    pub detail: AtomicU64,
}

impl ServerBeat {
    /// A fresh beat in `IDLE`, stamped now.
    pub fn new() -> Self {
        let b = ServerBeat::default();
        b.ts_ns.store(curare_obs::now_ns(), Ordering::Relaxed);
        b
    }

    /// Record a transition into `phase`.
    pub fn set(&self, phase: u8, detail: u64) {
        self.detail.store(detail, Ordering::Relaxed);
        self.phase.store(phase, Ordering::Relaxed);
        self.ts_ns.store(curare_obs::now_ns(), Ordering::Relaxed);
    }

    /// Nanoseconds since the last transition.
    pub fn age_ns(&self, now: u64) -> u64 {
        now.saturating_sub(self.ts_ns.load(Ordering::Relaxed))
    }
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Arc<ServerBeat>>> =
        const { std::cell::RefCell::new(None) };
}

/// Bind (or with `None`, unbind) the calling thread's beat. Called by
/// `server_loop` on entry when the pool is watched.
pub fn set_current_beat(beat: Option<Arc<ServerBeat>>) {
    CURRENT.with(|c| *c.borrow_mut() = beat);
}

/// Transition the calling thread's beat (if bound) into `phase`,
/// returning the previous (phase, detail) for [`beat_exit`]. A no-op
/// returning the idle pair when no beat is bound — external threads
/// and unwatched pools pay only the TLS probe.
pub fn beat_enter(phase: u8, detail: u64) -> (u8, u64) {
    CURRENT.with(|c| {
        if let Some(beat) = c.borrow().as_ref() {
            let prev = (beat.phase.load(Ordering::Relaxed), beat.detail.load(Ordering::Relaxed));
            beat.set(phase, detail);
            prev
        } else {
            (PHASE_IDLE, 0)
        }
    })
}

/// Restore a previous (phase, detail) pair. Refreshes the timestamp:
/// returning from a nested phase is progress.
pub fn beat_exit(prev: (u8, u64)) {
    CURRENT.with(|c| {
        if let Some(beat) = c.borrow().as_ref() {
            beat.set(prev.0, prev.1);
        }
    });
}

/// Drop guard restoring a beat phase on every exit path (touch has
/// several).
pub struct BeatGuard {
    prev: (u8, u64),
}

impl BeatGuard {
    /// Enter `phase`, restoring the previous phase on drop.
    pub fn enter(phase: u8, detail: u64) -> Self {
        BeatGuard { prev: beat_enter(phase, detail) }
    }
}

impl Drop for BeatGuard {
    fn drop(&mut self) {
        beat_exit(self.prev);
    }
}

/// A watched pool's stall detector: one beat per server, and the
/// dumps the watchdog made of them.
pub(crate) struct Watch {
    budget: Duration,
    beats: Vec<Arc<ServerBeat>>,
    /// Stalls detected, and the dumps of the first 64.
    found: Mutex<(u64, Vec<Json>)>,
}

impl Watch {
    /// A detector for `servers` servers, each stalled after `budget`
    /// in one non-idle phase.
    pub(crate) fn new(servers: usize, budget: Duration) -> Self {
        let beats = (0..servers).map(|_| Arc::new(ServerBeat::new())).collect();
        Watch { budget, beats, found: Mutex::new((0, Vec::new())) }
    }

    /// Bind the calling thread, server `index`, to its beat (a
    /// replacement for a poisoned server binds its predecessor's,
    /// left idle).
    pub(crate) fn bind(&self, index: usize) {
        set_current_beat(self.beats.get(index).cloned());
    }

    /// Stalls detected so far.
    pub(crate) fn stalls(&self) -> u64 {
        self.found.lock().0
    }

    /// The stall dumps made so far (the first 64).
    pub(crate) fn dumps(&self) -> Vec<Json> {
        self.found.lock().1.clone()
    }
}

/// The watchdog thread body: scan the heartbeats every quarter budget
/// and dump any server whose last transition is older than the
/// budget while in a non-idle phase. One dump per stall — the
/// per-server latch re-arms when the beat progresses or goes idle.
/// Detection only: recovery belongs to the panic policy at the catch
/// site, because a stalled-but-alive server cannot be safely killed
/// from outside.
pub(crate) fn watch(watch: &Watch, pool: &Shared) {
    let budget_ns = u64::try_from(watch.budget.as_nanos()).unwrap_or(u64::MAX);
    let tick = (watch.budget / 4).max(Duration::from_millis(5));
    let mut fired = vec![false; watch.beats.len()];
    while !pool.is_shut_down() {
        std::thread::sleep(tick);
        let now = curare_obs::now_ns();
        for (i, beat) in watch.beats.iter().enumerate() {
            let stalled =
                beat.phase.load(Ordering::Relaxed) != PHASE_IDLE && beat.age_ns(now) >= budget_ns;
            if !stalled || fired[i] {
                fired[i] = stalled;
                continue;
            }
            fired[i] = true;
            let dump = stall_dump(watch, pool, i, budget_ns, now);
            let mut found = watch.found.lock();
            found.0 += 1;
            if found.1.len() < 64 {
                found.1.push(dump);
            }
        }
    }
}

/// One stall dump for server `index`: every server's
/// heartbeat, currently held locks, still-pending futures, scheduler
/// occupancy, and the stalled lane's most recent trace events (when a
/// tracer is installed).
fn stall_dump(watch: &Watch, pool: &Shared, index: usize, budget_ns: u64, now: u64) -> Json {
    // A beat's (phase, detail, age) after the keys `head` names it by.
    let beat = |head: Json, b: &ServerBeat| {
        head.set("phase", phase_name(b.phase.load(Ordering::Relaxed)))
            .set("detail", b.detail.load(Ordering::Relaxed))
            .set("age_ns", b.age_ns(now))
    };
    let servers =
        watch.beats.iter().enumerate().map(|(i, b)| beat(Json::obj().set("server", i), b));
    let held = pool.locks().held_snapshot().into_iter().take(64).map(|(hash, wdepth, readers)| {
        Json::obj().set("loc", hash).set("write_depth", wdepth).set("readers", readers)
    });
    let pending_futures = pool.futures().pending_ids().into_iter().take(64).map(Json::from);
    let snapshot = curare_obs::installed().map(|t| t.snapshot()).unwrap_or_default();
    let events = snapshot.get(index + 1).map_or(&[][..], |snap| &snap.events);
    let recent = events[events.len().saturating_sub(32)..]
        .iter()
        .map(|e| Json::obj().set("ts_ns", e.ts_ns).set("kind", e.kind.name()).set("arg", e.arg));
    beat(Json::obj().set("server", index), &watch.beats[index])
        .set("budget_ns", budget_ns)
        .set("pending_tasks", pool.pending_tasks())
        .set("queued", pool.has_work())
        .set("servers", Json::Arr(servers.collect()))
        .set("held_locks", Json::Arr(held.collect()))
        .set("pending_futures", Json::Arr(pending_futures.collect()))
        .set("recent_events", Json::Arr(recent.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_transitions_and_age() {
        let b = ServerBeat::new();
        assert_eq!(b.phase.load(Ordering::Relaxed), PHASE_IDLE);
        let before = b.ts_ns.load(Ordering::Relaxed);
        b.set(PHASE_EXECUTING, 42);
        assert_eq!(b.phase.load(Ordering::Relaxed), PHASE_EXECUTING);
        assert_eq!(b.detail.load(Ordering::Relaxed), 42);
        assert!(b.ts_ns.load(Ordering::Relaxed) >= before);
        let now = curare_obs::now_ns();
        assert!(b.age_ns(now) < 1_000_000_000);
        assert_eq!(b.age_ns(0), 0, "saturating, not wrapping");
    }

    #[test]
    fn enter_exit_without_binding_is_noop() {
        set_current_beat(None);
        let prev = beat_enter(PHASE_EXECUTING, 1);
        assert_eq!(prev, (PHASE_IDLE, 0));
        beat_exit(prev); // must not panic
    }

    #[test]
    fn enter_exit_with_binding_nests() {
        let beat = Arc::new(ServerBeat::new());
        set_current_beat(Some(Arc::clone(&beat)));
        let outer = beat_enter(PHASE_EXECUTING, 7);
        assert_eq!(outer, (PHASE_IDLE, 0));
        {
            let _g = BeatGuard::enter(PHASE_TOUCH_WAIT, 99);
            assert_eq!(beat.phase.load(Ordering::Relaxed), PHASE_TOUCH_WAIT);
            assert_eq!(beat.detail.load(Ordering::Relaxed), 99);
        }
        // Guard restored the executing phase and refreshed the stamp.
        assert_eq!(beat.phase.load(Ordering::Relaxed), PHASE_EXECUTING);
        assert_eq!(beat.detail.load(Ordering::Relaxed), 7);
        beat_exit(outer);
        assert_eq!(beat.phase.load(Ordering::Relaxed), PHASE_IDLE);
        set_current_beat(None);
    }

    #[test]
    fn phase_names_cover_all_phases() {
        let names: Vec<_> = (0..4).map(phase_name).collect();
        assert_eq!(names, ["idle", "executing", "touch_wait", "lock_wait"]);
        assert_eq!(phase_name(200), "unknown");
    }
}
