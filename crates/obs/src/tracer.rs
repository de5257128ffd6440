//! The tracer: one ring per server lane plus a process-global
//! installation point.
//!
//! Instrumentation sites (the pool, the lock table, the heap arenas)
//! call the free function [`record`]; they never hold a tracer handle.
//! That keeps the plumbing near zero: enabling tracing for a run is
//! `install(Some(tracer))`, and every already-instrumented layer
//! starts emitting. Lookup cost is amortized with a per-thread cache
//! keyed by an installation generation, so the per-event path is: one
//! relaxed bool load (disabled exit), one generation compare, then the
//! ring write.
//!
//! **Lanes.** Ring 0 is the *external* lane (the driving thread and
//! any helper not owned by a pool); server `i` of a pool claims lane
//! `i + 1` via [`set_lane`]. Lane indices out of range clamp to the
//! external lane rather than drop, so a tracer sized for one pool
//! still collects events from a larger one.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::event::EventKind;
use crate::ring::{RingSnapshot, TraceRing, DEFAULT_CAPACITY};

/// A set of per-lane rings covering one traced run.
pub struct Tracer {
    rings: Vec<TraceRing>,
}

impl Tracer {
    /// A tracer for `servers` pool servers (lane 0 is the external
    /// lane, so `servers + 1` rings) with the default per-lane
    /// capacity.
    pub fn new(servers: usize) -> Arc<Self> {
        Self::with_capacity(servers, DEFAULT_CAPACITY)
    }

    /// As [`Tracer::new`] with an explicit per-lane event capacity.
    pub fn with_capacity(servers: usize, capacity: usize) -> Arc<Self> {
        let rings = (0..=servers).map(|_| TraceRing::with_capacity(capacity)).collect();
        Arc::new(Tracer { rings })
    }

    /// Number of lanes (servers + 1).
    pub fn lanes(&self) -> usize {
        self.rings.len()
    }

    /// Record into an explicit lane (out-of-range clamps to 0).
    pub fn record(&self, lane: usize, kind: EventKind, arg: u64) {
        let lane = if lane < self.rings.len() { lane } else { 0 };
        self.rings[lane].record(kind, arg);
    }

    /// Snapshot every lane (index == lane).
    pub fn snapshot(&self) -> Vec<RingSnapshot> {
        self.rings.iter().map(TraceRing::snapshot).collect()
    }

    /// Total events recorded across lanes (including overwritten).
    pub fn recorded(&self) -> u64 {
        self.rings.iter().map(TraceRing::recorded).sum()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static CURRENT: Mutex<Option<Arc<Tracer>>> = Mutex::new(None);

thread_local! {
    static LANE: Cell<usize> = const { Cell::new(0) };
    // Weak, not Arc: a thread that recorded once and then goes quiet
    // must not keep a removed tracer's rings alive. The only strong
    // reference the tracing layer holds is CURRENT's, so the rings
    // free deterministically once `install(None)` runs and the caller
    // drops its own handle (see `uninstall_releases_ring_memory`).
    static CACHE: RefCell<(u64, Option<Weak<Tracer>>)> = const { RefCell::new((0, None)) };
}

/// Install (`Some`) or remove (`None`) the process-global tracer.
/// Returns the previously installed tracer, if any. Instrumentation
/// in every layer starts/stops emitting immediately; threads refresh
/// their cached handle on the next event. Per-thread caches hold only
/// weak handles, so after `install(None)` the tracer's memory is freed
/// as soon as the caller drops the returned/retained `Arc` — no
/// thread has to record again first.
pub fn install(tracer: Option<Arc<Tracer>>) -> Option<Arc<Tracer>> {
    let mut cur = CURRENT.lock().unwrap_or_else(PoisonError::into_inner);
    ENABLED.store(tracer.is_some(), Ordering::Release);
    GENERATION.fetch_add(1, Ordering::Release);
    std::mem::replace(&mut cur, tracer)
}

/// The currently installed tracer, if any — for diagnostic consumers
/// (the runtime's stall watchdog attaches the stalled lane's recent
/// events to its dump) that need to *read* the rings mid-run rather
/// than record into them.
pub fn installed() -> Option<Arc<Tracer>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    CURRENT.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Declare the calling thread's lane: pool server `i` passes `i + 1`;
/// `0` is the external lane (the thread-spawn default).
pub fn set_lane(lane: usize) {
    LANE.with(|l| l.set(lane));
}

/// The calling thread's lane.
#[inline]
pub fn lane() -> usize {
    LANE.with(Cell::get)
}

/// Record one event against the installed tracer, if any. This is the
/// only call instrumentation sites make. The disabled path is one
/// relaxed load.
#[inline]
pub fn record(kind: EventKind, arg: u64) {
    if !enabled() {
        return;
    }
    record_enabled(kind, arg);
}

/// True while a tracer is installed.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cold]
fn refresh_cache() -> Option<Arc<Tracer>> {
    let generation = GENERATION.load(Ordering::Acquire);
    let tracer = CURRENT.lock().unwrap_or_else(PoisonError::into_inner).clone();
    CACHE.with(|c| *c.borrow_mut() = (generation, tracer.as_ref().map(Arc::downgrade)));
    tracer
}

fn record_enabled(kind: EventKind, arg: u64) {
    let generation = GENERATION.load(Ordering::Acquire);
    let tracer = CACHE.with(|c| {
        let cache = c.borrow();
        if cache.0 == generation {
            // While installed, CURRENT holds the strong reference, so
            // the upgrade can only fail across an install boundary —
            // and that bumps the generation.
            cache.1.as_ref().and_then(Weak::upgrade)
        } else {
            drop(cache);
            refresh_cache()
        }
    });
    if let Some(t) = tracer {
        t.record(lane(), kind, arg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    // The global install point is shared process state; every test
    // that uses it runs under this lock so `cargo test`'s parallel
    // harness cannot interleave installs.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn install_record_snapshot() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let t = Tracer::new(2);
        install(Some(Arc::clone(&t)));
        set_lane(1);
        record(EventKind::TaskStart, 7);
        record(EventKind::TaskStop, 7);
        set_lane(0);
        record(EventKind::Enqueue, 3);
        install(None);
        record(EventKind::Enqueue, 99); // after uninstall: dropped
        let snaps = t.snapshot();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[1].events.len(), 2);
        assert_eq!(snaps[0].events.len(), 1);
        assert_eq!(snaps[0].events[0].arg, 3);
        assert_eq!(t.recorded(), 3);
    }

    #[test]
    fn out_of_range_lane_clamps_to_external() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let t = Tracer::new(1);
        t.record(50, EventKind::Chain, 1);
        assert_eq!(t.snapshot()[0].events.len(), 1);
    }

    #[test]
    fn reinstall_switches_tracers() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        set_lane(0);
        let a = Tracer::new(0);
        let b = Tracer::new(0);
        install(Some(Arc::clone(&a)));
        record(EventKind::Enqueue, 1);
        install(Some(Arc::clone(&b)));
        record(EventKind::Enqueue, 2);
        install(None);
        assert_eq!(a.snapshot()[0].events.len(), 1);
        assert_eq!(b.snapshot()[0].events.len(), 1);
        assert_eq!(b.snapshot()[0].events[0].arg, 2);
    }

    #[test]
    fn uninstall_releases_ring_memory() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let t = Tracer::new(1);
        let weak = Arc::downgrade(&t);
        install(Some(Arc::clone(&t)));
        // Populate another thread's cache, then keep that thread alive
        // past the uninstall: its cached handle must not pin the rings.
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let recorder = std::thread::spawn(move || {
            record(EventKind::Enqueue, 1);
            ready_tx.send(()).unwrap();
            done_rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();
        let prev = install(None);
        drop(prev);
        drop(t);
        assert!(
            weak.upgrade().is_none(),
            "per-thread caches retained the uninstalled tracer's rings"
        );
        done_tx.send(()).unwrap();
        recorder.join().unwrap();
    }

    #[test]
    fn disabled_record_is_cheap() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        install(None);
        // 10M disabled records: a relaxed load + branch each. Even on
        // a loaded 1-CPU CI host this is far under the bound; a
        // regression to lock/allocate per call would blow it by 100x.
        let start = std::time::Instant::now();
        for i in 0..10_000_000u64 {
            record(EventKind::Enqueue, i);
        }
        let dt = start.elapsed();
        assert!(dt.as_millis() < 2_000, "10M disabled records took {dt:?}");
    }
}
