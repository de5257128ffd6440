//! The heap-access sanitizer's recording side: per-lane logs of
//! (invocation, location, read|write) heap accesses plus the spawn and
//! touch edges needed to order them.
//!
//! This is the dynamic half of the soundness oracle (the static half
//! lives in `curare-check`): the §2 conflict analysis claims every
//! cross-invocation conflict the parallel runtime can exhibit is
//! predicted statically, and this module records what the runtime
//! *actually* touched so a post-run checker can diff observed pairs
//! against predicted ones.
//!
//! Mirrors [`crate::tracer`]'s installation scheme exactly: a
//! process-global install point, a per-thread generation-cached
//! handle, and free recording functions instrumentation sites call
//! unconditionally. Recording is armed only by [`install_sanitizer`]:
//! with no log installed each heap access pays one relaxed bool load.
//!
//! **Invocations.** The runtime assigns every CRI task a nonzero
//! invocation id at spawn time and binds it to the executing thread
//! for the duration of the call (saving/restoring across the "helping"
//! execution inside a blocking touch). Records made outside any
//! invocation — the driving thread's list building, result display,
//! internal heap walks — carry invocation 0 and are excluded from
//! conflict pairing by the checker.
//!
//! **Locations.** A location is one heap word, packed by the
//! instrumentation site: cons cell `id` packs its car as `id << 1` and
//! its cdr as `id << 1 | 1`; struct slot `base + idx` packs as
//! `STRUCT_LOC_BIT | (base + idx)`. The accessor-path `tag` carries
//! the §2 accessor code (0 = car, 1 = cdr, 2+k = struct field k) so
//! observed pairs can be matched against static access paths.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// High bit distinguishing struct-slot locations from cons-word
/// locations in the packed `loc` word.
pub const STRUCT_LOC_BIT: u64 = 1 << 63;

/// One sanitizer event, timestamp-free: per-lane order is program
/// order on that server thread, which (with invocation binding) is all
/// the checker needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanEvent {
    /// A heap-word access.
    Access {
        /// Packed location (see module docs).
        loc: u64,
        /// True for writes (including atomic read-modify-writes).
        write: bool,
        /// True when the access is an atomic RMW (`atomic-incf`-family);
        /// two atomic writes to the same word never race.
        atomic: bool,
        /// Final accessor code: 0 = car, 1 = cdr, 2+k = struct field k.
        tag: u64,
    },
    /// The current invocation spawned `child` (enqueue or future).
    Spawn {
        /// The spawned invocation's id.
        child: u64,
        /// The future id, when the spawn created one.
        future: Option<u64>,
    },
    /// The current invocation observed future `future` resolved.
    Touch {
        /// The touched future's id.
        future: u64,
    },
}

/// One per-lane log record: the invocation the thread was executing
/// when the event fired, plus the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanRecord {
    /// Invocation id (0 = outside any CRI invocation).
    pub inv: u64,
    /// The event.
    pub ev: SanEvent,
}

/// A set of per-lane access logs covering one sanitized run. Lane
/// assignment follows the tracer: lane 0 is the external thread,
/// server `i` records into lane `i + 1` (out-of-range clamps to 0).
pub struct AccessLog {
    lanes: Vec<Mutex<Vec<SanRecord>>>,
}

impl AccessLog {
    /// A log for `servers` pool servers (plus the external lane 0).
    pub fn new(servers: usize) -> Arc<Self> {
        let lanes = (0..=servers).map(|_| Mutex::new(Vec::new())).collect();
        Arc::new(AccessLog { lanes })
    }

    /// Number of lanes (servers + 1).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Record into an explicit lane (out-of-range clamps to 0).
    pub fn record(&self, lane: usize, rec: SanRecord) {
        let lane = if lane < self.lanes.len() { lane } else { 0 };
        self.lanes[lane].lock().unwrap_or_else(PoisonError::into_inner).push(rec);
    }

    /// Snapshot every lane's records in per-lane program order.
    pub fn snapshot(&self) -> Vec<Vec<SanRecord>> {
        self.lanes
            .iter()
            .map(|l| l.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect()
    }

    /// Total records across lanes.
    pub fn recorded(&self) -> usize {
        self.lanes.iter().map(|l| l.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// True while the runtime's speculation mode wants nonzero invocation
/// ids: `SpecMode` needs every CRI task identified so the
/// `curare-lisp` write journal can attribute heap effects, whether or
/// not an access log is installed.
static SPECULATING: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static CURRENT: Mutex<Option<Arc<AccessLog>>> = Mutex::new(None);
/// Global invocation-id source; 0 is reserved for "no invocation".
/// Shared by the sanitizer and the causal profiler
/// ([`crate::profile`]) — whichever is enabled mints ids from the same
/// sequence, so a run under both sees one coherent id space.
static NEXT_INV: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_INV: Cell<u64> = const { Cell::new(0) };
    static CACHE: RefCell<(u64, Option<Arc<AccessLog>>)> = const { RefCell::new((0, None)) };
}

/// Install (`Some`) or remove (`None`) the process-global access log.
/// Returns the previously installed log, if any. Same retention caveat
/// as [`crate::tracer::install`]: after `install(None)` a thread that
/// never records again keeps its cached `Arc<AccessLog>` alive.
pub fn install_sanitizer(log: Option<Arc<AccessLog>>) -> Option<Arc<AccessLog>> {
    let mut cur = CURRENT.lock().unwrap_or_else(PoisonError::into_inner);
    ENABLED.store(log.is_some(), Ordering::Release);
    GENERATION.fetch_add(1, Ordering::Release);
    std::mem::replace(&mut cur, log)
}

/// True while an access log is installed.
#[inline]
pub fn sanitizing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arm (`true`) or disarm (`false`) speculation-mode invocation-id
/// minting. The pool arms this for the duration of a `SpecMode` run so
/// every CRI task gets a nonzero id even with no access log
/// installed; ids come from the same [`NEXT_INV`] sequence the sanitizer
/// and profiler use.
#[inline]
pub fn set_speculating(on: bool) {
    SPECULATING.store(on, Ordering::Release);
}

/// True while speculation-mode invocation-id minting is armed.
#[inline]
pub fn speculating_enabled() -> bool {
    SPECULATING.load(Ordering::Relaxed)
}

/// A fresh nonzero invocation id for a task being spawned. Returns 0
/// unless the sanitizer (an installed log), the speculation
/// mode ([`set_speculating`]), or the causal profiler
/// ([`crate::profile::set_profiling`]) wants ids, so the plain runtime
/// never pays the atomic increment.
#[inline]
pub fn new_invocation() -> u64 {
    if sanitizing_enabled() || speculating_enabled() || crate::profile::profiling_enabled() {
        NEXT_INV.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// Bind the calling thread to invocation `inv`, returning the
/// previous binding so callers can nest (a server "helping" inside a
/// blocking touch executes another task, then restores).
#[inline]
pub fn set_invocation(inv: u64) -> u64 {
    CURRENT_INV.with(|c| c.replace(inv))
}

/// The calling thread's current invocation (0 outside any).
#[inline]
pub fn current_invocation() -> u64 {
    CURRENT_INV.with(Cell::get)
}

/// Record a heap-word access against the installed log, if any.
#[inline]
pub fn record_access(loc: u64, write: bool, atomic: bool, tag: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    record_enabled(SanEvent::Access { loc, write, atomic, tag });
}

/// Record that the current invocation spawned invocation `child`
/// (with `future` set when the spawn created a future).
#[inline]
pub fn record_spawn(child: u64, future: Option<u64>) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    record_enabled(SanEvent::Spawn { child, future });
}

/// Record that the current invocation observed `future` resolved (the
/// happens-before edge from the future's task to everything after the
/// touch).
#[inline]
pub fn record_touch(future: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    record_enabled(SanEvent::Touch { future });
}

#[cold]
fn refresh_cache() -> Option<Arc<AccessLog>> {
    let generation = GENERATION.load(Ordering::Acquire);
    let log = CURRENT.lock().unwrap_or_else(PoisonError::into_inner).clone();
    CACHE.with(|c| *c.borrow_mut() = (generation, log.clone()));
    log
}

// Out of line: the heap accessors inline `record_access`, and only the
// flag test belongs in them.
#[cold]
fn record_enabled(ev: SanEvent) {
    let generation = GENERATION.load(Ordering::Acquire);
    let log = CACHE.with(|c| {
        let cache = c.borrow();
        if cache.0 == generation {
            cache.1.clone()
        } else {
            drop(cache);
            refresh_cache()
        }
    });
    if let Some(l) = log {
        l.record(crate::tracer::lane(), SanRecord { inv: current_invocation(), ev });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // Shared process-global install point: serialize tests that touch
    // it, as tracer.rs does — and the profiler's flag test, because
    // `new_invocation` reads that flag too.
    pub(crate) static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn install_record_snapshot() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let log = AccessLog::new(2);
        install_sanitizer(Some(Arc::clone(&log)));
        assert!(sanitizing_enabled());
        let inv = new_invocation();
        assert!(inv > 0);
        let prev = set_invocation(inv);
        assert_eq!(prev, 0);
        crate::tracer::set_lane(1);
        record_access(10, false, false, 0);
        record_access(11, true, false, 1);
        record_spawn(inv + 1, Some(7));
        record_touch(7);
        set_invocation(prev);
        crate::tracer::set_lane(0);
        install_sanitizer(None);
        record_access(99, true, false, 0); // after uninstall: dropped
        let snaps = log.snapshot();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[1].len(), 4);
        assert!(snaps[1].iter().all(|r| r.inv == inv));
        assert_eq!(
            snaps[1][1].ev,
            SanEvent::Access { loc: 11, write: true, atomic: false, tag: 1 }
        );
        assert_eq!(snaps[1][2].ev, SanEvent::Spawn { child: inv + 1, future: Some(7) });
        assert_eq!(snaps[1][3].ev, SanEvent::Touch { future: 7 });
        assert_eq!(log.recorded(), 4);
    }

    #[test]
    fn disabled_new_invocation_is_zero() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        install_sanitizer(None);
        assert_eq!(new_invocation(), 0);
        assert!(!sanitizing_enabled());
    }

    #[test]
    fn invocation_binding_nests() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        install_sanitizer(None);
        let outer = set_invocation(5);
        let mid = set_invocation(9); // helping: execute another task
        assert_eq!(mid, 5);
        assert_eq!(current_invocation(), 9);
        set_invocation(mid);
        assert_eq!(current_invocation(), 5);
        set_invocation(outer);
    }

    #[test]
    fn out_of_range_lane_clamps_to_external() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let log = AccessLog::new(1);
        log.record(50, SanRecord { inv: 0, ev: SanEvent::Touch { future: 1 } });
        assert_eq!(log.snapshot()[0].len(), 1);
    }
}
