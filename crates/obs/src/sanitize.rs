//! The invocation-id source: which CRI invocation a thread is
//! executing, for whoever attributes what it does to it — the access
//! journal (`curare_lisp::speclog`: the heap-access sanitizer and the
//! speculation validator both read it) and the causal profiler
//! ([`crate::profile`]). The journal's epoch clock ([`tick`]) lives
//! here too, on the id counter's cache line.
//!
//! The runtime assigns every CRI task an invocation id at spawn time
//! ([`new_invocation`]) and binds it to the executing thread for the
//! duration of the call ([`set_invocation`], saving and restoring
//! across the "helping" execution inside a blocking touch). Ids are
//! nonzero only while the journal or the profiler is armed; work done
//! outside any invocation — the driving thread's list building, result
//! display, internal heap walks — carries invocation 0 and is
//! attributed to no one.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// True while the access journal is armed, at either of its levels.
static JOURNALING: AtomicBool = AtomicBool::new(false);
/// The two words every spawn of a journaled run writes, on one cache
/// line on purpose: a spawn mints the child's id and stamps the spawn
/// point back to back, so one transfer of the line between servers
/// serves both. (They shared a line by accident of layout until the
/// journals merged; apart, `speculative` read 6 % slower end to end.)
#[repr(align(64))]
struct SpawnWords {
    /// Global invocation-id source; 0 is reserved for "no invocation".
    /// Shared by the journal and the profiler — whichever is armed
    /// mints ids from the same sequence, so a run under both sees one
    /// coherent id space.
    next_inv: AtomicU64,
    /// The access journal's epoch clock ([`tick`]).
    clock: AtomicU64,
}

static WORDS: SpawnWords = SpawnWords { next_inv: AtomicU64::new(1), clock: AtomicU64::new(1) };

thread_local! {
    static CURRENT_INV: Cell<u64> = const { Cell::new(0) };
}

/// Tell the id source whether the access journal wants ids: its
/// `arm`, `observe` and `disarm` call this, and nothing else should.
/// Arming restarts the epoch clock.
#[inline]
pub fn set_journaling(on: bool) {
    if on {
        WORDS.clock.store(1, Ordering::SeqCst);
    }
    JOURNALING.store(on, Ordering::Release);
}

/// One tick of the access journal's epoch clock. SeqCst so that an
/// access bracket that ends before another begins really did happen
/// first (the fetch-adds are full barriers on every supported target).
#[inline]
pub fn tick() -> u64 {
    WORDS.clock.fetch_add(1, Ordering::SeqCst)
}

/// A fresh nonzero invocation id for a task being spawned. Returns 0
/// unless the access journal ([`set_journaling`]) or the causal
/// profiler ([`crate::profile::set_profiling`]) wants ids, so the plain
/// runtime never pays the atomic increment.
#[inline]
pub fn new_invocation() -> u64 {
    if JOURNALING.load(Ordering::Relaxed) || crate::profile::profiling_enabled() {
        WORDS.next_inv.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// True while anything records what an invocation does: the tracer,
/// or invocation ids (the access journal or the causal profiler). When
/// false, [`crate::record`] and [`new_invocation`] do nothing, and a
/// caller may skip them and the bindings they would annotate.
#[inline]
pub fn observed() -> bool {
    crate::tracer::enabled()
        || JOURNALING.load(Ordering::Relaxed)
        || crate::profile::profiling_enabled()
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    // `new_invocation` reads two process-global flags: serialize the
    // tests that set either (the profiler's flag test takes this too).
    pub(crate) static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_new_invocation_is_zero() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(new_invocation(), 0);
    }

    #[test]
    fn the_journal_and_the_profiler_mint_from_one_sequence() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        set_journaling(true);
        let a = new_invocation();
        crate::profile::set_profiling(true);
        let b = new_invocation();
        set_journaling(false);
        let c = new_invocation();
        crate::profile::set_profiling(false);
        assert!(a > 0);
        assert_eq!((b, c), (a + 1, a + 2), "both armed, then the profiler alone");
        assert_eq!(new_invocation(), 0);
    }

    #[test]
    fn invocation_binding_nests() {
        let outer = set_invocation(5);
        let mid = set_invocation(9); // helping: execute another task
        assert_eq!(mid, 5);
        assert_eq!(current_invocation(), 9);
        set_invocation(mid);
        assert_eq!(current_invocation(), 5);
        set_invocation(outer);
    }
}
