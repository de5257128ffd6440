//! A lock-free, append-only, chunked arena.
//!
//! The shared Lisp heap must support concurrent allocation and access
//! from every server thread (paper §1.2) without a global lock. The
//! arena reserves slots with a single `fetch_add` and stores elements
//! in geometrically growing chunks whose pointers are installed with
//! compare-and-swap, so neither allocation nor indexing ever blocks.
//!
//! Elements must be [`Default`] and internally synchronized (e.g.
//! atomics or `OnceLock`): a chunk is fully default-initialized before
//! its pointer is published, so `get` always observes a valid element
//! even in the presence of races. Cross-thread visibility of element
//! *contents* is the element's own responsibility (the heap publishes
//! values through release stores / acquire loads).

use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Number of elements in the first chunk. Chunk `k` holds
/// `BASE << k` elements, so 33 shelves cover ~2^43 elements.
const BASE: u64 = 1024;
const SHELVES: usize = 33;

/// Slots reserved per thread-local allocation buffer refill: large
/// enough to amortize the shared `fetch_add` and its cache-line
/// bounce across ~64 allocations, small enough that an idle thread
/// strands under 1 KiB of slots.
const TLAB_CHUNK: u64 = 64;

/// Thread-local buffer entries kept per thread (a thread usually
/// allocates from the cons and float arenas of one heap, so a handful
/// of ways covers the working set; collisions just refill early).
const TLAB_WAYS: usize = 4;

/// Source of globally unique arena ids. Ids are never reused, so a
/// stale thread-local buffer keyed by a dropped arena's id can never
/// be mistaken for a live arena's buffer.
static NEXT_ARENA_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Clone, Copy, Default)]
struct TlabEntry {
    /// Owning arena's id; 0 marks an empty way.
    arena_id: u64,
    /// Next unconsumed reserved index.
    next: u64,
    /// One past the last reserved index.
    end: u64,
}

thread_local! {
    static TLABS: Cell<[TlabEntry; TLAB_WAYS]> =
        const { Cell::new([TlabEntry { arena_id: 0, next: 0, end: 0 }; TLAB_WAYS]) };
}

/// Lock-free chunked arena; see module docs.
pub struct AtomicArena<T> {
    shelves: [AtomicPtr<T>; SHELVES],
    /// Number of reserved slots (monotonic).
    len: AtomicU64,
    /// Globally unique identity, keys this arena's TLAB entries.
    id: u64,
    /// Times any thread refilled a TLAB from this arena.
    tlab_refills: AtomicU64,
}

// SAFETY: all mutation is behind atomics; elements are required to be
// Sync by the public API bounds.
unsafe impl<T: Send + Sync> Send for AtomicArena<T> {}
unsafe impl<T: Send + Sync> Sync for AtomicArena<T> {}

/// Capacity covered by shelves `0..k` (i.e. the starting index of
/// shelf `k`).
#[inline]
fn shelf_start(k: usize) -> u64 {
    BASE * ((1u64 << k) - 1)
}

fn shelf_len(k: usize) -> u64 {
    BASE << k
}

/// The shelf that contains global index `idx`, plus the offset inside
/// that shelf.
#[inline]
fn locate(idx: u64) -> (usize, u64) {
    let n = idx / BASE + 1;
    let shelf = (63 - n.leading_zeros()) as usize;
    (shelf, idx - shelf_start(shelf))
}

impl<T: Default + Send + Sync> AtomicArena<T> {
    /// An empty arena. Allocates no chunks until first use.
    pub fn new() -> Self {
        AtomicArena {
            shelves: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            len: AtomicU64::new(0),
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed),
            tlab_refills: AtomicU64::new(0),
        }
    }

    /// Number of reserved slots.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// True if no slot has ever been reserved.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shelf `k`'s chunk, installed first if no thread has yet.
    #[inline]
    fn shelf_ptr(&self, k: usize) -> *mut T {
        let p = self.shelves[k].load(Ordering::Acquire);
        if !p.is_null() {
            return p;
        }
        self.install_shelf(k)
    }

    /// Allocate a default-initialized chunk for shelf `k` and try to
    /// install it: once per shelf, so out of [`Self::get`]'s line.
    #[cold]
    #[inline(never)]
    fn install_shelf(&self, k: usize) -> *mut T {
        let chunk: Box<[T]> = (0..shelf_len(k)).map(|_| T::default()).collect();
        let raw = Box::into_raw(chunk) as *mut T;
        match self.shelves[k].compare_exchange(
            std::ptr::null_mut(),
            raw,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => raw,
            Err(winner) => {
                // Another thread won the race; free ours.
                // SAFETY: `raw` came from Box::into_raw of a slice of
                // exactly shelf_len(k) elements and was never shared.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        raw,
                        shelf_len(k) as usize,
                    )));
                }
                winner
            }
        }
    }

    /// Reserve `n` consecutive indices and return the first. The slots
    /// are default-initialized; the caller stores real contents through
    /// the elements' own interior mutability.
    pub fn alloc_n(&self, n: u64) -> u64 {
        let base = self.len.fetch_add(n, Ordering::AcqRel);
        if n > 0 {
            // Make sure every shelf touched by the run exists.
            let (first, _) = locate(base);
            let (last, _) = locate(base + n - 1);
            for k in first..=last {
                self.shelf_ptr(k);
            }
        }
        base
    }

    /// Reserve one slot.
    pub fn alloc(&self) -> u64 {
        self.alloc_n(1)
    }

    /// Reserve one slot through this thread's allocation buffer:
    /// slots are claimed from the shared counter `TLAB_CHUNK` at a
    /// time and bump-allocated locally, so the hot path touches no
    /// shared cache line. Reserved-but-unconsumed slots stay
    /// default-initialized (and count toward [`Self::len`]), exactly
    /// like slots awaiting their first store.
    pub fn alloc_tlab(&self) -> u64 {
        TLABS.with(|tl| {
            let mut ways = tl.get();
            for e in ways.iter_mut() {
                if e.arena_id == self.id {
                    if e.next < e.end {
                        let idx = e.next;
                        e.next += 1;
                        tl.set(ways);
                        return idx;
                    }
                    let base = self.refill();
                    e.next = base + 1;
                    e.end = base + TLAB_CHUNK;
                    tl.set(ways);
                    return base;
                }
            }
            // Not cached on this thread: claim a way (evicting by id
            // keeps distinct arenas on distinct ways until WAYS
            // arenas collide; an evicted buffer's remaining slots are
            // stranded, bounded by TLAB_CHUNK per eviction).
            let way = (self.id as usize) % TLAB_WAYS;
            let base = self.refill();
            ways[way] = TlabEntry { arena_id: self.id, next: base + 1, end: base + TLAB_CHUNK };
            tl.set(ways);
            base
        })
    }

    fn refill(&self) -> u64 {
        self.tlab_refills.fetch_add(1, Ordering::Relaxed);
        curare_obs::record(curare_obs::EventKind::TlabRefill, TLAB_CHUNK);
        self.alloc_n(TLAB_CHUNK)
    }

    /// Times any thread refilled a thread-local buffer from this
    /// arena.
    pub fn tlab_refills(&self) -> u64 {
        self.tlab_refills.load(Ordering::Relaxed)
    }

    /// Access element `idx`. Panics if the slot was never reserved.
    #[inline]
    pub fn get(&self, idx: u64) -> &T {
        assert!(idx < self.len.load(Ordering::Acquire), "arena index {idx} out of bounds");
        let (k, off) = locate(idx);
        let p = self.shelf_ptr(k);
        // SAFETY: the shelf is allocated (ensured above), off is within
        // its length by construction of `locate`, and elements are
        // default-initialized before the shelf pointer is published.
        unsafe { &*p.add(off as usize) }
    }
}

impl<T: Default + Send + Sync> Default for AtomicArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for AtomicArena<T> {
    fn drop(&mut self) {
        for (k, shelf) in self.shelves.iter().enumerate() {
            let p = shelf.load(Ordering::Acquire);
            if !p.is_null() {
                // SAFETY: installed by shelf_ptr from Box::into_raw of a
                // slice of exactly shelf_len(k) elements.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        p,
                        shelf_len(k) as usize,
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn locate_covers_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(BASE - 1), (0, BASE - 1));
        assert_eq!(locate(BASE), (1, 0));
        assert_eq!(locate(3 * BASE - 1), (1, 2 * BASE - 1));
        assert_eq!(locate(3 * BASE), (2, 0));
        // Shelf starts partition the index space.
        for k in 0..10 {
            assert_eq!(locate(shelf_start(k)), (k, 0));
            if k > 0 {
                assert_eq!(locate(shelf_start(k) - 1), (k - 1, shelf_len(k - 1) - 1));
            }
        }
    }

    #[test]
    fn alloc_and_get_single() {
        let a: AtomicArena<AtomicU64> = AtomicArena::new();
        let i = a.alloc();
        a.get(i).store(42, Ordering::Release);
        assert_eq!(a.get(i).load(Ordering::Acquire), 42);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn alloc_n_is_contiguous() {
        let a: AtomicArena<AtomicU64> = AtomicArena::new();
        let base = a.alloc_n(10);
        for j in 0..10 {
            a.get(base + j).store(j + 100, Ordering::Release);
        }
        for j in 0..10 {
            assert_eq!(a.get(base + j).load(Ordering::Acquire), j + 100);
        }
    }

    #[test]
    fn growth_across_many_chunks() {
        let a: AtomicArena<AtomicU64> = AtomicArena::new();
        let n = 5 * BASE + 17;
        let base = a.alloc_n(n);
        assert_eq!(base, 0);
        for j in (0..n).step_by(97) {
            a.get(j).store(j * 3, Ordering::Release);
        }
        for j in (0..n).step_by(97) {
            assert_eq!(a.get(j).load(Ordering::Acquire), j * 3);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let a: AtomicArena<AtomicU64> = AtomicArena::new();
        a.alloc();
        a.get(1);
    }

    #[test]
    fn default_initialized_slots_are_zero() {
        let a: AtomicArena<AtomicU64> = AtomicArena::new();
        let base = a.alloc_n(100);
        assert_eq!(a.get(base + 50).load(Ordering::Acquire), 0);
    }

    #[test]
    fn concurrent_alloc_yields_disjoint_slots() {
        use std::sync::Arc;
        let a = Arc::new(AtomicArena::<AtomicU64>::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..2000u64 {
                        let idx = a.alloc();
                        a.get(idx).store(t * 1_000_000 + i + 1, Ordering::Release);
                        mine.push(idx);
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<u64> = threads.into_iter().flat_map(|t| t.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 16_000, "every reservation must be unique");
        // And every written slot kept its value.
        let mut nonzero = 0;
        for i in 0..a.len() {
            if a.get(i).load(Ordering::Acquire) != 0 {
                nonzero += 1;
            }
        }
        assert_eq!(nonzero, 16_000);
    }

    #[test]
    fn tlab_allocations_are_unique_and_refill_in_chunks() {
        let a: AtomicArena<AtomicU64> = AtomicArena::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            assert!(seen.insert(a.alloc_tlab()), "tlab slots must be unique");
        }
        // 300 allocations at 64 per refill: ceil(300/64) = 5 refills.
        assert_eq!(a.tlab_refills(), 5);
        assert_eq!(a.len(), 5 * 64, "len counts reserved chunks");
    }

    #[test]
    fn tlab_and_direct_alloc_interleave_disjointly() {
        let a: AtomicArena<AtomicU64> = AtomicArena::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let idx = if i % 3 == 0 { a.alloc() } else { a.alloc_tlab() };
            assert!(seen.insert(idx), "direct and tlab slots never collide");
        }
    }

    #[test]
    fn tlab_concurrent_alloc_yields_disjoint_slots() {
        use std::sync::Arc;
        let a = Arc::new(AtomicArena::<AtomicU64>::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..2000u64 {
                        let idx = a.alloc_tlab();
                        a.get(idx).store(t * 1_000_000 + i + 1, Ordering::Release);
                        mine.push(idx);
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<u64> = threads.into_iter().flat_map(|t| t.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 16_000, "every reservation must be unique");
        assert!(a.tlab_refills() >= 8 * 2000 / 64, "each thread refills independently");
    }

    #[test]
    fn tlabs_for_distinct_arenas_coexist() {
        let a: AtomicArena<AtomicU64> = AtomicArena::new();
        let b: AtomicArena<AtomicU64> = AtomicArena::new();
        let mut seen_a = std::collections::HashSet::new();
        let mut seen_b = std::collections::HashSet::new();
        for _ in 0..200 {
            assert!(seen_a.insert(a.alloc_tlab()));
            assert!(seen_b.insert(b.alloc_tlab()));
        }
        assert!(a.len() >= 200);
        assert!(b.len() >= 200);
    }

    #[test]
    fn concurrent_shelf_race_is_safe() {
        use std::sync::Arc;
        // Hammer allocation right at a shelf boundary from many threads.
        let a = Arc::new(AtomicArena::<AtomicU64>::new());
        a.alloc_n(BASE - 4);
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        let i = a.alloc();
                        a.get(i).store(i + 1, Ordering::Release);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for i in (BASE - 4)..a.len() {
            assert_eq!(a.get(i).load(Ordering::Acquire), i + 1);
        }
    }
}
