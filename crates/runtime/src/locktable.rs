//! The location lock table (paper §3.2.1).
//!
//! The paper's ideal machine associates a lock with every memory word;
//! "other architectures require a more-costly, dynamically-allocated
//! collection of locks (the number of locks depends on the data and
//! the depth of the recursion)". This is that collection: a striped
//! map from *location* — a heap cell plus field code — to a
//! reader–writer lock with explicit lock/unlock operations (the
//! transformed programs call `cri-lock`/`cri-unlock` as separate
//! statements, so scope-based guards cannot be used).
//!
//! The locks are reentrant for the owning thread: coalesced lock paths
//! can alias at runtime (two paths reaching the same cell), and a
//! server must not deadlock against itself.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use curare_lisp::sync::{Condvar, Mutex};

use curare_lisp::Value;
use curare_obs::{AtomicHistogram, EventKind, HistogramSummary};

/// A lockable location: cell identity (value bits) plus field code
/// (0 = car, 1 = cdr, 2+k = struct field k).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// The cell's value bits (cons or struct reference).
    pub cell: u64,
    /// Field code.
    pub field: u32,
}

impl Location {
    /// Location of `field` within `cell`.
    pub fn new(cell: Value, field: u32) -> Self {
        Location { cell: cell.bits(), field }
    }
}

#[derive(Default)]
struct LockState {
    writer: Option<ThreadId>,
    write_depth: usize,
    /// Shared holders (a writer may also read re-entrantly; those
    /// reads are not counted here).
    readers: usize,
}

struct LockEntry {
    state: Mutex<LockState>,
    cv: Condvar,
}

impl LockEntry {
    fn new() -> Self {
        LockEntry { state: Mutex::new(LockState::default()), cv: Condvar::new() }
    }

    fn lock_exclusive(&self) {
        let me = std::thread::current().id();
        let mut st = self.state.lock();
        loop {
            if st.writer == Some(me) {
                st.write_depth += 1;
                return;
            }
            if st.writer.is_none() && st.readers == 0 {
                st.writer = Some(me);
                st.write_depth = 1;
                return;
            }
            self.cv.wait(&mut st);
        }
    }

    fn unlock_exclusive(&self) -> bool {
        let me = std::thread::current().id();
        let mut st = self.state.lock();
        if st.writer != Some(me) || st.write_depth == 0 {
            return false;
        }
        st.write_depth -= 1;
        if st.write_depth == 0 {
            st.writer = None;
            drop(st);
            self.cv.notify_all();
        }
        true
    }

    fn lock_shared(&self) {
        let me = std::thread::current().id();
        let mut st = self.state.lock();
        loop {
            if st.writer == Some(me) || st.writer.is_none() {
                st.readers += 1;
                return;
            }
            self.cv.wait(&mut st);
        }
    }

    fn unlock_shared(&self) -> bool {
        let mut st = self.state.lock();
        if st.readers == 0 {
            return false;
        }
        st.readers -= 1;
        if st.readers == 0 {
            drop(st);
            self.cv.notify_all();
        }
        true
    }
}

const SHARDS: usize = 64;

/// The striped lock table. See module docs.
pub struct LockTable {
    shards: Vec<Mutex<HashMap<Location, Arc<LockEntry>>>>,
    acquisitions: AtomicU64,
    /// Subset of `acquisitions` taken in shared mode — the synthesized
    /// rw placements are judged by how much of the lock traffic they
    /// move off the exclusive path.
    shared_acquisitions: AtomicU64,
    contended: AtomicU64,
    /// Wait durations of contended acquisitions. A bare event count
    /// cannot tell a 1 ns collision from a 10 ms convoy; the
    /// histogram (p50/p95/max and total contended time) can.
    wait_hist: AtomicHistogram,
}

fn shard_of(loc: &Location) -> usize {
    let h = loc
        .cell
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(loc.field as u64)
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    (h >> 58) as usize % SHARDS
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        LockTable {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            acquisitions: AtomicU64::new(0),
            shared_acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait_hist: AtomicHistogram::new(),
        }
    }

    fn entry(&self, loc: Location) -> Arc<LockEntry> {
        let mut shard = self.shards[shard_of(&loc)].lock();
        Arc::clone(shard.entry(loc).or_insert_with(|| Arc::new(LockEntry::new())))
    }

    /// Acquire `loc`. `nil` cells have no location and are ignored
    /// (a lock path evaluated at the recursion's end may reach nil).
    pub fn lock(&self, loc: Location, exclusive: bool) {
        if Value::from_bits(loc.cell).is_nil() {
            return;
        }
        crate::chaos::on_lock_acquire();
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if !exclusive {
            self.shared_acquisitions.fetch_add(1, Ordering::Relaxed);
        }
        let entry = self.entry(loc);
        // Record contention (probe without blocking first).
        let contended = {
            let st = entry.state.lock();
            let me = std::thread::current().id();
            let free = if exclusive {
                st.writer == Some(me) || (st.writer.is_none() && st.readers == 0)
            } else {
                st.writer.is_none() || st.writer == Some(me)
            };
            !free
        };
        // Only the contended path pays for a timestamp pair; the
        // uncontended fast path stays clock-free.
        let wait_start = if contended {
            self.contended.fetch_add(1, Ordering::Relaxed);
            curare_obs::record(EventKind::LockWaitBegin, loc_hash(&loc));
            Some(Instant::now())
        } else {
            None
        };
        if exclusive {
            entry.lock_exclusive();
        } else {
            entry.lock_shared();
        }
        if let Some(t0) = wait_start {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.wait_hist.record(ns);
            curare_obs::record(EventKind::LockWaitEnd, ns);
        }
    }

    /// Release `loc`. Returns false (and does nothing) when the caller
    /// did not hold it — a program bug surfaced to the interpreter as
    /// an error by the hooks layer.
    pub fn unlock(&self, loc: Location, exclusive: bool) -> bool {
        if Value::from_bits(loc.cell).is_nil() {
            return true;
        }
        let entry = self.entry(loc);
        if exclusive {
            entry.unlock_exclusive()
        } else {
            entry.unlock_shared()
        }
    }

    /// Total lock acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Acquisitions taken in shared (read) mode.
    pub fn shared_acquisitions(&self) -> u64 {
        self.shared_acquisitions.load(Ordering::Relaxed)
    }

    /// Acquisitions that had to wait.
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent waiting on contended acquisitions.
    pub fn wait_total_ns(&self) -> u64 {
        self.wait_hist.total_ns()
    }

    /// Longest single contended wait, ns.
    pub fn wait_max_ns(&self) -> u64 {
        self.wait_hist.max_ns()
    }

    /// Snapshot of the contended-wait histogram (count, total, max,
    /// p50, p95).
    pub fn wait_summary(&self) -> HistogramSummary {
        self.wait_hist.summary()
    }

    /// Snapshot of currently held locations, as (location hash, write
    /// depth, reader count) — for the stall watchdog's dump. Racy by
    /// nature (each shard is locked in turn), which is fine for a
    /// diagnostic of a pool that is by hypothesis stuck.
    pub fn held_snapshot(&self) -> Vec<(u64, usize, usize)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (loc, entry) in shard.iter() {
                let st = entry.state.lock();
                if st.write_depth > 0 || st.readers > 0 {
                    out.push((loc_hash(loc), st.write_depth, st.readers));
                }
            }
        }
        out
    }
}

/// A stable 64-bit identity for a location, used as the
/// `lock_wait_begin` event payload (the raw cell bits would leak heap
/// addresses into traces; the hash is enough to correlate waits on one
/// location).
fn loc_hash(loc: &Location) -> u64 {
    loc.cell.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(loc.field as u64)
}

impl Default for LockTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn loc(cell: u64, field: u32) -> Location {
        Location { cell: Value::cons(cell).bits(), field }
    }

    #[test]
    fn exclusive_lock_serializes() {
        let t = Arc::new(LockTable::new());
        let counter = Arc::new(AtomicU64::new(0));
        let l = loc(1, 0);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                let c = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.lock(l, true);
                        // Non-atomic read-modify-write protected by the lock.
                        let v = c.load(Ordering::Relaxed);
                        c.store(v + 1, Ordering::Relaxed);
                        assert!(t.unlock(l, true));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8000);
        assert_eq!(t.acquisitions(), 8000);
    }

    #[test]
    fn distinct_locations_do_not_interfere() {
        let t = LockTable::new();
        t.lock(loc(1, 0), true);
        t.lock(loc(1, 1), true); // same cell, other field
        t.lock(loc(2, 0), true); // other cell
        assert!(t.unlock(loc(1, 0), true));
        assert!(t.unlock(loc(1, 1), true));
        assert!(t.unlock(loc(2, 0), true));
    }

    #[test]
    fn reentrant_exclusive() {
        let t = LockTable::new();
        let l = loc(5, 0);
        t.lock(l, true);
        t.lock(l, true);
        assert!(t.unlock(l, true));
        assert!(t.unlock(l, true));
        assert!(!t.unlock(l, true), "third unlock must fail");
    }

    #[test]
    fn shared_locks_coexist() {
        let t = Arc::new(LockTable::new());
        let l = loc(7, 1);
        t.lock(l, false);
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            t2.lock(l, false);
            assert!(t2.unlock(l, false));
        });
        h.join().unwrap();
        assert!(t.unlock(l, false));
    }

    #[test]
    fn writer_excludes_readers() {
        let t = Arc::new(LockTable::new());
        let l = loc(9, 0);
        t.lock(l, true);
        let t2 = Arc::clone(&t);
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            t2.lock(l, false);
            f2.store(1, Ordering::SeqCst);
            t2.unlock(l, false);
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(flag.load(Ordering::SeqCst), 0, "reader must wait for writer");
        t.unlock(l, true);
        h.join().unwrap();
        assert_eq!(flag.load(Ordering::SeqCst), 1);
        assert!(t.contended() >= 1);
    }

    #[test]
    fn nil_locations_are_ignored() {
        let t = LockTable::new();
        let l = Location::new(Value::NIL, 0);
        t.lock(l, true);
        assert!(t.unlock(l, true));
        assert_eq!(t.acquisitions(), 0);
    }

    #[test]
    fn unlock_without_lock_reports_false() {
        let t = LockTable::new();
        assert!(!t.unlock(loc(3, 0), true));
        assert!(!t.unlock(loc(3, 0), false));
    }

    #[test]
    fn contended_waits_record_duration() {
        let t = Arc::new(LockTable::new());
        let l = loc(13, 0);
        t.lock(l, true);
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            t2.lock(l, true);
            assert!(t2.unlock(l, true));
        });
        // Hold the lock for ≥ 15ms *after* the other thread has been
        // seen waiting, so the recorded duration has a known floor.
        while t.contended() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(15));
        assert!(t.unlock(l, true));
        h.join().unwrap();
        let s = t.wait_summary();
        assert_eq!(s.count, 1);
        assert!(s.total_ns >= 10_000_000, "a ~15ms wait must not look like 1ns: {s:?}");
        assert_eq!(s.max_ns, s.total_ns, "single wait: max == total");
        assert!(s.p50_ns >= 10_000_000, "p50 covers the only sample");
        assert_eq!(t.wait_total_ns(), s.total_ns);
    }

    #[test]
    fn uncontended_locks_record_no_wait_time() {
        let t = LockTable::new();
        let l = loc(21, 1);
        t.lock(l, true);
        assert!(t.unlock(l, true));
        t.lock(l, false);
        assert!(t.unlock(l, false));
        assert_eq!(t.wait_summary().count, 0);
        assert_eq!(t.wait_total_ns(), 0);
        assert_eq!(t.wait_max_ns(), 0);
    }

    #[test]
    fn writer_can_take_nested_read() {
        let t = LockTable::new();
        let l = loc(11, 0);
        t.lock(l, true);
        t.lock(l, false); // reentrant shared under own write lock
        assert!(t.unlock(l, false));
        assert!(t.unlock(l, true));
    }

    /// The point of synthesizing *shared* mode for read-only sides of a
    /// conflict: readers admitted under a shared lock must overlap, not
    /// queue. Every thread parks inside the critical section until all
    /// of them are inside — if shared mode serialized, this would
    /// deadlock rather than pass.
    #[test]
    fn readers_do_not_block_readers() {
        const READERS: usize = 4;
        let t = Arc::new(LockTable::new());
        let l = loc(31, 0);
        let inside = Arc::new(std::sync::Barrier::new(READERS));
        let threads: Vec<_> = (0..READERS)
            .map(|_| {
                let t = Arc::clone(&t);
                let inside = Arc::clone(&inside);
                std::thread::spawn(move || {
                    t.lock(l, false);
                    // Blocks until all READERS hold the lock at once.
                    inside.wait();
                    assert!(t.unlock(l, false));
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.shared_acquisitions(), READERS as u64);
        assert_eq!(t.acquisitions(), READERS as u64);
    }

    /// Wait durations must be observed for *read* acquisitions too —
    /// the locksynth experiments compare rw against exclusive
    /// placements by contended wait time, which would be meaningless if
    /// only writer waits landed in the histogram.
    #[test]
    fn read_acquisition_waits_land_in_histogram() {
        let t = Arc::new(LockTable::new());
        let l = loc(37, 1);
        t.lock(l, true);
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            t2.lock(l, false); // shared acquisition, blocked by writer
            assert!(t2.unlock(l, false));
        });
        while t.contended() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(15));
        assert!(t.unlock(l, true));
        h.join().unwrap();
        let s = t.wait_summary();
        assert_eq!(s.count, 1);
        assert!(s.total_ns >= 10_000_000, "reader wait must be measured: {s:?}");
        assert_eq!(t.shared_acquisitions(), 1);
    }

    /// Coalescing maps several source-level lock paths onto one
    /// physical location. The owning server then brackets the same
    /// location more than once per statement; acquisitions after the
    /// first must be reentrant (in either mode) or coalesced
    /// placements would self-deadlock.
    #[test]
    fn coalesced_paths_are_reentrant_for_owner() {
        let t = LockTable::new();
        let l = loc(41, 0);
        t.lock(l, true); // outer bracket: coalesced write path
        t.lock(l, true); // second coalesced path, same location
        t.lock(l, false); // read side of the same coalesced group
        assert!(t.unlock(l, false));
        assert!(t.unlock(l, true));
        assert!(t.unlock(l, true));
        assert!(!t.unlock(l, true), "bracket balance must still be enforced");
    }
}
