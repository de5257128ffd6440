//! The location lock table (paper §3.2.1).
//!
//! The paper's ideal machine associates a lock with every memory word;
//! "other architectures require a more-costly, dynamically-allocated
//! collection of locks (the number of locks depends on the data and
//! the depth of the recursion)". This is that collection, kept as a
//! table of *held* locks: a *location* — a heap cell plus field code —
//! has an entry only while somebody holds it, in a small vector behind
//! its shard's mutex. The transformed programs call `cri-lock` /
//! `cri-unlock` as separate statements, so scope-based guards cannot be
//! used; an entry is a reader–writer state with explicit operations.
//!
//! An operation nobody waits on is one round trip on one shard mutex:
//! no allocation once a shard's vector has grown to the few entries it
//! holds at once, no reference count, no process-wide counter (the
//! statistics sit beside the entries and are summed on read), no
//! wake-up call unless the shard has a parked waiter, who parks on the
//! shard's condvar.
//!
//! The locks are reentrant for the owning thread: coalesced lock paths
//! can alias at runtime (two paths reaching the same cell), and a
//! server must not deadlock against itself.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
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

/// The calling thread's lock-owner token: nonzero, assigned on first use.
fn token() -> u32 {
    thread_local! {
        static TOKEN: Cell<u32> = const { Cell::new(0) };
    }
    static NEXT: AtomicU32 = AtomicU32::new(1);
    TOKEN.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// One held location: it exists exactly while somebody holds it.
struct Held {
    loc: Location,
    /// Token of the exclusive holder, 0 when there is none.
    writer: u32,
    write_depth: u32,
    /// Shared holders, a writer's own re-entrant reads included.
    readers: u32,
}

#[derive(Default)]
struct ShardState {
    held: Vec<Held>,
    /// Acquirers parked on the shard's condvar (a release signals
    /// only when there are any).
    waiters: u32,
    acquisitions: u64,
    shared_acquisitions: u64,
    contended: u64,
}

impl ShardState {
    /// Take `loc` for `me` if its holders admit it.
    fn try_acquire(&mut self, loc: Location, me: u32, exclusive: bool) -> bool {
        let Some(h) = self.held.iter_mut().find(|h| h.loc == loc) else {
            let (writer, write_depth) = if exclusive { (me, 1) } else { (0, 0) };
            self.held.push(Held { loc, writer, write_depth, readers: u32::from(!exclusive) });
            return true;
        };
        if exclusive && h.writer == me {
            h.write_depth += 1;
        } else if !exclusive && (h.writer == 0 || h.writer == me) {
            h.readers += 1;
        } else {
            return false;
        }
        true
    }
}

/// A shard, padded to 128 bytes (not aligned: an over-aligned block per
/// pool fragments the allocator) so that different shards' lines differ.
#[derive(Default)]
struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
    _pad: [u64; 7],
}

const SHARDS: usize = 64;

/// The sharded table of held locks. See module docs.
pub struct LockTable {
    shards: Box<[Shard]>,
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
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            wait_hist: AtomicHistogram::new(),
        }
    }

    /// Acquire `loc`. `nil` cells have no location and are ignored
    /// (a lock path evaluated at the recursion's end may reach nil).
    pub fn lock(&self, loc: Location, exclusive: bool) {
        if Value::from_bits(loc.cell).is_nil() {
            return;
        }
        crate::chaos::on_lock_acquire();
        let me = token();
        let shard = &self.shards[shard_of(&loc)];
        let mut st = shard.state.lock();
        st.acquisitions += 1;
        st.shared_acquisitions += u64::from(!exclusive);
        if st.try_acquire(loc, me, exclusive) {
            return;
        }
        // Only the contended path pays for a timestamp pair; the
        // uncontended fast path stays clock-free.
        st.contended += 1;
        st.waiters += 1;
        curare_obs::record(EventKind::LockWaitBegin, loc_hash(&loc));
        let t0 = Instant::now();
        loop {
            shard.cv.wait(&mut st);
            if st.try_acquire(loc, me, exclusive) {
                break;
            }
        }
        st.waiters -= 1;
        drop(st);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.wait_hist.record(ns);
        curare_obs::record(EventKind::LockWaitEnd, ns);
    }

    /// Release `loc`. Returns false (and does nothing) when the caller
    /// did not hold it — a program bug surfaced to the interpreter as
    /// an error by the hooks layer.
    pub fn unlock(&self, loc: Location, exclusive: bool) -> bool {
        if Value::from_bits(loc.cell).is_nil() {
            return true;
        }
        let shard = &self.shards[shard_of(&loc)];
        let mut st = shard.state.lock();
        let Some(i) = st.held.iter().position(|h| h.loc == loc) else { return false };
        let h = &mut st.held[i];
        if exclusive {
            if h.writer != token() {
                return false;
            }
            h.write_depth -= 1;
            if h.write_depth > 0 {
                return true;
            }
            h.writer = 0;
        } else {
            if h.readers == 0 {
                return false;
            }
            h.readers -= 1;
            if h.readers > 0 {
                return true;
            }
        }
        // The writer left or the last reader did: forget the location
        // once nobody holds it, and let parked acquirers look again.
        if h.writer == 0 && h.readers == 0 {
            st.held.swap_remove(i);
        }
        if st.waiters > 0 {
            drop(st);
            shard.cv.notify_all();
        }
        true
    }

    fn sum(&self, counter: impl Fn(&ShardState) -> u64) -> u64 {
        self.shards.iter().map(|s| counter(&s.state.lock())).sum()
    }

    /// Total lock acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.sum(|s| s.acquisitions)
    }

    /// Acquisitions taken in shared (read) mode: rw placements are
    /// judged by how much traffic they move off the exclusive path.
    pub fn shared_acquisitions(&self) -> u64 {
        self.sum(|s| s.shared_acquisitions)
    }

    /// Acquisitions that had to wait.
    pub fn contended(&self) -> u64 {
        self.sum(|s| s.contended)
    }

    /// Locations the table holds state for: the held ones.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> u64 {
        self.sum(|s| s.held.len() as u64)
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
        for shard in self.shards.iter() {
            for h in &shard.state.lock().held {
                out.push((loc_hash(&h.loc), h.write_depth as usize, h.readers as usize));
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
    use std::sync::atomic::AtomicU64;
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

    /// The table against a model: four threads take random brackets
    /// over 8 hot and 10 000 cold locations (one location at a time,
    /// re-entered up to three deep, never upgrading shared to
    /// exclusive), and each location is shadowed by a word — writer
    /// token, write depth, readers — updated *inside* the bracket. No
    /// thread may ever find a foreign writer or, as a writer, a foreign
    /// reader there; and when everyone is done the counts are exact and
    /// the table is empty. A violation is noted, not raised: a thread
    /// that died holding a lock would turn the failure into a hang.
    #[test]
    fn random_brackets_agree_with_a_shadow_model() {
        const THREADS: u64 = 4;
        const STEPS: usize = 20_000;
        const HOT: u64 = 8;
        const COLD: u64 = 10_000;
        const WRITER: u64 = 48;
        const DEPTH: u64 = 32;
        let readers = |w: u64| w & 0xFFFF_FFFF;
        let writer = |w: u64| w >> WRITER;
        assert!(std::mem::size_of::<Shard>() >= 128, "the padding keeps shards off shared lines");
        let t = LockTable::new();
        let shadow: Vec<AtomicU64> = (0..HOT + COLD).map(|_| AtomicU64::new(0)).collect();
        let locked = AtomicU64::new(0);
        let violations = std::sync::Mutex::new(Vec::new());
        let check = |ok: bool, what: &'static str| {
            if !ok {
                violations.lock().unwrap().push(what);
            }
        };
        std::thread::scope(|scope| {
            for me in 1..=THREADS {
                let (t, shadow, locked, check) = (&t, &shadow, &locked, &check);
                scope.spawn(move || {
                    let mut rng = me.wrapping_mul(0x2545_F491_4F6C_DD1D);
                    // The brackets held, innermost last: all on `at`.
                    let mut held: Vec<bool> = Vec::new();
                    let mut at = 0u64;
                    let mut steps = 0;
                    while steps < STEPS || !held.is_empty() {
                        steps += 1;
                        let r = crate::queue::splitmix64(&mut rng);
                        let word = &shadow[at as usize];
                        if steps > STEPS || (!held.is_empty() && (r & 1 == 0 || held.len() == 3)) {
                            let exclusive = held.pop().expect("checked");
                            if exclusive {
                                let prev = word.fetch_sub(1 << DEPTH, Ordering::SeqCst);
                                check(writer(prev) == me, "released another's write lock");
                                if (prev >> DEPTH) & 0xFFFF == 1 {
                                    word.fetch_and((1 << WRITER) - 1, Ordering::SeqCst);
                                }
                            } else {
                                let prev = word.fetch_sub(1, Ordering::SeqCst);
                                check(readers(prev) >= 1, "released a read lock nobody held");
                            }
                            check(t.unlock(loc(at, 0), exclusive), "balanced release refused");
                            continue;
                        }
                        // Re-enter the held location (shared under
                        // anything, exclusive only under exclusive), or
                        // pick a new one: hot half the time.
                        let exclusive = match held.first() {
                            Some(&base) => base && r & 2 == 0,
                            None => {
                                let pick = r >> 8;
                                at = if r & 4 == 0 { pick % HOT } else { HOT + pick % COLD };
                                r & 2 == 0
                            }
                        };
                        let word = &shadow[at as usize];
                        t.lock(loc(at, 0), exclusive);
                        locked.fetch_add(1, Ordering::Relaxed);
                        let mine = held.iter().filter(|&&x| !x).count() as u64;
                        held.push(exclusive);
                        if exclusive {
                            let prev = word.fetch_add(1 << DEPTH, Ordering::SeqCst);
                            check(writer(prev) == 0 || writer(prev) == me, "two writers");
                            check(readers(prev) == mine, "writer beside a foreign reader");
                            word.fetch_or(me << WRITER, Ordering::SeqCst);
                        } else {
                            let prev = word.fetch_add(1, Ordering::SeqCst);
                            let free = writer(prev) == 0 || writer(prev) == me;
                            check(free, "reader beside a foreign writer");
                        }
                        // Now and then give the others a turn while
                        // holding, so brackets overlap on two cores too.
                        if r & 0x70 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let violations = violations.into_inner().unwrap();
        assert_eq!(violations.first(), None, "the first of {} violations", violations.len());
        assert!(shadow.iter().all(|w| w.load(Ordering::SeqCst) == 0), "unbalanced shadow");
        assert_eq!(t.acquisitions(), locked.load(Ordering::Relaxed));
        assert_eq!(t.wait_summary().count, t.contended());
        assert!(t.held_snapshot().is_empty());
        assert_eq!(t.retained(), 0, "a released location left state behind");
    }

    /// A blocked acquirer parks: while the holder sits on the lock for
    /// 300 ms the waiter's thread accrues (next to) no CPU time. Read
    /// from procfs in clock ticks of 10 ms; skipped where there is none.
    #[test]
    fn a_blocked_acquirer_parks_instead_of_spinning() {
        fn cpu_ticks() -> Option<u64> {
            let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
            let mut fields = stat.rsplit_once(") ")?.1.split_whitespace().skip(11);
            Some(fields.next()?.parse::<u64>().ok()? + fields.next()?.parse::<u64>().ok()?)
        }
        let t = Arc::new(LockTable::new());
        let l = loc(43, 0);
        t.lock(l, true);
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            let before = cpu_ticks();
            t2.lock(l, true);
            assert!(t2.unlock(l, true));
            Some(cpu_ticks()? - before?)
        });
        while t.contended() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        assert!(t.unlock(l, true));
        if let Some(ticks) = waiter.join().unwrap() {
            assert!(ticks <= 5, "a waiter that spun would have burnt ~30 ticks, not {ticks}");
        }
    }
}
