//! Poison-free synchronization primitives over `std::sync`.
//!
//! The workspace builds with zero external crates (the container has
//! no network access to a registry), so the `parking_lot` types the
//! code was written against are provided here as thin wrappers around
//! `std::sync` with the same guard-returning API: `lock()`, `read()`,
//! and `write()` return guards directly, and a panicked holder
//! (poisoned lock) is treated as an ordinary unlock — the heap and
//! scheduler state these locks protect is either internally atomic or
//! rebuilt per run, so poison propagation adds nothing but unwrap
//! noise.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, PoisonError};

/// `T` with a cache line of padding on either side: a word several
/// threads write, kept from taking its read-mostly neighbours with it.
/// Padded, not aligned: over-aligned blocks allocated per pool fragment
/// the allocator (+12 % `peak_rss_mb` on `tiny_grain` when it was).
#[derive(Debug, Default)]
#[repr(C)]
pub struct CachePadded<T>([u64; 8], T, [u64; 8]);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.1
    }
}

/// An [`AppendVec`]'s segment `k` holds `FIRST << k` slots.
const FIRST: usize = 8;
/// Enough doubling segments for every `u32` index.
const SEGMENTS: usize = 30;

/// An append-only table addressed by index. An entry never moves and
/// lives as long as the table, so [`AppendVec::get`] hands out plain
/// borrows and takes no lock: two acquire loads (the segment, then the
/// slot). Entries are written once, under a lock only appenders take;
/// a reader sees an entry whole or not yet.
#[derive(Debug)]
pub struct AppendVec<T> {
    segments: [OnceLock<Box<[OnceLock<T>]>>; SEGMENTS],
    /// Written under `append`; an index below it is readable.
    len: AtomicUsize,
    append: Mutex<()>,
}

impl<T> Default for AppendVec<T> {
    fn default() -> Self {
        AppendVec {
            segments: [const { OnceLock::new() }; SEGMENTS],
            len: AtomicUsize::new(0),
            append: Mutex::new(()),
        }
    }
}

impl<T> AppendVec<T> {
    /// (segment, offset within it) of index `i`.
    fn locate(i: usize) -> (usize, usize) {
        let n = i + FIRST;
        let seg = (n.ilog2() - FIRST.ilog2()) as usize;
        (seg, n - (FIRST << seg))
    }

    /// Entries appended so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True before the first append.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `i`, or `None` when nothing has been appended there yet.
    pub fn get(&self, i: usize) -> Option<&T> {
        let (seg, off) = Self::locate(i);
        self.segments.get(seg)?.get()?.get(off)?.get()
    }

    /// Append `value`; returns its index (panics past `u32::MAX`).
    pub fn push(&self, value: T) -> usize {
        let _appending = self.append.lock();
        let i = self.len.load(Ordering::Relaxed);
        let (seg, off) = Self::locate(i);
        let slots =
            self.segments[seg].get_or_init(|| (0..FIRST << seg).map(|_| OnceLock::new()).collect());
        assert!(slots[off].set(value).is_ok(), "appends are serialised: a slot is written once");
        self.len.store(i + 1, Ordering::Release);
        i
    }

    /// The entries, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len()).map_while(|i| self.get(i))
    }
}

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// The guard returned by [`Mutex::lock`]. Wraps the `std` guard in an
/// `Option` so [`Condvar::wait`] can move it through `std`'s
/// by-value wait and hand it back in place.
#[derive(Debug)]
pub struct MutexGuard<'a, T>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Create a mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, recovering from poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present outside wait")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present outside wait")
    }
}

/// A condition variable compatible with [`Mutex`]'s guards; `wait`
/// takes the guard by `&mut` (parking_lot style).
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Atomically release the guard's lock and wait; reacquires before
    /// returning. Spurious wakeups are possible, as with `std`.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present before wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// As [`Condvar::wait`], but give up after `timeout`. Returns true
    /// if the wait timed out (vs. a notification or spurious wakeup).
    /// Used by the pool's parked servers as a lost-wakeup backstop.
    pub fn wait_timeout<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> bool {
        let inner = guard.0.take().expect("guard present before wait");
        let (inner, res) =
            self.0.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        res.timed_out()
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A reader–writer lock whose `read`/`write` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Create a rwlock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquire a shared read guard, recovering from poison.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the exclusive write guard, recovering from poison.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn mutex_guards_exclude() {
        let m = Arc::new(Mutex::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let mut g = m.lock();
                        *g += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let h = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                cv2.wait(&mut g);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(7u64));
        let flag = Arc::new(AtomicBool::new(false));
        let (m2, f2) = (Arc::clone(&m), Arc::clone(&flag));
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            f2.store(true, Ordering::SeqCst);
            panic!("poison the mutex");
        })
        .join();
        assert!(flag.load(Ordering::SeqCst));
        assert_eq!(*m.lock(), 7, "lock usable after a panicked holder");
    }

    #[test]
    fn append_vec_indexes_across_every_segment_boundary() {
        let v = AppendVec::default();
        assert!(v.is_empty());
        assert_eq!(v.get(0), None);
        // Segment k starts at FIRST * (2^k - 1): five segments' worth.
        let n = FIRST * 31;
        for i in 0..n {
            assert_eq!(v.get(i), None, "nothing at {i} before its append");
            assert_eq!(v.push(i * 3), i);
            assert_eq!(v.len(), i + 1);
        }
        for k in 0..5 {
            let start = FIRST * ((1 << k) - 1);
            assert_eq!(AppendVec::<usize>::locate(start), (k, 0));
            for i in [start.saturating_sub(1), start, start + 1] {
                assert_eq!(v.get(i), Some(&(i * 3)), "index {i} by segment {k}'s start");
            }
        }
        // Beyond the end: in an allocated segment, in one never
        // allocated, and past the last segment there is.
        assert_eq!(AppendVec::<usize>::locate(n), (5, 0));
        for i in [n, n + 1, 10 * n, u32::MAX as usize, usize::MAX / 2] {
            assert_eq!(v.get(i), None, "index {i}");
        }
        assert!(v.iter().copied().eq((0..n).map(|i| i * 3)));
    }

    #[test]
    fn append_vec_readers_see_each_entry_exactly_as_written() {
        const N: usize = 10_000;
        let v = AppendVec::<(usize, String)>::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // Until the last entry shows: whatever is below
                    // `len` is there, whole; and an entry seen once is
                    // at the same address ever after.
                    let mut first: Option<&(usize, String)> = None;
                    loop {
                        let len = v.len();
                        for i in (0..len).rev().take(64).chain(0..len.min(8)) {
                            let e = v.get(i).expect("below len");
                            assert_eq!((e.0, e.1.as_str()), (i, format!("entry {i}").as_str()));
                        }
                        if let (Some(f), Some(now)) = (first, v.get(0)) {
                            assert!(std::ptr::eq(f, now), "entries never move");
                        }
                        first = first.or(v.get(0));
                        if len == N {
                            return;
                        }
                    }
                });
            }
            s.spawn(|| {
                for i in 0..N {
                    v.push((i, format!("entry {i}")));
                }
            });
        });
        assert_eq!(v.len(), N);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(1u64);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 2);
        }
        *l.write() = 5;
        assert_eq!(*l.read(), 5);
    }
}
