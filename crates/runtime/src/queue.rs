//! Task queues for the CRI server pool (paper §4.1).
//!
//! Invocations of a function with a single self-recursive call enter a
//! single FIFO queue "in their sequential order". A function with
//! multiple call sites would scramble the order, so the paper keeps
//! "an ordered set of queues, one for each call site", servers taking
//! from the lowest-indexed non-empty queue.
//!
//! [`ShardedQueues`] is that ordered set: one lock *per call site*,
//! sites partitioned into ownership groups, each group with its own
//! atomic nonempty-site bitmask. A server scans only its own group's
//! mask; when that is empty it *steals* from a victim group —
//! migrating whole sites (the queue stays in place, only the owner
//! cell and mask bits move, so per-site FIFO is preserved by
//! construction), or popping a single task when the victim has just
//! one non-empty site. With one group ([`ShardedQueues::new`], the
//! pool's `SchedMode::Central`) every server drains the same mask and
//! there is nobody to steal from.
//!
//! Mask discipline: every group-mask set/clear for a site below 63 and
//! every owner-cell write happens while holding that site's lock, so a
//! reader holding the lock always sees owner, queue, and mask in
//! agreement — a group's bit is set exactly while it owns a non-empty
//! site. All dequeues go through one kernel (`take`) that keeps it so.
//! The lock-free group-mask read in `pop_group` is only a routing
//! hint, re-verified under the lock; the authoritative emptiness
//! signal is `len`, incremented *before* a task becomes visible.
//!
//! What a hand-over writes: a push or a pop takes the site's lock and
//! moves `len`; beyond those it writes shared state only when the
//! state changes — the owner's mask bit when the site turns non-empty
//! or empty, the owner cell when the owner differs, `peak` when
//! exceeded. A site is found by index in an append-only table (no
//! lock, no reference count); each group's mask, the counters and
//! every site's hot words have cache lines of their own. `len` stays
//! one counter rather than being folded into the masks: the shared bit
//! of sites ≥ 63 is cleared and re-set around a rescan, so "some mask
//! is nonzero" cannot be the exact `has_work` that parking relies on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use curare_lisp::interp::splitmix64;
use curare_lisp::sync::{AppendVec, CachePadded, Mutex};
use curare_lisp::{FuncId, Value};

/// One pending invocation: the function, its arguments, and the call
/// site that produced it.
#[derive(Debug)]
pub struct Task {
    /// Function to invoke.
    pub fid: FuncId,
    /// Evaluated actual parameters.
    pub args: Vec<Value>,
    /// Call-site index (queue selector).
    pub site: usize,
    /// Future to resolve with the invocation's value, if any.
    pub future: Option<u64>,
    /// Invocation id (0 unless the access journal or the causal
    /// profiler is armed).
    pub inv: u64,
    /// The run's root invocation, whose value the run returns.
    pub root: bool,
}

/// Sites at or above this index share the top bitmask bit.
const SHARED_BIT: usize = 63;

/// Bounded steal retries before a thief gives up and backs off.
const STEAL_RETRIES: usize = 4;

fn site_bit(site: usize) -> u64 {
    1u64 << site.min(SHARED_BIT)
}

/// Bits for every site at or below `site` (the sites a server would
/// prefer over, or FIFO-order ahead of, a task at `site`).
fn bits_through(site: usize) -> u64 {
    if site >= SHARED_BIT {
        u64::MAX
    } else {
        (1u64 << (site + 1)) - 1
    }
}

/// Owner sentinel for a site that has never held a task.
const UNOWNED: usize = usize::MAX;

/// One call site's FIFO queue behind its own lock, plus the index of
/// the server group that currently owns it. The owner cell is written
/// only under the queue lock (first push assigns the home owner;
/// stealing reassigns it), so the queue itself never moves — migration
/// is a metadata flip, which is what preserves per-site FIFO across
/// steals by construction.
#[derive(Debug)]
struct SiteQueue {
    q: Mutex<VecDeque<Task>>,
    owner: AtomicUsize,
    /// Fills a table slot out to 128 bytes, so that two servers on
    /// neighbouring sites share no line. Padding rather than alignment:
    /// the table's first segment is eight of these, 1 KB, wherever the
    /// allocator puts it.
    _pad: [u64; 9],
}

impl Default for SiteQueue {
    fn default() -> Self {
        Self { q: Mutex::new(VecDeque::new()), owner: AtomicUsize::new(UNOWNED), _pad: [0; 9] }
    }
}

/// The counters: total queued tasks, the highest total reached, and
/// what thieves count. One line, which every push and pop writes.
#[derive(Debug, Default)]
struct Traffic {
    len: AtomicU64,
    peak: AtomicU64,
    steal_attempts: AtomicU64,
    steal_successes: AtomicU64,
    steal_races: AtomicU64,
    sites_migrated: AtomicU64,
}

/// The ordered set of per-call-site queues, internally synchronized
/// with one lock per site, partitioned into ownership groups with work
/// stealing between them (see module docs).
#[derive(Debug)]
pub struct ShardedQueues {
    /// The queues, by site index; created on a site's first push.
    sites: AppendVec<SiteQueue>,
    /// One nonempty-site bitmask per ownership group. Bit
    /// `min(site, 63)` is set while a site owned by that group may
    /// hold tasks; bit 63 is shared by every site ≥ 63 and re-verified
    /// by rescanning.
    groups: Vec<CachePadded<AtomicU64>>,
    /// `wake[g]`: the servers that drain group `g` (server `i` drains
    /// group `i % groups`), one bit per server index below 64 — what
    /// a publisher hands the pool to unpark.
    wake: Vec<u64>,
    traffic: CachePadded<Traffic>,
}

impl Default for ShardedQueues {
    fn default() -> Self {
        Self::with_servers(1)
    }
}

impl ShardedQueues {
    /// An empty queue set with a single ownership group: every server
    /// drains it, a push wakes any of them, and nothing is ever
    /// stolen.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue set partitioned into one ownership group per
    /// server, idle servers stealing from the others' groups. Group
    /// count is capped at 64 so every group has a server in the
    /// one-word wake mask; extra servers share group `i % 64`.
    pub fn with_servers(servers: usize) -> Self {
        let n = servers.clamp(1, 64);
        Self {
            sites: AppendVec::default(),
            groups: (0..n).map(|_| CachePadded::default()).collect(),
            wake: (0..n).map(|g| (g..64).step_by(n).fold(0, |m, i| m | 1u64 << i)).collect(),
            traffic: CachePadded::default(),
        }
    }

    /// The ownership group a server index maps to.
    pub fn group_of(&self, server: usize) -> usize {
        server % self.groups.len()
    }

    /// The group that drains `site` given its recorded `owner`: that
    /// owner, or for a site never pushed to, its home `site % groups`.
    fn owner_or_home(&self, owner: usize, site: usize) -> usize {
        if owner == UNOWNED {
            site % self.groups.len()
        } else {
            owner
        }
    }

    /// `site`'s queue, appending the table out to it on first use (two
    /// racing first users may append a spare site or two: harmless).
    fn site_queue(&self, site: usize) -> &SiteQueue {
        loop {
            if let Some(sq) = self.sites.get(site) {
                return sq;
            }
            self.sites.push(SiteQueue::default());
        }
    }

    /// Current owner group of `site`, its home while it has none.
    pub fn owner_of(&self, site: usize) -> usize {
        let recorded = self.sites.get(site).map_or(UNOWNED, |sq| sq.owner.load(Ordering::Acquire));
        self.owner_or_home(recorded, site)
    }

    /// Publish a batch of tasks, preserving their order. Consecutive
    /// tasks for the same site are pushed under one site-lock
    /// acquisition. Returns a wake mask: the servers (bit
    /// `min(index, 63)`) that drain an owner group which received work
    /// — the pool unparks among those.
    pub fn push_batch(
        &self,
        tasks: impl IntoIterator<Item = Task, IntoIter: ExactSizeIterator>,
    ) -> u64 {
        let tasks = tasks.into_iter();
        let n = tasks.len() as u64;
        if n == 0 {
            return 0;
        }
        let new_len = self.traffic.len.fetch_add(n, Ordering::AcqRel) + n;
        if new_len > self.traffic.peak.load(Ordering::Relaxed) {
            self.traffic.peak.fetch_max(new_len, Ordering::Relaxed);
        }
        let mut wake = 0u64;
        let mut tasks = tasks.peekable();
        while let Some(task) = tasks.next() {
            let site = task.site;
            let sq = self.site_queue(site);
            let mut q = sq.q.lock();
            q.push_back(task);
            while tasks.peek().is_some_and(|t| t.site == site) {
                q.push_back(tasks.next().expect("peeked"));
            }
            // Resolve the owner under the site lock, assigning the home
            // owner on first use. The lock decides both writes: nobody
            // else moves this site's owner or (below 63) its bit
            // meanwhile. A shared bit seen set may be cleared under us,
            // by a `pop_group` that then rescans and finds this push.
            let recorded = sq.owner.load(Ordering::Relaxed);
            let owner = self.owner_or_home(recorded, site);
            if owner != recorded {
                sq.owner.store(owner, Ordering::Release);
            }
            if self.groups[owner].load(Ordering::Acquire) & site_bit(site) == 0 {
                self.groups[owner].fetch_or(site_bit(site), Ordering::AcqRel);
            }
            wake |= self.wake[owner];
        }
        wake
    }

    /// Publish a single task. Returns the same wake mask as
    /// [`ShardedQueues::push_batch`].
    pub fn push(&self, task: Task) -> u64 {
        self.push_batch(std::iter::once(task))
    }

    /// Dequeue from the lowest-indexed non-empty site, ignoring
    /// ownership (global §4.1 order; among sites ≥ 63 of different
    /// groups, group order). Used by helping `touch` waiters and by
    /// tests; pool servers use [`ShardedQueues::pop_local`] +
    /// [`ShardedQueues::steal`].
    pub fn pop(&self) -> Option<Task> {
        self.dequeue(None)
    }

    /// Dequeue from the calling server's own group: lowest-indexed
    /// non-empty site it owns.
    pub fn pop_local(&self, server: usize) -> Option<Task> {
        self.dequeue(Some(self.group_of(server)))
    }

    /// The two iteration orders over the kernel. Under a chaos shuffle
    /// the scan starts at a rotated site instead of the lowest one:
    /// within-site FIFO is preserved (`take` only ever pops a front);
    /// only the cross-site preference is perturbed — the ordering the
    /// §4.1 discipline does *not* promise, which is exactly what makes
    /// this a legal adversary. A rotated scan that loses every race
    /// falls through to mask order without redrawing the decision.
    fn dequeue(&self, group: Option<usize>) -> Option<Task> {
        if let Some(r) = crate::chaos::pop_shuffle() {
            let n = self.sites.len();
            let start = (r % n.max(1) as u64) as usize;
            if let Some(t) = (0..n).find_map(|i| self.take((start + i) % n, group)) {
                return Some(t);
            }
        }
        match group {
            Some(g) => self.pop_group(g),
            None => loop {
                // The group whose lowest non-empty site is lowest.
                let first = |g: usize| (self.groups[g].load(Ordering::Acquire).trailing_zeros(), g);
                let (site, g) = (0..self.groups.len()).map(first).min()?;
                if site == u64::BITS {
                    return None;
                }
                if let Some(t) = self.pop_group(g) {
                    return Some(t);
                }
            },
        }
    }

    /// The one dequeue: the front of `site`, provided `group` is
    /// `None` or owns it. The site lock is held across the owner
    /// check, the pop and the mask write, so whoever locks next sees
    /// them agree; and every miss clears the hint that led to it (a
    /// stale mask snapshot: the site drained or migrated since), so
    /// the mask-order loops terminate.
    fn take(&self, site: usize, group: Option<usize>) -> Option<Task> {
        let sq = self.site_queue(site);
        let mut q = sq.q.lock();
        let owner = sq.owner.load(Ordering::Relaxed);
        if let Some(g) = group.filter(|&g| g != owner) {
            self.clear_hint(g, site);
            return None;
        }
        let t = q.pop_front();
        if q.is_empty() && owner != UNOWNED {
            self.clear_hint(owner, site);
        }
        drop(q);
        if t.is_some() {
            self.traffic.len.fetch_sub(1, Ordering::AcqRel);
        }
        t
    }

    /// Clear `site`'s bit in group `g`'s mask (caller holds the site
    /// lock). Sites ≥ 63 share a bit no single site may clear.
    fn clear_hint(&self, g: usize, site: usize) {
        if site < SHARED_BIT {
            self.groups[g].fetch_and(!site_bit(site), Ordering::AcqRel);
        }
    }

    /// Mask order: the front of the lowest-indexed non-empty site
    /// group `g` owns.
    fn pop_group(&self, g: usize) -> Option<Task> {
        loop {
            let gmask = self.groups[g].load(Ordering::Acquire);
            if gmask == 0 {
                return None;
            }
            let site = gmask.trailing_zeros() as usize;
            if site < SHARED_BIT {
                match self.take(site, Some(g)) {
                    Some(t) => return Some(t),
                    None => continue,
                }
            }
            let high = || (SHARED_BIT..self.sites.len()).find_map(|s| self.take(s, Some(g)));
            if let Some(t) = high() {
                return Some(t);
            }
            // Clear the shared bit, then rescan: a site ≥ 63 push
            // may have landed between the scan and the clear.
            self.groups[g].fetch_and(!site_bit(SHARED_BIT), Ordering::AcqRel);
            if let Some(t) = high() {
                self.groups[g].fetch_or(site_bit(SHARED_BIT), Ordering::AcqRel);
                return Some(t);
            }
        }
    }

    /// Steal work for `thief` from another group. Victims are chosen
    /// by the caller-supplied splitmix64 stream (`rng`), bounded to
    /// `STEAL_RETRIES` attempts. When the victim owns ≥ 2 non-empty
    /// sites below the shared bit, half of them (the highest-indexed
    /// ones, so the victim keeps its preferred low sites) migrate to
    /// the thief — owner cell and mask bit flip under each site's
    /// lock; the queue never moves, so per-site FIFO is preserved by
    /// construction. When the victim has a single non-empty site (or
    /// only shared-bit work), one task is popped from its front
    /// instead, which keeps a single hot site parallelizable. Returns
    /// a task on success; `None` at once when there is only one group.
    pub fn steal(&self, thief: usize, rng: &mut u64) -> Option<Task> {
        if self.groups.len() <= 1 {
            return None;
        }
        let me = self.group_of(thief);
        self.traffic.steal_attempts.fetch_add(1, Ordering::Relaxed);
        for _ in 0..STEAL_RETRIES {
            let word = splitmix64(rng);
            let victim = self.pick_victim(me, word)?;
            let vmask = self.groups[victim].load(Ordering::Acquire);
            let low = vmask & !site_bit(SHARED_BIT);
            let count = low.count_ones() as usize;
            if count >= 2 {
                // Steal-half: migrate the highest-indexed half.
                let take = count / 2;
                let mut migrated = 0usize;
                let mut rem = low;
                for _ in 0..take {
                    let site = (63 - rem.leading_zeros()) as usize;
                    rem &= !site_bit(site);
                    if self.migrate_site(site, victim, me) {
                        migrated += 1;
                    } else {
                        self.traffic.steal_races.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if migrated > 0 {
                    self.traffic.sites_migrated.fetch_add(migrated as u64, Ordering::Relaxed);
                    if let Some(t) = self.pop_group(me) {
                        self.traffic.steal_successes.fetch_add(1, Ordering::Relaxed);
                        return Some(t);
                    }
                }
            } else if vmask != 0 {
                // Single hot site (or shared-bit-only work): take one
                // task off its front rather than shuffling ownership
                // around — this is what lets several servers chew on
                // one skewed site at once.
                if let Some(t) = self.pop_group(victim) {
                    self.traffic.steal_successes.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
                self.traffic.steal_races.fetch_add(1, Ordering::Relaxed);
            }
        }
        None
    }

    /// Pick a non-empty victim group other than `me`, scanning
    /// round-robin from a seeded start.
    fn pick_victim(&self, me: usize, word: u64) -> Option<usize> {
        let n = self.groups.len();
        let start = (word % n as u64) as usize;
        (0..n)
            .map(|i| (start + i) % n)
            .find(|&v| v != me && self.groups[v].load(Ordering::Acquire) != 0)
    }

    /// Flip `site`'s owner from `victim` to `thief` under the site
    /// lock, moving its mask bit between the groups. Returns false if
    /// the site was no longer the victim's or had drained (a lost
    /// race).
    fn migrate_site(&self, site: usize, victim: usize, thief: usize) -> bool {
        let sq = self.site_queue(site);
        let q = sq.q.lock();
        if sq.owner.load(Ordering::Relaxed) != victim {
            return false;
        }
        if q.is_empty() {
            // Drained since the mask snapshot; fix the stale hint.
            self.groups[victim].fetch_and(!site_bit(site), Ordering::AcqRel);
            return false;
        }
        sq.owner.store(thief, Ordering::Release);
        self.groups[victim].fetch_and(!site_bit(site), Ordering::AcqRel);
        self.groups[thief].fetch_or(site_bit(site), Ordering::AcqRel);
        true
    }

    /// True when a published (or mid-publish) task exists anywhere.
    pub fn has_work(&self) -> bool {
        self.traffic.len.load(Ordering::Acquire) > 0
    }

    /// Total queued tasks (may briefly lead visibility during a push).
    pub fn len(&self) -> usize {
        self.traffic.len.load(Ordering::Acquire) as usize
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        !self.has_work()
    }

    /// Highest total length ever reached.
    pub fn peak(&self) -> usize {
        self.traffic.peak.load(Ordering::Relaxed) as usize
    }

    /// Steal statistics: (attempts, successes, lost races, sites
    /// migrated).
    pub fn steal_stats(&self) -> (u64, u64, u64, u64) {
        let t = &self.traffic;
        [&t.steal_attempts, &t.steal_successes, &t.steal_races, &t.sites_migrated]
            .map(|c| c.load(Ordering::Relaxed))
            .into()
    }

    /// True when a freshly produced task for `site` could run
    /// immediately without violating the FIFO-within-site discipline:
    /// the site's *current owner* (chaining follows migration) has no
    /// queued work at or below the site. Re-reads the owner cell on
    /// every call, so a chained successor lands with whichever group
    /// the site was stolen into. Three loads: writes nothing.
    pub fn can_chain(&self, site: usize) -> bool {
        self.groups[self.owner_of(site)].load(Ordering::Acquire) & bits_through(site) == 0
    }

    /// Remove and return every queued task (error shutdown needs to
    /// fail their futures). A shared bit left set is only a hint the
    /// next `pop_group` rescans away.
    pub fn drain_all(&self) -> Vec<Task> {
        let mut out = Vec::new();
        for (site, sq) in self.sites.iter().enumerate() {
            let mut q = sq.q.lock();
            out.extend(q.drain(..));
            let owner = sq.owner.load(Ordering::Relaxed);
            if owner != UNOWNED {
                self.clear_hint(owner, site);
            }
        }
        if !out.is_empty() {
            self.traffic.len.fetch_sub(out.len() as u64, Ordering::AcqRel);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn task(site: usize, tag: i64) -> Task {
        Task { fid: 0, args: vec![Value::int(tag)], site, future: None, inv: 0, root: false }
    }

    #[test]
    fn len_and_peak_track() {
        let q = ShardedQueues::new();
        assert!(q.is_empty());
        q.push(task(0, 1));
        q.push(task(3, 2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.push(task(0, 3));
        q.push(task(0, 4));
        assert_eq!(q.peak(), 3);
        q.drain_all();
        assert!(q.is_empty());
        assert_eq!(q.peak(), 3, "peak survives the drain");
    }

    #[test]
    fn single_site_queue_never_grows_under_one_in_one_out() {
        // §4.1: "Execution of a task removes an item from the queue and
        // that task adds at most one item, so its length never
        // increases."
        let q = ShardedQueues::new();
        for i in 0..4 {
            q.push(task(0, i));
        }
        let start = q.len();
        for _ in 0..100 {
            if let Some(t) = q.pop() {
                // the executed task enqueues at most one successor
                if t.args[0].as_int().unwrap() < 96 {
                    q.push(task(0, t.args[0].as_int().unwrap() + 4));
                }
                assert!(q.len() <= start);
            }
        }
    }

    #[test]
    fn sharded_fifo_within_a_site() {
        let q = ShardedQueues::new();
        q.push(task(0, 1));
        q.push(task(0, 2));
        q.push(task(0, 3));
        assert_eq!(q.pop().unwrap().args[0], Value::int(1));
        assert_eq!(q.pop().unwrap().args[0], Value::int(2));
        assert_eq!(q.pop().unwrap().args[0], Value::int(3));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn sharded_lower_sites_drain_first() {
        let q = ShardedQueues::new();
        q.push(task(1, 10));
        q.push(task(0, 1));
        q.push(task(1, 11));
        q.push(task(0, 2));
        let order: Vec<i64> =
            std::iter::from_fn(|| q.pop()).map(|t| t.args[0].as_int().unwrap()).collect();
        assert_eq!(order, [1, 2, 10, 11]);
    }

    #[test]
    fn sharded_batch_preserves_program_order() {
        let q = ShardedQueues::new();
        q.push_batch(vec![task(0, 1), task(0, 2), task(1, 10), task(0, 3)]);
        let order: Vec<i64> =
            std::iter::from_fn(|| q.pop()).map(|t| t.args[0].as_int().unwrap()).collect();
        assert_eq!(order, [1, 2, 3, 10]);
        assert_eq!(q.peak(), 4);
    }

    #[test]
    fn sharded_high_sites_share_the_top_bit() {
        let q = ShardedQueues::new();
        q.push(task(200, 3));
        q.push(task(63, 1));
        q.push(task(64, 2));
        q.push(task(5, 0));
        let order: Vec<i64> =
            std::iter::from_fn(|| q.pop()).map(|t| t.args[0].as_int().unwrap()).collect();
        assert_eq!(order, [0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn sharded_can_chain_respects_site_priority() {
        let q = ShardedQueues::new();
        assert!(q.can_chain(0), "empty set chains anywhere");
        assert!(q.can_chain(500));
        assert!(q.sites.is_empty(), "asking creates no site");
        q.push(task(2, 1));
        assert!(q.can_chain(0), "site 0 outranks the queued site 2");
        assert!(q.can_chain(1));
        assert!(!q.can_chain(2), "FIFO: queued site-2 work goes first");
        assert!(!q.can_chain(3), "site 2 outranks a new site-3 task");
        q.pop();
        assert!(q.can_chain(2));
    }

    #[test]
    fn sharded_drain_all_empties_and_returns_everything() {
        let q = ShardedQueues::new();
        q.push_batch(vec![task(0, 1), task(3, 2), task(0, 3)]);
        let drained = q.drain_all();
        assert_eq!(drained.len(), 3);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.peak(), 3, "peak survives drain");
    }

    #[test]
    fn sharded_concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(ShardedQueues::new());
        let produced: u64 = 4 * 500;
        let consumed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..500 {
                        q.push_batch(vec![task((p % 3) as usize, (p * 1000 + i) as i64)]);
                    }
                });
            }
            for _ in 0..2 {
                let q = Arc::clone(&q);
                let consumed = Arc::clone(&consumed);
                s.spawn(move || loop {
                    if q.pop().is_some() {
                        if consumed.fetch_add(1, Ordering::AcqRel) + 1 == produced {
                            return;
                        }
                    } else if consumed.load(Ordering::Acquire) == produced {
                        return;
                    } else {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert_eq!(consumed.load(Ordering::Acquire), produced);
        assert!(q.is_empty());
    }

    #[test]
    fn ownership_partitions_sites_across_groups() {
        let q = ShardedQueues::with_servers(4);
        for s in 0..8 {
            q.push(task(s, s as i64));
        }
        for s in 0..8 {
            assert_eq!(q.owner_of(s), s % 4, "home owner is site % servers");
        }
        // Each server sees only its own two sites.
        for g in 0..4 {
            let a = q.pop_local(g).unwrap().args[0].as_int().unwrap();
            let b = q.pop_local(g).unwrap().args[0].as_int().unwrap();
            assert_eq!((a as usize % 4, b as usize % 4), (g, g));
            assert!(a < b, "lowest owned site first");
            assert!(q.pop_local(g).is_none());
        }
        assert!(q.is_empty());
    }

    #[test]
    fn steal_migrates_half_the_victims_sites_and_preserves_fifo() {
        let q = ShardedQueues::with_servers(2);
        // Four sites, all homed on group 0 (sites 0 and 2... with 2
        // servers, even sites are group 0). Push FIFO pairs on each.
        for site in [0usize, 2, 4, 6] {
            q.push(task(site, (site * 10) as i64));
            q.push(task(site, (site * 10 + 1) as i64));
        }
        assert!(q.pop_local(1).is_none(), "the thief's own group is empty");
        let mut rng = 7u64;
        let t = q.steal(1, &mut rng).expect("thief finds work");
        let (att, succ, _races, migrated) = q.steal_stats();
        assert_eq!(att, 1);
        assert_eq!(succ, 1);
        assert_eq!(migrated, 2, "half of 4 sites migrate");
        // The stolen task is the head of a migrated site (FIFO).
        assert_eq!(t.args[0].as_int().unwrap() % 10, 0, "stole a site's head");
        let site = t.site;
        assert_eq!(q.owner_of(site), 1, "owner cell followed the steal");
        let next = q.pop_local(1).expect("second owned-site task");
        // Drain everything; per-site order must be (x0, x1) for all x.
        let mut tail: Vec<Task> = vec![next];
        while let Some(t) = q.pop_local(1) {
            tail.push(t);
        }
        while let Some(t) = q.pop_local(0) {
            tail.push(t);
        }
        let mut last: std::collections::HashMap<usize, i64> = Default::default();
        last.insert(site, t.args[0].as_int().unwrap());
        for t in &tail {
            let v = t.args[0].as_int().unwrap();
            if let Some(prev) = last.insert(t.site, v) {
                assert!(prev < v, "per-site FIFO across migration");
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn steal_pop_shares_a_single_hot_site() {
        let q = ShardedQueues::with_servers(4);
        for i in 0..6 {
            q.push(task(0, i));
        }
        let mut rng = 1u64;
        let t = q.steal(2, &mut rng).expect("steal-pop from the hot site");
        assert_eq!(t.args[0].as_int().unwrap(), 0, "front of the queue");
        assert_eq!(q.owner_of(0), 0, "single hot site stays with its owner");
        let (_, _, _, migrated) = q.steal_stats();
        assert_eq!(migrated, 0);
        // Owner still drains in FIFO order.
        for want in 1..6 {
            assert_eq!(q.pop_local(0).unwrap().args[0].as_int().unwrap(), want);
        }
    }

    #[test]
    fn can_chain_follows_the_migrated_owner() {
        let q = ShardedQueues::with_servers(2);
        // Sites 0 and 2 homed on group 0, two tasks each so the
        // migrated site still has queued work after the steal's pop.
        q.push_batch(vec![task(0, 1), task(0, 2), task(2, 3), task(2, 4)]);
        // Group 1 owns nothing: a site-3 task (homed on group 1)
        // could chain even though group 0 has queued work.
        assert!(q.can_chain(3), "chain decision is per owner group");
        assert!(!q.can_chain(2), "queued site-2 work blocks its own site");
        let mut rng = 11u64;
        let stolen = q.steal(1, &mut rng).expect("steal-half succeeds");
        // The higher site (2) migrated; its remaining queued task now
        // blocks chaining through group 1 at or above its index.
        assert_eq!(stolen.site, 2);
        assert_eq!(q.owner_of(2), 1);
        assert!(!q.can_chain(2), "remaining site-2 work follows the thief");
        assert_eq!(q.pop_local(1).map(|t| t.site), Some(2));
        assert!(q.can_chain(2), "drained: the thief's mask is clear");
        q.push(task(2, 5));
        assert!(!q.can_chain(5), "homed on the thief, outranked by site 2");
    }

    /// At a quiescent point `len` is the sum of the queue lengths, and
    /// a group's mask has a site's bit exactly while the group owns
    /// that site non-empty (sites ≥ 63 share a hint bit, not a fact).
    fn assert_len_and_masks_agree(q: &ShardedQueues, ctx: &str) {
        let queued: usize = q.sites.iter().map(|sq| sq.q.lock().len()).sum();
        assert_eq!(q.len(), queued, "{ctx}");
        for (g, mask) in q.groups.iter().enumerate() {
            let owned = q
                .sites
                .iter()
                .take(SHARED_BIT)
                .enumerate()
                .filter(|(_, sq)| sq.owner.load(Ordering::Relaxed) == g && !sq.q.lock().is_empty())
                .fold(0u64, |m, (site, _)| m | site_bit(site));
            let low = mask.load(Ordering::Relaxed) & !site_bit(SHARED_BIT);
            assert_eq!(low, owned, "{ctx}: group {g}");
        }
    }

    #[test]
    fn random_operation_sequences_keep_len_masks_and_fifo_in_agreement() {
        const SITES: [usize; 8] = [0, 1, 2, 7, 40, 62, 63, 90];
        for seed in 0..24u64 {
            let mut rng = seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1;
            let groups = 1 + (seed % 4) as usize;
            let q = ShardedQueues::with_servers(groups);
            // Per site, the tags still queued, in push order.
            let mut model = std::collections::HashMap::<usize, VecDeque<i64>>::new();
            let mut tag = 0i64;
            for step in 0..400 {
                let word = splitmix64(&mut rng);
                let server = (word >> 8) as usize % groups;
                let popped = match word % 16 {
                    0..=5 => {
                        let batch: Vec<Task> = (0..1 + (word >> 16) % 3)
                            .map(|i| {
                                tag += 1;
                                task(SITES[(word >> (20 + 3 * i)) as usize % SITES.len()], tag)
                            })
                            .collect();
                        for t in &batch {
                            model.entry(t.site).or_default().push_back(t.args[0].as_int().unwrap());
                        }
                        assert_ne!(q.push_batch(batch), 0, "a push names someone to wake");
                        None
                    }
                    6..=9 => q.pop_local(server),
                    10 | 11 => q.pop(),
                    _ => q.steal(server, &mut rng),
                };
                let ctx = format!("seed {seed}, {groups} group(s), step {step}");
                if let Some(t) = popped {
                    let front = model.get_mut(&t.site).and_then(VecDeque::pop_front);
                    assert_eq!(t.args[0].as_int(), front, "{ctx}: site {} out of order", t.site);
                }
                assert_len_and_masks_agree(&q, &ctx);
            }
            // Whatever is left comes out through the oblivious pop, each
            // site still in order, and the structure ends empty.
            while let Some(t) = q.pop() {
                let front = model.get_mut(&t.site).and_then(VecDeque::pop_front);
                assert_eq!(t.args[0].as_int(), front, "seed {seed}: drain of site {}", t.site);
            }
            assert!(model.values().all(VecDeque::is_empty), "seed {seed}: tasks left behind");
            assert!(q.is_empty());
            assert_len_and_masks_agree(&q, &format!("seed {seed}, drained"));
        }
    }

    /// One producer keeps site 0 hot (and feeds three colder sites, all
    /// past the table's first segment, one behind the shared bit) while
    /// its owner pops and a thief steals. Every task must come out
    /// exactly once, each consumer seeing each site's tasks in push
    /// order, and the counters must agree with the queues afterwards.
    /// How the tasks split between the two is the schedule's business.
    #[test]
    fn a_hot_site_under_its_owner_and_a_thief_hands_over_each_task_once_in_order() {
        const N: i64 = 30_000;
        let q = ShardedQueues::with_servers(2);
        let (start, done) = (std::sync::Barrier::new(3), std::sync::atomic::AtomicBool::new(false));
        let consume = |server: usize| {
            let mut rng = 0x5EED + server as u64;
            let mut got: Vec<(usize, i64)> = Vec::new();
            start.wait();
            loop {
                let stolen = || if server == 1 { q.steal(server, &mut rng) } else { None };
                match q.pop_local(server).or_else(stolen) {
                    Some(t) => got.push((t.site, t.args[0].as_int().unwrap())),
                    None if done.load(Ordering::Acquire) && q.is_empty() => return got,
                    None => std::hint::spin_loop(),
                }
            }
        };
        let (owner, thief) = std::thread::scope(|s| {
            let (owner, thief) = (s.spawn(|| consume(0)), s.spawn(|| consume(1)));
            start.wait();
            for tag in 0..N {
                let site = if tag % 8 == 7 { [10, 40, 70][tag as usize / 8 % 3] } else { 0 };
                q.push(task(site, tag));
            }
            done.store(true, Ordering::Release);
            (owner.join().unwrap(), thief.join().unwrap())
        });
        for got in [&owner, &thief] {
            let mut last = std::collections::HashMap::new();
            for &(site, tag) in got {
                let prev = last.insert(site, tag);
                assert!(prev.is_none_or(|p| p < tag), "site {site}: {tag} after {prev:?}");
            }
        }
        let mut all: Vec<i64> = owner.iter().chain(&thief).map(|&(_, tag)| tag).collect();
        all.sort_unstable();
        assert!(all.iter().copied().eq(0..N), "{} tasks came out for {N}", all.len());
        assert_len_and_masks_agree(&q, "drained");
        // And with tasks left in place: `len` is their sum, the masks
        // name the sites that hold them.
        q.push_batch(vec![task(0, 1), task(10, 2), task(10, 3), task(70, 4)]);
        assert_eq!(q.len(), 4);
        assert_len_and_masks_agree(&q, "refilled");
    }

    #[test]
    fn a_table_slot_is_two_cache_lines_and_the_first_segment_a_kilobyte() {
        // Neighbouring sites' locks and owner cells never share a line,
        // and a pool's first push allocates 1 KB of site table.
        assert_eq!(std::mem::size_of::<std::sync::OnceLock<SiteQueue>>(), 128);
    }

    #[test]
    fn splitmix_streams_are_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).all(|w| w[0] != w[1]));
    }
}
