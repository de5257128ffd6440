//! The CRI server pool (paper §4).
//!
//! "Because every transaction executes an identical function body, we
//! can have a collection of servers that repeatedly execute this piece
//! of code. Each server only needs to obtain the arguments to an
//! invocation to begin executing a new task. It does not need to
//! execute a process context switch."
//!
//! The pool owns `S` OS threads that loop over the ordered site
//! queues, executing one invocation at a time against the shared
//! interpreter. `cri-enqueue` (installed through [`CriHooks`]) adds
//! invocations; termination is detected with a pending-task counter —
//! the moral equivalent of the paper's kill tokens, without the flag
//! polling.
//!
//! There is one queue structure, [`ShardedQueues`] (a lock per call
//! site, a nonempty-site bitmask per ownership group, so servers
//! contend only when touching the same site and idle `pop`s don't
//! scan), and one question a scheduler mode answers: *when is a spawn
//! published?* It is answered in one place, `CriHooks::spawn`.
//!
//! §4.1 calls the central queue "a potential bottleneck", and the E8
//! experiment confirms it: at tiny grain, every enqueue/dequeue is a
//! lock round trip. The default [`SchedMode::Sharded`] removes that
//! traffic while keeping the per-call-site FIFO discipline observable
//! behaviour — one ownership group per server, stealing between them,
//! and lazy publication:
//!
//! - **batched submit** — a `cri-enqueue` is *buffered*: the executing
//!   invocation's enqueues collect in a thread-local batch that is
//!   published when the invocation ends, under one site-lock
//!   acquisition with one condvar notification;
//! - **task chaining** — when every site at or below the batch's last
//!   successor's is empty and the rest of the batch is bound for
//!   strictly higher sites, the rest is published and the server runs
//!   that successor directly: by the lowest-site-first rule a dequeue
//!   would have picked it anyway, so the queues and condvar are
//!   skipped entirely. This is what makes a tiny tail affordable, and
//!   why the buffer stays the default. A `cri-enqueue` in *tail
//!   position* is that batch seen early, so the decision is taken at
//!   the spawn (`CriHooks::chain_in_place`) and the VM restarts the
//!   frame on the successor's arguments: no `Task`, counted all the same;
//! - **hand-off** — a `cri-handoff` is published at the spawn, behind
//!   whatever the invocation still buffers. The restructurer writes it
//!   where the function's tail costs more than a queue round trip
//!   (`transform::pipeline`, from `analysis::headtail`'s cost): there a
//!   buffered successor could not start before its producer's tail had
//!   finished, which forfeits the one overlap §3.1 is about. There is
//!   a single early-publication path (`CriHooks::spawn`): hand-off
//!   and every eager spawn take it, and `touch` / `cri-lock` flush the
//!   batch before blocking, so nothing waits on unpublished work.
//!
//! [`SchedMode::Central`] is the paper-faithful baseline (E8, and the
//! benchmark's `runtime.par_central_p50_ms`), built as eager
//! publication on a one-group queue: every spawn is published at once
//! (one lock round trip, one wake), any server may take it, nothing is
//! buffered, chained or stolen. Speculation publishes eagerly too, in
//! either mode.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use curare_lisp::speclog;
use curare_lisp::sync::{CachePadded, Condvar, Mutex};
use curare_lisp::{FuncId, Interp, LispError, RuntimeHooks, Val, Value, Vm};
use curare_obs::{EventKind, Json};

use crate::futures::FutureTable;
use crate::locktable::{Location, LockTable};
use crate::queue::{ShardedQueues, Task};
use crate::watchdog::{
    self, BeatGuard, ServerBeat, PHASE_EXECUTING, PHASE_LOCK_WAIT, PHASE_TOUCH_WAIT,
};

/// Counters describing one `run` (and the pool's lifetime totals).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Invocations executed.
    pub tasks: u64,
    /// Peak total queue length (chained tasks never enter a queue).
    pub peak_queue: usize,
    /// Lock acquisitions performed.
    pub lock_acquisitions: u64,
    /// Subset of `lock_acquisitions` taken in shared (read) mode —
    /// how much of the lock traffic an rw placement moves off the
    /// exclusive path.
    pub lock_shared_acquisitions: u64,
    /// Lock acquisitions that had to wait.
    pub lock_contended: u64,
    /// Tasks run directly by their producing server, skipping the
    /// queues and condvar entirely.
    pub chained_tasks: u64,
    /// Subset of `chained_tasks` that never left their producer's VM
    /// frame: tail-position spawns restarted in place.
    pub in_place_tasks: u64,
    /// Batch publications (each covers ≥ 1 task under one
    /// notification).
    pub batched_submits: u64,
    /// Times a server found no work and blocked on the scheduler
    /// condvar.
    pub sched_lock_waits: u64,
    /// Thread-local allocation buffer refills in the heap arenas.
    pub tlab_refills: u64,
    /// Total nanoseconds spent waiting in contended `cri-lock`
    /// acquisitions (the count alone cannot tell a 1 ns collision
    /// from a 10 ms convoy).
    pub lock_wait_total_ns: u64,
    /// Longest single contended lock wait, ns.
    pub lock_wait_max_ns: u64,
    /// Always 0: the pool never runs a body twice. Kept only because
    /// the benchmark harness in `benchmark/` still reads it.
    pub task_retries: u64,
    /// Servers that left the pool after a task panicked on them.
    pub servers_poisoned: u64,
    /// `curare-stall/1` dumps emitted by the watchdog.
    pub stall_dumps: u64,
    /// Faults injected by the installed chaos plan (0 with no plan
    /// installed; process-global, so concurrent pools under one plan
    /// share the count).
    pub faults_injected: u64,
    /// True once no server was left alive and the waiting thread took
    /// over, draining the queues sequentially.
    pub degraded: bool,
    /// Steal rounds begun by servers whose own site group was empty
    /// (each round makes a bounded number of victim probes).
    pub steal_attempts: u64,
    /// Steal rounds that returned a task (via site migration or a
    /// single-task steal-pop).
    pub steal_successes: u64,
    /// Victim probes lost to a race (site migrated or drained between
    /// the mask snapshot and the site lock).
    pub steal_failed_races: u64,
    /// Whole sites whose ownership migrated to a thief.
    pub sites_migrated: u64,
    /// Times a server parked on its condvar after the backoff spins
    /// found nothing runnable or stealable.
    pub parks: u64,
    /// Total nanoseconds servers spent parked.
    pub park_ns: u64,
    /// Most servers simultaneously parked (idle) at any point.
    pub peak_idle_servers: usize,
    /// Speculative invocations committed by the validator.
    pub spec_commits: u64,
    /// Speculative invocations aborted on a detected conflict (an
    /// invocation aborted in several rounds counts each time).
    pub spec_aborts: u64,
    /// Aborted invocations replayed after their conflictors.
    pub spec_replays: u64,
    /// Committed invocations that never aborted (the commit-clean
    /// numerator; `spec_commits` is the denominator).
    pub spec_clean: u64,
    /// True once a speculative run gave up (retry budget, a replay
    /// surprise, or a parked error) and fell back to the sequential
    /// rerun.
    pub spec_escalated: bool,
    /// Wall time inside the commit-time resolver (validation, undo and
    /// replays), ns: the share of a speculative `run` that is not the
    /// parallel execution.
    pub spec_resolve_ns: u64,
}

/// Pool construction options beyond the server count.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Work-distribution structure.
    pub mode: SchedMode,
    /// Arm the stall watchdog: a server stuck in one non-idle phase
    /// longer than this budget produces a `curare-stall/1` dump.
    /// `None` (the default) spawns no watchdog thread and keeps the
    /// hot path free of heartbeat writes.
    pub stall_budget: Option<Duration>,
    /// Run in `SpecMode`: invocations execute optimistically, heap
    /// effects are journaled, and a commit-time validator aborts and
    /// replays conflicting invocations (escalating to a sequential
    /// rerun when speculation cannot converge). Off by default.
    pub speculate: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { mode: SchedMode::Sharded, stall_budget: None, speculate: false }
    }
}

/// How the pool distributes work: two configurations of one queue
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// The paper-faithful central queue: one ownership group every
    /// server drains; every spawn is published at once and signals.
    Central,
    /// One ownership group per server with stealing between them,
    /// batched submit, and task chaining (the default).
    Sharded,
}

/// One executing invocation's unpublished successors. `key` ties the
/// frame to a specific pool so nested pools on one thread (helping
/// `touch` across runtimes) never mix buffers.
struct BatchFrame {
    key: usize,
    /// The function whose invocation is executing, and its id (0
    /// unless the access journal or a profiler is armed).
    fid: FuncId,
    inv: u64,
    tasks: Vec<Task>,
    /// The per-task half of `CriHooks::chain_in_place`'s decision.
    may_restart: bool,
    /// Successors this frame ran by restarting in place.
    in_place: u64,
    /// Batches published from inside the body (before a blocking wait,
    /// an early publication or an in-place restart).
    batched: u64,
}

thread_local! {
    static BATCH: RefCell<Vec<BatchFrame>> = const { RefCell::new(Vec::new()) };
    /// Retired batch buffers, recycled so the per-task fast path does
    /// not allocate a fresh `Vec` for every invocation's frame.
    static SPARE: RefCell<Vec<Vec<Task>>> = const { RefCell::new(Vec::new()) };
}

thread_local! {
    /// (pool key, server index) when this thread is a pool's server —
    /// the poison policy applies only to servers of the panicking
    /// task's own pool, never to external helpers.
    static SERVER_OF: Cell<(usize, usize)> = const { Cell::new((0, usize::MAX)) };
    /// Latched once this server thread has been poisoned, so nested
    /// panics caught while it unwinds its helping stack cannot
    /// double-decrement the alive count.
    static THREAD_POISONED: Cell<bool> = const { Cell::new(false) };
}

fn take_spare() -> Vec<Task> {
    SPARE.with(|s| s.borrow_mut().pop()).unwrap_or_default()
}

fn put_spare(v: Vec<Task>) {
    debug_assert!(v.is_empty(), "spare buffers are returned drained");
    if v.capacity() > 0 {
        SPARE.with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < 8 {
                s.push(v);
            }
        });
    }
}

/// What a server has counted since it last settled (`Shared::settle`):
/// private to it, so finishing a task writes no shared line.
#[derive(Default)]
struct Tally {
    executed: u64,
    chained: u64,
    in_place: u64,
    batched: u64,
    /// Finished tasks whose pending counts this server still holds.
    finished: u64,
}

/// The statistics servers add to: a line of their own.
#[derive(Default)]
struct Counters {
    executed: AtomicU64,
    chained: AtomicU64,
    in_place: AtomicU64,
    batched_submits: AtomicU64,
    sched_waits: AtomicU64,
    parks: AtomicU64,
    park_ns: AtomicU64,
    peak_parked: AtomicU64,
}

/// One server's parking spot: a private mutex/condvar pair so wakeups
/// are targeted (the old shared condvar woke every idle server for
/// every publish — a thundering herd under skew).
#[derive(Default)]
struct Parker {
    m: Mutex<()>,
    cv: Condvar,
}

struct Shared {
    sched: ShardedQueues,
    /// Named by `mode()` and the run report; the behaviour it chose
    /// is all in `sched`'s group count and `eager`.
    mode: SchedMode,
    /// Publish every spawn at the spawn instead of buffering it to
    /// the end of its invocation (`Central`, and any speculative
    /// pool). Fixed at construction.
    eager: bool,
    /// One parking spot per server. A publisher wakes exactly the
    /// servers whose groups its tasks landed on (plus one thief),
    /// found through `parked_mask`.
    parkers: Vec<Parker>,
    /// Bit `min(index, 63)` set while that server is parked. Written
    /// with SeqCst and read after a SeqCst fence in `wake_servers` so
    /// the park-side work re-check and the publish-side parked-mask
    /// read cannot both see stale state (the store-buffer lost-wakeup
    /// interleaving); parked waits also carry a timeout backstop.
    /// Padded, like `pending` and `counters`: what servers write
    /// during a run stays off the lines of what they only read.
    parked_mask: CachePadded<AtomicU64>,
    done_m: Mutex<()>,
    done_cv: Condvar,
    /// Tasks published or executing, plus finished ones their server
    /// has yet to settle: it only ever over-counts.
    pending: CachePadded<AtomicU64>,
    counters: CachePadded<Counters>,
    error: Mutex<Option<LispError>>,
    shutdown: AtomicBool,
    aborting: AtomicBool,
    locks: LockTable,
    futures: FutureTable,
    // ---- robustness layer (panic policy / watchdog / degradation) ----
    /// True when a stall budget armed the watchdog; gates every beat
    /// write so the unwatched hot path pays one branch.
    watched: bool,
    /// Per-server heartbeats (empty when unwatched).
    beats: Vec<Arc<ServerBeat>>,
    alive: AtomicUsize,
    poisoned: AtomicU64,
    stalls: AtomicU64,
    degraded: AtomicBool,
    stall_dumps: Mutex<Vec<Json>>,
    // ---- speculation layer (`SpecMode`) ----
    /// True when this pool runs speculatively: spawns register with
    /// the journal and publish eagerly, body errors park instead of
    /// aborting the run, and `run` validates at quiescence.
    speculate: bool,
    spec_commits: AtomicU64,
    spec_aborts: AtomicU64,
    spec_replays: AtomicU64,
    spec_clean: AtomicU64,
    spec_escalated: AtomicBool,
    spec_resolve_ns: AtomicU64,
}

thread_local! {
    /// True while this thread reruns invocations inline and
    /// sequentially (the speculation escalation path): hook-routed
    /// spawns call straight through instead of enqueueing.
    static INLINE_SEQ: Cell<bool> = const { Cell::new(false) };
}

impl Shared {
    fn key(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Wake parked servers after publishing work. `wake_mask` names
    /// the servers whose groups received tasks (bit `min(index, 63)`);
    /// `count` bounds how many servers are worth waking. One extra
    /// parked thief is woken beyond the owners, so a burst landing on
    /// one group (or an owner that is busy executing) gets picked up
    /// without waiting for the owner.
    fn wake_servers(&self, wake_mask: u64, count: usize) {
        if wake_mask == 0 {
            return;
        }
        // Pairs with the SeqCst parked-bit store in `park_server`: the
        // fence orders "work published" before "parked mask read".
        std::sync::atomic::fence(Ordering::SeqCst);
        let parked = self.parked_mask.load(Ordering::SeqCst);
        if parked == 0 {
            return;
        }
        let mut budget = count.max(1);
        let mut owners = parked & wake_mask;
        while owners != 0 && budget > 0 {
            let i = owners.trailing_zeros() as usize;
            owners &= owners - 1;
            self.unpark(i);
            budget -= 1;
        }
        if budget > 0 {
            let thieves = parked & !wake_mask;
            if thieves != 0 {
                self.unpark(thieves.trailing_zeros() as usize);
            }
        }
    }

    /// Wake every parked server (shutdown, degrade, retirement).
    fn wake_all(&self) {
        for i in 0..self.parkers.len() {
            self.unpark(i);
        }
    }

    /// Notify one parked server. Bit 63 of the parked mask is shared
    /// by every server at or above 63, so a wake aimed there notifies
    /// them all.
    fn unpark(&self, bit: usize) {
        if bit >= 63 {
            for p in self.parkers.iter().skip(63) {
                let _g = p.m.lock();
                p.cv.notify_one();
            }
        } else if let Some(p) = self.parkers.get(bit) {
            let _g = p.m.lock();
            p.cv.notify_one();
        }
    }

    /// Block server `index` until woken or the backstop `timeout`
    /// elapses. The work re-check under the parker mutex (after the
    /// SeqCst parked-bit store) pairs with `wake_servers`, so a
    /// publish concurrent with parking either wakes us or is seen by
    /// the re-check.
    fn park_server(&self, index: usize, timeout: Duration) {
        let bit = 1u64 << index.min(63);
        let p = &self.parkers[index];
        let mut g = p.m.lock();
        let mask = self.parked_mask.fetch_or(bit, Ordering::SeqCst) | bit;
        let counters = &self.counters;
        counters.peak_parked.fetch_max(u64::from(mask.count_ones()), Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        // A thief can take anything; park only on globally empty queues.
        if !self.sched.has_work() && !self.shutdown.load(Ordering::SeqCst) {
            counters.parks.fetch_add(1, Ordering::Relaxed);
            counters.sched_waits.fetch_add(1, Ordering::Relaxed);
            curare_obs::record(EventKind::Park, index as u64);
            let t0 = curare_obs::now_ns();
            let _timed_out = p.cv.wait_timeout(&mut g, timeout);
            counters.park_ns.fetch_add(curare_obs::now_ns().saturating_sub(t0), Ordering::Relaxed);
            curare_obs::record(EventKind::Unpark, index as u64);
        }
        drop(g);
        self.parked_mask.fetch_and(!bit, Ordering::SeqCst);
    }

    /// Publish a task immediately (root submits, unbatchable paths).
    fn submit_now(&self, task: Task) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        let wake = self.sched.push(task);
        self.wake_servers(wake, 1);
    }

    /// The chain decision, for `publish_batch` and `chain_in_place`
    /// alike: the successor bound for `site` may run next on its
    /// producer, the `others` of its batch published first, when they
    /// all go to strictly higher sites and its owner has nothing queued
    /// at or below `site` — a lowest-site-first dequeue would pick it
    /// next with them in the queues as without.
    fn chains_past(&self, site: usize, others: &[Task]) -> bool {
        others.iter().all(|t| t.site > site) && self.sched.can_chain(site)
    }

    /// Publish an invocation's collected successors, draining `tasks`
    /// (its allocation stays with the caller for reuse) and counting
    /// the publication in `batched`. With `allow_chain`, the last one
    /// is returned to the caller to run directly instead where
    /// `chains_past` lets it.
    fn publish_batch(
        &self,
        tasks: &mut Vec<Task>,
        allow_chain: bool,
        batched: &mut u64,
    ) -> Option<Task> {
        if self.aborting.load(Ordering::Acquire) {
            self.drop_unpublished(std::mem::take(tasks));
        }
        // The chained task inherits the producing invocation's pending
        // count: chaining a singleton touches no shared counter at all.
        let chained = match tasks.split_last() {
            Some((last, others)) if allow_chain && self.chains_past(last.site, others) => {
                tasks.pop()
            }
            _ => None,
        };
        let n = tasks.len();
        if n > 0 {
            self.pending.fetch_add(n as u64, Ordering::AcqRel);
            let wake = self.sched.push_batch(tasks.drain(..));
            *batched += 1;
            curare_obs::record(EventKind::BatchFlush, n as u64);
            self.wake_servers(wake, n);
        }
        if let Some(t) = &chained {
            curare_obs::record(EventKind::Chain, t.site as u64);
        }
        chained
    }

    /// Put a chained task back on the queues (it carries its
    /// producer's pending count): a helping `touch` whose future
    /// resolved returns to its caller instead of executing it.
    fn requeue_chained(&self, task: Task) {
        let wake = self.sched.push(task);
        self.wake_servers(wake, 1);
        if self.degraded.load(Ordering::Acquire) {
            // A degraded pool's tasks are drained by the thread in
            // `wait_idle`, which sleeps on `done_cv`, not `work_cv`.
            let _g = self.done_m.lock();
            self.done_cv.notify_all();
        }
    }

    /// Drop tasks that will never run, failing their futures so no
    /// toucher waits on them. Tasks that reached the pending counter
    /// are settled by the caller.
    fn drop_unpublished(&self, tasks: Vec<Task>) {
        for t in tasks {
            if let Some(id) = t.future {
                self.futures.fail(id, LispError::User("aborted by earlier error".into()));
            }
        }
    }

    /// End the run on `err`, raised by the executing task (whose
    /// `future`, if any, fails with it): keep the first error, refuse
    /// further spawns, and drain queued work so the run terminates
    /// promptly. The executing task's own pending count (released at
    /// its server's settle) keeps the counter above zero here. Dropped
    /// tasks' futures must fail, or helping touches would wait forever.
    fn abort_run(&self, err: LispError, future: Option<u64>) {
        if let Some(id) = future {
            self.futures.fail(id, err.clone());
        }
        self.aborting.store(true, Ordering::Release);
        self.error.lock().get_or_insert(err);
        let dropped = self.sched.drain_all();
        let n = dropped.len() as u64;
        self.drop_unpublished(dropped);
        if n > 0 {
            self.pending.fetch_sub(n, Ordering::AcqRel);
        }
    }

    /// Settle: publish what `tally` and `vm` counted, *then* release
    /// the pending counts of the tasks `tally` saw finish, in one
    /// subtraction. A server settles when its own group runs dry and
    /// before it leaves, a helper after every chain. In between
    /// `pending` over-counts, never under-counts; and the statistics
    /// are exact once `run` observes zero, being published first.
    fn settle(&self, tally: &mut Tally, vm: &mut Vm<'_>) {
        vm.publish_stats();
        let Tally { executed, chained, in_place, batched, finished } = std::mem::take(tally);
        let c = &self.counters;
        let totals = [&c.executed, &c.chained, &c.in_place, &c.batched_submits];
        for (n, total) in [executed, chained, in_place, batched].into_iter().zip(totals) {
            if n > 0 {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
        if finished > 0 && self.pending.fetch_sub(finished, Ordering::AcqRel) == finished {
            // Last pending task: wake run() waiters. Lock their mutex
            // to pair with the condvar wait.
            let _guard = self.done_m.lock();
            self.done_cv.notify_all();
        }
    }

    /// Remove the calling server thread from the pool: decrement the
    /// alive count (once per thread, however many panics it catches on
    /// the way out) and, when no server is left alive, flip to degraded
    /// mode and wake the `wait_idle` thread to start the sequential
    /// drain. A no-op on threads that are not this pool's servers.
    fn poison_current_server(self: &Arc<Self>) {
        let (pool, index) = SERVER_OF.with(Cell::get);
        if pool != self.key() || THREAD_POISONED.with(Cell::get) {
            return;
        }
        THREAD_POISONED.with(|p| p.set(true));
        if let Some(beat) = self.beats.get(index) {
            beat.alive.store(false, Ordering::Relaxed);
        }
        self.poisoned.fetch_add(1, Ordering::Relaxed);
        let now_alive = self.alive.fetch_sub(1, Ordering::AcqRel) - 1;
        curare_obs::record(EventKind::ServerPoisoned, now_alive as u64);
        // Rehome the dead server's sites to live groups and wake the
        // heirs, so queued work never strands with a retired owner.
        let heirs = self.sched.retire(index);
        if heirs != 0 {
            self.wake_servers(heirs, usize::MAX);
        }
        if now_alive == 0 && !self.degraded.swap(true, Ordering::AcqRel) {
            curare_obs::record(EventKind::Degraded, now_alive as u64);
            let _g = self.done_m.lock();
            self.done_cv.notify_all();
        }
    }

    /// Build one `curare-stall/1` dump for server `index`, stuck in
    /// `phase` for `age_ns`: every server's heartbeat, currently held
    /// locks, still-pending futures, scheduler occupancy, and the
    /// stalled lane's most recent trace events (when a tracer is
    /// installed).
    fn stall_dump(&self, index: usize, age_ns: u64, budget_ns: u64, now: u64) -> Json {
        let servers: Vec<Json> = self
            .beats
            .iter()
            .enumerate()
            .map(|(i, b)| {
                Json::obj()
                    .set("server", i)
                    .set("alive", b.alive.load(Ordering::Relaxed))
                    .set("phase", watchdog::phase_name(b.phase.load(Ordering::Relaxed)))
                    .set("detail", b.detail.load(Ordering::Relaxed))
                    .set("age_ns", b.age_ns(now))
            })
            .collect();
        let held: Vec<Json> = self
            .locks
            .held_snapshot()
            .into_iter()
            .take(64)
            .map(|(hash, wdepth, readers)| {
                Json::obj().set("loc", hash).set("write_depth", wdepth).set("readers", readers)
            })
            .collect();
        let pending_futures: Vec<Json> =
            self.futures.pending_ids().into_iter().take(64).map(Json::from).collect();
        let recent: Vec<Json> = curare_obs::installed()
            .and_then(|t| {
                let snaps = t.snapshot();
                snaps.get(index + 1).map(|snap| {
                    let skip = snap.events.len().saturating_sub(32);
                    snap.events[skip..]
                        .iter()
                        .map(|e| {
                            Json::obj()
                                .set("ts_ns", e.ts_ns)
                                .set("kind", e.kind.name())
                                .set("arg", e.arg)
                        })
                        .collect()
                })
            })
            .unwrap_or_default();
        let stalled = &self.beats[index];
        Json::obj()
            .set("schema", "curare-stall/1")
            .set("server", index)
            .set("phase", watchdog::phase_name(stalled.phase.load(Ordering::Relaxed)))
            .set("detail", stalled.detail.load(Ordering::Relaxed))
            .set("age_ns", age_ns)
            .set("budget_ns", budget_ns)
            .set("alive", self.alive.load(Ordering::Acquire))
            .set("pending_tasks", self.pending.load(Ordering::Acquire))
            .set("queued", self.sched.has_work())
            .set("degraded", self.degraded.load(Ordering::Acquire))
            .set("servers", Json::Arr(servers))
            .set("held_locks", Json::Arr(held))
            .set("pending_futures", Json::Arr(pending_futures))
            .set("recent_events", Json::Arr(recent))
    }
}

/// The watchdog thread body: scan the heartbeats every quarter budget
/// and dump any live server whose last transition is older than the
/// budget while in a non-idle phase. One dump per stall — the
/// per-server latch re-arms when the beat progresses or goes idle.
/// Detection only: recovery belongs to the panic policy at the catch
/// site, because a stalled-but-alive server cannot be safely killed
/// from outside.
fn watchdog_loop(shared: &Arc<Shared>, budget: Duration) {
    let budget_ns = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX);
    let tick = (budget / 4).max(Duration::from_millis(5));
    let mut fired = vec![false; shared.beats.len()];
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(tick);
        let now = curare_obs::now_ns();
        for (i, beat) in shared.beats.iter().enumerate() {
            if !beat.alive.load(Ordering::Relaxed)
                || beat.phase.load(Ordering::Relaxed) == watchdog::PHASE_IDLE
            {
                fired[i] = false;
                continue;
            }
            if beat.age_ns(now) < budget_ns {
                fired[i] = false;
                continue;
            }
            if fired[i] {
                continue;
            }
            fired[i] = true;
            let dump = shared.stall_dump(i, beat.age_ns(now), budget_ns, now);
            shared.stalls.fetch_add(1, Ordering::Relaxed);
            let mut dumps = shared.stall_dumps.lock();
            if dumps.len() < 64 {
                dumps.push(dump);
            }
        }
    }
}

impl Shared {
    /// Build the task for a spawn of `fid` by this pool, recording its
    /// causal events (the spawn edge, and the future it will resolve):
    /// in the access journal at the parent's spawn point, when the
    /// spawn is the journaled run's to record, and in the trace.
    #[inline]
    fn new_task(&self, site: usize, fid: FuncId, args: Vec<Value>, future: Option<u64>) -> Task {
        let inv = curare_obs::new_invocation();
        if inv != 0 {
            let parent = curare_obs::current_invocation();
            if speclog::registers(self.speculate) {
                speclog::record_spawn(parent, inv, fid, &args, future);
            }
            curare_obs::record(EventKind::Spawn, curare_obs::pack_pair(parent, inv));
            if let Some(id) = future {
                curare_obs::record(EventKind::BindFuture, curare_obs::pack_pair(inv, id));
            }
        }
        Task { fid, args, site, future, inv }
    }
}

/// Open an invocation's trace bracket and bind the thread to it,
/// returning the binding it replaces (a helping touch runs tasks
/// nested in another invocation's body). The bracket carries the
/// function id and the invocation id its `Spawn` event introduced.
fn begin_invocation(fid: FuncId, inv: u64) -> u64 {
    curare_obs::record(EventKind::TaskStart, curare_obs::pack_pair(fid as u64, inv));
    curare_obs::set_invocation(inv)
}

/// Close the bracket `begin_invocation` opened, restoring `prev`.
fn end_invocation(fid: FuncId, inv: u64, prev: u64) {
    curare_obs::set_invocation(prev);
    curare_obs::record(EventKind::TaskStop, curare_obs::pack_pair(fid as u64, inv));
}

/// The hooks a pooled interpreter runs under.
pub struct CriHooks {
    shared: Arc<Shared>,
}

impl CriHooks {
    /// Append `task` to the executing invocation's batch frame, or
    /// hand it back for immediate submission when no frame of this
    /// pool is active (root-level calls).
    fn try_batch(&self, task: Task) -> Option<Task> {
        let key = self.shared.key();
        BATCH.with(|b| {
            let mut frames = b.borrow_mut();
            match frames.last_mut() {
                Some(f) if f.key == key => {
                    f.tasks.push(task);
                    None
                }
                _ => Some(task),
            }
        })
    }

    /// Publish the executing invocation's buffered successors now.
    /// Called before any potentially blocking wait so no other server
    /// (or future toucher) can depend on unpublished work, and before
    /// an early publication so that it lands behind them.
    fn flush_batch(&self) {
        let key = self.shared.key();
        BATCH.with(|b| {
            if let Some(f) = b.borrow_mut().last_mut().filter(|f| f.key == key) {
                self.shared.publish_batch(&mut f.tasks, false, &mut f.batched);
            }
        });
    }

    /// Every spawn leaves its producer here. `now` is the one early
    /// publication: the task goes to the queues at once, behind
    /// whatever the invocation still buffers (per-site FIFO), instead
    /// of joining the batch that publishes — or chains — at invocation
    /// end. Hand-off asks for it because its producer's tail is long;
    /// an eager pool always does (speculation for the same overlap).
    #[inline]
    fn spawn(&self, task: Task, now: bool) {
        if now || self.shared.eager {
            self.flush_batch();
            self.shared.submit_now(task);
        } else if let Some(task) = self.try_batch(task) {
            self.shared.submit_now(task);
        }
    }

    fn enqueue_at(
        &self,
        interp: &Interp,
        site: usize,
        fid: FuncId,
        args: Vec<Value>,
        now: bool,
    ) -> Result<(), LispError> {
        if INLINE_SEQ.with(Cell::get) {
            return interp.call_fid_owned(fid, args).map(|_| ());
        }
        if self.shared.speculate && speclog::replaying() {
            // Suppressed spawn inside a replayed body: match it
            // against the original run's record instead of enqueueing
            // (the subtree already executed; divergence escalates).
            speclog::replay_spawn(fid, &args);
            return Ok(());
        }
        if self.shared.aborting.load(Ordering::Acquire) {
            return Ok(());
        }
        curare_obs::record(EventKind::Enqueue, site as u64);
        self.spawn(self.shared.new_task(site, fid, args, None), now);
        Ok(())
    }
}

impl RuntimeHooks for CriHooks {
    /// The chain decision, taken at a tail-position spawn: that spawn
    /// ends the batch `publish_batch` would judge at invocation end,
    /// so the same conditions decide — `chains_past` what is buffered,
    /// not aborting — for the tasks `may_restart` admits, and what is
    /// buffered is published as it would be there. Every link is still
    /// a task: counted, leaving the records a materialised chain leaves,
    /// in their order, and starting at the plan's task-start point.
    fn chain_in_place(&self, site: usize, fid: FuncId) -> bool {
        let shared = &self.shared;
        let key = shared.key();
        BATCH.with(|b| {
            let mut frames = b.borrow_mut();
            let Some(f) = frames.last_mut().filter(|f| f.key == key && f.may_restart) else {
                return false;
            };
            if shared.aborting.load(Ordering::Acquire) || !shared.chains_past(site, &f.tasks) {
                return false;
            }
            curare_obs::record(EventKind::Enqueue, site as u64);
            // No arguments: re-execution recipes are for a speculative
            // run's resolver, and an eager pool never restarts in place.
            let next = shared.new_task(site, fid, Vec::new(), None).inv;
            end_invocation(f.fid, f.inv, 0);
            shared.publish_batch(&mut f.tasks, false, &mut f.batched);
            curare_obs::record(EventKind::Chain, site as u64);
            begin_invocation(fid, next);
            (f.fid, f.inv, f.in_place) = (fid, next, f.in_place + 1);
            if shared.watched {
                watchdog::beat_enter(PHASE_EXECUTING, fid as u64);
            }
            crate::chaos::on_task_start();
            true
        })
    }

    fn enqueue(
        &self,
        interp: &Interp,
        site: usize,
        fid: FuncId,
        args: Vec<Value>,
    ) -> Result<(), LispError> {
        self.enqueue_at(interp, site, fid, args, false)
    }

    fn handoff(
        &self,
        interp: &Interp,
        site: usize,
        fid: FuncId,
        args: Vec<Value>,
    ) -> Result<(), LispError> {
        self.enqueue_at(interp, site, fid, args, true)
    }

    fn future(&self, interp: &Interp, fid: FuncId, args: Vec<Value>) -> Result<Value, LispError> {
        if INLINE_SEQ.with(Cell::get) {
            return interp.call_fid_owned(fid, args);
        }
        if self.shared.speculate && speclog::replaying() {
            // The original future's value was already consumed by its
            // toucher; a replay cannot re-create it. Fall back to the
            // sequential rerun.
            speclog::escalate_now();
            return Err(LispError::User("speculative replay cannot re-create a future".into()));
        }
        let fut = self.shared.futures.create();
        let Val::Future(id) = fut.decode() else { unreachable!("create returns a future") };
        if self.shared.aborting.load(Ordering::Acquire) {
            self.shared.futures.fail(id, LispError::User("aborted by earlier error".into()));
            return Ok(fut);
        }
        curare_obs::record(EventKind::Enqueue, 0);
        self.spawn(self.shared.new_task(0, fid, args, Some(id)), false);
        Ok(fut)
    }

    fn touch(&self, interp: &Interp, v: Value) -> Result<Value, LispError> {
        match v.decode() {
            // A server blocked in touch would strand queued work (and
            // deadlock pools shallower than the recursion), so touch
            // *helps*: it executes queued invocations while waiting —
            // the Multilisp discipline.
            Val::Future(id) => {
                self.flush_batch();
                let blocked = !self.shared.futures.is_resolved(id);
                if blocked {
                    curare_obs::record(EventKind::FutureBlock, id);
                }
                // Heartbeat: the wait-entry timestamp is deliberately
                // NOT refreshed by the idle sleep below — a touch that
                // waits without making progress must age into a stall.
                // Helped tasks refresh it on completion (their guard's
                // exit), because helping *is* progress.
                let _beat = self.shared.watched.then(|| BeatGuard::enter(PHASE_TOUCH_WAIT, id));
                let mut idle_us: u64 = 1;
                // A helper's own context and tally (the server's are
                // up the stack, on loan to the op that called this).
                let mut help: Option<(Vm<'_>, Tally)> = None;
                loop {
                    if let Some(result) = self.shared.futures.try_get(id) {
                        speclog::record_touch(id);
                        // A wake ends the block's wait in the trace; the
                        // profiler also reads it as a touch edge.
                        if blocked || curare_obs::profiling_enabled() {
                            curare_obs::record(
                                EventKind::TouchWake,
                                curare_obs::pack_pair(curare_obs::current_invocation(), id),
                            );
                        }
                        return result;
                    }
                    if self.shared.shutdown.load(Ordering::Acquire) {
                        return Err(LispError::User("pool shut down while touching".into()));
                    }
                    match self.shared.sched.pop() {
                        Some(t) => {
                            idle_us = 1;
                            let (vm, tally) =
                                help.get_or_insert_with(|| (Vm::new(interp), Tally::default()));
                            let mut next = Some(t);
                            while let Some(t) = next.take() {
                                next = execute_task(&self.shared, vm, t, tally, true);
                                // Once the touched future resolves,
                                // hand any chained successor back to
                                // the pool and return promptly.
                                if next.is_some() && self.shared.futures.is_resolved(id) {
                                    self.shared.requeue_chained(next.take().expect("checked"));
                                }
                            }
                            self.shared.settle(tally, vm);
                        }
                        None => {
                            // The resolving task runs elsewhere; back
                            // off exponentially (1 µs doubling to a
                            // 256 µs cap) rather than spin-poll at a
                            // fixed rate.
                            std::thread::sleep(std::time::Duration::from_micros(idle_us));
                            idle_us = (idle_us * 2).min(256);
                        }
                    }
                }
            }
            _ => Ok(v),
        }
    }

    fn lock(
        &self,
        _interp: &Interp,
        cell: Value,
        field: u32,
        exclusive: bool,
    ) -> Result<(), LispError> {
        // Publish buffered work first: a blocking lock acquisition
        // must never hold successors hostage in a local buffer.
        self.flush_batch();
        let _beat = self.shared.watched.then(|| BeatGuard::enter(PHASE_LOCK_WAIT, cell.bits()));
        self.shared.locks.lock(Location::new(cell, field), exclusive);
        Ok(())
    }

    fn unlock(
        &self,
        _interp: &Interp,
        cell: Value,
        field: u32,
        exclusive: bool,
    ) -> Result<(), LispError> {
        if self.shared.locks.unlock(Location::new(cell, field), exclusive) {
            Ok(())
        } else {
            Err(LispError::User("cri-unlock without a matching cri-lock".into()))
        }
    }
}

/// The server pool. Owns its worker threads; dropping shuts them down.
pub struct CriRuntime {
    interp: Arc<Interp>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    servers: usize,
}

/// Per-server native stack size. Invocation bodies are shallow (the
/// recursion became queue hops), but builtins and user helpers may
/// still recurse.
const SERVER_STACK: usize = 256 << 20;

impl CriRuntime {
    /// Spawn `servers` server threads over `interp` with the default
    /// low-contention scheduler and install the CRI hooks on it.
    pub fn new(interp: Arc<Interp>, servers: usize) -> Self {
        Self::with_mode(interp, servers, SchedMode::Sharded)
    }

    /// Spawn a pool on an explicit [`SchedMode`] (the `Central`
    /// baseline exists for E8 and the benchmark's central passes).
    pub fn with_mode(interp: Arc<Interp>, servers: usize, mode: SchedMode) -> Self {
        Self::with_config(interp, servers, RuntimeConfig { mode, ..RuntimeConfig::default() })
    }

    /// Spawn a pool with full [`RuntimeConfig`] control (scheduler
    /// mode, stall watchdog, speculation).
    pub fn with_config(interp: Arc<Interp>, servers: usize, config: RuntimeConfig) -> Self {
        let servers = servers.max(1);
        let sched = match config.mode {
            SchedMode::Central => ShardedQueues::new(),
            SchedMode::Sharded => ShardedQueues::with_servers(servers),
        };
        let watched = config.stall_budget.is_some();
        let beats = if watched {
            (0..servers).map(|_| Arc::new(ServerBeat::new())).collect()
        } else {
            Vec::new()
        };
        let shared = Arc::new(Shared {
            sched,
            mode: config.mode,
            eager: config.mode == SchedMode::Central || config.speculate,
            parkers: (0..servers).map(|_| Parker::default()).collect(),
            parked_mask: CachePadded::default(),
            done_m: Mutex::new(()),
            done_cv: Condvar::new(),
            pending: CachePadded::default(),
            counters: CachePadded::default(),
            error: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            aborting: AtomicBool::new(false),
            locks: LockTable::new(),
            futures: FutureTable::new(),
            watched,
            beats,
            alive: AtomicUsize::new(servers),
            poisoned: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            stall_dumps: Mutex::new(Vec::new()),
            speculate: config.speculate,
            spec_commits: AtomicU64::new(0),
            spec_aborts: AtomicU64::new(0),
            spec_replays: AtomicU64::new(0),
            spec_clean: AtomicU64::new(0),
            spec_escalated: AtomicBool::new(false),
            spec_resolve_ns: AtomicU64::new(0),
        });
        interp.set_hooks(Arc::new(CriHooks { shared: Arc::clone(&shared) }));

        let workers = (0..servers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let interp = Arc::clone(&interp);
                std::thread::Builder::new()
                    .name(format!("cri-server-{i}"))
                    .stack_size(SERVER_STACK)
                    .spawn(move || server_loop(&interp, &shared, i))
                    .expect("spawn server thread")
            })
            .collect();
        let watchdog = config.stall_budget.map(|budget| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cri-watchdog".into())
                .spawn(move || watchdog_loop(&shared, budget))
                .expect("spawn watchdog thread")
        });
        CriRuntime { interp, shared, workers, watchdog, servers }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The scheduler this pool runs on.
    pub fn mode(&self) -> SchedMode {
        self.shared.mode
    }

    /// The interpreter this pool executes against.
    pub fn interp(&self) -> &Arc<Interp> {
        &self.interp
    }

    /// Execute `(fname args...)` to completion across the pool:
    /// enqueue the root invocation, then wait until every transitively
    /// spawned invocation has finished. The function's effects are the
    /// result; the returned value is `nil` unless an error occurred.
    pub fn run(&self, fname: &str, args: &[Value]) -> Result<(), LispError> {
        let sym = self.interp.heap().intern(fname);
        let fid = self
            .interp
            .lookup_func(sym)
            .ok_or_else(|| LispError::UndefinedFunction(fname.to_string()))?;
        self.shared.aborting.store(false, Ordering::Release);
        *self.shared.error.lock() = None;
        if self.shared.speculate {
            return self.run_speculative(fid, args);
        }

        self.shared.submit_now(self.shared.new_task(0, fid, args.to_vec(), None));
        self.wait_idle();
        match self.shared.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// A `SpecMode` run: arm the journal, execute optimistically, and
    /// resolve at quiescence — validate the interleaving against the
    /// sequential ranks, abort and replay conflicting invocations,
    /// and commit; or roll everything back and rerun the roots inline
    /// when speculation cannot converge. The journal is process-wide:
    /// while one speculative run is in flight a second one is an error.
    fn run_speculative(&self, fid: FuncId, args: &[Value]) -> Result<(), LispError> {
        /// Abort/replay rounds before a speculative run gives up and
        /// falls to the sequential-degradation rerun.
        const SPEC_RETRY_LIMIT: u32 = 8;
        speclog::arm()?;
        self.shared.submit_now(self.shared.new_task(0, fid, args.to_vec(), None));
        self.wait_idle();
        // Quiesced: every task has finished and its records are in the
        // lanes, so validation and any replays run single-threaded on
        // this thread (replayed bodies route their spawns through
        // `replay_spawn` in the hooks).
        let t0 = curare_obs::now_ns();
        let res = speclog::resolve(self.interp.heap(), SPEC_RETRY_LIMIT, &mut {
            let interp = &self.interp;
            move |fid, args| interp.call_fid_owned(fid, args)
        });
        let resolve_ns = curare_obs::now_ns().saturating_sub(t0);
        self.shared.spec_resolve_ns.fetch_add(resolve_ns, Ordering::Relaxed);
        self.shared.spec_commits.fetch_add(res.committed, Ordering::Relaxed);
        self.shared.spec_aborts.fetch_add(res.aborts, Ordering::Relaxed);
        self.shared.spec_replays.fetch_add(res.replays, Ordering::Relaxed);
        self.shared.spec_clean.fetch_add(res.clean, Ordering::Relaxed);
        // The journal is disarmed now, so committed lines (already in
        // sequential order) append to the ordinary output log.
        for line in res.output {
            self.interp.emit(line);
        }
        if res.escalated {
            self.shared.spec_escalated.store(true, Ordering::Release);
            for (fid, args) in res.roots {
                // A genuine sequential error surfaces here, exactly as
                // the non-speculative run would have reported it.
                self.run_inline(fid, args)?;
            }
        }
        match self.shared.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Execute one invocation inline and sequentially (the speculation
    /// escalation path): hook-routed spawns call straight through.
    fn run_inline(&self, fid: FuncId, args: Vec<Value>) -> Result<(), LispError> {
        INLINE_SEQ.with(|f| f.set(true));
        let res = self.interp.call_fid_owned(fid, args).map(|_| ());
        INLINE_SEQ.with(|f| f.set(false));
        res
    }

    /// Spawn `(fname args...)` as a future from the caller's thread.
    pub fn spawn_future(&self, fname: &str, args: &[Value]) -> Result<Value, LispError> {
        let sym = self.interp.heap().intern(fname);
        let fid = self
            .interp
            .lookup_func(sym)
            .ok_or_else(|| LispError::UndefinedFunction(fname.to_string()))?;
        self.interp.hooks().future(&self.interp, fid, args.to_vec())
    }

    /// Wait for a future value (identity on plain values).
    pub fn touch(&self, v: Value) -> Result<Value, LispError> {
        self.interp.hooks().touch(&self.interp, v)
    }

    /// Block until no invocation is pending. On a degraded pool (no
    /// server left alive) the waiting thread itself drains the queues
    /// sequentially, so the run still completes with the
    /// sequentially-correct answer.
    pub fn wait_idle(&self) {
        loop {
            if self.shared.degraded.load(Ordering::Acquire) {
                self.drain_degraded();
            }
            let mut g = self.shared.done_m.lock();
            loop {
                if self.shared.pending.load(Ordering::Acquire) == 0 {
                    return;
                }
                if self.shared.degraded.load(Ordering::Acquire) && self.shared.sched.has_work() {
                    break; // go drain on this thread
                }
                self.shared.done_cv.wait(&mut g);
            }
        }
    }

    /// Sequential fallback: execute every queued task (and its chains)
    /// on the calling thread.
    fn drain_degraded(&self) {
        let (mut vm, mut tally) = (Vm::new(&self.interp), Tally::default());
        while let Some(t) = self.shared.sched.pop() {
            let mut next = Some(t);
            while let Some(t) = next.take() {
                next = execute_task(&self.shared, &mut vm, t, &mut tally, false);
            }
            self.shared.settle(&mut tally, &mut vm);
        }
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> PoolStats {
        let (steal_attempts, steal_successes, steal_failed_races, sites_migrated) =
            self.shared.sched.steal_stats();
        let c = &self.shared.counters;
        PoolStats {
            steal_attempts,
            steal_successes,
            steal_failed_races,
            sites_migrated,
            parks: c.parks.load(Ordering::Relaxed),
            park_ns: c.park_ns.load(Ordering::Relaxed),
            peak_idle_servers: c.peak_parked.load(Ordering::Relaxed) as usize,
            tasks: c.executed.load(Ordering::Relaxed),
            peak_queue: self.shared.sched.peak(),
            lock_acquisitions: self.shared.locks.acquisitions(),
            lock_shared_acquisitions: self.shared.locks.shared_acquisitions(),
            lock_contended: self.shared.locks.contended(),
            chained_tasks: c.chained.load(Ordering::Relaxed),
            in_place_tasks: c.in_place.load(Ordering::Relaxed),
            batched_submits: c.batched_submits.load(Ordering::Relaxed),
            sched_lock_waits: c.sched_waits.load(Ordering::Relaxed),
            tlab_refills: self.interp.heap().tlab_refills(),
            lock_wait_total_ns: self.shared.locks.wait_total_ns(),
            lock_wait_max_ns: self.shared.locks.wait_max_ns(),
            task_retries: 0,
            servers_poisoned: self.shared.poisoned.load(Ordering::Relaxed),
            stall_dumps: self.shared.stalls.load(Ordering::Relaxed),
            faults_injected: crate::chaos::installed().map_or(0, |p| p.injected()),
            degraded: self.shared.degraded.load(Ordering::Acquire),
            spec_commits: self.shared.spec_commits.load(Ordering::Relaxed),
            spec_aborts: self.shared.spec_aborts.load(Ordering::Relaxed),
            spec_replays: self.shared.spec_replays.load(Ordering::Relaxed),
            spec_clean: self.shared.spec_clean.load(Ordering::Relaxed),
            spec_escalated: self.shared.spec_escalated.load(Ordering::Acquire),
            spec_resolve_ns: self.shared.spec_resolve_ns.load(Ordering::Relaxed),
        }
    }

    /// True when this pool runs in `SpecMode`.
    pub fn speculating(&self) -> bool {
        self.shared.speculate
    }

    /// True once no server was left alive and the pool fell back to
    /// sequential draining.
    pub fn degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Acquire)
    }

    /// Servers still alive (not poisoned or shut down).
    pub fn alive(&self) -> usize {
        self.shared.alive.load(Ordering::Acquire)
    }

    /// The `curare-stall/1` dumps the watchdog has emitted (capped at
    /// 64 per pool lifetime).
    pub fn stall_dumps(&self) -> Vec<Json> {
        self.shared.stall_dumps.lock().clone()
    }

    /// Machine-readable run report (`curare-report/1`): the pool
    /// counters, the heap occupancy, and the lock-wait histogram in
    /// one JSON document. `label` names the run in the report header.
    pub fn run_report(&self, label: &str) -> Json {
        let stats = self.stats();
        let pool = Json::obj()
            .set("servers", self.servers)
            .set(
                "mode",
                match self.shared.mode {
                    SchedMode::Central => "central",
                    SchedMode::Sharded => "sharded",
                },
            )
            .set("tasks", stats.tasks)
            .set("peak_queue", stats.peak_queue)
            .set("chained_tasks", stats.chained_tasks)
            .set("in_place_tasks", stats.in_place_tasks)
            .set("batched_submits", stats.batched_submits)
            .set("sched_lock_waits", stats.sched_lock_waits)
            .set("steal_attempts", stats.steal_attempts)
            .set("steal_successes", stats.steal_successes)
            .set("steal_failed_races", stats.steal_failed_races)
            .set("sites_migrated", stats.sites_migrated)
            .set("parks", stats.parks)
            .set("park_ns", stats.park_ns)
            .set("peak_idle_servers", stats.peak_idle_servers)
            .set("tlab_refills", stats.tlab_refills)
            .set("servers_poisoned", stats.servers_poisoned)
            .set("stall_dumps", stats.stall_dumps)
            .set("faults_injected", stats.faults_injected)
            .set("degraded", stats.degraded)
            .set("speculate", self.shared.speculate)
            .set("spec_commits", stats.spec_commits)
            .set("spec_aborts", stats.spec_aborts)
            .set("spec_replays", stats.spec_replays)
            .set("spec_clean", stats.spec_clean)
            .set("spec_escalated", stats.spec_escalated)
            .set("spec_resolve_ns", stats.spec_resolve_ns);
        let hs = self.interp.heap().stats();
        let heap = Json::obj()
            .set("conses", hs.conses)
            .set("slots", hs.slots)
            .set("floats", hs.floats)
            .set("strings", hs.strings)
            .set("tlab_refills", stats.tlab_refills);
        let locks = Json::obj()
            .set("acquisitions", stats.lock_acquisitions)
            .set("shared_acquisitions", stats.lock_shared_acquisitions)
            .set("contended", stats.lock_contended)
            .set("wait", self.shared.locks.wait_summary().to_json());
        let vs = curare_lisp::vm_stats();
        let vm = Json::obj()
            .set(
                "engine",
                match self.interp.engine() {
                    curare_lisp::Engine::Vm => "vm",
                    curare_lisp::Engine::Tree => "tree",
                },
            )
            .set("dispatched_ops", vs.dispatched_ops)
            .set("typed_ops", vs.typed_ops)
            .set("fused_ops", vs.fused_ops)
            .set("frames_reused", vs.frames_reused)
            .set("frames_allocated", vs.frames_allocated)
            // Hottest opcodes by accumulated handler ns; always
            // present, empty unless per-opcode profiling was on
            // during the run.
            .set(
                "hot_ops",
                Json::Arr(
                    curare_lisp::op_profile_top(8)
                        .into_iter()
                        .map(|r| {
                            Json::obj().set("op", r.name).set("count", r.count).set("ns", r.ns)
                        })
                        .collect(),
                ),
            );
        Json::obj()
            .set("schema", curare_obs::SCHEMA_REPORT)
            .set("label", label)
            .set("pool", pool)
            .set("heap", heap)
            .set("locks", locks)
            .set("vm", vm)
    }
}

impl Drop for CriRuntime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        // Restore ordinary semantics on the interpreter.
        self.interp.set_hooks(Arc::new(curare_lisp::SequentialHooks));
    }
}

/// Idle policy knobs for `server_loop`: a few exponentially widening
/// spin rounds absorb the publish-to-pop latency of a busy pool, then
/// the server parks on its condvar with an escalating timeout backstop
/// (so even a theoretically lost wakeup only delays, never hangs).
const IDLE_SPIN_ROUNDS: u32 = 6;
const PARK_TIMEOUT_MIN: Duration = Duration::from_millis(1);
const PARK_TIMEOUT_MAX: Duration = Duration::from_millis(64);

fn server_loop(interp: &Interp, shared: &Arc<Shared>, index: usize) {
    // Servers get a large native stack; let the evaluator use most of
    // it for any residual non-tail recursion in task bodies.
    curare_lisp::eval::set_thread_stack_budget(SERVER_STACK - (4 << 20));
    // Trace lane: server i records into ring i + 1 (0 is external).
    curare_obs::set_lane(index + 1);
    SERVER_OF.with(|s| s.set((shared.key(), index)));
    if shared.watched {
        watchdog::set_current_beat(shared.beats.get(index).cloned());
    }
    // Per-server deterministic victim-selection stream: seeded from
    // the index alone, so a chaos replay of the same seed and program
    // draws the same victim sequence on every run.
    let mut rng: u64 = (index as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D);
    let mut idle_rounds: u32 = 0;
    let mut park_timeout = PARK_TIMEOUT_MIN;
    // One VM context and one tally for the server's life: a task
    // costs no construction and no shared counter.
    let (mut vm, mut tally) = (Vm::new(interp), Tally::default());
    while !shared.shutdown.load(Ordering::Acquire) && !THREAD_POISONED.with(Cell::get) {
        let popped = shared.sched.pop_local(index).or_else(|| {
            // Its own group is dry: settle before turning thief,
            // spinning or parking — whoever waits for this server's
            // finished tasks waits no longer than that.
            shared.settle(&mut tally, &mut vm);
            let stolen = shared.sched.steal(index, &mut rng);
            if let Some(t) = &stolen {
                curare_obs::record(EventKind::Steal, t.site as u64);
            }
            stolen
        });
        if let Some(t) = popped {
            idle_rounds = 0;
            park_timeout = PARK_TIMEOUT_MIN;
            let mut next = Some(t);
            while let Some(t) = next.take() {
                next = execute_task(shared, &mut vm, t, &mut tally, false);
            }
            continue;
        }
        // Nothing local, nothing stealable. Back off with widening
        // spin rounds first — work often lands within microseconds on
        // a busy pool — then park for real.
        if idle_rounds < IDLE_SPIN_ROUNDS {
            for _ in 0..(1u32 << idle_rounds) {
                std::hint::spin_loop();
            }
            std::thread::yield_now();
            idle_rounds += 1;
            continue;
        }
        shared.park_server(index, park_timeout);
        park_timeout = (park_timeout * 2).min(PARK_TIMEOUT_MAX);
        idle_rounds = 0;
    }
    shared.settle(&mut tally, &mut vm); // leaving: hold nothing back
}

/// Run one invocation to completion on `vm` and count it in `tally`.
/// Also used by helping `touch` calls, so it must be re-entrant.
/// Returns a chained successor the caller must run (or requeue) — its
/// pending count is already held. A task that ends its chain leaves
/// its pending count in `tally.finished`, for the caller to release
/// when it settles (`Shared::settle`).
fn execute_task(
    shared: &Arc<Shared>,
    vm: &mut Vm<'_>,
    task: Task,
    tally: &mut Tally,
    helping: bool,
) -> Option<Task> {
    let Task { fid, args, future, inv, .. } = task;
    let key = shared.key();
    // A tail-position spawn may restart this frame in place only where
    // that cannot be told from running the successor as a task: the
    // pool buffers spawns at all (an eager one publishes each at the
    // spawn), no toucher waits for this task's value (it would wait for
    // the whole chain), no helping `touch` runs it (it must return at
    // the first task boundary it can).
    let may_restart = !shared.eager && future.is_none() && !helping;
    let (tasks, in_place, batched) = (take_spare(), 0, 0);
    BATCH.with(|b| {
        b.borrow_mut().push(BatchFrame { key, fid, inv, tasks, may_restart, in_place, batched })
    });
    let _beat = shared.watched.then(|| BeatGuard::enter(PHASE_EXECUTING, fid as u64));
    let prev_inv = begin_invocation(fid, inv);
    crate::chaos::on_task_start();
    // The body runs under `catch_unwind`, so a panicking invocation
    // still settles its pending count (`handle_panic`).
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| vm.call(fid, args)));
    let mut frame = BATCH.with(|b| b.borrow_mut().pop()).expect("balanced batch frames");
    debug_assert_eq!(frame.key, key, "frames pop in push order");
    // The frame names the last link; those before it ran in place.
    end_invocation(frame.fid, frame.inv, prev_inv);
    tally.executed += frame.in_place;
    tally.chained += frame.in_place;
    tally.in_place += frame.in_place;
    tally.batched += frame.batched;
    let result = match caught {
        Ok(r) => r,
        Err(payload) => {
            shared.drop_unpublished(std::mem::take(&mut frame.tasks));
            put_spare(frame.tasks);
            vm.reset();
            if shared.speculate {
                // SpecMode does not poison: park the panic as an
                // errored invocation and let the validator escalate to
                // the sequential rerun, which is exactly-once by
                // construction.
                speclog::record_error(inv);
                if let Some(id) = future {
                    shared
                        .futures
                        .fail(id, LispError::User("task panicked under speculation".into()));
                }
                tally.finished += 1;
                return None;
            }
            handle_panic(shared, vm, payload.as_ref(), future, tally);
            return None;
        }
    };
    tally.executed += 1;
    let chained = if result.is_ok() {
        shared.publish_batch(&mut frame.tasks, true, &mut tally.batched)
    } else {
        shared.drop_unpublished(std::mem::take(&mut frame.tasks));
        None
    };
    put_spare(frame.tasks);
    match result {
        Ok(v) => {
            if let Some(id) = future {
                shared.futures.resolve(id, v);
            }
        }
        Err(e) if shared.speculate => {
            // SpecMode parks the error instead of aborting the run:
            // the failing body may have read misspeculated state, so
            // the validator decides at quiescence — a genuine error
            // reproduces in the sequential rerun. Waiters still
            // unblock through the failed future.
            if let Some(id) = future {
                shared.futures.fail(id, e);
            }
            speclog::record_error(inv);
        }
        Err(e) => shared.abort_run(e, future),
    }
    // A chained successor inherits this invocation's pending count;
    // a task with no chain leaves its own to be released at the settle.
    if chained.is_some() {
        tally.chained += 1;
    } else {
        tally.finished += 1;
    }
    chained
}

/// The panic policy behind `execute_task`'s catch, for a body that
/// panicked outside speculation. The caller has already settled the
/// obs bookkeeping, dropped the batch frame and reset the VM context.
/// The pool never runs the body again: it fails the future so waiters
/// unblock, surfaces the panic as the run error, drains the queues,
/// settles at once and poisons the server — a genuine panic may have
/// corrupted its state.
fn handle_panic(
    shared: &Arc<Shared>,
    vm: &mut Vm<'_>,
    payload: &(dyn std::any::Any + Send),
    future: Option<u64>,
    tally: &mut Tally,
) {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    shared.abort_run(LispError::User(format!("task panicked: {msg}")), future);
    shared.poison_current_server();
    tally.finished += 1;
    shared.settle(tally, vm);
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_transform::Curare;

    fn pooled(src: &str, servers: usize) -> (CriRuntime, String) {
        let curare = Curare::new();
        let out = curare.transform_source(src).unwrap();
        let interp = Arc::new(Interp::new());
        interp.load_str(&out.source()).unwrap();
        (CriRuntime::new(interp, servers), out.source())
    }

    #[test]
    fn conflict_free_walk_runs_in_parallel() {
        // Count list elements with an atomic accumulator.
        let (rt, _) = pooled(
            "(curare-declare (reorderable +))
             (defun walk (l)
               (when l
                 (setq *count* (+ *count* 1))
                 (walk (cdr l))))",
            4,
        );
        let interp = Arc::clone(rt.interp());
        interp.load_str("(defparameter *count* 0)").unwrap();
        let list = interp.load_str("(list 1 2 3 4 5 6 7 8 9 10)").unwrap();
        rt.run("walk", &[list]).unwrap();
        let v = interp.load_str("*count*").unwrap();
        assert_eq!(interp.heap().display(v), "10");
        assert_eq!(rt.stats().tasks, 11, "one invocation per cell plus the nil case");
    }

    #[test]
    fn figure_5_parallel_equals_sequential() {
        let src = "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))";
        // Sequential reference.
        let seq = Interp::new();
        seq.load_str(src).unwrap();
        let expect = {
            let v = seq.load_str("(let ((d (list 1 1 1 1 1 1 1 1))) (f d) d)").unwrap();
            seq.heap().display(v)
        };
        // Parallel run of the transformed program.
        let (rt, _) = pooled(src, 4);
        let interp = Arc::clone(rt.interp());
        let data = interp.load_str("(list 1 1 1 1 1 1 1 1)").unwrap();
        rt.run("f", &[data]).unwrap();
        assert_eq!(interp.heap().display(data), expect);
        assert_eq!(expect, "(1 2 3 4 5 6 7 8)");
    }

    #[test]
    fn future_synced_tail_writer_is_sequentializable() {
        // Post-call conflicting write: the pipeline wraps the call in
        // (touch (future ...)) so tails run in unwind order; the
        // parallel result must match the sequential one exactly.
        let src = "(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (cdr l) (car l))))";
        let seq = Interp::new();
        seq.load_str(src).unwrap();
        let expect = {
            let v = seq.load_str("(let ((d (list 1 2 3 4 5))) (f d) d)").unwrap();
            seq.heap().display(v)
        };
        let (rt, xformed) = pooled(src, 4);
        assert!(xformed.contains("(touch (future"), "{xformed}");
        let interp = Arc::clone(rt.interp());
        let data = interp.load_str("(list 1 2 3 4 5)").unwrap();
        rt.run("f", &[data]).unwrap();
        assert_eq!(interp.heap().display(data), expect, "transformed:\n{xformed}");
    }

    #[test]
    fn future_sync_deeper_than_pool_does_not_deadlock() {
        // 200 nested touches on a 2-server pool: helping touch must
        // keep executing queued work.
        let src = "(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (cdr l) (car l))))";
        let (rt, _) = pooled(src, 2);
        let interp = Arc::clone(rt.interp());
        let data =
            interp.load_str("(let ((l nil)) (dotimes (i 200) (setq l (cons i l))) l)").unwrap();
        rt.run("f", &[data]).unwrap();
        // Every cell's cdr now holds its own car.
        let first_cdr = interp.heap().cdr(data).unwrap();
        let first_car = interp.heap().car(data).unwrap();
        assert_eq!(first_cdr, first_car);
    }

    #[test]
    fn atomic_cell_accumulation_runs_fully_parallel() {
        // The §3.2.3 path: commutative cell update via CAS; no
        // future-sync, every invocation independent.
        let (rt, xformed) = pooled(
            "(curare-declare (reorderable +))
             (defun f (acc l)
               (when l
                 (f acc (cdr l))
                 (setf (car acc) (+ (car acc) (car l)))))",
            4,
        );
        assert!(xformed.contains("atomic-incf-cell"), "{xformed}");
        assert!(!xformed.contains("future"), "{xformed}");
        let interp = Arc::clone(rt.interp());
        let acc = interp.heap().cons(Value::int(0), Value::NIL);
        let data =
            interp.load_str("(let ((l nil)) (dotimes (i 1000) (setq l (cons 1 l))) l)").unwrap();
        rt.run("f", &[acc, data]).unwrap();
        assert_eq!(interp.heap().car(acc).unwrap(), Value::int(1000));
    }

    #[test]
    fn dps_remq_parallel_matches_sequential() {
        let src = "(defun remq (obj lst)
               (cond ((null lst) nil)
                     ((eq obj (car lst)) (remq obj (cdr lst)))
                     (t (cons (car lst) (remq obj (cdr lst))))))";
        let curare = Curare::new();
        let out = curare.transform_source(src).unwrap();
        let interp = Arc::new(Interp::new());
        interp.load_str(&out.source()).unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 4);

        // Drive via the -d entry so completion is pool-detected.
        let obj = interp.heap().sym_value("a");
        let lst = interp.load_str("(list 'a 'b 'a 'c 'a 'd 'e 'a)").unwrap();
        let dest = interp.heap().cons(Value::NIL, Value::NIL);
        rt.run("remq-d", &[dest, obj, lst]).unwrap();
        let result = interp.heap().cdr(dest).unwrap();
        assert_eq!(interp.heap().display(result), "(b c d e)");
    }

    #[test]
    fn errors_propagate_and_stop_the_run() {
        let interp = Arc::new(Interp::new());
        interp
            .load_str(
                "(defun f (n)
                   (if (= n 3)
                       (error \"boom\")
                       (when (< n 10) (cri-enqueue 0 f (1+ n)))))",
            )
            .unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 2);
        let err = rt.run("f", &[Value::int(0)]).unwrap_err();
        assert!(matches!(err, LispError::User(m) if m.contains("boom")));
        // The pool stays usable afterwards.
        interp.load_str("(defun g (n) n)").unwrap();
        rt.run("g", &[Value::int(1)]).unwrap();
    }

    #[test]
    fn futures_resolve_across_the_pool() {
        let interp = Arc::new(Interp::new());
        interp.load_str("(defun work (n) (* n n))").unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 2);
        let futs: Vec<Value> =
            (0..8).map(|i| rt.spawn_future("work", &[Value::int(i)]).unwrap()).collect();
        for (i, f) in futs.into_iter().enumerate() {
            assert_eq!(rt.touch(f).unwrap(), Value::int((i * i) as i64));
        }
    }

    #[test]
    fn future_failures_surface_at_touch() {
        let interp = Arc::new(Interp::new());
        interp.load_str("(defun bad (n) (error \"nope\"))").unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 2);
        let f = rt.spawn_future("bad", &[Value::int(1)]).unwrap();
        assert!(rt.touch(f).is_err());
        rt.wait_idle();
    }

    #[test]
    fn many_runs_reuse_servers() {
        let interp = Arc::new(Interp::new());
        interp.load_str("(defun walk (l) (when l (cri-enqueue 0 walk (cdr l))))").unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 3);
        for _ in 0..20 {
            let l = interp.load_str("(list 1 2 3 4)").unwrap();
            rt.run("walk", &[l]).unwrap();
        }
        assert_eq!(rt.stats().tasks, 20 * 5);
    }

    #[test]
    fn run_of_undefined_function_errors() {
        let interp = Arc::new(Interp::new());
        let rt = CriRuntime::new(interp, 1);
        assert!(matches!(
            rt.run("nope", &[]),
            Err(LispError::UndefinedFunction(n)) if n == "nope"
        ));
    }

    #[test]
    fn single_server_pool_still_completes() {
        let (rt, _) = pooled("(defun walk (l) (when l (print (car l)) (walk (cdr l))))", 1);
        let interp = Arc::clone(rt.interp());
        let l = interp.load_str("(list 1 2 3)").unwrap();
        rt.run("walk", &[l]).unwrap();
        assert_eq!(interp.take_output(), vec!["1", "2", "3"]);
    }

    #[test]
    fn deep_lists_do_not_blow_the_stack() {
        // 50k invocations through the queue: constant stack per task.
        let (rt, _) = pooled(
            "(curare-declare (reorderable +))
             (defun walk (l)
               (when l
                 (setq *n* (+ *n* 1))
                 (walk (cdr l))))",
            4,
        );
        let interp = Arc::clone(rt.interp());
        interp.load_str("(defparameter *n* 0)").unwrap();
        let mut l = Value::NIL;
        for i in 0..50_000 {
            l = interp.heap().cons(Value::int(i), l);
        }
        rt.run("walk", &[l]).unwrap();
        let v = interp.load_str("*n*").unwrap();
        assert_eq!(interp.heap().display(v), "50000");
    }

    #[test]
    fn tail_recursive_walk_chains_instead_of_queueing() {
        // A single-successor walk is the chaining fast path: every
        // non-root invocation should run chained, and the queues
        // should never hold more than the root task.
        let (rt, _) = pooled("(defun walk (l) (when l (walk (cdr l))))", 2);
        let interp = Arc::clone(rt.interp());
        let l = interp.load_str("(let ((l nil)) (dotimes (i 500) (setq l (cons i l))) l)").unwrap();
        rt.run("walk", &[l]).unwrap();
        let stats = rt.stats();
        assert_eq!(stats.tasks, 501);
        assert!(
            stats.chained_tasks >= 450,
            "single-successor tail recursion should chain nearly always: {stats:?}"
        );
        assert!(stats.peak_queue <= stats.tasks as usize);
    }

    #[test]
    fn the_lock_table_forgets_every_location_it_released() {
        // One pool, reused: each run brackets 5 000 distinct cells, so
        // a table that kept a location's state after its last release
        // would hold 10 000 entries by the end.
        let interp = Arc::new(Interp::new());
        interp
            .load_str(
                "(defun walk (l)
                   (when l
                     (cri-lock l 'car)
                     (cri-lock-read (cdr l) 'car)
                     (cri-unlock-read (cdr l) 'car)
                     (cri-unlock l 'car)
                     (cri-enqueue 0 walk (cdr l))))",
            )
            .unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 2);
        for _ in 0..2 {
            let l = interp
                .load_str("(let ((l nil)) (dotimes (i 5000) (setq l (cons i l))) l)")
                .unwrap();
            rt.run("walk", &[l]).unwrap();
        }
        // The last cell's shared bracket is on nil: no location.
        assert_eq!(rt.stats().lock_acquisitions, 2 * (2 * 5000 - 1));
        assert!(rt.shared.locks.held_snapshot().is_empty());
        assert_eq!(rt.shared.locks.retained(), 0);
    }

    #[test]
    fn central_mode_still_runs_everything() {
        // The measured baseline must stay a working scheduler.
        let interp = Arc::new(Interp::new());
        interp.load_str("(defun walk (l) (when l (cri-enqueue 0 walk (cdr l))))").unwrap();
        let rt = CriRuntime::with_mode(Arc::clone(&interp), 2, SchedMode::Central);
        assert_eq!(rt.mode(), SchedMode::Central);
        let l = interp.load_str("(list 1 2 3 4 5 6)").unwrap();
        rt.run("walk", &[l]).unwrap();
        let stats = rt.stats();
        assert_eq!(stats.tasks, 7);
        assert_eq!(stats.chained_tasks, 0, "no chaining on the central path");
        assert_eq!(stats.batched_submits, 0, "no batching on the central path");
    }

    #[test]
    fn multi_site_batches_publish_in_site_order() {
        // One invocation enqueueing to two sites: the batch must
        // publish both (no chain — it is not a singleton), and site 0
        // work must still drain before site 1 work.
        let interp = Arc::new(Interp::new());
        interp
            .load_str(
                "(defun fan (n)
                   (when (> n 0)
                     (cri-enqueue 0 leaf n)
                     (cri-enqueue 1 fan (- n 1))))
                 (defun leaf (n) (setq *hits* (cons n *hits*)))",
            )
            .unwrap();
        interp.load_str("(defparameter *hits* nil)").unwrap();
        let rt = CriRuntime::new(Arc::clone(&interp), 1);
        rt.run("fan", &[Value::int(20)]).unwrap();
        let stats = rt.stats();
        // 1 root + 20 fans + 20 leaves.
        assert_eq!(stats.tasks, 41);
        assert!(stats.batched_submits > 0, "two-site fanout cannot chain: {stats:?}");
        let v = interp.load_str("(length *hits*)").unwrap();
        assert_eq!(interp.heap().display(v), "20");
    }
}
