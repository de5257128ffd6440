//! The CRI server pool (paper §4).
//!
//! "Because every transaction executes an identical function body, we
//! can have a collection of servers that repeatedly execute this piece
//! of code. Each server only needs to obtain the arguments to an
//! invocation to begin executing a new task. It does not need to
//! execute a process context switch."
//!
//! A pool borrows `S` threads of the process-wide server set
//! (`lifecycle`) for its life; each loops over the ordered site queues
//! (`server_loop`, once per borrow), executing one invocation at a time
//! against the shared interpreter, and goes back to the set when the
//! pool is dropped. `cri-enqueue` (installed through [`CriHooks`]) adds
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
//!   frame on the successor's arguments: no `Task`, counted all the
//!   same. Where something observes the run (the tracer, invocation
//!   ids, a chaos plan, the pool's watchdog) the link also leaves what
//!   a task would; where nothing does, it is the count alone;
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
use std::time::Duration;

use curare_lisp::speclog;
use curare_lisp::sync::{CachePadded, Condvar, Mutex};
use curare_lisp::{FuncId, Interp, LispError, Value, Vm};
use curare_obs::EventKind;

pub use crate::lifecycle::{CriRuntime, PoolStats, RuntimeConfig, SchedMode};
pub use hooks::CriHooks;

mod hooks;

use crate::futures::FutureTable;
use crate::locktable::LockTable;
use crate::queue::{ShardedQueues, Task};
use crate::watchdog::{BeatGuard, Watch, PHASE_EXECUTING};

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

/// The protocol's state, shared by the servers, the hooks and the
/// pool's owner.
pub(crate) struct Shared {
    sched: ShardedQueues,
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
    /// What the run's root invocation returned.
    root_value: Mutex<Value>,
    shutdown: AtomicBool,
    aborting: AtomicBool,
    locks: LockTable,
    futures: FutureTable,
    /// The stall detector, when a budget armed it: every beat write
    /// is behind this one test.
    watch: Option<Watch>,
    /// Servers not poisoned: the rest of `parkers` are.
    alive: AtomicUsize,
    degraded: AtomicBool,
    /// True when this pool runs speculatively: spawns register with
    /// the journal and publish eagerly, and body errors park instead of
    /// aborting the run.
    speculate: bool,
}

impl Shared {
    /// The state of a pool of `servers` configured by `config`.
    pub(crate) fn new(servers: usize, config: &RuntimeConfig) -> Arc<Self> {
        Arc::new(Shared {
            sched: match config.mode {
                SchedMode::Central => ShardedQueues::new(),
                SchedMode::Sharded => ShardedQueues::with_servers(servers),
            },
            eager: config.mode == SchedMode::Central || config.speculate,
            parkers: (0..servers).map(|_| Parker::default()).collect(),
            parked_mask: CachePadded::default(),
            done_m: Mutex::new(()),
            done_cv: Condvar::new(),
            pending: CachePadded::default(),
            counters: CachePadded::default(),
            error: Mutex::new(None),
            root_value: Mutex::new(Value::NIL),
            shutdown: AtomicBool::new(false),
            aborting: AtomicBool::new(false),
            locks: LockTable::new(),
            futures: FutureTable::new(),
            watch: config.stall_budget.map(|budget| Watch::new(servers, budget)),
            alive: AtomicUsize::new(servers),
            degraded: AtomicBool::new(false),
            speculate: config.speculate,
        })
    }

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
            // `wait_idle`, which sleeps on `done_cv`, not a parker.
            self.wake_waiter();
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
            self.wake_waiter(); // the last pending task
        }
    }

    /// Wake the thread in `wait_idle`, under its mutex to pair with the
    /// condvar wait.
    fn wake_waiter(&self) {
        let _guard = self.done_m.lock();
        self.done_cv.notify_all();
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
        if let Some(watch) = &self.watch {
            watch.retire(index);
        }
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
            self.wake_waiter();
        }
    }

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
        Task { fid, args, site, future, inv, root: false }
    }

    /// Park a failed invocation under speculation instead of ending the
    /// run: the body may have read misspeculated state, so the validator
    /// decides at quiescence, and a genuine failure reproduces in the
    /// sequential rerun, exactly once. Waiters unblock through the
    /// failed future.
    fn park_failure(&self, inv: u64, future: Option<u64>, err: LispError) {
        if let Some(id) = future {
            self.futures.fail(id, err);
        }
        speclog::record_error(inv);
    }

    /// Run popped `task` and the successors it chains on this thread,
    /// then settle. A helping `touch` names the future it waits for:
    /// once that resolves, a chained successor goes back to the queues
    /// and the toucher returns promptly.
    fn run_chain(
        self: &Arc<Self>,
        vm: &mut Vm<'_>,
        tally: &mut Tally,
        task: Task,
        touching: Option<u64>,
    ) {
        let mut next = Some(task);
        while let Some(t) = next.take() {
            next = execute_task(self, vm, t, tally, touching.is_some());
            if next.is_some() && touching.is_some_and(|id| self.futures.is_resolved(id)) {
                self.requeue_chained(next.take().expect("checked"));
            }
        }
        self.settle(tally, vm);
    }

    // ---- what the pool's owner and its watchdog use ----

    /// Run `(fid args...)` from its root invocation until the pool is
    /// idle, and hand back the root's value, or the error that ended
    /// the run if one did.
    pub(crate) fn run(
        self: &Arc<Self>,
        interp: &Interp,
        fid: FuncId,
        args: Vec<Value>,
    ) -> Result<Value, LispError> {
        self.aborting.store(false, Ordering::Release);
        *self.error.lock() = None;
        *self.root_value.lock() = Value::NIL;
        self.submit_now(Task { root: true, ..self.new_task(0, fid, args, None) });
        self.wait_idle(interp);
        self.error.lock().take().map_or_else(|| Ok(*self.root_value.lock()), Err)
    }

    /// Block until no invocation is pending. On a degraded pool (no
    /// server left alive) the calling thread itself drains the queues
    /// on `interp`, so the run still completes with the
    /// sequentially-correct answer.
    pub(crate) fn wait_idle(self: &Arc<Self>, interp: &Interp) {
        loop {
            if self.degraded() {
                let (mut vm, mut tally) = (Vm::new(interp), Tally::default());
                while let Some(t) = self.sched.pop() {
                    self.run_chain(&mut vm, &mut tally, t, None);
                }
            }
            let mut g = self.done_m.lock();
            loop {
                if self.pending_tasks() == 0 {
                    return;
                }
                if self.degraded() && self.sched.has_work() {
                    break; // go drain on this thread
                }
                self.done_cv.wait(&mut g);
            }
        }
    }

    /// Tell the servers and the watchdog to leave.
    pub(crate) fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// `base` with the protocol's share of the pool's statistics, the
    /// scheduler's counts, filled in.
    pub(crate) fn stats(&self, base: PoolStats) -> PoolStats {
        let (steal_attempts, steal_successes, steal_failed_races, sites_migrated) =
            self.sched.steal_stats();
        let c = &self.counters;
        let count = |n: &AtomicU64| n.load(Ordering::Relaxed);
        PoolStats {
            tasks: count(&c.executed),
            peak_queue: self.sched.peak(),
            chained_tasks: count(&c.chained),
            in_place_tasks: count(&c.in_place),
            batched_submits: count(&c.batched_submits),
            servers_poisoned: (self.parkers.len() - self.alive()) as u64,
            degraded: self.degraded(),
            steal_attempts,
            steal_successes,
            steal_failed_races,
            sites_migrated,
            parks: count(&c.parks),
            park_ns: count(&c.park_ns),
            peak_idle_servers: count(&c.peak_parked) as usize,
            ..base
        }
    }

    pub(crate) fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    pub(crate) fn alive(&self) -> usize {
        self.alive.load(Ordering::Acquire)
    }

    pub(crate) fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    pub(crate) fn pending_tasks(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    pub(crate) fn has_work(&self) -> bool {
        self.sched.has_work()
    }

    pub(crate) fn locks(&self) -> &LockTable {
        &self.locks
    }

    pub(crate) fn futures(&self) -> &FutureTable {
        &self.futures
    }

    pub(crate) fn watch(&self) -> Option<&Watch> {
        self.watch.as_ref()
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

/// Per-server native stack size. Invocation bodies are shallow (the
/// recursion became queue hops), but builtins and user helpers may
/// still recurse.
pub(crate) const SERVER_STACK: usize = 256 << 20;

/// Idle policy knobs for `server_loop`: a few exponentially widening
/// spin rounds absorb the publish-to-pop latency of a busy pool, then
/// the server parks on its condvar with an escalating timeout backstop
/// (so even a theoretically lost wakeup only delays, never hangs).
const IDLE_SPIN_ROUNDS: u32 = 6;
const PARK_TIMEOUT_MIN: Duration = Duration::from_millis(1);
const PARK_TIMEOUT_MAX: Duration = Duration::from_millis(64);

/// One borrow of a set thread as server `index`: pop, run the chain,
/// settle when dry, park when idle, until the pool shuts down or the
/// server is poisoned. True when it was poisoned: the thread retires
/// instead of going back to the set. What makes the thread this pool's
/// server is bound here, on every borrow.
pub(crate) fn server_loop(interp: &Interp, shared: &Arc<Shared>, index: usize) -> bool {
    // Servers get a large native stack; let the evaluator use most of
    // it for any residual non-tail recursion in task bodies.
    curare_lisp::eval::set_thread_stack_budget(SERVER_STACK - (4 << 20));
    // Trace lane: server i records into ring i + 1 (0 is external).
    curare_obs::set_lane(index + 1);
    SERVER_OF.with(|s| s.set((shared.key(), index)));
    match &shared.watch {
        Some(watch) => watch.bind(index),
        // The thread may have served a watched pool before.
        None => crate::watchdog::set_current_beat(None),
    }
    // Per-server deterministic victim-selection stream: seeded from
    // the index alone, so a chaos replay of the same seed and program
    // draws the same victim sequence on every run.
    let mut rng: u64 = (index as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D);
    let mut idle_rounds: u32 = 0;
    let mut park_timeout = PARK_TIMEOUT_MIN;
    // One VM context and one tally per borrow: a task costs no
    // construction and no shared counter.
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
    THREAD_POISONED.with(Cell::get)
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
    let Task { fid, args, future, inv, root, .. } = task;
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
    let _beat = shared.watch.is_some().then(|| BeatGuard::enter(PHASE_EXECUTING, fid as u64));
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
                // SpecMode does not poison: the validator escalates to
                // the sequential rerun.
                let err = LispError::User("task panicked under speculation".into());
                shared.park_failure(inv, future, err);
                tally.finished += 1;
            } else {
                handle_panic(shared, vm, payload.as_ref(), future, tally);
            }
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
            if root {
                *shared.root_value.lock() = v;
            }
        }
        Err(e) if shared.speculate => shared.park_failure(inv, future, e),
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

    /// A run returns its root invocation's value, the one the
    /// sequential run returns: of an entry that spawns nothing, and of a
    /// converted walker whose base case returns nil, on one server and
    /// on two.
    #[test]
    fn a_run_returns_the_sequential_value() {
        let src = "(defun sq (x) (* x x))
                   (defun w (l) (when l (setf (car l) (sq (car l))) (w (cdr l))))";
        let seq = Interp::new();
        seq.load_str(src).unwrap();
        let list = seq.load_str("(list 1 2 3)").unwrap();
        let want = [seq.call("sq", &[Value::int(7)]).unwrap(), seq.call("w", &[list]).unwrap()];
        assert_eq!(want, [Value::int(49), Value::NIL]);
        for servers in [1, 2] {
            let (rt, text) = pooled(src, servers);
            assert!(text.contains("cri-enqueue"), "w is converted: {text}");
            let list = rt.interp().load_str("(list 1 2 3)").unwrap();
            let got = [rt.run("sq", &[Value::int(7)]).unwrap(), rt.run("w", &[list]).unwrap()];
            assert_eq!(got, want, "S = {servers}");
            assert_eq!(rt.interp().heap().display(list), "(1 4 9)");
        }
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
