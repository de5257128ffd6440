//! A pool's life as its owner sees it: configuration, construction,
//! `run` and `wait_idle`, the statistics and the run's report, and
//! shutdown; and the process-wide server set its servers are borrowed
//! from. What the servers do between is `pool`'s; speculation's
//! commit is `speculate`'s and stall detection `watchdog`'s.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use curare_lisp::sync::{Condvar, Mutex};
use curare_lisp::{FuncId, Interp, LispError, Value};
use curare_obs::{report, Json, Profile, RingSnapshot, Timeline};

use crate::pool::{self, CriHooks, Shared};
use crate::watchdog::{self, Watch};

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
    /// Thread-local allocation buffer refills in the heap arenas.
    pub tlab_refills: u64,
    /// Total nanoseconds spent waiting in contended `cri-lock`
    /// acquisitions (the count alone cannot tell a 1 ns collision
    /// from a 10 ms convoy).
    pub lock_wait_total_ns: u64,
    /// Always 0: the pool never runs a body twice. Kept only because
    /// the benchmark harness in `benchmark/` still reads it.
    pub task_retries: u64,
    /// Servers that left the pool after a task panicked on them.
    pub servers_poisoned: u64,
    /// Stall dumps emitted by the watchdog.
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
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// Work-distribution structure.
    pub mode: SchedMode,
    /// Arm the stall watchdog: a server stuck in one non-idle phase
    /// longer than this budget produces a stall dump.
    /// `None` (the default) spawns no watchdog thread and keeps the
    /// hot path free of heartbeat writes.
    pub stall_budget: Option<Duration>,
    /// Run in `SpecMode`: invocations execute optimistically, heap
    /// effects are journaled, and a commit-time validator aborts and
    /// replays conflicting invocations (escalating to a sequential
    /// rerun when speculation cannot converge). Off by default.
    pub speculate: bool,
}

/// How the pool distributes work: two configurations of one queue
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// The paper-faithful central queue: one ownership group every
    /// server drains; every spawn is published at once and signals.
    Central,
    /// One ownership group per server with stealing between them,
    /// batched submit, and task chaining (the default).
    #[default]
    Sharded,
}

/// The server pool. Borrows its servers from the process-wide server
/// set at construction; dropping shuts the pool down and returns
/// them, parked, before it returns.
pub struct CriRuntime {
    pub(crate) interp: Arc<Interp>,
    pub(crate) shared: Arc<Shared>,
    /// The statistics only a speculative commit writes (the `spec_*`
    /// fields), totalled over the pool's runs.
    pub(crate) spec: Mutex<PoolStats>,
    config: RuntimeConfig,
    servers: usize,
    lent: Arc<Lent>,
    watchdog: Option<JoinHandle<()>>,
}

impl CriRuntime {
    /// Borrow `servers` servers from the server set for `interp`, with
    /// the default low-contention scheduler, and install the CRI hooks
    /// on it.
    pub fn new(interp: Arc<Interp>, servers: usize) -> Self {
        Self::with_mode(interp, servers, SchedMode::Sharded)
    }

    /// A pool on an explicit [`SchedMode`] (the `Central`
    /// baseline exists for E8 and the benchmark's central passes).
    pub fn with_mode(interp: Arc<Interp>, servers: usize, mode: SchedMode) -> Self {
        Self::with_config(interp, servers, RuntimeConfig { mode, ..RuntimeConfig::default() })
    }

    /// A pool with full [`RuntimeConfig`] control (scheduler mode,
    /// stall watchdog, speculation). Servers come from the set; only
    /// the shortfall, if no server is idle, is spawned.
    pub fn with_config(interp: Arc<Interp>, servers: usize, config: RuntimeConfig) -> Self {
        let servers = servers.max(1);
        let shared = Shared::new(servers, &config);
        interp.set_hooks(Arc::new(CriHooks { shared: Arc::clone(&shared) }));
        let lent = Arc::new(Lent { out: Mutex::new(servers), back: Condvar::new() });
        for index in 0..servers {
            let (interp, shared, lent) =
                (Arc::clone(&interp), Arc::clone(&shared), Arc::clone(&lent));
            lend(Job { interp, shared, index, lent });
        }
        let watchdog = shared.watch().is_some().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cri-watchdog".into())
                .spawn(move || watchdog::watch(shared.watch().expect("watched"), &shared))
                .expect("spawn watchdog thread")
        });
        let spec = Mutex::new(PoolStats::default());
        CriRuntime { interp, shared, config, servers, spec, lent, watchdog }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The scheduler this pool runs on.
    pub fn mode(&self) -> SchedMode {
        self.config.mode
    }

    /// The interpreter this pool executes against.
    pub fn interp(&self) -> &Arc<Interp> {
        &self.interp
    }

    /// Execute `(fname args...)` to completion across the pool:
    /// enqueue the root invocation, then wait until every transitively
    /// spawned invocation has finished, and return the root
    /// invocation's value: under speculation the committed execution's,
    /// after an escalation the sequential rerun's.
    ///
    /// Open defect (ROADMAP item 1(a)): where the sequential value rides
    /// on a tail self-call, the value is lost. A central pool returns
    /// `()` at any S, since eager publication never restarts a link in
    /// place, and so does a speculating pool in either mode; only a
    /// sharded pool that restarts the link in place returns it.
    pub fn run(&self, fname: &str, args: &[Value]) -> Result<Value, LispError> {
        let fid = self.lookup(fname)?;
        if self.config.speculate {
            return self.run_speculative(fid, args);
        }
        self.shared.run(&self.interp, fid, args.to_vec())
    }

    fn lookup(&self, fname: &str) -> Result<FuncId, LispError> {
        let sym = self.interp.heap().intern(fname);
        self.interp.lookup_func(sym).ok_or_else(|| LispError::UndefinedFunction(fname.to_string()))
    }

    /// Spawn `(fname args...)` as a future from the caller's thread.
    pub fn spawn_future(&self, fname: &str, args: &[Value]) -> Result<Value, LispError> {
        let fid = self.lookup(fname)?;
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
        self.shared.wait_idle(&self.interp);
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> PoolStats {
        let locks = self.shared.locks();
        let spec = *self.spec.lock();
        PoolStats {
            lock_acquisitions: locks.acquisitions(),
            lock_shared_acquisitions: locks.shared_acquisitions(),
            lock_contended: locks.contended(),
            lock_wait_total_ns: locks.wait_total_ns(),
            tlab_refills: self.interp.heap().tlab_refills(),
            stall_dumps: self.shared.watch().map_or(0, Watch::stalls),
            faults_injected: crate::chaos::installed().map_or(0, |p| p.injected()),
            ..self.shared.stats(spec)
        }
    }

    /// True when this pool runs in `SpecMode`.
    pub fn speculating(&self) -> bool {
        self.config.speculate
    }

    /// True once no server was left alive and the pool fell back to
    /// sequential draining.
    pub fn degraded(&self) -> bool {
        self.shared.degraded()
    }

    /// Servers still alive (not poisoned or shut down).
    pub fn alive(&self) -> usize {
        self.shared.alive()
    }

    /// The stall dumps the watchdog has emitted (capped at 64 per pool
    /// lifetime), the entries of a report's `stalls` section.
    pub fn stall_dumps(&self) -> Vec<Json> {
        self.shared.watch().map_or_else(Vec::new, Watch::dumps)
    }
}

impl CriRuntime {
    /// The run's report, labelled `label`: the pool counters, the heap
    /// occupancy, the lock-wait histogram, the VM counters with the
    /// hottest opcodes, the wall time (`seconds`), and what the run's
    /// trace `snaps` holds — its timeline, its rings' health and its
    /// causal profile.
    pub fn run_report(&self, label: &str, seconds: f64, snaps: &[RingSnapshot]) -> Json {
        let stats = self.stats();
        let pool = Json::obj()
            .set("servers", self.servers)
            .set("mode", if self.config.mode == SchedMode::Central { "central" } else { "sharded" })
            .set("tasks", stats.tasks)
            .set("peak_queue", stats.peak_queue)
            .set("chained_tasks", stats.chained_tasks)
            .set("in_place_tasks", stats.in_place_tasks)
            .set("batched_submits", stats.batched_submits)
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
            .set("speculate", self.config.speculate)
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
            .set("strings", hs.strings);
        let locks = Json::obj()
            .set("acquisitions", stats.lock_acquisitions)
            .set("shared_acquisitions", stats.lock_shared_acquisitions)
            .set("contended", stats.lock_contended)
            .set("wait", self.shared.locks().wait_summary().to_json());
        let vs = curare_lisp::vm_stats();
        // Hottest opcodes by accumulated handler ns: empty unless
        // per-opcode profiling was on during the run.
        let hot_ops = curare_lisp::op_profile_top(8)
            .into_iter()
            .map(|r| Json::obj().set("op", r.name).set("count", r.count).set("ns", r.ns));
        let vm = Json::obj()
            .set(
                "engine",
                if self.interp.engine() == curare_lisp::Engine::Vm { "vm" } else { "tree" },
            )
            .set("dispatched_ops", vs.dispatched_ops)
            .set("typed_ops", vs.typed_ops)
            .set("fused_ops", vs.fused_ops)
            .set("frames_reused", vs.frames_reused)
            .set("frames_allocated", vs.frames_allocated)
            .set("hot_ops", Json::Arr(hot_ops.collect()));
        let tasks_per_sec = stats.tasks as f64 / seconds.max(1e-9);
        let wall = Json::obj().set("seconds", seconds).set("tasks_per_sec", tasks_per_sec);
        // The rings' health, so a report built from truncated rings
        // says so.
        let profile = Profile::from_trace(snaps);
        let lanes = profile.dropped_per_lane.iter().map(|&d| Json::from(d)).collect();
        let trace = Json::obj().set("dropped_events", profile.dropped_events);
        report::document(
            label,
            [
                ("pool", pool),
                ("heap", heap),
                ("locks", locks),
                ("vm", vm),
                ("wall", wall),
                ("timeline", Timeline::from_trace(snaps).to_json()),
                ("trace", trace.set("dropped_per_lane", Json::Arr(lanes))),
                ("profile", profile.to_json()),
            ],
        )
    }
}

impl Drop for CriRuntime {
    /// Shut the pool down and wait until every borrowed server has left
    /// `server_loop`: nothing runs against the interpreter once this
    /// returns, and each server is back in the set (or retired), so
    /// the set never holds more threads than were ever borrowed at once.
    fn drop(&mut self) {
        self.shared.shut_down();
        self.lent.wait();
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        // Restore ordinary semantics on the interpreter.
        self.interp.set_hooks(Arc::new(curare_lisp::SequentialHooks));
    }
}

/// The server set (paper §4: servers are long-lived, and a new task
/// costs them no context switch): threads that outlive the runtime
/// that first borrowed them. Each idle one waits on its mailbox,
/// blocked without a timeout, until a runtime posts it a job.
static IDLE: Mutex<Vec<Arc<Mailbox>>> = Mutex::new(Vec::new());

/// An idle server's slot for its next borrow.
#[derive(Default)]
struct Mailbox {
    job: Mutex<Option<Job>>,
    posted: Condvar,
}

/// One borrow: the pool a server serves, its index there, and the
/// count it reports back to.
struct Job {
    interp: Arc<Interp>,
    shared: Arc<Shared>,
    index: usize,
    lent: Arc<Lent>,
}

/// A runtime's servers not yet back from their borrow. (Not a channel
/// whose senders the servers drop: `std`'s channels are 128-byte
/// aligned, and one such allocation per runtime fragmented the
/// creating thread's heap by 0.3 MB of `tiny_grain`'s `peak_rss_mb`.)
struct Lent {
    out: Mutex<usize>,
    back: Condvar,
}

impl Lent {
    /// One server is back: in the set, retired, or unwound.
    fn returned(&self) {
        let mut out = self.out.lock();
        *out -= 1;
        if *out == 0 {
            self.back.notify_all();
        }
    }

    /// Block until every server is back. Woken servers are back within
    /// tens of µs, so the waiter yields for about that long before it
    /// sleeps: that spares it being woken in turn, a quarter of a
    /// `Drop`'s median on a 2-vCPU host (61–75 → 38–52 µs).
    fn wait(&self) {
        for _ in 0..200 {
            if *self.out.lock() == 0 {
                return;
            }
            std::thread::yield_now();
        }
        let mut out = self.out.lock();
        while *out > 0 {
            self.back.wait(&mut out);
        }
    }
}

/// Hand `job` to an idle server of the set, or to a new thread when
/// none is idle.
fn lend(job: Job) {
    let idle = IDLE.lock().pop();
    if let Some(mailbox) = idle {
        *mailbox.job.lock() = Some(job);
        mailbox.posted.notify_one();
        return;
    }
    std::thread::Builder::new()
        .name("cri-server".into())
        .stack_size(pool::SERVER_STACK)
        .spawn(move || serve(job))
        .expect("spawn server thread");
}

/// A set thread's life: serve a borrow, go back to the set, wait for
/// the next one, until a borrow poisons it. A borrow ends holding
/// nothing of its pool: the thread lets go of the interpreter, the
/// pool's state and the hooks it last resolved (which hold that state
/// too) before it reports back, so the runtime's `Drop` frees them.
fn serve(mut job: Job) {
    /// Reports the server back on every way out of a borrow, a panic
    /// that escaped `server_loop` included.
    struct Back(Arc<Lent>);
    impl Drop for Back {
        fn drop(&mut self) {
            self.0.returned();
        }
    }
    let mailbox = Arc::new(Mailbox::default());
    loop {
        let Job { interp, shared, index, lent } = job;
        let back = Back(lent);
        let poisoned = pool::server_loop(&interp, &shared, index);
        drop((interp, shared));
        curare_lisp::interp::forget_thread_hooks();
        if poisoned {
            return; // retired: a poisoned server never serves again
        }
        IDLE.lock().push(Arc::clone(&mailbox));
        drop(back);
        let mut posted = mailbox.job.lock();
        job = loop {
            match posted.take() {
                Some(job) => break job,
                None => mailbox.posted.wait(&mut posted),
            }
        };
    }
}
