//! Deterministic fault injection for the CRI runtime.
//!
//! The paper's claim is that restructured programs stay sequentially
//! equivalent under *any* interleaving of server threads. The happy
//! path only ever exercises the interleavings the host scheduler
//! happens to produce; this module manufactures adversarial ones. A
//! seeded [`FaultPlan`] makes per-decision-point pseudo-random calls —
//! no wall clock enters any decision, so the *decision sequence at
//! each point* is a pure function of the seed even though thread
//! assignment is not — and the instrumented layers consult it at four
//! named decision points:
//!
//! | point | site | faults |
//! |---|---|---|
//! | [`DecisionPoint::TaskStart`] | `pool::execute_task`, before the body | delay, panic |
//! | [`DecisionPoint::QueuePop`] | `queue::ShardedQueues::{pop, pop_local}` | site shuffle |
//! | [`DecisionPoint::FutureResolve`] | `futures::FutureTable::{resolve,fail}` | stall |
//! | [`DecisionPoint::LockAcquire`] | `locktable::LockTable::lock` | delay |
//!
//! The decision points are always compiled and are armed only by
//! [`install`]: with no plan installed each costs one relaxed load.
//! Installation mirrors `obs::install`: a process-global plan with a
//! generation-cached per-thread handle, so an armed decision costs one
//! relaxed load, one generation compare, and one splitmix round.
//!
//! Injected panics carry an [`InjectedPanic`] payload and fire
//! *before* the invocation body runs, so the pool's catch/retry policy
//! can requeue the task with exactly-once semantics — no user effect
//! has happened yet. `retryable: false` simulates a hard mid-body
//! crash instead, exercising the poison/abort path.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use curare_lisp::sync::Mutex;
use curare_obs::EventKind;

/// Where in the runtime a fault decision is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum DecisionPoint {
    /// A server is about to execute an invocation body.
    TaskStart = 0,
    /// A server is about to dequeue from the site queues.
    QueuePop = 1,
    /// A producer is about to resolve (or fail) a future.
    FutureResolve = 2,
    /// A server is about to acquire a location lock.
    LockAcquire = 3,
}

/// Number of decision points (one PRNG stream each).
pub const POINT_COUNT: usize = 4;

/// Per-point stream salts: decisions at one point never perturb the
/// sequence another point sees.
const SALTS: [u64; POINT_COUNT] =
    [0xC0FF_EE00_0000_0001, 0xC0FF_EE00_0000_0002, 0xC0FF_EE00_0000_0003, 0xC0FF_EE00_0000_0004];

/// The fault selected for one decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Sleep before proceeding (models a slow server / GC pause).
    Delay(Duration),
    /// Panic before the body runs; `retryable` distinguishes an
    /// injected pre-body fault (safe to requeue) from a simulated hard
    /// crash.
    Panic { retryable: bool },
    /// Dequeue from the `r`-th eligible non-empty site instead of the
    /// lowest-indexed one (within-site FIFO is preserved).
    Shuffle(u64),
    /// Sleep inside future resolution, widening the window between a
    /// producer finishing and its waiters observing the value.
    Stall(Duration),
}

/// Fault rates (parts per million per decision) and magnitudes of one
/// named chaos profile. All fields are public so tests can build
/// bespoke profiles.
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// Profile name (reported in stats lines and BENCH documents).
    pub name: &'static str,
    /// TaskStart delay rate, ppm.
    pub delay_ppm: u32,
    /// Maximum TaskStart delay, µs (drawn uniformly below this).
    pub delay_max_us: u64,
    /// TaskStart panic rate, ppm.
    pub panic_ppm: u32,
    /// Whether injected panics are pre-body (retryable) or simulate a
    /// hard crash.
    pub panic_retryable: bool,
    /// QueuePop shuffle rate, ppm.
    pub shuffle_ppm: u32,
    /// FutureResolve stall rate, ppm.
    pub stall_ppm: u32,
    /// Maximum resolution stall, µs.
    pub stall_max_us: u64,
    /// LockAcquire delay rate, ppm.
    pub lock_delay_ppm: u32,
    /// Maximum lock-acquire delay, µs.
    pub lock_delay_max_us: u64,
}

impl ChaosProfile {
    /// The named profiles `--chaos-profile` accepts.
    pub const NAMES: [&'static str; 7] =
        ["delays", "panics", "stalls", "shuffle", "reorder", "mixed", "collapse"];

    /// A profile that injects nothing (base for bespoke ones).
    pub fn quiet(name: &'static str) -> Self {
        ChaosProfile {
            name,
            delay_ppm: 0,
            delay_max_us: 0,
            panic_ppm: 0,
            panic_retryable: true,
            shuffle_ppm: 0,
            stall_ppm: 0,
            stall_max_us: 0,
            lock_delay_ppm: 0,
            lock_delay_max_us: 0,
        }
    }

    /// Look up a named profile.
    pub fn named(name: &str) -> Option<Self> {
        let p = match name {
            // Slow-but-healthy: every layer jittered, nothing broken.
            "delays" => ChaosProfile {
                delay_ppm: 200_000,
                delay_max_us: 200,
                stall_ppm: 100_000,
                stall_max_us: 200,
                lock_delay_ppm: 100_000,
                lock_delay_max_us: 100,
                ..Self::quiet("delays")
            },
            // Pre-body panics: exercises catch/retry/poison.
            "panics" => ChaosProfile { panic_ppm: 150_000, ..Self::quiet("panics") },
            // Resolution stalls: widens producer/consumer races.
            "stalls" => {
                ChaosProfile { stall_ppm: 300_000, stall_max_us: 500, ..Self::quiet("stalls") }
            }
            // Cross-site dequeue shuffling (within-site FIFO kept).
            "shuffle" => ChaosProfile { shuffle_ppm: 600_000, ..Self::quiet("shuffle") },
            // Delays + shuffling, no panics: pure interleaving
            // perturbation (the sanitizer cross-check profile — panics
            // would re-run bodies and double their access events).
            "reorder" => ChaosProfile {
                delay_ppm: 150_000,
                delay_max_us: 150,
                shuffle_ppm: 400_000,
                stall_ppm: 100_000,
                stall_max_us: 150,
                ..Self::quiet("reorder")
            },
            // Everything at moderate rates (the sweep default).
            "mixed" => ChaosProfile {
                delay_ppm: 100_000,
                delay_max_us: 100,
                panic_ppm: 50_000,
                shuffle_ppm: 300_000,
                stall_ppm: 100_000,
                stall_max_us: 100,
                lock_delay_ppm: 50_000,
                lock_delay_max_us: 50,
                ..Self::quiet("mixed")
            },
            // Every task-start panics: drives poison → drain → degrade
            // until the pool collapses to the sequential fallback.
            "collapse" => ChaosProfile { panic_ppm: 1_000_000, ..Self::quiet("collapse") },
            _ => return None,
        };
        Some(p)
    }
}

/// A seeded, installable fault plan: one deterministic decision stream
/// per [`DecisionPoint`].
pub struct FaultPlan {
    seed: u64,
    profile: ChaosProfile,
    counters: [AtomicU64; POINT_COUNT],
    injected: AtomicU64,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan drawing from `seed` under `profile`.
    pub fn new(seed: u64, profile: ChaosProfile) -> Arc<Self> {
        Arc::new(FaultPlan {
            seed,
            profile,
            counters: Default::default(),
            injected: AtomicU64::new(0),
        })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's profile.
    pub fn profile(&self) -> &ChaosProfile {
        &self.profile
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Draw the next decision for `point`. The n-th call for a given
    /// point always returns the same fault for the same seed+profile,
    /// regardless of which thread makes it.
    pub fn decide(&self, point: DecisionPoint) -> Option<Fault> {
        let p = point as usize;
        let n = self.counters[p].fetch_add(1, Ordering::Relaxed);
        let r = splitmix64(self.seed ^ SALTS[p] ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let roll = (r % 1_000_000) as u32;
        let magnitude = r >> 32;
        let us = |max: u64| Duration::from_micros(if max == 0 { 0 } else { magnitude % max });
        let fault = match point {
            DecisionPoint::TaskStart => {
                if roll < self.profile.panic_ppm {
                    Fault::Panic { retryable: self.profile.panic_retryable }
                } else if roll < self.profile.panic_ppm.saturating_add(self.profile.delay_ppm) {
                    Fault::Delay(us(self.profile.delay_max_us))
                } else {
                    return None;
                }
            }
            DecisionPoint::QueuePop => {
                if roll < self.profile.shuffle_ppm {
                    Fault::Shuffle(magnitude)
                } else {
                    return None;
                }
            }
            DecisionPoint::FutureResolve => {
                if roll < self.profile.stall_ppm {
                    Fault::Stall(us(self.profile.stall_max_us))
                } else {
                    return None;
                }
            }
            DecisionPoint::LockAcquire => {
                if roll < self.profile.lock_delay_ppm {
                    Fault::Delay(us(self.profile.lock_delay_max_us))
                } else {
                    return None;
                }
            }
        };
        self.injected.fetch_add(1, Ordering::Relaxed);
        curare_obs::record(EventKind::FaultInjected, p as u64);
        Some(fault)
    }
}

/// The payload of an injected panic. The pool's catch site downcasts
/// to this to distinguish injected faults (with their retry policy)
/// from genuine bugs.
#[derive(Debug, Clone, Copy)]
pub struct InjectedPanic {
    /// True when the panic fired before the body ran (requeue-safe).
    pub retryable: bool,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static CURRENT: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

thread_local! {
    static CACHE: RefCell<(u64, Option<Arc<FaultPlan>>)> = const { RefCell::new((0, None)) };
    /// Suppression depth: > 0 disables injection on this thread (the
    /// degraded sequential drain and final-attempt execution run here).
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

/// Install (`Some`) or remove (`None`) the process-global fault plan.
/// Returns the previous plan. Injection sites in every instrumented
/// layer start/stop consulting it immediately.
pub fn install(plan: Option<Arc<FaultPlan>>) -> Option<Arc<FaultPlan>> {
    if plan.is_some() {
        // Injected panics are expected control flow; keep the default
        // hook from printing a backtrace for each one.
        silence_injected_panics();
    }
    let mut cur = CURRENT.lock();
    ARMED.store(plan.is_some(), Ordering::Release);
    GENERATION.fetch_add(1, Ordering::Release);
    std::mem::replace(&mut cur, plan)
}

/// The currently installed plan, if any.
pub fn installed() -> Option<Arc<FaultPlan>> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    CURRENT.lock().clone()
}

/// True when a plan is installed and this thread is not suppressed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed) && SUPPRESS.with(Cell::get) == 0
}

/// Run `f` with injection disabled on this thread. The pool uses this
/// for the degraded sequential drain and for an external helper's
/// final attempt after retries are exhausted, so progress is
/// guaranteed even under an always-panic profile.
pub fn with_suppressed<R>(f: impl FnOnce() -> R) -> R {
    SUPPRESS.with(|s| s.set(s.get() + 1));
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            SUPPRESS.with(|s| s.set(s.get() - 1));
        }
    }
    let _restore = Restore;
    f()
}

#[cold]
fn refresh_cache() -> Option<Arc<FaultPlan>> {
    let generation = GENERATION.load(Ordering::Acquire);
    let plan = CURRENT.lock().clone();
    CACHE.with(|c| *c.borrow_mut() = (generation, plan.clone()));
    plan
}

/// Draw a decision from the installed plan (generation-cached handle,
/// as in `obs::tracer`). `None` when disarmed, suppressed, or the
/// stream rolled no fault.
#[inline]
pub fn decide(point: DecisionPoint) -> Option<Fault> {
    if !armed() {
        return None;
    }
    decide_armed(point)
}

#[cold]
fn decide_armed(point: DecisionPoint) -> Option<Fault> {
    let generation = GENERATION.load(Ordering::Acquire);
    let plan = CACHE.with(|c| {
        let cache = c.borrow();
        if cache.0 == generation {
            cache.1.clone()
        } else {
            drop(cache);
            refresh_cache()
        }
    });
    plan.and_then(|p| p.decide(point))
}

/// TaskStart injection: sleep on a delay, unwind on a panic. Must be
/// called *inside* the pool's `catch_unwind`, before the body runs.
pub fn on_task_start() {
    match decide(DecisionPoint::TaskStart) {
        Some(Fault::Delay(d)) => std::thread::sleep(d),
        Some(Fault::Panic { retryable }) => {
            std::panic::panic_any(InjectedPanic { retryable });
        }
        _ => {}
    }
}

/// QueuePop injection: `Some(r)` when this dequeue should take the
/// `r`-th eligible site instead of the lowest-indexed one.
pub fn pop_shuffle() -> Option<u64> {
    match decide(DecisionPoint::QueuePop) {
        Some(Fault::Shuffle(r)) => Some(r),
        _ => None,
    }
}

/// FutureResolve injection: stall before publishing the resolution.
pub fn on_future_resolve() {
    if let Some(Fault::Stall(d)) = decide(DecisionPoint::FutureResolve) {
        std::thread::sleep(d);
    }
}

/// LockAcquire injection: delay before taking the location lock.
pub fn on_lock_acquire() {
    if let Some(Fault::Delay(d)) = decide(DecisionPoint::LockAcquire) {
        std::thread::sleep(d);
    }
}

/// Install a panic hook that swallows [`InjectedPanic`] payloads (the
/// default hook would print a backtrace per injected fault) while
/// forwarding every genuine panic to the previous hook. Idempotent.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The install point is process-global; serialize tests on it.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn stream(
        seed: u64,
        profile: ChaosProfile,
        point: DecisionPoint,
        n: usize,
    ) -> Vec<Option<Fault>> {
        let plan = FaultPlan::new(seed, profile);
        (0..n).map(|_| plan.decide(point)).collect()
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = stream(42, ChaosProfile::named("mixed").unwrap(), DecisionPoint::TaskStart, 256);
        let b = stream(42, ChaosProfile::named("mixed").unwrap(), DecisionPoint::TaskStart, 256);
        assert_eq!(a, b);
        assert!(a.iter().any(Option::is_some), "mixed profile must inject something in 256 draws");
        assert!(a.iter().any(Option::is_none), "mixed profile must not inject every time");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = stream(1, ChaosProfile::named("mixed").unwrap(), DecisionPoint::TaskStart, 256);
        let b = stream(2, ChaosProfile::named("mixed").unwrap(), DecisionPoint::TaskStart, 256);
        assert_ne!(a, b);
    }

    #[test]
    fn points_have_independent_streams() {
        // Draining one point's stream must not perturb another's.
        let p1 = FaultPlan::new(7, ChaosProfile::named("mixed").unwrap());
        for _ in 0..100 {
            p1.decide(DecisionPoint::QueuePop);
        }
        let after: Vec<_> = (0..64).map(|_| p1.decide(DecisionPoint::TaskStart)).collect();
        let fresh = stream(7, ChaosProfile::named("mixed").unwrap(), DecisionPoint::TaskStart, 64);
        assert_eq!(after, fresh);
    }

    #[test]
    fn collapse_always_panics_and_quiet_never() {
        let always =
            stream(3, ChaosProfile::named("collapse").unwrap(), DecisionPoint::TaskStart, 32);
        assert!(always.iter().all(|f| matches!(f, Some(Fault::Panic { retryable: true }))));
        let never = stream(3, ChaosProfile::quiet("q"), DecisionPoint::TaskStart, 32);
        assert!(never.iter().all(Option::is_none));
    }

    #[test]
    fn install_and_suppression_gate_decisions() {
        let _g = TEST_GUARD.lock();
        install(None);
        assert!(!armed());
        assert_eq!(decide(DecisionPoint::TaskStart), None);
        // Always a fault, but a harmless one: the pool's unit tests run
        // beside this one and consult whatever plan is installed.
        let always = ChaosProfile { delay_ppm: 1_000_000, ..ChaosProfile::quiet("zero-delay") };
        let plan = FaultPlan::new(9, always);
        install(Some(Arc::clone(&plan)));
        assert!(armed());
        assert_eq!(decide(DecisionPoint::TaskStart), Some(Fault::Delay(Duration::ZERO)));
        with_suppressed(|| {
            assert!(!armed());
            assert_eq!(decide(DecisionPoint::TaskStart), None);
        });
        assert!(armed(), "suppression is scoped");
        install(None);
        assert_eq!(decide(DecisionPoint::TaskStart), None);
        assert!(plan.injected() >= 1);
    }

    #[test]
    fn named_profiles_all_resolve() {
        for name in ChaosProfile::NAMES {
            let p = ChaosProfile::named(name).expect(name);
            assert_eq!(p.name, name);
        }
        assert!(ChaosProfile::named("nope").is_none());
    }

    #[test]
    fn delays_are_bounded_by_the_profile() {
        let plan = FaultPlan::new(11, ChaosProfile::named("delays").unwrap());
        for _ in 0..512 {
            if let Some(Fault::Delay(d)) = plan.decide(DecisionPoint::TaskStart) {
                assert!(d < Duration::from_micros(200), "{d:?}");
            }
        }
    }
}
