//! Test support shared by the suites in this directory: the guard
//! that serializes tests arming process-global state, the big-stack
//! thread sequential oracles need, and (for the panic-policy tests) a
//! hooks wrapper that makes an invocation body panic — genuinely, not
//! through the chaos plan — at a chosen point.

// Each suite is its own crate and uses a subset of this module.
#![allow(dead_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use curare_lisp::{FuncId, Interp, LispError, RuntimeHooks, Value};

// The chaos install point, the speculation journal and the panic hook
// are process-global; every test that arms one holds this guard.
static TEST_GUARD: Mutex<()> = Mutex::new(());

/// Serialize with every other test of the suite that arms
/// process-global state (a failed test must not wedge the rest: not
/// by poisoning the guard, not by dying with the journal armed).
pub fn guard() -> MutexGuard<'static, ()> {
    let g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    curare_lisp::speclog::disarm();
    g
}

/// Run `f` on a big native stack (a sequential oracle recurses one
/// frame per list cell).
pub fn with_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    const STACK: usize = 256 << 20;
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(STACK)
            .spawn_scoped(scope, || {
                curare_lisp::eval::set_thread_stack_budget(STACK - (8 << 20));
                f()
            })
            .expect("spawn big-stack thread")
            .join()
            .expect("big-stack thread panicked")
    })
}

/// Forwards to the pool's hooks, but `remaining` lock acquisitions
/// (after the first `skip`) panic: in a body written `spawn;
/// (cri-lock …); effect` that is after its spawn and before its effect.
pub struct PanicOnLock {
    inner: Arc<dyn RuntimeHooks>,
    skip: AtomicUsize,
    remaining: AtomicUsize,
}

impl PanicOnLock {
    /// Wrap `interp`'s installed hooks (install the pool first): after
    /// `skip` acquisitions that succeed, `panics` that panic.
    pub fn install(interp: &Interp, skip: usize, panics: usize) {
        let (inner, skip, remaining) =
            (interp.hooks(), AtomicUsize::new(skip), AtomicUsize::new(panics));
        interp.set_hooks(Arc::new(PanicOnLock { inner, skip, remaining }));
    }
}

impl RuntimeHooks for PanicOnLock {
    fn chain_in_place(&self, s: usize, f: FuncId) -> bool {
        self.inner.chain_in_place(s, f)
    }
    fn enqueue(&self, i: &Interp, s: usize, f: FuncId, a: Vec<Value>) -> Result<(), LispError> {
        self.inner.enqueue(i, s, f, a)
    }
    fn handoff(&self, i: &Interp, s: usize, f: FuncId, a: Vec<Value>) -> Result<(), LispError> {
        self.inner.handoff(i, s, f, a)
    }
    fn future(&self, i: &Interp, f: FuncId, a: Vec<Value>) -> Result<Value, LispError> {
        self.inner.future(i, f, a)
    }
    fn touch(&self, i: &Interp, v: Value) -> Result<Value, LispError> {
        self.inner.touch(i, v)
    }
    fn lock(&self, i: &Interp, c: Value, f: u32, x: bool) -> Result<(), LispError> {
        let take_one = |left: usize| left.checked_sub(1);
        let take = |n: &AtomicUsize| n.fetch_update(Ordering::SeqCst, Ordering::SeqCst, take_one);
        if take(&self.skip).is_err() && take(&self.remaining).is_ok() {
            panic!("body failed");
        }
        self.inner.lock(i, c, f, x)
    }
    fn unlock(&self, i: &Interp, c: Value, f: u32, x: bool) -> Result<(), LispError> {
        self.inner.unlock(i, c, f, x)
    }
}

/// Run `f` with the panic hook silenced, so the panics a test provokes
/// on purpose stay out of its log. The hook is process-global: callers
/// hold [`guard`].
pub fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(prev);
    r
}
