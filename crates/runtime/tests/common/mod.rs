//! Shared by the panic-policy tests: a hooks wrapper that makes an
//! invocation body panic — genuinely, not through the chaos plan — at
//! a chosen point.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use curare_lisp::{FuncId, Interp, LispError, RuntimeHooks, Value};

/// Forwards to the pool's hooks, but the first `remaining` lock
/// acquisitions panic: in a body written `spawn; (cri-lock …); effect`
/// that is after its spawn and before its effect.
pub struct PanicOnLock {
    inner: Arc<dyn RuntimeHooks>,
    remaining: AtomicUsize,
}

impl PanicOnLock {
    /// Wrap `interp`'s installed hooks (install the pool first).
    pub fn install(interp: &Interp, panics: usize) {
        let inner = interp.hooks();
        interp.set_hooks(Arc::new(PanicOnLock { inner, remaining: AtomicUsize::new(panics) }));
    }
}

impl RuntimeHooks for PanicOnLock {
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
        if self.remaining.fetch_update(Ordering::SeqCst, Ordering::SeqCst, take_one).is_ok() {
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
/// serialize on their own guard.
pub fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(prev);
    r
}
