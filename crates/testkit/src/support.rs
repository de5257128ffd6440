//! What the runtime's suites share besides programs: the guard that
//! serializes tests arming process-global state, list builders, and
//! two hooks wrappers — one that makes an invocation body panic
//! (genuinely, not through the chaos plan) at a chosen call, one that
//! keeps every link of a chain a task (the materialised reference of
//! the in-place tests).

use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use curare_lisp::{FuncId, Interp, LispError, RuntimeHooks, Value};

// The chaos install point, the speculation journal and the panic hook
// are process-global; every test that arms one holds this guard.
static TEST_GUARD: Mutex<()> = Mutex::new(());

/// Serialize with every other test of the binary that arms
/// process-global state (a failed test must not wedge the rest: not
/// by poisoning the guard, not by dying with the journal armed).
pub fn guard() -> MutexGuard<'static, ()> {
    let g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    curare_lisp::speclog::disarm();
    g
}

/// The list of `values`, in order, on `interp`'s heap: `list_of(&interp,
/// 1..=n)` is `(1 2 … n)`.
pub fn list_of(interp: &Interp, values: impl IntoIterator<Item = impl Borrow<i64>>) -> Value {
    let values: Vec<i64> = values.into_iter().map(|v| *v.borrow()).collect();
    values.iter().rev().fold(Value::NIL, |l, &v| interp.heap().cons(Value::int(v), l))
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

/// The runtime calls a [`PanicOn`] wrapper can make panic.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    Enqueue,
    Future,
    Lock,
}

/// Forwards to the pool's hooks, but `remaining` calls of one hook
/// (after the first `skip`) panic — genuinely, inside the body that
/// made the call. At `Lock`, in a body written `spawn; (cri-lock …);
/// effect`, that is after its spawn and before its effect.
pub struct PanicOn {
    inner: Arc<dyn RuntimeHooks>,
    hook: Hook,
    skip: AtomicUsize,
    remaining: AtomicUsize,
}

impl PanicOn {
    /// Wrap `interp`'s installed hooks (install the pool first): after
    /// `skip` calls of `hook` that succeed, `panics` that panic.
    pub fn install(interp: &Interp, hook: Hook, skip: usize, panics: usize) {
        let (inner, skip, remaining) =
            (interp.hooks(), AtomicUsize::new(skip), AtomicUsize::new(panics));
        interp.set_hooks(Arc::new(PanicOn { inner, hook, skip, remaining }));
    }

    fn strike(&self, hook: Hook) {
        let take_one = |left: usize| left.checked_sub(1);
        let take = |n: &AtomicUsize| n.fetch_update(Ordering::SeqCst, Ordering::SeqCst, take_one);
        if hook == self.hook && take(&self.skip).is_err() && take(&self.remaining).is_ok() {
            panic!("body failed");
        }
    }
}

impl RuntimeHooks for PanicOn {
    fn chain_in_place(&self, s: usize, f: FuncId) -> bool {
        self.inner.chain_in_place(s, f)
    }
    fn enqueue(&self, i: &Interp, s: usize, f: FuncId, a: Vec<Value>) -> Result<(), LispError> {
        self.strike(Hook::Enqueue);
        self.inner.enqueue(i, s, f, a)
    }
    fn handoff(&self, i: &Interp, s: usize, f: FuncId, a: Vec<Value>) -> Result<(), LispError> {
        self.inner.handoff(i, s, f, a)
    }
    fn future(&self, i: &Interp, f: FuncId, a: Vec<Value>) -> Result<Value, LispError> {
        self.strike(Hook::Future);
        self.inner.future(i, f, a)
    }
    fn touch(&self, i: &Interp, v: Value) -> Result<Value, LispError> {
        self.inner.touch(i, v)
    }
    fn lock(&self, i: &Interp, c: Value, f: u32, x: bool) -> Result<(), LispError> {
        self.strike(Hook::Lock);
        self.inner.lock(i, c, f, x)
    }
    fn unlock(&self, i: &Interp, c: Value, f: u32, x: bool) -> Result<(), LispError> {
        self.inner.unlock(i, c, f, x)
    }
}

/// Forwards to the pool's hooks, but never restarts a frame in place:
/// every tail-position spawn becomes a task, chained or queued as the
/// pool decides — the materialised reference an in-place run is held
/// to, with no switch in the pool itself.
pub struct NoInPlace(Arc<dyn RuntimeHooks>);

impl NoInPlace {
    /// Wrap `interp`'s installed hooks (install the pool first).
    pub fn install(interp: &Interp) {
        interp.set_hooks(Arc::new(NoInPlace(interp.hooks())));
    }
}

impl RuntimeHooks for NoInPlace {
    fn chain_in_place(&self, _: usize, _: FuncId) -> bool {
        false
    }
    fn enqueue(&self, i: &Interp, s: usize, f: FuncId, a: Vec<Value>) -> Result<(), LispError> {
        self.0.enqueue(i, s, f, a)
    }
    fn handoff(&self, i: &Interp, s: usize, f: FuncId, a: Vec<Value>) -> Result<(), LispError> {
        self.0.handoff(i, s, f, a)
    }
    fn future(&self, i: &Interp, f: FuncId, a: Vec<Value>) -> Result<Value, LispError> {
        self.0.future(i, f, a)
    }
    fn touch(&self, i: &Interp, v: Value) -> Result<Value, LispError> {
        self.0.touch(i, v)
    }
    fn lock(&self, i: &Interp, c: Value, f: u32, x: bool) -> Result<(), LispError> {
        self.0.lock(i, c, f, x)
    }
    fn unlock(&self, i: &Interp, c: Value, f: u32, x: bool) -> Result<(), LispError> {
        self.0.unlock(i, c, f, x)
    }
}
