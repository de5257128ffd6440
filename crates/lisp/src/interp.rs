//! The interpreter facade: function table, globals, output log, and
//! the pluggable runtime hooks that let the CRI scheduler take over
//! recursive calls.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::sync::{AppendVec, Mutex, RwLock};

use crate::ast::{BuiltinOp, Func, Program};
use crate::compile::Code;
use crate::error::{LispError, Result};
use crate::eval::Evaluator;
use crate::heap::Heap;
use crate::lower::Lowerer;
use crate::speclog;
use crate::value::{FuncId, SymId, Value};
use crate::vm::Vm;
use curare_sexpr::parse_all;

/// Which execution engine runs function bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The register bytecode VM ([`crate::vm`]) — the default.
    Vm,
    /// The tree-walking evaluator ([`crate::eval`]) — the `eval-tree`
    /// escape hatch, kept as the differential-testing oracle.
    Tree,
}

/// A function-table entry: the code plus any values captured when a
/// lambda was evaluated (empty for named functions).
#[derive(Clone)]
pub struct FuncEntry {
    /// The function body and metadata.
    pub func: Arc<Func>,
    /// Captured values, prepended to the frame.
    pub captured: Arc<[Value]>,
    /// Bytecode compiled at definition time; `None` when the function
    /// exceeds the compiler's register budget, in which case the VM
    /// falls back to the tree-walker for this function.
    pub code: Option<Arc<Code>>,
}

/// The hooks through which the evaluator reaches a runtime scheduler.
///
/// The sequential implementation ([`SequentialHooks`]) gives ordinary
/// Lisp semantics: `future` and `cri-enqueue` call directly and locks
/// are no-ops. The CRI runtime (crate `curare-runtime`) installs an
/// implementation that enqueues invocations on server queues and maps
/// lock operations onto its location lock table (paper §3.2.1, §4).
pub trait RuntimeHooks: Send + Sync {
    /// `(cri-enqueue site f args...)`: schedule the next invocation.
    /// The evaluator resolves `f` to its [`FuncId`] before calling, so
    /// implementations pay no lookup on this hot path.
    fn enqueue(&self, interp: &Interp, site: usize, fid: FuncId, args: Vec<Value>) -> Result<()>;
    /// `(cri-handoff site f args...)`: the same spawn, emitted where
    /// the rest of the spawning invocation is long enough that the
    /// successor should become runnable at once. A scheduling hint
    /// with `cri-enqueue`'s semantics, so a runtime that does not
    /// defer spawns has nothing to add.
    fn handoff(&self, interp: &Interp, site: usize, fid: FuncId, args: Vec<Value>) -> Result<()> {
        self.enqueue(interp, site, fid, args)
    }
    /// A tail-position `cri-enqueue` in the root frame of what this
    /// runtime is executing is about to spawn `fid`, the executing
    /// function, at `site`. `true` means: the successor now counts as
    /// spawned and chained, and the VM restarts the frame on its
    /// arguments instead of calling [`RuntimeHooks::enqueue`] — for a
    /// runtime that would have run it next on this thread anyway.
    fn chain_in_place(&self, _site: usize, _fid: FuncId) -> bool {
        false
    }
    /// `(future (f args...))`: start an asynchronous call, returning a
    /// value that [`RuntimeHooks::touch`] can resolve.
    fn future(&self, interp: &Interp, fid: FuncId, args: Vec<Value>) -> Result<Value>;
    /// `(touch v)`: wait for a future (identity on normal values).
    fn touch(&self, interp: &Interp, v: Value) -> Result<Value>;
    /// `(cri-lock base field)`.
    fn lock(&self, interp: &Interp, cell: Value, field: u32, exclusive: bool) -> Result<()>;
    /// `(cri-unlock base field)`.
    fn unlock(&self, interp: &Interp, cell: Value, field: u32, exclusive: bool) -> Result<()>;
}

/// Serial semantics: calls happen immediately, locks are no-ops.
pub struct SequentialHooks;

impl RuntimeHooks for SequentialHooks {
    fn enqueue(&self, interp: &Interp, _site: usize, fid: FuncId, args: Vec<Value>) -> Result<()> {
        interp.call_fid_owned(fid, args)?;
        Ok(())
    }

    /// A tail-position spawn of the executing function restarts its
    /// frame: the self-tail call the spawn was before restructuring,
    /// with its value and no native frame per link.
    fn chain_in_place(&self, _site: usize, _fid: FuncId) -> bool {
        true
    }

    fn future(&self, interp: &Interp, fid: FuncId, args: Vec<Value>) -> Result<Value> {
        interp.call_fid_owned(fid, args)
    }

    fn touch(&self, _interp: &Interp, v: Value) -> Result<Value> {
        Ok(v)
    }

    fn lock(&self, _: &Interp, _: Value, _: u32, _: bool) -> Result<()> {
        Ok(())
    }

    fn unlock(&self, _: &Interp, _: Value, _: u32, _: bool) -> Result<()> {
        Ok(())
    }
}

/// A shared-heap Lisp interpreter.
///
/// `Interp` is `Sync`: multiple threads may evaluate functions against
/// it concurrently, which is exactly how the CRI server pool executes
/// transformed programs.
pub struct Interp {
    heap: Heap,
    /// The function table, indexed by [`FuncId`]. Ids are never
    /// rebound (a redefinition appends), so a call reads its entry
    /// without a lock and borrows it for the interpreter's life.
    funcs: AppendVec<FuncEntry>,
    /// Current definition per name; call-site caches keep it cold.
    by_name: RwLock<HashMap<SymId, FuncId>>,
    globals: RwLock<HashMap<SymId, Arc<AtomicU64>>>,
    output: Mutex<Vec<String>>,
    hooks: RwLock<Arc<dyn RuntimeHooks>>,
    /// Globally unique stamp for the installed hooks; lets `hooks()`
    /// serve repeat lookups from a thread-local cache without the
    /// read-lock round trip.
    hooks_gen: AtomicU64,
    /// Bumped on every named (re)definition; tags the VM's call-site
    /// inline caches so redefinition invalidates them.
    funcs_gen: AtomicU64,
    /// The engine that runs function bodies: 0 = VM, 1 = tree.
    engine: AtomicU8,
    /// Whether the VM compiler fuses superinstructions: fixed when the
    /// interpreter is built ([`Interp::new`] or [`Interp::unfused`]).
    pub(crate) fuse: bool,
    /// Builtin dispatch pre-resolved to interned symbol ids, so
    /// funcall-by-symbol and `#'name` skip the per-call string
    /// comparison chain of `lower::builtin_signature`.
    builtins_by_sym: HashMap<SymId, (BuiltinOp, usize, usize)>,
    /// Compiled bytecode per function template, keyed by `Arc<Func>`
    /// address. The value retains the `Arc` so an address is never
    /// reused while cached; closures instantiated from the same
    /// `lambda` expression share one compilation.
    code_cache: RwLock<HashMap<usize, CodeCacheEntry>>,
    gensym: AtomicU64,
    rng: Mutex<u64>,
    max_depth: AtomicU64,
}

/// Source of hook generation stamps. Process-global so a stamp is
/// never reused, even across interpreters that happen to share an
/// address after one is dropped.
static NEXT_HOOKS_GEN: AtomicU64 = AtomicU64::new(0);

/// `(interp address, generation, hooks)` as last resolved by a thread.
type HooksCacheEntry = (usize, u64, Arc<dyn RuntimeHooks>);

/// The retained template plus its (possibly absent) compilation.
type CodeCacheEntry = (Arc<Func>, Option<Arc<Code>>);

thread_local! {
    /// The hooks last resolved by this thread. Hooks change only when
    /// a runtime installs or removes itself, so in steady state every
    /// `hooks()` call hits here.
    static HOOKS_CACHE: std::cell::RefCell<Option<HooksCacheEntry>> =
        const { std::cell::RefCell::new(None) };
}

/// Let go of the hooks the calling thread last resolved. The cache
/// spares `Interp::hooks` a lock, but it holds what the hooks hold: a
/// pool server that outlives its pool calls this when it leaves, or it
/// would keep the dropped pool's state alive until its next borrow.
pub fn forget_thread_hooks() {
    HOOKS_CACHE.with(|c| c.borrow_mut().take());
}

impl Interp {
    /// A fresh interpreter with sequential hooks; its VM code is fused.
    pub fn new() -> Self {
        let heap = Heap::new();
        let builtins_by_sym = crate::lower::BUILTIN_NAMES
            .iter()
            .map(|&name| {
                let sig = crate::lower::builtin_signature(name)
                    .expect("BUILTIN_NAMES entries match the signature table");
                (heap.intern(name), sig)
            })
            .collect();
        Interp {
            heap,
            funcs: AppendVec::default(),
            by_name: RwLock::new(HashMap::new()),
            globals: RwLock::new(HashMap::new()),
            output: Mutex::new(Vec::new()),
            hooks: RwLock::new(Arc::new(SequentialHooks)),
            hooks_gen: AtomicU64::new(NEXT_HOOKS_GEN.fetch_add(1, Ordering::Relaxed)),
            funcs_gen: AtomicU64::new(0),
            engine: AtomicU8::new(0),
            fuse: true,
            builtins_by_sym,
            code_cache: RwLock::new(HashMap::new()),
            gensym: AtomicU64::new(0),
            rng: Mutex::new(0x853C_49E6_748F_EA9B),
            max_depth: AtomicU64::new(10_000),
        }
    }

    /// [`Interp::new`], but every function compiles without
    /// superinstruction fusion: the VM the fusion differential compares
    /// against.
    pub fn unfused() -> Self {
        Interp { fuse: false, ..Interp::new() }
    }

    /// The engine this interpreter runs function bodies on: the VM
    /// until [`Interp::set_engine`] says otherwise.
    pub fn engine(&self) -> Engine {
        match self.engine.load(Ordering::Relaxed) {
            0 => Engine::Vm,
            _ => Engine::Tree,
        }
    }

    /// Choose the engine this interpreter runs function bodies on.
    pub fn set_engine(&self, e: Engine) {
        self.engine.store(u8::from(e == Engine::Tree), Ordering::Relaxed);
    }

    /// Builtin operation and arity bounds for symbol `s`, when `s`
    /// names a builtin.
    pub fn builtin_by_sym(&self, s: SymId) -> Option<(BuiltinOp, usize, usize)> {
        self.builtins_by_sym.get(&s).copied()
    }

    /// The current function-table generation (bumped on every named
    /// definition); tags call-site inline caches.
    pub fn funcs_gen(&self) -> u64 {
        self.funcs_gen.load(Ordering::Acquire)
    }

    /// The shared heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The installed hooks' stamp: holders of a handle refetch on change.
    pub fn hooks_gen(&self) -> u64 {
        self.hooks_gen.load(Ordering::Acquire)
    }

    /// Install runtime hooks (returns the previous ones).
    pub fn set_hooks(&self, hooks: Arc<dyn RuntimeHooks>) -> Arc<dyn RuntimeHooks> {
        let mut slot = self.hooks.write();
        self.hooks_gen.store(NEXT_HOOKS_GEN.fetch_add(1, Ordering::Relaxed), Ordering::Release);
        std::mem::replace(&mut *slot, hooks)
    }

    /// Run `f` under `hooks`, putting the installed ones back on every
    /// exit, an error or a panic included.
    pub fn with_hooks<R>(&self, hooks: Arc<dyn RuntimeHooks>, f: impl FnOnce() -> R) -> R {
        struct Restore<'a>(&'a Interp, Option<Arc<dyn RuntimeHooks>>);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set_hooks(self.1.take().expect("restored once"));
            }
        }
        let _restore = Restore(self, Some(self.set_hooks(hooks)));
        f()
    }

    /// The currently installed hooks.
    ///
    /// Fast path: a thread-local `(interp, generation)` cache, so the
    /// per-spawn cost is two atomic loads instead of a read-lock plus
    /// refcount round trip. A thread may observe a hook change one
    /// call late — the same window the read lock always allowed.
    pub fn hooks(&self) -> Arc<dyn RuntimeHooks> {
        let generation = self.hooks_gen.load(Ordering::Acquire);
        let key = self as *const Interp as usize;
        HOOKS_CACHE.with(|c| {
            let mut cached = c.borrow_mut();
            if let Some((k, g, h)) = cached.as_ref() {
                if *k == key && *g == generation {
                    return Arc::clone(h);
                }
            }
            let h = Arc::clone(&self.hooks.read());
            *cached = Some((key, generation, Arc::clone(&h)));
            h
        })
    }

    /// Change the evaluator recursion limit.
    pub fn set_recursion_limit(&self, n: usize) {
        self.max_depth.store(n as u64, Ordering::Relaxed);
    }

    /// Current recursion limit.
    pub fn recursion_limit(&self) -> usize {
        self.max_depth.load(Ordering::Relaxed) as usize
    }

    // ----- functions ------------------------------------------------

    /// Define (or redefine) a named function; returns its id.
    pub fn define_func(&self, func: Arc<Func>) -> FuncId {
        let code = self.compiled_code(&func);
        let name = func.name_sym;
        let id = self.funcs.push(FuncEntry { func, captured: Arc::from([]), code }) as FuncId;
        self.by_name.write().insert(name, id);
        // Bumped after the entry is visible: a racing call site may
        // cache the *old* resolution under the old generation (and
        // re-resolve next call), but never the new one under it.
        self.funcs_gen.fetch_add(1, Ordering::AcqRel);
        id
    }

    /// Register a closure instance; returns its id.
    pub fn define_closure(&self, func: Arc<Func>, captured: Vec<Value>) -> FuncId {
        let code = self.compiled_code(&func);
        self.funcs.push(FuncEntry { func, captured: captured.into(), code }) as FuncId
    }

    /// Bytecode for `func`, compiling on first sight of this template.
    /// Keyed by `Arc` address: every closure instantiated from the same
    /// `lambda` expression reuses one compilation, so creating closures
    /// in a loop does not recompile.
    fn compiled_code(&self, func: &Arc<Func>) -> Option<Arc<Code>> {
        let key = Arc::as_ptr(func) as usize;
        if let Some((_, code)) = self.code_cache.read().get(&key) {
            return code.clone();
        }
        let code = crate::compile::compile(self, func).map(Arc::new);
        let mut cache = self.code_cache.write();
        cache.entry(key).or_insert_with(|| (Arc::clone(func), code)).1.clone()
    }

    /// Resolve a function by name symbol.
    pub fn lookup_func(&self, name: SymId) -> Option<FuncId> {
        self.by_name.read().get(&name).copied()
    }

    /// Resolve a function by its source name.
    pub fn lookup_func_by_name(&self, name: &str) -> Option<FuncId> {
        self.lookup_func(self.heap.intern(name))
    }

    /// The entry for `id` (which a definition returned: panics on any
    /// other).
    pub fn func_entry(&self, id: FuncId) -> &FuncEntry {
        self.funcs.get(id as usize).expect("a defined function's id")
    }

    /// All currently defined named functions (for analysis passes).
    pub fn named_funcs(&self) -> Vec<Arc<Func>> {
        self.by_name.read().values().map(|&id| Arc::clone(&self.func_entry(id).func)).collect()
    }

    // ----- globals ---------------------------------------------------

    /// The cell backing global `sym`, creating it unbound if missing.
    pub fn global_cell(&self, sym: SymId) -> Arc<AtomicU64> {
        if let Some(c) = self.globals.read().get(&sym) {
            return Arc::clone(c);
        }
        let mut g = self.globals.write();
        Arc::clone(g.entry(sym).or_insert_with(|| Arc::new(AtomicU64::new(Value::UNBOUND.bits()))))
    }

    /// Read global `sym`.
    pub fn get_global(&self, sym: SymId) -> Result<Value> {
        self.get_global_in(sym, &self.global_cell(sym))
    }

    /// Read global `sym` through `cell`, its [`Interp::global_cell`]
    /// (compiled code holds it): the same journaled read, no lookup.
    #[inline]
    pub fn get_global_in(&self, sym: SymId, cell: &AtomicU64) -> Result<Value> {
        let v = Value::from_bits(speclog::load(cell, speclog::GLOBAL_LOC_BIT | sym as u64));
        if v == Value::UNBOUND {
            return Err(LispError::Unbound(self.heap.sym_name(sym).to_string()));
        }
        Ok(v)
    }

    /// Write global `sym`.
    pub fn set_global(&self, sym: SymId, v: Value) {
        self.set_global_in(sym, &self.global_cell(sym), v);
    }

    /// Write global `sym` through `cell`, as [`Interp::get_global_in`]
    /// reads it.
    #[inline]
    pub fn set_global_in(&self, sym: SymId, cell: &Arc<AtomicU64>, v: Value) {
        speclog::store(cell, speclog::GLOBAL_LOC_BIT | sym as u64, Some(cell), v.bits());
    }

    /// Snapshot every bound global as `(symbol, value)` pairs, in no
    /// particular order. Unbound cells (declared but never set) are
    /// skipped. Used by `curare check` to walk `defparameter` roots
    /// for SAPP violations.
    pub fn globals_snapshot(&self) -> Vec<(SymId, Value)> {
        self.globals
            .read()
            .iter()
            .map(|(&sym, cell)| (sym, Value::from_bits(cell.load(Ordering::Acquire))))
            .filter(|&(_, v)| v != Value::UNBOUND)
            .collect()
    }

    /// Atomically add `delta` to integer global `sym` (the §3.2.3
    /// reordering device); returns the new value.
    pub fn atomic_incf_global(&self, sym: SymId, delta: i64) -> Result<Value> {
        self.atomic_incf_global_in(sym, &self.global_cell(sym), delta)
    }

    /// [`Interp::atomic_incf_global`] through `cell`, the global's own.
    pub fn atomic_incf_global_in(
        &self,
        sym: SymId,
        cell: &Arc<AtomicU64>,
        delta: i64,
    ) -> Result<Value> {
        // See `Heap::atomic_add_field`: the CAS runs inside the journal
        // section so bracket order matches the cell's update order.
        let sec = speclog::write_section(speclog::GLOBAL_LOC_BIT | sym as u64, Some(cell));
        loop {
            let old_bits = cell.load(Ordering::Acquire);
            let old = Value::from_bits(old_bits);
            if old == Value::UNBOUND {
                return Err(LispError::Unbound(self.heap.sym_name(sym).to_string()));
            }
            let Some(cur) = old.as_int() else {
                return Err(LispError::Type {
                    expected: "integer",
                    got: self.heap.display(old),
                    op: "atomic-incf",
                });
            };
            let Some(new) = cur.checked_add(delta).and_then(Value::int_checked) else {
                return Err(LispError::Overflow("atomic-incf"));
            };
            if cell
                .compare_exchange(old_bits, new.bits(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if let Some(sec) = sec {
                    sec.add(delta);
                }
                return Ok(new);
            }
        }
    }

    // ----- misc services ---------------------------------------------

    /// Append a printed line to the output log. Under `SpecMode` the
    /// line is diverted into the speculation journal instead, so that
    /// aborted invocations leave no output and committed lines are
    /// released in sequential order.
    pub fn emit(&self, line: String) {
        if speclog::divert_emit(&line) {
            return;
        }
        self.output.lock().push(line);
    }

    /// Take (and clear) the output log.
    pub fn take_output(&self) -> Vec<String> {
        std::mem::take(&mut *self.output.lock())
    }

    /// Fresh `#:gN` symbol value.
    pub fn gensym(&self) -> Value {
        let n = self.gensym.fetch_add(1, Ordering::Relaxed);
        self.heap.sym_value(&format!("#:g{n}"))
    }

    /// Deterministic PRNG for `(random n)` ([`splitmix64`]).
    pub fn random(&self, n: i64) -> i64 {
        let z = splitmix64(&mut self.rng.lock());
        if n <= 0 {
            0
        } else {
            (z % n as u64) as i64
        }
    }

    /// Reseed the PRNG (for reproducible workloads).
    pub fn seed_random(&self, seed: u64) {
        *self.rng.lock() = seed;
    }

    // ----- loading and calling ----------------------------------------

    /// Parse, lower, define, and evaluate top-level forms from source.
    /// Returns the value of the last top-level expression (nil if the
    /// source holds only definitions).
    pub fn load_str(&self, src: &str) -> Result<Value> {
        let forms = parse_all(src).map_err(|e| LispError::Syntax(e.to_string()))?;
        let mut lw = Lowerer::new(&self.heap);
        let prog = lw.lower_program(&forms)?;
        self.load_program(&prog)
    }

    /// Define and evaluate an already-lowered program.
    pub fn load_program(&self, prog: &Program) -> Result<Value> {
        for f in &prog.funcs {
            self.define_func(Arc::clone(f));
        }
        let mut last = Value::NIL;
        for e in &prog.toplevel {
            last = self.eval_in_fresh_frame(e)?;
        }
        Ok(last)
    }

    /// Evaluate a single expression string in an empty frame.
    pub fn eval_str(&self, src: &str) -> Result<Value> {
        let forms = parse_all(src).map_err(|e| LispError::Syntax(e.to_string()))?;
        let mut lw = Lowerer::new(&self.heap);
        let mut last = Value::NIL;
        for form in &forms {
            match lw.lower_toplevel(form)? {
                crate::lower::TopForm::Func(f) => {
                    self.define_func(f);
                    last = Value::NIL;
                }
                crate::lower::TopForm::StructDef => last = Value::NIL,
                crate::lower::TopForm::Declaration(_) => last = Value::NIL,
                crate::lower::TopForm::Expr(e) => last = self.eval_in_fresh_frame(&e)?,
            }
        }
        Ok(last)
    }

    fn eval_in_fresh_frame(&self, e: &crate::ast::Expr) -> Result<Value> {
        let mut ev = Evaluator::new(self);
        ev.eval_toplevel(e)
    }

    /// Call function `id` with `args`.
    pub fn call_fid(&self, id: FuncId, args: &[Value]) -> Result<Value> {
        self.call_fid_owned(id, args.to_vec())
    }

    /// Call function `id`, consuming `args` (no argument copy — the
    /// runtime's per-task fast path). Dispatches to the configured
    /// engine: this is the entry point through which CRI pool tasks
    /// and sequential futures run bytecode.
    pub fn call_fid_owned(&self, id: FuncId, args: Vec<Value>) -> Result<Value> {
        Vm::new(self).call(id, args)
    }

    /// Call a named function.
    pub fn call_by_sym(&self, name: SymId, args: &[Value]) -> Result<Value> {
        let id = self
            .lookup_func(name)
            .ok_or_else(|| LispError::UndefinedFunction(self.heap.sym_name(name).to_string()))?;
        self.call_fid(id, args)
    }

    /// Call a function by source name.
    pub fn call(&self, name: &str, args: &[Value]) -> Result<Value> {
        self.call_by_sym(self.heap.intern(name), args)
    }
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

/// One splitmix64 step: advances `state` and returns the mixed word.
/// The product's one PRNG: `(random n)`, the runtime's steal-victim
/// choice and its chaos plans all draw from it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_set_get() {
        let it = Interp::new();
        let s = it.heap().intern("*x*");
        assert!(it.get_global(s).is_err());
        it.set_global(s, Value::int(5));
        assert_eq!(it.get_global(s).unwrap(), Value::int(5));
    }

    #[test]
    fn atomic_incf_is_atomic() {
        let it = Arc::new(Interp::new());
        let s = it.heap().intern("*sum*");
        it.set_global(s, Value::int(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let it = Arc::clone(&it);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        it.atomic_incf_global(s, 1).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(it.get_global(s).unwrap(), Value::int(80_000));
    }

    #[test]
    fn atomic_incf_type_checks() {
        let it = Interp::new();
        let s = it.heap().intern("*x*");
        it.set_global(s, Value::T);
        assert!(it.atomic_incf_global(s, 1).is_err());
    }

    #[test]
    fn gensym_unique() {
        let it = Interp::new();
        assert_ne!(it.gensym(), it.gensym());
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let it = Interp::new();
        it.seed_random(42);
        let a: Vec<i64> = (0..10).map(|_| it.random(100)).collect();
        it.seed_random(42);
        let b: Vec<i64> = (0..10).map(|_| it.random(100)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (0..100).contains(&x)));
        assert_eq!(it.random(0), 0);
    }

    #[test]
    fn random_draws_are_pinned_for_one_seed() {
        let it = Interp::new();
        it.seed_random(42);
        let draws: Vec<i64> = (0..8).map(|_| it.random(1000)).collect();
        assert_eq!(draws, [413, 291, 858, 764, 250, 62, 925, 908]);
    }

    #[test]
    fn define_and_lookup() {
        let it = Interp::new();
        it.load_str("(defun f (x) x)").unwrap();
        assert!(it.lookup_func_by_name("f").is_some());
        assert!(it.lookup_func_by_name("g").is_none());
        assert_eq!(it.named_funcs().len(), 1);
    }

    #[test]
    fn redefinition_shadows() {
        let it = Interp::new();
        it.load_str("(defun f (x) 1)").unwrap();
        it.load_str("(defun f (x) 2)").unwrap();
        assert_eq!(it.call("f", &[Value::NIL]).unwrap(), Value::int(2));
    }
}
