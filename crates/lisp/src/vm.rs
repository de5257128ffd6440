//! Register bytecode VM: the default engine for function invocation.
//!
//! [`Vm::apply`] is the bytecode counterpart of
//! `Evaluator::apply_tree`: same recursion-depth budget, same
//! stack-headroom check (shared `STACK_BASE`, so a nested evaluator
//! started by a helping `touch` measures from the outermost frame),
//! and the same trampoline for proper tail calls — `exec` unwinds to
//! `apply` with the next `(fid, args)` instead of recursing. A
//! self-tail-call (the callee resolves to the currently executing
//! function) skips the trampoline entirely: arguments slide into the
//! parameter slots and the program counter resets, so tail-recursive
//! loops never leave `exec`. Redefinition still takes effect
//! mid-loop, because the inline cache re-resolves per bounce and a
//! redefined name binds a fresh function id.
//!
//! Dispatch is direct-threaded: every opcode indexes a function-
//! pointer table (`HANDLERS`; per-opcode profiling swaps in a table
//! of timing wrappers) instead of one giant `match`, keeping
//! each handler a small, tail-call-friendly unit the branch predictor
//! can track per-opcode. Arithmetic and comparison ops share one
//! [`bin_op`]: a tag test and the integer operation inline, every
//! other operand mix out of line. Fused superinstructions report
//! through a dedicated counter in [`VmStats`].
//!
//! Register frames are recycled through a thread-local pool (mirroring
//! the tree-walker's frame reuse), and every heap access goes through
//! the same `heap.rs` accessors, so sanitizer and obs instrumentation
//! see identical access streams from both engines.
//!
//! Functions whose bodies exceed the compiler's register budget carry
//! no code block; the VM transparently finishes such calls on the
//! tree-walker.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::builtins::{apply_builtin, compare_chain, fold_arith, BuiltinCx};
use crate::compile::{BinKind, Code, Op, TestKind, OPCODE_COUNT, OPCODE_NAMES};
use crate::error::{LispError, Result};
use crate::eval::{self, apply_struct_op, Evaluator};
use crate::interp::{Engine, Interp, RuntimeHooks};
use crate::value::{FuncId, Value};

thread_local! {
    /// Recycled register frames, separate from the tree-walker's
    /// value-buffer pool (frames are sized to whole functions).
    static REG_FRAMES: RefCell<Vec<Vec<Value>>> = const { RefCell::new(Vec::new()) };
}

/// Retain at most this many recycled frames per thread.
const MAX_POOLED_FRAMES: usize = 16;

static VM_OPS: AtomicU64 = AtomicU64::new(0);
static VM_FUSED_OPS: AtomicU64 = AtomicU64::new(0);
static VM_FRAMES_REUSED: AtomicU64 = AtomicU64::new(0);
static VM_FRAMES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Process-wide VM execution counters (cumulative; each [`Vm`] adds
/// its own at [`Vm::publish_stats`] and when it drops).
#[derive(Debug, Clone, Copy)]
pub struct VmStats {
    /// Bytecode instructions dispatched.
    pub dispatched_ops: u64,
    /// Always 0: the VM has no typed opcodes. Kept only because the
    /// benchmark harness in `benchmark/` still reads it.
    pub typed_ops: u64,
    /// Dispatched fused superinstructions (each replaces two plain
    /// instructions).
    pub fused_ops: u64,
    /// Register frames served from the thread-local pool.
    pub frames_reused: u64,
    /// Register frames freshly allocated.
    pub frames_allocated: u64,
}

/// Snapshot the process-wide VM counters.
pub fn vm_stats() -> VmStats {
    VmStats {
        dispatched_ops: VM_OPS.load(Ordering::Relaxed),
        typed_ops: 0,
        fused_ops: VM_FUSED_OPS.load(Ordering::Relaxed),
        frames_reused: VM_FRAMES_REUSED.load(Ordering::Relaxed),
        frames_allocated: VM_FRAMES_ALLOCATED.load(Ordering::Relaxed),
    }
}

/// Zero the process-wide VM counters (between benchmark iterations;
/// a live [`Vm`] still holds what it counted since it last published,
/// so reset only while no VM is executing).
pub fn vm_stats_reset() {
    VM_OPS.store(0, Ordering::Relaxed);
    VM_FUSED_OPS.store(0, Ordering::Relaxed);
    VM_FRAMES_REUSED.store(0, Ordering::Relaxed);
    VM_FRAMES_ALLOCATED.store(0, Ordering::Relaxed);
}

// ----------------------------------------------------------------
// Per-opcode profiling
// ----------------------------------------------------------------

/// One row of the per-opcode VM profile: how often an opcode
/// dispatched and how many nanoseconds its handler accumulated.
///
/// Handler time is **inclusive**: `call`/`tail_call`/`builtin` rows
/// include everything executed beneath them, so nested execution
/// counts toward every enclosing call opcode. Rank by `ns` to find
/// where the VM spends time; use `count` for dispatch mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpProfileEntry {
    /// Dense opcode index ([`Op::opcode`]).
    pub opcode: usize,
    /// Stable display name ([`OPCODE_NAMES`]).
    pub name: &'static str,
    /// Dispatch count.
    pub count: u64,
    /// Accumulated handler nanoseconds (inclusive).
    pub ns: u64,
}

mod op_profile {
    use super::*;
    use std::sync::atomic::AtomicBool;

    pub(super) static ENABLED: AtomicBool = AtomicBool::new(false);
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    pub(super) static COUNTS: [AtomicU64; OPCODE_COUNT] = [ZERO; OPCODE_COUNT];
    pub(super) static NS: [AtomicU64; OPCODE_COUNT] = [ZERO; OPCODE_COUNT];
}

/// Enable/disable per-opcode profiling for the [`Vm`] contexts created
/// from now on (one per top-level call or pool server). A context pays
/// one relaxed load when it is created; while enabled each dispatch
/// goes through `h_profiled`: two clock reads and two relaxed adds.
pub fn set_op_profiling(on: bool) {
    op_profile::ENABLED.store(on, Ordering::Release);
}

/// True while per-opcode profiling is enabled.
#[inline]
pub fn op_profiling_enabled() -> bool {
    op_profile::ENABLED.load(Ordering::Relaxed)
}

/// Snapshot every opcode with a nonzero dispatch count (empty unless
/// profiling was on during a run).
pub fn op_profile_snapshot() -> Vec<OpProfileEntry> {
    (0..OPCODE_COUNT)
        .filter_map(|i| {
            let count = op_profile::COUNTS[i].load(Ordering::Relaxed);
            (count != 0).then(|| OpProfileEntry {
                opcode: i,
                name: OPCODE_NAMES[i],
                count,
                ns: op_profile::NS[i].load(Ordering::Relaxed),
            })
        })
        .collect()
}

/// The `k` hottest opcodes by accumulated nanoseconds (dispatch count
/// breaks ties).
pub fn op_profile_top(k: usize) -> Vec<OpProfileEntry> {
    let mut rows = op_profile_snapshot();
    rows.sort_by(|a, b| b.ns.cmp(&a.ns).then(b.count.cmp(&a.count)));
    rows.truncate(k);
    rows
}

/// Control flow out of one code block.
enum VmFlow {
    /// Normal completion.
    Val(Value),
    /// Tail call: the trampoline in [`Vm::apply`] continues here.
    Tail(FuncId, Vec<Value>),
}

/// A bytecode execution context, analogous to [`Evaluator`].
pub struct Vm<'i> {
    interp: &'i Interp,
    /// Current call depth, against `interp.recursion_limit()`.
    depth: usize,
    /// Outermost stack base for headroom checks (shared with any
    /// enclosing evaluator via the `STACK_BASE` thread-local).
    stack_base: usize,
    /// The function id the innermost `exec` is running — the self-
    /// tail-call fast path compares resolved callees against this.
    /// Saved and restored around nested `apply`s.
    cur_fid: FuncId,
    /// The dispatch table: [`HANDLERS`], or [`PROFILED_HANDLERS`] when
    /// per-opcode profiling was on as this context was created.
    handlers: &'static [Handler; OPCODE_COUNT],
    /// The runtime hooks as of stamp `.0`, fetched on first use: the
    /// hook ops borrow this instead of cloning the shared handle.
    hooks: Option<(u64, Arc<dyn RuntimeHooks>)>,
    // Counted locally; added to the globals by `publish_stats`.
    ops: u64,
    fused: u64,
    frames_reused: u64,
    frames_allocated: u64,
}

impl Drop for Vm<'_> {
    fn drop(&mut self) {
        self.publish_stats();
    }
}

impl<'i> Vm<'i> {
    /// A fresh VM context at depth 0.
    pub fn new(interp: &'i Interp) -> Vm<'i> {
        Vm::with_depth(interp, 0)
    }

    /// A VM continuing at `depth` (engine hand-off mid-call-chain).
    pub(crate) fn with_depth(interp: &'i Interp, depth: usize) -> Vm<'i> {
        Vm {
            interp,
            depth,
            stack_base: eval::resolve_stack_base(),
            cur_fid: FuncId::MAX,
            handlers: if op_profiling_enabled() { &PROFILED_HANDLERS } else { &HANDLERS },
            hooks: None,
            ops: 0,
            fused: 0,
            frames_reused: 0,
            frames_allocated: 0,
        }
    }

    /// Add what this context counted since the last call to the
    /// process-wide counters ([`vm_stats`]). A context that outlives
    /// one call (a pool server's) publishes when it runs out of work.
    pub fn publish_stats(&mut self) {
        for (mine, all) in [
            (&mut self.ops, &VM_OPS),
            (&mut self.fused, &VM_FUSED_OPS),
            (&mut self.frames_reused, &VM_FRAMES_REUSED),
            (&mut self.frames_allocated, &VM_FRAMES_ALLOCATED),
        ] {
            if *mine != 0 {
                all.fetch_add(std::mem::take(mine), Ordering::Relaxed);
            }
        }
    }

    /// Start over where a panic unwound through this context: its
    /// depth and frame are stale. What it counted is published.
    pub fn reset(&mut self) {
        *self = Vm::new(self.interp);
    }

    /// Call function `id` on the interpreter's configured engine, which
    /// is chosen per call: this context runs it, or the tree-walker.
    pub fn call(&mut self, id: FuncId, args: Vec<Value>) -> Result<Value> {
        match self.interp.engine() {
            Engine::Vm => self.apply(id, args),
            Engine::Tree => Evaluator::new(self.interp).apply_tree(id, args),
        }
    }

    /// The installed hooks. A change is seen one call late at most,
    /// the window `Interp::hooks` itself allows.
    fn hooks(&mut self) -> &dyn RuntimeHooks {
        let gen = self.interp.hooks_gen();
        if !matches!(&self.hooks, Some((g, _)) if *g == gen) {
            self.hooks = Some((gen, self.interp.hooks()));
        }
        &*self.hooks.as_ref().expect("fetched above").1
    }

    fn take_frame(&mut self) -> Vec<Value> {
        match REG_FRAMES.with(|p| p.borrow_mut().pop()) {
            Some(f) => {
                self.frames_reused += 1;
                f
            }
            None => {
                self.frames_allocated += 1;
                Vec::new()
            }
        }
    }

    fn put_frame(&mut self, mut f: Vec<Value>) {
        f.clear();
        REG_FRAMES.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < MAX_POOLED_FRAMES {
                p.push(f);
            }
        });
    }

    /// Call function `id` with `args`, trampolining tail calls.
    pub fn apply(&mut self, mut id: FuncId, mut args: Vec<Value>) -> Result<Value> {
        self.depth += 1;
        if self.depth > self.interp.recursion_limit() {
            self.depth -= 1;
            return Err(LispError::RecursionLimit(self.interp.recursion_limit()));
        }
        if eval::stack_exhausted(self.stack_base) {
            self.depth -= 1;
            return Err(eval::stack_exhausted_error());
        }
        let saved_fid = self.cur_fid;
        let mut frame = self.take_frame();
        let interp = self.interp;
        let result = loop {
            // An id names one definition for good (a redefined name
            // binds a fresh id, which the call site resolved), so the
            // entry is read from the table as it stands: no lock.
            let entry = interp.func_entry(id);
            let Some(code) = entry.code.as_deref() else {
                // No compiled body (register budget exceeded): finish
                // this call chain on the tree-walker at the same depth.
                let mut ev = Evaluator::with_depth(interp, self.depth - 1);
                break ev.apply_tree(id, args);
            };
            let func = &entry.func;
            if args.len() != func.params.len() {
                break Err(LispError::Arity {
                    name: func.name.clone(),
                    expected: func.params.len(),
                    got: args.len(),
                });
            }
            frame.clear();
            frame.reserve(code.nregs as usize);
            frame.extend_from_slice(&entry.captured);
            frame.append(&mut args);
            // Slots start unbound exactly like tree frames (a parallel
            // `let` may close over a not-yet-bound slot); temporaries
            // are compiler-managed and never read before written.
            frame.resize(code.nregs as usize, Value::UNBOUND);
            eval::put_value_buf(std::mem::take(&mut args));
            self.cur_fid = id;
            match self.exec(code, &mut frame) {
                Ok(VmFlow::Val(v)) => break Ok(v),
                Ok(VmFlow::Tail(next, next_args)) => {
                    id = next;
                    args = next_args;
                }
                Err(e) => break Err(e),
            }
        };
        self.put_frame(frame);
        self.cur_fid = saved_fid;
        self.depth -= 1;
        result
    }

    /// Execute one code block against `regs` through the handler
    /// table.
    fn exec(&mut self, code: &Code, regs: &mut [Value]) -> Result<VmFlow> {
        let mut pc = 0usize;
        loop {
            let op = code.ops[pc];
            pc += 1;
            self.ops += 1;
            if let Some(flow) = self.handlers[op.opcode()](self, code, regs, op, &mut pc)? {
                return Ok(flow);
            }
        }
    }
}

impl BuiltinCx for Vm<'_> {
    fn cx_interp(&self) -> &Interp {
        self.interp
    }

    fn call_func(&mut self, id: FuncId, args: Vec<Value>) -> Result<Value> {
        self.apply(id, args)
    }
}

// ----------------------------------------------------------------
// Direct-threaded dispatch
// ----------------------------------------------------------------

/// One opcode handler. Returns `Ok(None)` to continue in the current
/// code block (possibly after adjusting `pc`), `Ok(Some(flow))` to
/// leave it.
type Handler =
    for<'v, 'i> fn(&'v mut Vm<'i>, &Code, &mut [Value], Op, &mut usize) -> Result<Option<VmFlow>>;

/// The dispatch table, indexed by [`Op::opcode`]. Order must match
/// the opcode numbering exactly (checked by `opcode_table_is_dense`
/// plus the engine differential suite, which executes every handler).
static HANDLERS: [Handler; OPCODE_COUNT] = [
    h_const,
    h_float,
    h_str,
    h_quote,
    h_move,
    h_load_cap,
    h_get_global,
    h_set_global,
    h_jump,
    h_jump_if_nil,
    h_jump_if_true,
    h_return,
    h_call,
    h_tail_call,
    h_builtin,
    h_struct,
    h_make_closure,
    h_func_ref,
    h_future,
    h_enqueue,
    h_lock,
    h_atomic_incf_g,
    h_raise,
    h_car,
    h_cdr,
    h_cons,
    h_set_car,
    h_set_cdr,
    h_null_p,
    h_consp_p,
    h_atom_p,
    h_eq_p,
    h_add1,
    h_sub1,
    h_add2,
    h_sub2,
    h_mul2,
    h_lt2,
    h_gt2,
    h_le2,
    h_ge2,
    h_num_eq2,
    h_touch,
    h_test_jump,
    h_cmp_jump,
    h_const_bin,
    h_car_bin,
    h_cxr_null,
    h_cons_link,
];

/// Every slot of the profiling table: run the opcode's real handler
/// with count/ns accounting around it.
static PROFILED_HANDLERS: [Handler; OPCODE_COUNT] = [h_profiled; OPCODE_COUNT];

fn h_profiled(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let idx = op.opcode();
    let t0 = curare_obs::now_ns();
    let step = HANDLERS[idx](vm, code, regs, op, pc);
    let ns = curare_obs::now_ns().saturating_sub(t0);
    op_profile::COUNTS[idx].fetch_add(1, Ordering::Relaxed);
    op_profile::NS[idx].fetch_add(ns, Ordering::Relaxed);
    step
}

fn h_const(
    _vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Const { dst, k } = op else { unreachable!() };
    regs[dst as usize] = code.consts[k as usize];
    Ok(None)
}

fn h_float(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Float { dst, k } = op else { unreachable!() };
    regs[dst as usize] = vm.interp.heap().float(code.floats[k as usize]);
    Ok(None)
}

fn h_str(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Str { dst, k } = op else { unreachable!() };
    regs[dst as usize] = vm.interp.heap().string(code.strs[k as usize].clone());
    Ok(None)
}

fn h_quote(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Quote { dst, k } = op else { unreachable!() };
    regs[dst as usize] = vm.interp.heap().from_sexpr(&code.quotes[k as usize]);
    Ok(None)
}

fn h_move(
    _vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Move { dst, src } = op else { unreachable!() };
    regs[dst as usize] = regs[src as usize];
    Ok(None)
}

fn h_load_cap(
    _vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::LoadCap { dst, src, name } = op else { unreachable!() };
    let v = regs[src as usize];
    if v == Value::UNBOUND {
        return Err(LispError::Unbound(code.names[name as usize].to_string()));
    }
    regs[dst as usize] = v;
    Ok(None)
}

fn h_get_global(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::GetGlobal { dst, g } = op else { unreachable!() };
    let gl = &code.globals[g as usize];
    regs[dst as usize] = vm.interp.get_global_in(gl.sym, &gl.cell)?;
    Ok(None)
}

fn h_set_global(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::SetGlobal { g, src } = op else { unreachable!() };
    let gl = &code.globals[g as usize];
    vm.interp.set_global_in(gl.sym, &gl.cell, regs[src as usize]);
    Ok(None)
}

fn h_jump(
    _vm: &mut Vm,
    _code: &Code,
    _regs: &mut [Value],
    op: Op,
    pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Jump { to } = op else { unreachable!() };
    *pc = to as usize;
    Ok(None)
}

fn h_jump_if_nil(
    _vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::JumpIfNil { src, to } = op else { unreachable!() };
    if regs[src as usize].is_nil() {
        *pc = to as usize;
    }
    Ok(None)
}

fn h_jump_if_true(
    _vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::JumpIfTrue { src, to } = op else { unreachable!() };
    if regs[src as usize].is_true() {
        *pc = to as usize;
    }
    Ok(None)
}

fn h_return(
    _vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Return { src } = op else { unreachable!() };
    Ok(Some(VmFlow::Val(regs[src as usize])))
}

fn h_call(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Call { dst, site, base, argc } = op else { unreachable!() };
    let mut a = eval::take_value_buf();
    a.extend_from_slice(&regs[base as usize..][..argc as usize]);
    // Lookup after argument evaluation, like the tree.
    let fid = code.sites[site as usize].resolve(vm.interp)?;
    regs[dst as usize] = vm.apply(fid, a)?;
    Ok(None)
}

fn h_tail_call(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::TailCall { site, base, argc } = op else { unreachable!() };
    let fid = code.sites[site as usize].resolve(vm.interp)?;
    // Self-tail-call: loop in place instead of bouncing through the
    // trampoline — slide the (already evaluated) arguments into the
    // parameter slots, reset the let slots to unbound, restart. The
    // resolve above re-consults the generation-tagged cache, and a
    // redefinition always binds a fresh id, so a redefined callee
    // falls back to the trampoline and picks up the new code.
    if fid == vm.cur_fid && argc == code.nparams {
        restart_frame(code, regs, base, pc);
        return Ok(None);
    }
    let mut a = eval::take_value_buf();
    a.extend_from_slice(&regs[base as usize..][..argc as usize]);
    Ok(Some(VmFlow::Tail(fid, a)))
}

/// Run the executing function again on the `code.nparams` evaluated
/// arguments at `base`: slide them into the parameter slots, reset the
/// let slots to unbound, restart.
#[inline(always)]
fn restart_frame(code: &Code, regs: &mut [Value], base: u16, pc: &mut usize) {
    let (b, n, ncap) = (base as usize, code.nparams as usize, code.ncaptures as usize);
    regs.copy_within(b..b + n, ncap);
    for r in &mut regs[ncap + n..code.nslots as usize] {
        *r = Value::UNBOUND;
    }
    *pc = 0;
}

fn h_builtin(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Builtin { dst, op, base, argc } = op else { unreachable!() };
    let mut vals = eval::take_value_buf();
    vals.extend_from_slice(&regs[base as usize..][..argc as usize]);
    let out = apply_builtin(vm, op, &mut vals);
    eval::put_value_buf(vals);
    regs[dst as usize] = out?;
    Ok(None)
}

fn h_struct(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Struct { dst, s, base, argc } = op else { unreachable!() };
    let vals = &regs[base as usize..][..argc as usize];
    regs[dst as usize] = apply_struct_op(vm.interp, code.structops[s as usize], vals)?;
    Ok(None)
}

fn h_make_closure(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::MakeClosure { dst, l } = op else { unreachable!() };
    let spec = &code.lambdas[l as usize];
    let captured: Vec<Value> = spec.captures.iter().map(|&s| regs[s as usize]).collect();
    let fid = vm.interp.define_closure(Arc::clone(&spec.func), captured);
    regs[dst as usize] = Value::func(fid);
    Ok(None)
}

fn h_func_ref(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::FuncRef { dst, site } = op else { unreachable!() };
    let site = &code.sites[site as usize];
    regs[dst as usize] = match site.try_resolve(vm.interp) {
        Some(fid) => Value::func(fid),
        // `#'car` etc.: builtins are designated by their symbol.
        None if vm.interp.builtin_by_sym(site.name).is_some() => Value::sym(site.name),
        None => {
            return Err(LispError::UndefinedFunction(site.text.to_string()));
        }
    };
    Ok(None)
}

fn h_future(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Future { dst, site, base, argc } = op else { unreachable!() };
    let mut a = eval::take_value_buf();
    a.extend_from_slice(&regs[base as usize..][..argc as usize]);
    let interp = vm.interp;
    let fid = code.sites[site as usize].resolve(interp)?;
    regs[dst as usize] = vm.hooks().future(interp, fid, a)?;
    Ok(None)
}

fn h_enqueue(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Enqueue { site, callee, base, argc, handoff, tail } = op else { unreachable!() };
    let interp = vm.interp;
    let fid = code.sites[callee as usize].resolve(interp)?;
    // A tail-position spawn of the executing function from a root
    // frame: where the runtime would chain the successor, it becomes
    // the self-tail call it was before restructuring.
    let restartable = tail && vm.depth == 1 && fid == vm.cur_fid && argc == code.nparams;
    let hooks = vm.hooks();
    if restartable && hooks.chain_in_place(site as usize, fid) {
        restart_frame(code, regs, base, pc);
        return Ok(None);
    }
    let mut a = eval::take_value_buf();
    a.extend_from_slice(&regs[base as usize..][..argc as usize]);
    if handoff {
        hooks.handoff(interp, site as usize, fid, a)?;
    } else {
        hooks.enqueue(interp, site as usize, fid, a)?;
    }
    Ok(None)
}

fn h_lock(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Lock { src, l } = op else { unreachable!() };
    let spec = code.locks[l as usize];
    let cell = regs[src as usize];
    let interp = vm.interp;
    let hooks = vm.hooks();
    if spec.lock {
        hooks.lock(interp, cell, spec.field, spec.exclusive)?;
    } else {
        hooks.unlock(interp, cell, spec.field, spec.exclusive)?;
    }
    Ok(None)
}

fn h_atomic_incf_g(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::AtomicIncfG { dst, g, delta } = op else { unreachable!() };
    let gl = &code.globals[g as usize];
    let d = regs[delta as usize];
    let Some(d) = d.as_int() else {
        return Err(LispError::Type {
            expected: "integer",
            got: vm.interp.heap().display(d),
            op: "atomic-incf",
        });
    };
    regs[dst as usize] = vm.interp.atomic_incf_global_in(gl.sym, &gl.cell, d)?;
    Ok(None)
}

fn h_raise(
    _vm: &mut Vm,
    code: &Code,
    _regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Raise { e } = op else { unreachable!() };
    Err(code.raises[e as usize].clone())
}

// ----- specialized hot ops -----------------------------------------

fn h_car(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Car { dst, a } = op else { unreachable!() };
    regs[dst as usize] = vm.interp.heap().car(regs[a as usize])?;
    Ok(None)
}

fn h_cdr(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Cdr { dst, a } = op else { unreachable!() };
    regs[dst as usize] = vm.interp.heap().cdr(regs[a as usize])?;
    Ok(None)
}

fn h_cons(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Cons { dst, a, b } = op else { unreachable!() };
    regs[dst as usize] = vm.interp.heap().cons(regs[a as usize], regs[b as usize]);
    Ok(None)
}

fn h_set_car(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::SetCar { dst, a, b } = op else { unreachable!() };
    let v = regs[b as usize];
    vm.interp.heap().set_car(regs[a as usize], v)?;
    regs[dst as usize] = v;
    Ok(None)
}

fn h_set_cdr(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::SetCdr { dst, a, b } = op else { unreachable!() };
    let v = regs[b as usize];
    vm.interp.heap().set_cdr(regs[a as usize], v)?;
    regs[dst as usize] = v;
    Ok(None)
}

fn h_null_p(
    _vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::NullP { dst, a } = op else { unreachable!() };
    regs[dst as usize] = bool_val(regs[a as usize].is_nil());
    Ok(None)
}

fn h_consp_p(
    _vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::ConspP { dst, a } = op else { unreachable!() };
    regs[dst as usize] = bool_val(regs[a as usize].is_cons());
    Ok(None)
}

fn h_atom_p(
    _vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::AtomP { dst, a } = op else { unreachable!() };
    regs[dst as usize] = bool_val(!regs[a as usize].is_cons());
    Ok(None)
}

fn h_eq_p(
    _vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::EqP { dst, a, b } = op else { unreachable!() };
    regs[dst as usize] = bool_val(regs[a as usize] == regs[b as usize]);
    Ok(None)
}

fn h_add1(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Add1 { dst, a } = op else { unreachable!() };
    regs[dst as usize] = bin_op(vm.interp, BinKind::Add, regs[a as usize], Value::int(1))?;
    Ok(None)
}

fn h_sub1(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Sub1 { dst, a } = op else { unreachable!() };
    regs[dst as usize] = bin_op(vm.interp, BinKind::Sub, regs[a as usize], Value::int(1))?;
    Ok(None)
}

fn h_add2(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Add2 { dst, a, b } = op else { unreachable!() };
    regs[dst as usize] = bin_op(vm.interp, BinKind::Add, regs[a as usize], regs[b as usize])?;
    Ok(None)
}

fn h_sub2(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Sub2 { dst, a, b } = op else { unreachable!() };
    regs[dst as usize] = bin_op(vm.interp, BinKind::Sub, regs[a as usize], regs[b as usize])?;
    Ok(None)
}

fn h_mul2(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Mul2 { dst, a, b } = op else { unreachable!() };
    regs[dst as usize] = bin_op(vm.interp, BinKind::Mul, regs[a as usize], regs[b as usize])?;
    Ok(None)
}

fn h_lt2(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Lt2 { dst, a, b } = op else { unreachable!() };
    regs[dst as usize] = bin_op(vm.interp, BinKind::Lt, regs[a as usize], regs[b as usize])?;
    Ok(None)
}

fn h_gt2(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Gt2 { dst, a, b } = op else { unreachable!() };
    regs[dst as usize] = bin_op(vm.interp, BinKind::Gt, regs[a as usize], regs[b as usize])?;
    Ok(None)
}

fn h_le2(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Le2 { dst, a, b } = op else { unreachable!() };
    regs[dst as usize] = bin_op(vm.interp, BinKind::Le, regs[a as usize], regs[b as usize])?;
    Ok(None)
}

fn h_ge2(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Ge2 { dst, a, b } = op else { unreachable!() };
    regs[dst as usize] = bin_op(vm.interp, BinKind::Ge, regs[a as usize], regs[b as usize])?;
    Ok(None)
}

fn h_num_eq2(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::NumEq2 { dst, a, b } = op else { unreachable!() };
    regs[dst as usize] = bin_op(vm.interp, BinKind::NumEq, regs[a as usize], regs[b as usize])?;
    Ok(None)
}

fn h_touch(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::Touch { dst, a } = op else { unreachable!() };
    let interp = vm.interp;
    regs[dst as usize] = vm.hooks().touch(interp, regs[a as usize])?;
    Ok(None)
}

// ----- fused superinstructions -------------------------------------

fn h_test_jump(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::TestJump { t, a, test, to, on_true } = op else { unreachable!() };
    vm.fused += 1;
    let v = regs[a as usize];
    let r = match test {
        TestKind::Null => v.is_nil(),
        TestKind::Consp => v.is_cons(),
        TestKind::Atom => !v.is_cons(),
    };
    regs[t as usize] = bool_val(r);
    if r == on_true {
        *pc = to as usize;
    }
    Ok(None)
}

fn h_cmp_jump(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::CmpJump { t, a, b, kind, to, on_true } = op else { unreachable!() };
    vm.fused += 1;
    let r = bin_op(vm.interp, kind, regs[a as usize], regs[b as usize])?;
    regs[t as usize] = r;
    if r.is_true() == on_true {
        *pc = to as usize;
    }
    Ok(None)
}

fn h_const_bin(
    vm: &mut Vm,
    code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::ConstBin { dst, other, k, t, kind, const_left } = op else { unreachable!() };
    vm.fused += 1;
    let c = code.consts[k as usize];
    // Write the constant before reading `other`: when the original
    // pair read the just-loaded register, `other == t`.
    regs[t as usize] = c;
    let o = regs[other as usize];
    let (x, y) = if const_left { (c, o) } else { (o, c) };
    regs[dst as usize] = bin_op(vm.interp, kind, x, y)?;
    Ok(None)
}

fn h_car_bin(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::CarBin { dst, cell, other, t, kind, acc_left, is_cdr } = op else { unreachable!() };
    vm.fused += 1;
    let heap = vm.interp.heap();
    // Read the cell before writing `t` (the unfused pair allowed
    // `cell == t`), and `other` after (it may *be* `t`).
    let cellv = regs[cell as usize];
    let acc = if is_cdr { heap.cdr(cellv)? } else { heap.car(cellv)? };
    regs[t as usize] = acc;
    let o = regs[other as usize];
    let (x, y) = if acc_left { (acc, o) } else { (o, acc) };
    regs[dst as usize] = bin_op(vm.interp, kind, x, y)?;
    Ok(None)
}

fn h_cxr_null(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::CxrNull { dst, cell, t, is_cdr } = op else { unreachable!() };
    vm.fused += 1;
    let heap = vm.interp.heap();
    let cellv = regs[cell as usize];
    let acc = if is_cdr { heap.cdr(cellv)? } else { heap.car(cellv)? };
    regs[t as usize] = acc;
    regs[dst as usize] = bool_val(acc.is_nil());
    Ok(None)
}

fn h_cons_link(
    vm: &mut Vm,
    _code: &Code,
    regs: &mut [Value],
    op: Op,
    _pc: &mut usize,
) -> Result<Option<VmFlow>> {
    let Op::ConsLink { dst, cell, a, b, t, set_car } = op else { unreachable!() };
    vm.fused += 1;
    let heap = vm.interp.heap();
    let consv = heap.cons(regs[a as usize], regs[b as usize]);
    regs[t as usize] = consv;
    // Read the link target after writing `t` (the unfused pair allowed
    // `cell == t`).
    let cellv = regs[cell as usize];
    if set_car {
        heap.set_car(cellv, consv)?;
    } else {
        heap.set_cdr(cellv, consv)?;
    }
    regs[dst as usize] = consv;
    Ok(None)
}

// ----- shared helpers ----------------------------------------------

fn bool_val(b: bool) -> Value {
    if b {
        Value::T
    } else {
        Value::NIL
    }
}

/// An integer result, or the overflow error. A `match`, not `ok_or`:
/// built eagerly, the unused error is dropped through a call on every
/// in-range result.
fn int_result(i: Option<i64>, op: &'static str) -> Result<Value> {
    match i.and_then(Value::int_checked) {
        Some(v) => Ok(v),
        None => Err(LispError::Overflow(op)),
    }
}

/// Evaluate a two-operand arithmetic/comparison: two tag tests and the
/// integer operation inline, overflow checked. Any other operand mix
/// (a float, a non-number, the unbound marker) goes to [`bin_op_slow`].
#[inline(always)]
fn bin_op(interp: &Interp, kind: BinKind, x: Value, y: Value) -> Result<Value> {
    let (Some(i), Some(j)) = (x.as_int(), y.as_int()) else {
        return match kind {
            BinKind::Eq => Ok(bool_val(x == y)),
            _ => bin_op_slow(interp, kind, x, y),
        };
    };
    match kind {
        BinKind::Add => int_result(i.checked_add(j), "+"),
        BinKind::Sub => int_result(i.checked_sub(j), "-"),
        BinKind::Mul => int_result(i.checked_mul(j), "*"),
        BinKind::Lt => Ok(bool_val(i < j)),
        BinKind::Gt => Ok(bool_val(i > j)),
        BinKind::Le => Ok(bool_val(i <= j)),
        BinKind::Ge => Ok(bool_val(i >= j)),
        BinKind::NumEq | BinKind::Eq => Ok(bool_val(i == j)),
    }
}

/// [`bin_op`] on anything but two integers: the tree-walker's
/// `fold_arith`/`compare_chain`, which decode both operands, so the
/// mixed-type results and the errors are the tree-walker's own.
#[cold]
#[inline(never)]
fn bin_op_slow(interp: &Interp, kind: BinKind, x: Value, y: Value) -> Result<Value> {
    let xy = [x, y];
    match kind {
        BinKind::Add => fold_arith(interp, &xy, "+", i64::checked_add, |a, b| a + b, 0, false),
        BinKind::Sub => fold_arith(interp, &xy, "-", i64::checked_sub, |a, b| a - b, 0, true),
        BinKind::Mul => fold_arith(interp, &xy, "*", i64::checked_mul, |a, b| a * b, 1, false),
        BinKind::Lt => compare_chain(interp, &xy, "<", |a, b| a < b, |a, b| a < b),
        BinKind::Gt => compare_chain(interp, &xy, ">", |a, b| a > b, |a, b| a > b),
        BinKind::Le => compare_chain(interp, &xy, "<=", |a, b| a <= b, |a, b| a <= b),
        BinKind::Ge => compare_chain(interp, &xy, ">=", |a, b| a >= b, |a, b| a >= b),
        BinKind::NumEq => compare_chain(interp, &xy, "=", |a, b| a == b, |a, b| a == b),
        BinKind::Eq => Ok(bool_val(x == y)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_table_is_dense() {
        // One sample per variant, in declaration order; `opcode` must
        // number them 0..OPCODE_COUNT to match the handler table.
        let samples = [
            Op::Const { dst: 0, k: 0 },
            Op::Float { dst: 0, k: 0 },
            Op::Str { dst: 0, k: 0 },
            Op::Quote { dst: 0, k: 0 },
            Op::Move { dst: 0, src: 0 },
            Op::LoadCap { dst: 0, src: 0, name: 0 },
            Op::GetGlobal { dst: 0, g: 0 },
            Op::SetGlobal { g: 0, src: 0 },
            Op::Jump { to: 0 },
            Op::JumpIfNil { src: 0, to: 0 },
            Op::JumpIfTrue { src: 0, to: 0 },
            Op::Return { src: 0 },
            Op::Call { dst: 0, site: 0, base: 0, argc: 0 },
            Op::TailCall { site: 0, base: 0, argc: 0 },
            Op::Builtin { dst: 0, op: crate::ast::BuiltinOp::List, base: 0, argc: 0 },
            Op::Struct { dst: 0, s: 0, base: 0, argc: 0 },
            Op::MakeClosure { dst: 0, l: 0 },
            Op::FuncRef { dst: 0, site: 0 },
            Op::Future { dst: 0, site: 0, base: 0, argc: 0 },
            Op::Enqueue { site: 0, callee: 0, base: 0, argc: 0, handoff: false, tail: false },
            Op::Lock { src: 0, l: 0 },
            Op::AtomicIncfG { dst: 0, g: 0, delta: 0 },
            Op::Raise { e: 0 },
            Op::Car { dst: 0, a: 0 },
            Op::Cdr { dst: 0, a: 0 },
            Op::Cons { dst: 0, a: 0, b: 0 },
            Op::SetCar { dst: 0, a: 0, b: 0 },
            Op::SetCdr { dst: 0, a: 0, b: 0 },
            Op::NullP { dst: 0, a: 0 },
            Op::ConspP { dst: 0, a: 0 },
            Op::AtomP { dst: 0, a: 0 },
            Op::EqP { dst: 0, a: 0, b: 0 },
            Op::Add1 { dst: 0, a: 0 },
            Op::Sub1 { dst: 0, a: 0 },
            Op::Add2 { dst: 0, a: 0, b: 0 },
            Op::Sub2 { dst: 0, a: 0, b: 0 },
            Op::Mul2 { dst: 0, a: 0, b: 0 },
            Op::Lt2 { dst: 0, a: 0, b: 0 },
            Op::Gt2 { dst: 0, a: 0, b: 0 },
            Op::Le2 { dst: 0, a: 0, b: 0 },
            Op::Ge2 { dst: 0, a: 0, b: 0 },
            Op::NumEq2 { dst: 0, a: 0, b: 0 },
            Op::Touch { dst: 0, a: 0 },
            Op::TestJump { t: 0, a: 0, test: TestKind::Null, to: 0, on_true: false },
            Op::CmpJump { t: 0, a: 0, b: 0, kind: BinKind::Lt, to: 0, on_true: false },
            Op::ConstBin { dst: 0, other: 0, k: 0, t: 0, kind: BinKind::Add, const_left: false },
            Op::CarBin {
                dst: 0,
                cell: 0,
                other: 0,
                t: 0,
                kind: BinKind::Add,
                acc_left: false,
                is_cdr: false,
            },
            Op::CxrNull { dst: 0, cell: 0, t: 0, is_cdr: false },
            Op::ConsLink { dst: 0, cell: 0, a: 0, b: 0, t: 0, set_car: false },
        ];
        assert_eq!(samples.len(), OPCODE_COUNT, "one sample per opcode");
        for (i, op) in samples.iter().enumerate() {
            assert_eq!(op.opcode(), i, "{op:?} numbered out of order");
        }
    }

    #[test]
    fn opcode_names_are_unique() {
        let names = crate::compile::OPCODE_NAMES;
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), OPCODE_COUNT, "duplicate opcode name");
    }

    #[test]
    fn op_profile_counts_dispatches() {
        use crate::interp::Interp;
        let it = Interp::new();
        it.eval_str("(defun count-up (n acc) (if (= n 0) acc (count-up (- n 1) (+ acc 1))))")
            .unwrap();
        set_op_profiling(true);
        let v = it.eval_str("(count-up 1000 0)").unwrap();
        set_op_profiling(false);
        assert_eq!(v.as_int(), Some(1000));
        let rows = op_profile_snapshot();
        assert!(!rows.is_empty(), "profiled run produced no rows");
        let total: u64 = rows.iter().map(|r| r.count).sum();
        assert!(total >= 1000, "expected ≥1000 dispatches, got {total}");
        let top = op_profile_top(3);
        assert!(top.len() <= 3);
        assert!(top.windows(2).all(|w| w[0].ns >= w[1].ns), "top-k sorted by ns");
    }
}
