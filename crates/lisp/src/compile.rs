//! Bytecode compiler: typed HIR (see [`crate::hir`]) to flat register
//! code.
//!
//! Each function compiles once, at definition time. The pipeline is
//! now three stages: the lowerer's [`crate::ast::Expr`] tree is
//! desugared and type-annotated by [`hir::lower_body`], this module
//! emits a flat `Vec<Op>` over a register frame reusing the
//! tree-walker's slot numbering (register *i* is frame slot *i*;
//! compiler temporaries live above `nslots`), and a peephole pass
//! fuses measured-hot instruction pairs into superinstructions. The
//! [`crate::vm`] dispatch loop executes the result with the same
//! semantics as the tree-walker — strict left-to-right evaluation,
//! per-execution allocation of float/string/quote literals, function
//! lookup *after* argument evaluation, and proper tail calls — so the
//! tree remains a drop-in differential oracle.
//!
//! Where the HIR type pass proves both operands of an arithmetic or
//! comparison integer, the compiler emits unconditional integer ops
//! ([`Op::AddInt`] and friends) that skip per-op tag dispatch;
//! overflow checks remain, so error behaviour is unchanged.
//!
//! The fusion pass runs pairwise over the emitted stream and never
//! fuses across a basic-block boundary (an instruction that is a jump
//! target keeps its own dispatch slot). Every superinstruction still
//! performs *both* constituent writes in original order, so no
//! liveness analysis is needed — only dispatch is saved. Fusion can
//! be disabled with [`set_fusion_enabled`] as a differential escape
//! hatch.
//!
//! Heap traffic (car/cdr/cons/setf/struct/vector ops) stays behind the
//! same `heap.rs` accessors the tree-walker uses, so the sanitizer's
//! conflict checker and the obs event hooks observe identical access
//! streams from both engines.
//!
//! Compilation is per-interpreter: global references embed the
//! resolved global cell, and call sites carry an inline cache tagged
//! with the interpreter's function-table generation (redefinition
//! bumps the generation, invalidating every cached resolution).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use curare_sexpr::Sexpr;

use crate::ast::{BuiltinOp, Func, VarRef};
use crate::error::LispError;
use crate::hir::{self, HExpr, HKind, Ty};
use crate::interp::Interp;
use crate::value::{FuncId, SymId, Value};

// ----------------------------------------------------------------
// Fusion escape hatch
// ----------------------------------------------------------------

static FUSION: AtomicBool = AtomicBool::new(true);

/// Whether the superinstruction fusion pass runs at compile time (on
/// unless [`set_fusion_enabled`] turned it off).
pub fn fusion_enabled() -> bool {
    FUSION.load(Ordering::Relaxed)
}

/// Force fusion on or off. Affects functions compiled afterwards;
/// already-compiled code is unchanged, so toggle before creating the
/// interpreter that loads the program.
pub fn set_fusion_enabled(on: bool) {
    FUSION.store(on, Ordering::Relaxed);
}

// ----------------------------------------------------------------
// Instruction set
// ----------------------------------------------------------------

/// Comparison selector for [`Op::CmpInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// numeric `=`
    NumEq,
}

/// Binary-operation selector carried by fused superinstructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// Two-argument `+`.
    Add,
    /// Two-argument `-`.
    Sub,
    /// Two-argument `*`.
    Mul,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// numeric `=`
    NumEq,
    /// `eq` — identity bit comparison (never errors).
    Eq,
}

impl BinKind {
    /// True for the boolean-producing kinds (fusable with a branch).
    fn is_test(self) -> bool {
        !matches!(self, BinKind::Add | BinKind::Sub | BinKind::Mul)
    }
}

/// Predicate selector for [`Op::TestJump`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestKind {
    /// `(null x)`
    Null,
    /// `(consp x)`
    Consp,
    /// `(atom x)`
    Atom,
}

/// One bytecode instruction. Register operands index the frame; pool
/// operands (`k`, `g`, `site`, ...) index the side tables in [`Code`].
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `regs[dst] = consts[k]` — nil/t/integer/symbol immediates.
    Const { dst: u16, k: u16 },
    /// `regs[dst] =` fresh heap float from `floats[k]` (allocated per
    /// execution, like the tree-walker).
    Float { dst: u16, k: u16 },
    /// `regs[dst] =` fresh heap string from `strs[k]`.
    Str { dst: u16, k: u16 },
    /// `regs[dst] =` fresh heap structure built from `quotes[k]`.
    Quote { dst: u16, k: u16 },
    /// `regs[dst] = regs[src]`.
    Move { dst: u16, src: u16 },
    /// Checked read of a captured slot — the only frame region that
    /// can legitimately hold the unbound marker (a parallel `let` may
    /// capture a not-yet-bound slot into a closure).
    LoadCap { dst: u16, src: u16, name: u16 },
    /// Read global `globals[g]`; unbound is an error.
    GetGlobal { dst: u16, g: u16 },
    /// Write global `globals[g]`.
    SetGlobal { g: u16, src: u16 },
    /// Unconditional branch.
    Jump { to: u32 },
    /// Branch when `regs[src]` is nil.
    JumpIfNil { src: u16, to: u32 },
    /// Branch when `regs[src]` is true.
    JumpIfTrue { src: u16, to: u32 },
    /// Finish execution with `regs[src]`.
    Return { src: u16 },
    /// Non-tail call of `sites[site]` with `argc` args at `base`.
    Call { dst: u16, site: u16, base: u16, argc: u16 },
    /// Tail call — unwinds to the VM trampoline (or loops in place on
    /// self-tail-recursion).
    TailCall { site: u16, base: u16, argc: u16 },
    /// Generic builtin application (the slow path; hot builtins get
    /// specialized opcodes below).
    Builtin { dst: u16, op: BuiltinOp, base: u16, argc: u16 },
    /// Struct make/ref/set/pred via `structops[s]`.
    Struct { dst: u16, s: u16, base: u16, argc: u16 },
    /// Instantiate `lambdas[l]`, capturing its listed slots by value.
    MakeClosure { dst: u16, l: u16 },
    /// `#'f`: named function, or its symbol when `f` is a builtin.
    FuncRef { dst: u16, site: u16 },
    /// `(future (f ...))` through the runtime hooks.
    Future { dst: u16, site: u16, base: u16, argc: u16 },
    /// `(cri-enqueue site f ...)` through the runtime hooks;
    /// `handoff` for the `cri-handoff` spelling. `tail`: a
    /// `cri-enqueue` in tail position — nothing of the invocation runs
    /// after it, so a runtime that would chain the successor may have
    /// the frame restarted in place instead.
    Enqueue { site: u32, callee: u16, base: u16, argc: u16, handoff: bool, tail: bool },
    /// `(cri-lock ...)` / `(cri-unlock ...)` on `regs[src]`.
    Lock { src: u16, l: u16 },
    /// `(atomic-incf global delta)` — CAS add on a global cell.
    AtomicIncfG { dst: u16, g: u16, delta: u16 },
    /// Raise `raises[e]` — compile-time-known runtime errors (e.g. an
    /// out-of-range integer literal, which the tree-walker reports on
    /// evaluation, not at lowering).
    Raise { e: u16 },

    // ----- specialized hot ops (same heap accessors, fewer layers) --
    /// `(car a)`.
    Car { dst: u16, a: u16 },
    /// `(cdr a)`.
    Cdr { dst: u16, a: u16 },
    /// `(cons a b)`.
    Cons { dst: u16, a: u16, b: u16 },
    /// `(rplaca a b)` — evaluates to `b`.
    SetCar { dst: u16, a: u16, b: u16 },
    /// `(rplacd a b)` — evaluates to `b`.
    SetCdr { dst: u16, a: u16, b: u16 },
    /// `(null a)`.
    NullP { dst: u16, a: u16 },
    /// `(consp a)`.
    ConspP { dst: u16, a: u16 },
    /// `(atom a)`.
    AtomP { dst: u16, a: u16 },
    /// `(eq a b)`.
    EqP { dst: u16, a: u16, b: u16 },
    /// `(1+ a)` with an integer fast path.
    Add1 { dst: u16, a: u16 },
    /// `(1- a)` with an integer fast path.
    Sub1 { dst: u16, a: u16 },
    /// Two-argument `+` with an integer fast path.
    Add2 { dst: u16, a: u16, b: u16 },
    /// Two-argument `-` with an integer fast path.
    Sub2 { dst: u16, a: u16, b: u16 },
    /// Two-argument `*` with an integer fast path.
    Mul2 { dst: u16, a: u16, b: u16 },
    /// Two-argument `<` with an integer fast path.
    Lt2 { dst: u16, a: u16, b: u16 },
    /// Two-argument `>` with an integer fast path.
    Gt2 { dst: u16, a: u16, b: u16 },
    /// Two-argument `<=` with an integer fast path.
    Le2 { dst: u16, a: u16, b: u16 },
    /// Two-argument `>=` with an integer fast path.
    Ge2 { dst: u16, a: u16, b: u16 },
    /// Two-argument `=` with an integer fast path.
    NumEq2 { dst: u16, a: u16, b: u16 },
    /// `(touch a)` — forces a future via the hooks ("helping touch"
    /// under the CRI runtime: the waiting server executes queued tasks
    /// through a nested evaluation).
    Touch { dst: u16, a: u16 },

    // ----- typed ops (HIR proved both operands Int; tag dispatch
    // ----- skipped, overflow checks kept) ---------------------------
    /// `+` on proven integers.
    AddInt { dst: u16, a: u16, b: u16 },
    /// `-` on proven integers.
    SubInt { dst: u16, a: u16, b: u16 },
    /// `*` on proven integers.
    MulInt { dst: u16, a: u16, b: u16 },
    /// `(1+ a)` on a proven integer.
    IncInt { dst: u16, a: u16 },
    /// `(1- a)` on a proven integer.
    DecInt { dst: u16, a: u16 },
    /// Comparison on proven integers.
    CmpInt { dst: u16, a: u16, b: u16, kind: CmpKind },

    // ----- fused superinstructions (peephole pairs; each performs
    // ----- BOTH constituent writes in original order) ---------------
    /// `regs[t] = test(regs[a])`, then branch to `to` when the result
    /// equals `on_true` (cdr+null-test, car+consp+branch patterns).
    TestJump { t: u16, a: u16, test: TestKind, to: u32, on_true: bool },
    /// `regs[t] = kind(regs[a], regs[b])` (a boolean-producing kind),
    /// then branch to `to` when the result equals `on_true`
    /// (arith/cmp+branch patterns).
    CmpJump { t: u16, a: u16, b: u16, kind: BinKind, to: u32, on_true: bool, typed: bool },
    /// `regs[t] = consts[k]`, then `regs[dst] = kind(x, y)` with the
    /// constant on the `const_left` side and `regs[other]` on the
    /// other (incf+load, `(- n 1)`, `(< n 2)` patterns).
    ConstBin { dst: u16, other: u16, k: u16, t: u16, kind: BinKind, const_left: bool, typed: bool },
    /// `regs[t] = car/cdr(regs[cell])`, then `regs[dst] = kind(x, y)`
    /// with the accessed value on the `acc_left` side and
    /// `regs[other]` on the other (car+cmp, car+arith patterns).
    CarBin {
        dst: u16,
        cell: u16,
        other: u16,
        t: u16,
        kind: BinKind,
        acc_left: bool,
        is_cdr: bool,
        typed: bool,
    },
    /// `regs[t] = car/cdr(regs[cell])`, then `regs[dst] =
    /// (null regs[t])` (the list-walk termination test).
    CxrNull { dst: u16, cell: u16, t: u16, is_cdr: bool },
    /// `regs[t] = cons(regs[a], regs[b])`, then link it with
    /// `rplaca/rplacd(regs[cell], regs[t])`; evaluates to the cons
    /// (cons+setf-link pattern).
    ConsLink { dst: u16, cell: u16, a: u16, b: u16, t: u16, set_car: bool },
}

/// Total number of opcodes; the VM's handler table has exactly this
/// many entries.
pub const OPCODE_COUNT: usize = 55;

/// Stable display name per opcode, indexed by [`Op::opcode`] — the
/// labels the per-opcode VM profiler reports hot opcodes under.
pub const OPCODE_NAMES: [&str; OPCODE_COUNT] = [
    "const",
    "float",
    "str",
    "quote",
    "move",
    "load_cap",
    "get_global",
    "set_global",
    "jump",
    "jump_if_nil",
    "jump_if_true",
    "return",
    "call",
    "tail_call",
    "builtin",
    "struct",
    "make_closure",
    "func_ref",
    "future",
    "enqueue",
    "lock",
    "atomic_incf_g",
    "raise",
    "car",
    "cdr",
    "cons",
    "set_car",
    "set_cdr",
    "null_p",
    "consp_p",
    "atom_p",
    "eq_p",
    "add1",
    "sub1",
    "add2",
    "sub2",
    "mul2",
    "lt2",
    "gt2",
    "le2",
    "ge2",
    "num_eq2",
    "touch",
    "add_int",
    "sub_int",
    "mul_int",
    "inc_int",
    "dec_int",
    "cmp_int",
    "test_jump",
    "cmp_jump",
    "const_bin",
    "car_bin",
    "cxr_null",
    "cons_link",
];

impl Op {
    /// Dense opcode index for direct-threaded dispatch: every variant
    /// maps to a unique value in `0..OPCODE_COUNT`, in declaration
    /// order (checked by a unit test against the VM handler table).
    pub fn opcode(&self) -> usize {
        match self {
            Op::Const { .. } => 0,
            Op::Float { .. } => 1,
            Op::Str { .. } => 2,
            Op::Quote { .. } => 3,
            Op::Move { .. } => 4,
            Op::LoadCap { .. } => 5,
            Op::GetGlobal { .. } => 6,
            Op::SetGlobal { .. } => 7,
            Op::Jump { .. } => 8,
            Op::JumpIfNil { .. } => 9,
            Op::JumpIfTrue { .. } => 10,
            Op::Return { .. } => 11,
            Op::Call { .. } => 12,
            Op::TailCall { .. } => 13,
            Op::Builtin { .. } => 14,
            Op::Struct { .. } => 15,
            Op::MakeClosure { .. } => 16,
            Op::FuncRef { .. } => 17,
            Op::Future { .. } => 18,
            Op::Enqueue { .. } => 19,
            Op::Lock { .. } => 20,
            Op::AtomicIncfG { .. } => 21,
            Op::Raise { .. } => 22,
            Op::Car { .. } => 23,
            Op::Cdr { .. } => 24,
            Op::Cons { .. } => 25,
            Op::SetCar { .. } => 26,
            Op::SetCdr { .. } => 27,
            Op::NullP { .. } => 28,
            Op::ConspP { .. } => 29,
            Op::AtomP { .. } => 30,
            Op::EqP { .. } => 31,
            Op::Add1 { .. } => 32,
            Op::Sub1 { .. } => 33,
            Op::Add2 { .. } => 34,
            Op::Sub2 { .. } => 35,
            Op::Mul2 { .. } => 36,
            Op::Lt2 { .. } => 37,
            Op::Gt2 { .. } => 38,
            Op::Le2 { .. } => 39,
            Op::Ge2 { .. } => 40,
            Op::NumEq2 { .. } => 41,
            Op::Touch { .. } => 42,
            Op::AddInt { .. } => 43,
            Op::SubInt { .. } => 44,
            Op::MulInt { .. } => 45,
            Op::IncInt { .. } => 46,
            Op::DecInt { .. } => 47,
            Op::CmpInt { .. } => 48,
            Op::TestJump { .. } => 49,
            Op::CmpJump { .. } => 50,
            Op::ConstBin { .. } => 51,
            Op::CarBin { .. } => 52,
            Op::CxrNull { .. } => 53,
            Op::ConsLink { .. } => 54,
        }
    }

    /// True for fused superinstructions (for static counts).
    pub fn is_fused(&self) -> bool {
        matches!(
            self,
            Op::TestJump { .. }
                | Op::CmpJump { .. }
                | Op::ConstBin { .. }
                | Op::CarBin { .. }
                | Op::CxrNull { .. }
                | Op::ConsLink { .. }
        )
    }

    /// True for typed integer fast-path ops (for static counts).
    /// Fused ops count as typed when their embedded operation is.
    pub fn is_typed(&self) -> bool {
        matches!(
            self,
            Op::AddInt { .. }
                | Op::SubInt { .. }
                | Op::MulInt { .. }
                | Op::IncInt { .. }
                | Op::DecInt { .. }
                | Op::CmpInt { .. }
                | Op::CmpJump { typed: true, .. }
                | Op::ConstBin { typed: true, .. }
                | Op::CarBin { typed: true, .. }
        )
    }
}

/// A call site with an inline cache: `(generation << 32) | (fid + 1)`,
/// zero when empty. The interpreter bumps its function-table
/// generation on every named definition, so redefinition invalidates
/// the cache and the next execution re-resolves by symbol — the same
/// lookup-per-call semantics the tree-walker has, minus the repeat
/// hash lookups in steady state.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name symbol.
    pub name: SymId,
    /// Callee source text, for `UndefinedFunction` diagnostics.
    pub text: String,
    cache: AtomicU64,
}

impl CallSite {
    fn new(name: SymId, text: String) -> CallSite {
        CallSite { name, text, cache: AtomicU64::new(0) }
    }

    /// Resolve the callee, consulting the inline cache.
    pub fn try_resolve(&self, interp: &Interp) -> Option<FuncId> {
        let gen = interp.funcs_gen() & 0xFFFF_FFFF;
        let cached = self.cache.load(Ordering::Relaxed);
        if cached != 0 && (cached >> 32) == gen {
            return Some((cached as u32).wrapping_sub(1));
        }
        let id = interp.lookup_func(self.name)?;
        if id < u32::MAX {
            self.cache.store((gen << 32) | (id as u64 + 1), Ordering::Relaxed);
        }
        Some(id)
    }

    /// Resolve the callee or report it undefined.
    pub fn resolve(&self, interp: &Interp) -> crate::error::Result<FuncId> {
        self.try_resolve(interp).ok_or_else(|| LispError::UndefinedFunction(self.text.clone()))
    }
}

/// A pre-resolved global variable reference.
#[derive(Debug)]
pub struct GlobalRef {
    /// The variable's name symbol (for unbound diagnostics).
    pub sym: SymId,
    /// Its backing cell, resolved at compile time (cells are created
    /// unbound on first reference and never replaced).
    pub cell: Arc<AtomicU64>,
}

/// A lock/unlock site.
#[derive(Debug, Clone, Copy)]
pub struct LockSpec {
    /// Field code: 0 = car, 1 = cdr, 2+k = struct field k.
    pub field: u32,
    /// True for lock, false for unlock.
    pub lock: bool,
    /// Write (exclusive) vs read (shared).
    pub exclusive: bool,
}

/// A `lambda` template plus the enclosing-frame slots it captures.
#[derive(Debug)]
pub struct LambdaSpec {
    /// The anonymous function.
    pub func: Arc<Func>,
    /// Enclosing-frame slots captured by value at instantiation.
    pub captures: Box<[u16]>,
}

/// A compiled function body.
#[derive(Debug)]
pub struct Code {
    /// The instruction stream; execution starts at 0 and ends at a
    /// `Return`, `TailCall`, or `Raise`.
    pub ops: Box<[Op]>,
    /// Immediate constants (nil, t, integers, symbols).
    pub consts: Box<[Value]>,
    /// Float literals (boxed per execution).
    pub floats: Box<[f64]>,
    /// String literals (allocated per execution).
    pub strs: Box<[String]>,
    /// Quoted data (built in the heap per execution).
    pub quotes: Box<[Sexpr]>,
    /// Pre-resolved global cells.
    pub globals: Box<[GlobalRef]>,
    /// Variable names for checked captured-slot loads.
    pub names: Box<[String]>,
    /// Call sites with inline caches.
    pub sites: Box<[CallSite]>,
    /// Lambda templates.
    pub lambdas: Box<[LambdaSpec]>,
    /// Struct operations.
    pub structops: Box<[crate::ast::StructOp]>,
    /// Pre-built errors for `Raise`.
    pub raises: Box<[LispError]>,
    /// Lock sites.
    pub locks: Box<[LockSpec]>,
    /// Frame size in registers: slots first (tree-walker numbering),
    /// temporaries above.
    pub nregs: u16,
    /// Captured-slot count (frame geometry for in-place self-tail).
    pub ncaptures: u16,
    /// Parameter count.
    pub nparams: u16,
    /// Slot count (captures + parameters + lets).
    pub nslots: u16,
}

/// Compile `func` for execution against `interp`. Returns `None` when
/// the function exceeds a register or pool budget (u16 indices) — the
/// VM then falls back to the tree-walker for this function.
pub fn compile(interp: &Interp, func: &Func) -> Option<Code> {
    let base = func.nslots.max(func.ncaptures + func.params.len());
    let body = hir::lower_body(func);
    let mut c = Compiler {
        interp,
        func,
        ops: Vec::new(),
        consts: Vec::new(),
        floats: Vec::new(),
        strs: Vec::new(),
        quotes: Vec::new(),
        globals: Vec::new(),
        names: Vec::new(),
        sites: Vec::new(),
        lambdas: Vec::new(),
        structops: Vec::new(),
        raises: Vec::new(),
        locks: Vec::new(),
        base,
        temp: base,
        max_reg: base,
        ok: true,
    };
    let ret = c.alloc_temp();
    match body.split_last() {
        None => c.op_const(ret, Value::NIL),
        Some((last, init)) => {
            for stmt in init {
                c.emit_discard(stmt);
            }
            c.emit(last, ret, true);
        }
    }
    let src = c.r16(ret);
    c.ops.push(Op::Return { src });
    if !c.ok || c.max_reg > u16::MAX as usize || c.ops.len() > u32::MAX as usize {
        return None;
    }
    let ops = if fusion_enabled() { fuse(c.ops) } else { c.ops };
    Some(Code {
        ops: ops.into(),
        consts: c.consts.into(),
        floats: c.floats.into(),
        strs: c.strs.into(),
        quotes: c.quotes.into(),
        globals: c.globals.into(),
        names: c.names.into(),
        sites: c.sites.into(),
        lambdas: c.lambdas.into(),
        structops: c.structops.into(),
        raises: c.raises.into(),
        locks: c.locks.into(),
        nregs: c.max_reg as u16,
        ncaptures: func.ncaptures as u16,
        nparams: func.params.len() as u16,
        nslots: func.nslots as u16,
    })
}

// ----------------------------------------------------------------
// Superinstruction fusion
// ----------------------------------------------------------------

/// Decompose a two-operand value-producing op into `(dst, a, b, kind,
/// typed)` for the fusion patterns.
fn bin_parts(op: Op) -> Option<(u16, u16, u16, BinKind, bool)> {
    Some(match op {
        Op::Add2 { dst, a, b } => (dst, a, b, BinKind::Add, false),
        Op::Sub2 { dst, a, b } => (dst, a, b, BinKind::Sub, false),
        Op::Mul2 { dst, a, b } => (dst, a, b, BinKind::Mul, false),
        Op::Lt2 { dst, a, b } => (dst, a, b, BinKind::Lt, false),
        Op::Gt2 { dst, a, b } => (dst, a, b, BinKind::Gt, false),
        Op::Le2 { dst, a, b } => (dst, a, b, BinKind::Le, false),
        Op::Ge2 { dst, a, b } => (dst, a, b, BinKind::Ge, false),
        Op::NumEq2 { dst, a, b } => (dst, a, b, BinKind::NumEq, false),
        Op::EqP { dst, a, b } => (dst, a, b, BinKind::Eq, false),
        Op::AddInt { dst, a, b } => (dst, a, b, BinKind::Add, true),
        Op::SubInt { dst, a, b } => (dst, a, b, BinKind::Sub, true),
        Op::MulInt { dst, a, b } => (dst, a, b, BinKind::Mul, true),
        Op::CmpInt { dst, a, b, kind } => {
            let k = match kind {
                CmpKind::Lt => BinKind::Lt,
                CmpKind::Gt => BinKind::Gt,
                CmpKind::Le => BinKind::Le,
                CmpKind::Ge => BinKind::Ge,
                CmpKind::NumEq => BinKind::NumEq,
            };
            (dst, a, b, k, true)
        }
        _ => return None,
    })
}

/// Try to fuse the adjacent pair `(first, second)`. The caller has
/// already checked that `second` is not a jump target.
fn fuse_pair(first: Op, second: Op) -> Option<Op> {
    // Predicate + branch.
    let test_parts = |op: Op| -> Option<(u16, u16, TestKind)> {
        Some(match op {
            Op::NullP { dst, a } => (dst, a, TestKind::Null),
            Op::ConspP { dst, a } => (dst, a, TestKind::Consp),
            Op::AtomP { dst, a } => (dst, a, TestKind::Atom),
            _ => return None,
        })
    };
    let branch_parts = |op: Op| -> Option<(u16, u32, bool)> {
        Some(match op {
            Op::JumpIfNil { src, to } => (src, to, false),
            Op::JumpIfTrue { src, to } => (src, to, true),
            _ => return None,
        })
    };
    if let (Some((dst, a, test)), Some((src, to, on_true))) =
        (test_parts(first), branch_parts(second))
    {
        if src == dst {
            return Some(Op::TestJump { t: dst, a, test, to, on_true });
        }
    }
    // cxr + null-test (the list-walk termination pattern).
    if let (Op::Car { dst, a } | Op::Cdr { dst, a }, Op::NullP { dst: d2, a: a2 }) = (first, second)
    {
        if a2 == dst {
            let is_cdr = matches!(first, Op::Cdr { .. });
            return Some(Op::CxrNull { dst: d2, cell: a, t: dst, is_cdr });
        }
    }
    // Comparison + branch.
    if let (Some((dst, a, b, kind, typed)), Some((src, to, on_true))) =
        (bin_parts(first), branch_parts(second))
    {
        if kind.is_test() && src == dst {
            return Some(Op::CmpJump { t: dst, a, b, kind, to, on_true, typed });
        }
    }
    // Constant-load + binary reading it (incf+load, `(- n 1)`).
    if let (Op::Const { dst: t, k }, Some((dst, a, b, kind, typed))) = (first, bin_parts(second)) {
        if a == t || b == t {
            let (other, const_left) = if a == t { (b, true) } else { (a, false) };
            return Some(Op::ConstBin { dst, other, k, t, kind, const_left, typed });
        }
    }
    // cxr + binary reading it (car+cmp, car+arith).
    if let (Op::Car { dst: t, a: cell } | Op::Cdr { dst: t, a: cell }, Some(parts)) =
        (first, bin_parts(second))
    {
        let (dst, a, b, kind, typed) = parts;
        if a == t || b == t {
            let is_cdr = matches!(first, Op::Cdr { .. });
            let (other, acc_left) = if a == t { (b, true) } else { (a, false) };
            return Some(Op::CarBin { dst, cell, other, t, kind, acc_left, is_cdr, typed });
        }
    }
    // cons + setf-link.
    if let (
        Op::Cons { dst: t, a, b },
        Op::SetCar { dst, a: cell, b: v } | Op::SetCdr { dst, a: cell, b: v },
    ) = (first, second)
    {
        if v == t {
            let set_car = matches!(second, Op::SetCar { .. });
            return Some(Op::ConsLink { dst, cell, a, b, t, set_car });
        }
    }
    None
}

/// The peephole pass: one left-to-right sweep fusing adjacent pairs.
/// An instruction that is a jump target is never absorbed as the
/// second half of a pair (it must keep its own dispatch slot so
/// branches land on it, not inside a superinstruction), and branch
/// targets are rewritten to the post-fusion indices.
fn fuse(ops: Vec<Op>) -> Vec<Op> {
    let mut is_target = vec![false; ops.len() + 1];
    for op in &ops {
        match op {
            Op::Jump { to } | Op::JumpIfNil { to, .. } | Op::JumpIfTrue { to, .. } => {
                is_target[*to as usize] = true;
            }
            _ => {}
        }
    }
    let mut out = Vec::with_capacity(ops.len());
    let mut map = vec![0u32; ops.len() + 1];
    let mut i = 0;
    while i < ops.len() {
        map[i] = out.len() as u32;
        if i + 1 < ops.len() && !is_target[i + 1] {
            if let Some(fused) = fuse_pair(ops[i], ops[i + 1]) {
                out.push(fused);
                map[i + 1] = map[i];
                i += 2;
                continue;
            }
        }
        out.push(ops[i]);
        i += 1;
    }
    map[ops.len()] = out.len() as u32;
    for op in &mut out {
        match op {
            Op::Jump { to }
            | Op::JumpIfNil { to, .. }
            | Op::JumpIfTrue { to, .. }
            | Op::TestJump { to, .. }
            | Op::CmpJump { to, .. } => *to = map[*to as usize],
            _ => {}
        }
    }
    out
}

struct Compiler<'a> {
    interp: &'a Interp,
    func: &'a Func,
    ops: Vec<Op>,
    consts: Vec<Value>,
    floats: Vec<f64>,
    strs: Vec<String>,
    quotes: Vec<Sexpr>,
    globals: Vec<GlobalRef>,
    names: Vec<String>,
    sites: Vec<CallSite>,
    lambdas: Vec<LambdaSpec>,
    structops: Vec<crate::ast::StructOp>,
    raises: Vec<LispError>,
    locks: Vec<LockSpec>,
    /// First temporary register (= frame slot count).
    base: usize,
    /// Next free temporary (stack discipline).
    temp: usize,
    /// Frame-size high-water mark (exclusive).
    max_reg: usize,
    /// Cleared on register/pool overflow; `compile` then returns None.
    ok: bool,
}

impl Compiler<'_> {
    // ----- registers -------------------------------------------------

    fn alloc_temp(&mut self) -> usize {
        let r = self.temp;
        self.temp += 1;
        self.max_reg = self.max_reg.max(self.temp);
        if r > u16::MAX as usize {
            self.ok = false;
        }
        r
    }

    fn free_to(&mut self, mark: usize) {
        self.temp = mark;
    }

    /// A register index as a u16 operand, failing compilation on
    /// overflow.
    fn r16(&mut self, r: usize) -> u16 {
        if r > u16::MAX as usize {
            self.ok = false;
            return 0;
        }
        self.max_reg = self.max_reg.max(r + 1);
        r as u16
    }

    fn is_temp(&self, r: usize) -> bool {
        r >= self.base
    }

    // ----- pools -----------------------------------------------------

    fn pool_idx(&mut self, len: usize) -> u16 {
        if len > u16::MAX as usize {
            self.ok = false;
            return 0;
        }
        len as u16
    }

    fn k_const(&mut self, v: Value) -> u16 {
        if let Some(i) = self.consts.iter().position(|&c| c == v) {
            return self.pool_idx(i);
        }
        self.consts.push(v);
        self.pool_idx(self.consts.len() - 1)
    }

    fn k_name(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return self.pool_idx(i);
        }
        self.names.push(name.to_string());
        self.pool_idx(self.names.len() - 1)
    }

    fn k_global(&mut self, sym: SymId) -> u16 {
        if let Some(i) = self.globals.iter().position(|g| g.sym == sym) {
            return self.pool_idx(i);
        }
        self.globals.push(GlobalRef { sym, cell: self.interp.global_cell(sym) });
        self.pool_idx(self.globals.len() - 1)
    }

    fn k_site(&mut self, name: SymId, text: &str) -> u16 {
        // Sites are deliberately not deduplicated: each syntactic call
        // site keeps its own inline cache.
        self.sites.push(CallSite::new(name, text.to_string()));
        self.pool_idx(self.sites.len() - 1)
    }

    // ----- emission --------------------------------------------------

    fn op_const(&mut self, dst: usize, v: Value) {
        let dst = self.r16(dst);
        let k = self.k_const(v);
        self.ops.push(Op::Const { dst, k });
    }

    fn raise(&mut self, e: LispError) {
        self.raises.push(e);
        let e = self.pool_idx(self.raises.len() - 1);
        self.ops.push(Op::Raise { e });
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Emit a placeholder branch, returning its index for `patch`.
    fn jump(&mut self) -> usize {
        self.ops.push(Op::Jump { to: 0 });
        self.ops.len() - 1
    }

    fn jump_if_nil(&mut self, src: u16) -> usize {
        self.ops.push(Op::JumpIfNil { src, to: 0 });
        self.ops.len() - 1
    }

    fn jump_if_true(&mut self, src: u16) -> usize {
        self.ops.push(Op::JumpIfTrue { src, to: 0 });
        self.ops.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump { to } | Op::JumpIfNil { to, .. } | Op::JumpIfTrue { to, .. } => {
                *to = target;
            }
            _ => unreachable!("patching a non-branch"),
        }
    }

    /// Evaluate `e` for effect only.
    fn emit_discard(&mut self, e: &HExpr) {
        let mark = self.temp;
        let scratch = self.alloc_temp();
        self.emit(e, scratch, false);
        self.free_to(mark);
    }

    /// True when evaluating `e` cannot write any register of the
    /// *current* frame — the condition under which an earlier operand
    /// may be read directly from its frame slot at instruction time
    /// without reordering effects relative to the tree-walker. Only
    /// local `setq` and `let` bindings write slots; calls run in their
    /// own frames and closures capture by value, so everything else
    /// (including side-effecting heap ops) qualifies.
    fn writes_no_slot(e: &HExpr) -> bool {
        match &e.kind {
            HKind::Setq(VarRef::Local(_), _, _) | HKind::Let { .. } => false,
            HKind::Setq(VarRef::Global(_), _, rhs) => Self::writes_no_slot(rhs),
            HKind::If(c, t, f) => {
                Self::writes_no_slot(c) && Self::writes_no_slot(t) && Self::writes_no_slot(f)
            }
            HKind::Progn(es) | HKind::And(es) | HKind::Or(es) => {
                es.iter().all(Self::writes_no_slot)
            }
            HKind::While(c, body) => {
                Self::writes_no_slot(c) && body.iter().all(Self::writes_no_slot)
            }
            HKind::Call { args, .. }
            | HKind::Builtin(_, args)
            | HKind::Struct(_, args)
            | HKind::Future { args, .. }
            | HKind::Enqueue { args, .. } => args.iter().all(Self::writes_no_slot),
            HKind::LockOp { base, .. } => Self::writes_no_slot(base),
            // Literals, vars, lambdas (bodies run in their own frame),
            // function refs, quotes, raises.
            _ => true,
        }
    }

    /// The frame slot holding `e`'s value, when `e` is a plain local
    /// variable outside the captured region (captured slots need a
    /// checked load).
    fn direct_slot(&self, e: &HExpr) -> Option<usize> {
        match &e.kind {
            HKind::Var(VarRef::Local(slot), _) if *slot >= self.func.ncaptures => {
                (*slot < self.base).then_some(*slot)
            }
            _ => None,
        }
    }

    /// An operand register for `e`: its own slot when that is safe
    /// (`direct_ok`), a fresh temporary otherwise. Temporaries are
    /// reclaimed by the caller via `free_to`.
    fn operand(&mut self, e: &HExpr, direct_ok: bool) -> usize {
        if direct_ok {
            if let Some(slot) = self.direct_slot(e) {
                self.max_reg = self.max_reg.max(slot + 1);
                return slot;
            }
        }
        let t = self.alloc_temp();
        self.emit(e, t, false);
        t
    }

    /// Compile contiguous argument registers for a call-like form.
    fn emit_args(&mut self, args: &[HExpr]) -> (u16, u16) {
        let start = self.temp;
        for _ in args {
            self.alloc_temp();
        }
        for (i, a) in args.iter().enumerate() {
            self.emit(a, start + i, false);
        }
        let base = self.r16(start);
        if args.len() > u16::MAX as usize {
            self.ok = false;
        }
        (base, args.len() as u16)
    }

    /// Compile a body (progn-like form sequence) into `dst`.
    fn emit_body(&mut self, body: &[HExpr], dst: usize, tail: bool) {
        match body.split_last() {
            None => self.op_const(dst, Value::NIL),
            Some((last, init)) => {
                for s in init {
                    self.emit_discard(s);
                }
                self.emit(last, dst, tail);
            }
        }
    }

    /// Compile `e`, leaving its value in `dst`. Invariant: only the
    /// *final* value-producing instruction writes `dst` when `dst` is
    /// a frame slot (intermediate results go to temporaries), matching
    /// the tree-walker's evaluate-then-assign timing. When `dst` is a
    /// temporary, intermediate writes are unobservable and allowed.
    fn emit(&mut self, e: &HExpr, dst: usize, tail: bool) {
        if !self.ok {
            return;
        }
        let mark = self.temp;
        match &e.kind {
            HKind::Nil => self.op_const(dst, Value::NIL),
            HKind::T => self.op_const(dst, Value::T),
            // The desugarer guarantees in-range literals.
            HKind::Int(i) => self.op_const(dst, Value::int(*i)),
            // The tree-walker reports literal overflow on evaluation;
            // match it with a runtime raise.
            HKind::RaiseInt => self.raise(LispError::Overflow("literal")),
            HKind::Float(x) => {
                self.floats.push(*x);
                let k = self.pool_idx(self.floats.len() - 1);
                let dst = self.r16(dst);
                self.ops.push(Op::Float { dst, k });
            }
            HKind::Str(s) => {
                self.strs.push(s.clone());
                let k = self.pool_idx(self.strs.len() - 1);
                let dst = self.r16(dst);
                self.ops.push(Op::Str { dst, k });
            }
            HKind::Quote(d) => {
                self.quotes.push(d.clone());
                let k = self.pool_idx(self.quotes.len() - 1);
                let dst = self.r16(dst);
                self.ops.push(Op::Quote { dst, k });
            }
            HKind::Var(vr, name) => match vr {
                VarRef::Local(slot) => {
                    if *slot >= self.base {
                        // A slot beyond the declared frame would
                        // collide with temporaries; the lowerer never
                        // produces this inside a function body.
                        self.ok = false;
                    } else if *slot < self.func.ncaptures {
                        let name = self.k_name(name);
                        let (dst, src) = (self.r16(dst), self.r16(*slot));
                        self.ops.push(Op::LoadCap { dst, src, name });
                    } else if *slot != dst {
                        let (dst, src) = (self.r16(dst), self.r16(*slot));
                        self.ops.push(Op::Move { dst, src });
                    }
                }
                VarRef::Global(sym) => {
                    let g = self.k_global(*sym);
                    let dst = self.r16(dst);
                    self.ops.push(Op::GetGlobal { dst, g });
                }
            },
            HKind::Setq(vr, _, rhs) => match vr {
                VarRef::Local(slot) => {
                    if *slot >= self.base {
                        self.ok = false;
                        return;
                    }
                    self.emit(rhs, *slot, false);
                    if dst != *slot {
                        let (dst, src) = (self.r16(dst), self.r16(*slot));
                        self.ops.push(Op::Move { dst, src });
                    }
                }
                VarRef::Global(sym) => {
                    self.emit(rhs, dst, false);
                    let g = self.k_global(*sym);
                    let src = self.r16(dst);
                    self.ops.push(Op::SetGlobal { g, src });
                }
            },
            HKind::If(c, t, f) => {
                let cond = self.operand(c, true);
                let src = self.r16(cond);
                let j_else = self.jump_if_nil(src);
                self.free_to(mark);
                self.emit(t, dst, tail);
                let j_end = self.jump();
                let here = self.here();
                self.patch(j_else, here);
                self.emit(f, dst, tail);
                let here = self.here();
                self.patch(j_end, here);
            }
            HKind::Progn(es) => self.emit_body(es, dst, tail),
            HKind::And(es) => match es.split_last() {
                None => self.op_const(dst, Value::T),
                Some((last, init)) => {
                    let work = if self.is_temp(dst) { dst } else { self.alloc_temp() };
                    let mut to_nil = Vec::with_capacity(init.len());
                    for s in init {
                        self.emit(s, work, false);
                        let src = self.r16(work);
                        to_nil.push(self.jump_if_nil(src));
                    }
                    self.emit(last, work, tail);
                    let j_end = self.jump();
                    let here = self.here();
                    for j in to_nil {
                        self.patch(j, here);
                    }
                    self.op_const(work, Value::NIL);
                    let here = self.here();
                    self.patch(j_end, here);
                    if work != dst {
                        let (d, s) = (self.r16(dst), self.r16(work));
                        self.ops.push(Op::Move { dst: d, src: s });
                    }
                }
            },
            HKind::Or(es) => match es.split_last() {
                None => self.op_const(dst, Value::NIL),
                Some((last, init)) => {
                    let work = if self.is_temp(dst) { dst } else { self.alloc_temp() };
                    let mut to_end = Vec::with_capacity(init.len());
                    for s in init {
                        self.emit(s, work, false);
                        let src = self.r16(work);
                        to_end.push(self.jump_if_true(src));
                    }
                    self.emit(last, work, tail);
                    let here = self.here();
                    for j in to_end {
                        self.patch(j, here);
                    }
                    if work != dst {
                        let (d, s) = (self.r16(dst), self.r16(work));
                        self.ops.push(Op::Move { dst: d, src: s });
                    }
                }
            },
            HKind::Let { bindings, body } => {
                // Parallel semantics. A single binding compiles its
                // init directly into the slot: nothing can observe the
                // slot mid-init (the lowerer never reuses slots, the
                // init cannot reference its own binding, and the emit
                // invariant delays the write to the final instruction),
                // so the staging Move is dead weight. Multiple bindings
                // stage in temporaries so all inits evaluate before any
                // binding becomes visible.
                if bindings.len() == 1 {
                    let (slot, _, init) = &bindings[0];
                    if *slot >= self.base {
                        self.ok = false;
                        return;
                    }
                    self.emit(init, *slot, false);
                } else {
                    let temps: Vec<usize> = bindings.iter().map(|_| self.alloc_temp()).collect();
                    for ((_, _, init), &t) in bindings.iter().zip(&temps) {
                        self.emit(init, t, false);
                    }
                    for ((slot, _, _), &t) in bindings.iter().zip(&temps) {
                        if *slot >= self.base {
                            self.ok = false;
                            return;
                        }
                        let (d, s) = (self.r16(*slot), self.r16(t));
                        self.ops.push(Op::Move { dst: d, src: s });
                    }
                    self.free_to(mark);
                }
                self.emit_body(body, dst, tail);
            }
            HKind::While(c, body) => {
                let top = self.here();
                let cond = self.operand(c, true);
                let src = self.r16(cond);
                let j_end = self.jump_if_nil(src);
                self.free_to(mark);
                for s in body {
                    self.emit_discard(s);
                }
                self.ops.push(Op::Jump { to: top });
                let here = self.here();
                self.patch(j_end, here);
                self.op_const(dst, Value::NIL);
            }
            HKind::Call { name, name_text, args } => {
                let (b, argc) = self.emit_args(args);
                let site = self.k_site(*name, name_text);
                if tail {
                    self.ops.push(Op::TailCall { site, base: b, argc });
                } else {
                    let dst = self.r16(dst);
                    self.ops.push(Op::Call { dst, site, base: b, argc });
                }
                self.free_to(mark);
            }
            HKind::Builtin(op, args) => self.emit_builtin(*op, args, dst, mark),
            HKind::Struct(op, args) => {
                let (b, argc) = self.emit_args(args);
                self.structops.push(*op);
                let s = self.pool_idx(self.structops.len() - 1);
                let dst = self.r16(dst);
                self.ops.push(Op::Struct { dst, s, base: b, argc });
                self.free_to(mark);
            }
            HKind::Lambda { func, captures } => {
                let mut caps = Vec::with_capacity(captures.len());
                for &slot in captures {
                    caps.push(self.r16(slot));
                }
                self.lambdas.push(LambdaSpec { func: Arc::clone(func), captures: caps.into() });
                let l = self.pool_idx(self.lambdas.len() - 1);
                let dst = self.r16(dst);
                self.ops.push(Op::MakeClosure { dst, l });
            }
            HKind::FuncRef(sym, text) => {
                let site = self.k_site(*sym, text);
                let dst = self.r16(dst);
                self.ops.push(Op::FuncRef { dst, site });
            }
            HKind::Future { name, name_text, args } => {
                let (b, argc) = self.emit_args(args);
                let site = self.k_site(*name, name_text);
                let dst = self.r16(dst);
                self.ops.push(Op::Future { dst, site, base: b, argc });
                self.free_to(mark);
            }
            HKind::Enqueue { site, name, name_text, args, handoff } => {
                let (b, argc) = self.emit_args(args);
                let callee = self.k_site(*name, name_text);
                let (site, handoff, tail) = (*site as u32, *handoff, tail && !*handoff);
                self.ops.push(Op::Enqueue { site, callee, base: b, argc, handoff, tail });
                self.free_to(mark);
                self.op_const(dst, Value::NIL);
            }
            HKind::LockOp { lock, base, field, exclusive } => {
                let cell = self.operand(base, true);
                self.locks.push(LockSpec { field: *field, lock: *lock, exclusive: *exclusive });
                let l = self.pool_idx(self.locks.len() - 1);
                let src = self.r16(cell);
                self.ops.push(Op::Lock { src, l });
                self.free_to(mark);
                self.op_const(dst, Value::NIL);
            }
        }
        self.free_to(mark);
    }

    /// Compile a builtin application, using a typed integer op when
    /// the HIR proved the operand types, or a specialized untyped
    /// opcode when one exists for this operator/arity.
    fn emit_builtin(&mut self, op: BuiltinOp, args: &[HExpr], dst: usize, mark: usize) {
        use BuiltinOp::*;

        // atomic-incf takes the *place* of its first argument.
        if op == AtomicIncfGlobal {
            let Some(HExpr { kind: HKind::Var(VarRef::Global(sym), _), .. }) = args.first() else {
                self.raise(LispError::Syntax(
                    "atomic-incf requires a global variable place".into(),
                ));
                return;
            };
            let g = self.k_global(*sym);
            let delta = match args.get(1) {
                Some(d) => self.operand(d, true),
                None => {
                    let t = self.alloc_temp();
                    self.op_const(t, Value::int(1));
                    t
                }
            };
            let (dst, delta) = (self.r16(dst), self.r16(delta));
            self.ops.push(Op::AtomicIncfG { dst, g, delta });
            self.free_to(mark);
            return;
        }

        // (identity x) is a register move.
        if op == Identity && args.len() == 1 {
            self.emit(&args[0], dst, false);
            return;
        }

        if args.len() == 1 {
            let typed = args[0].ty == Ty::Int;
            let unary = |dst: u16, a: u16| -> Option<Op> {
                Some(match op {
                    Car => Op::Car { dst, a },
                    Cdr => Op::Cdr { dst, a },
                    Null => Op::NullP { dst, a },
                    Consp => Op::ConspP { dst, a },
                    Atom => Op::AtomP { dst, a },
                    Add1 if typed => Op::IncInt { dst, a },
                    Sub1 if typed => Op::DecInt { dst, a },
                    Add1 => Op::Add1 { dst, a },
                    Sub1 => Op::Sub1 { dst, a },
                    Touch => Op::Touch { dst, a },
                    _ => return None,
                })
            };
            if unary(0, 0).is_some() {
                let a = self.operand(&args[0], true);
                let (d, a) = (self.r16(dst), self.r16(a));
                let op = unary(d, a).expect("checked above");
                self.ops.push(op);
                self.free_to(mark);
                return;
            }
        }

        if args.len() == 2 {
            // Both operands proven Int: emit the unconditional integer
            // op (overflow checks remain; tag dispatch is dropped).
            let typed = args[0].ty == Ty::Int && args[1].ty == Ty::Int;
            let binary = |dst: u16, a: u16, b: u16| -> Option<Op> {
                Some(match op {
                    Cons => Op::Cons { dst, a, b },
                    SetCar => Op::SetCar { dst, a, b },
                    SetCdr => Op::SetCdr { dst, a, b },
                    Eq => Op::EqP { dst, a, b },
                    Add if typed => Op::AddInt { dst, a, b },
                    Sub if typed => Op::SubInt { dst, a, b },
                    Mul if typed => Op::MulInt { dst, a, b },
                    Lt if typed => Op::CmpInt { dst, a, b, kind: CmpKind::Lt },
                    Gt if typed => Op::CmpInt { dst, a, b, kind: CmpKind::Gt },
                    Le if typed => Op::CmpInt { dst, a, b, kind: CmpKind::Le },
                    Ge if typed => Op::CmpInt { dst, a, b, kind: CmpKind::Ge },
                    NumEq if typed => Op::CmpInt { dst, a, b, kind: CmpKind::NumEq },
                    Add => Op::Add2 { dst, a, b },
                    Sub => Op::Sub2 { dst, a, b },
                    Mul => Op::Mul2 { dst, a, b },
                    Lt => Op::Lt2 { dst, a, b },
                    Gt => Op::Gt2 { dst, a, b },
                    Le => Op::Le2 { dst, a, b },
                    Ge => Op::Ge2 { dst, a, b },
                    NumEq => Op::NumEq2 { dst, a, b },
                    _ => return None,
                })
            };
            if binary(0, 0, 0).is_some() {
                // Operand `a` may be read from its slot at instruction
                // time only if evaluating `b` cannot move it first.
                let a = self.operand(&args[0], Self::writes_no_slot(&args[1]));
                let b = self.operand(&args[1], true);
                let (d, a, b) = (self.r16(dst), self.r16(a), self.r16(b));
                let op = binary(d, a, b).expect("checked above");
                self.ops.push(op);
                self.free_to(mark);
                return;
            }
        }

        let (b, argc) = self.emit_args(args);
        let dst = self.r16(dst);
        self.ops.push(Op::Builtin { dst, op, base: b, argc });
        self.free_to(mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fusable pair fuses when the second instruction is not a jump
    /// target, and every later branch is remapped to the shorter
    /// instruction stream.
    #[test]
    fn fuse_merges_cmp_with_branch() {
        let ops = vec![
            Op::Lt2 { dst: 2, a: 0, b: 1 },
            Op::JumpIfNil { src: 2, to: 3 },
            Op::Return { src: 0 },
            Op::Return { src: 1 },
        ];
        let fused = fuse(ops);
        assert_eq!(fused.len(), 3);
        let Op::CmpJump { t, a, b, kind, to, on_true, typed } = fused[0] else {
            panic!("expected CmpJump, got {:?}", fused[0]);
        };
        assert_eq!((t, a, b), (2, 0, 1));
        assert_eq!(kind, BinKind::Lt);
        assert!(!on_true);
        assert!(!typed);
        // The branch target (old index 3) must follow the remap.
        assert_eq!(to, 2);
    }

    /// Basic-block boundary: when the second half of a fusable pair is
    /// itself a jump target, fusion must not fire — a branch landing
    /// there would otherwise re-execute the first half (or land inside
    /// a superinstruction).
    #[test]
    fn no_fusion_across_branch_target() {
        // ops[2] (the branch) is targeted by ops[0]'s jump, so the
        // Lt2 at ops[1] must NOT absorb it.
        let ops = vec![
            Op::Jump { to: 2 },
            Op::Lt2 { dst: 2, a: 0, b: 1 },
            Op::JumpIfNil { src: 2, to: 4 },
            Op::Return { src: 0 },
            Op::Return { src: 1 },
        ];
        let fused = fuse(ops);
        assert_eq!(fused.len(), 5, "pair straddling a jump target must stay split");
        assert!(
            fused.iter().all(|op| !op.is_fused()),
            "no superinstruction may cover a branch target: {fused:?}"
        );
    }

    /// Sanity: the remap leaves a loop (backward branch) consistent.
    #[test]
    fn fuse_remaps_backward_branch() {
        // Loop body: t = cdr x; t2 = null t; exit if t2; jump back.
        let ops = vec![
            Op::Cdr { dst: 1, a: 0 },
            Op::NullP { dst: 2, a: 1 },
            Op::JumpIfTrue { src: 2, to: 5 },
            Op::Move { dst: 0, src: 1 },
            Op::Jump { to: 0 },
            Op::Return { src: 0 },
        ];
        let fused = fuse(ops);
        // Cdr+NullP fuse into CxrNull; the back-edge must still point
        // at it and the exit branch past the Return's new index.
        assert!(matches!(fused[0], Op::CxrNull { is_cdr: true, .. }));
        let Op::Jump { to } = fused[3] else {
            panic!("expected back-edge Jump, got {:?}", fused[3]);
        };
        assert_eq!(to, 0);
        let Op::JumpIfTrue { to, .. } = fused[1] else {
            panic!("expected exit branch, got {:?}", fused[1]);
        };
        assert_eq!(to, 4);
    }
}
