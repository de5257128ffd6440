//! Typed high-level IR: the desugar + type-propagation stage between
//! [`crate::lower`] and [`crate::compile`].
//!
//! The lowerer produces [`Expr`] trees that the tree-walker evaluates
//! directly — that keeps the oracle simple, but it leaves the bytecode
//! compiler consuming a surface-shaped tree. This module inserts an
//! explicitly typed stage in between (the lightc-style AST → HIR →
//! codegen pipeline):
//!
//! 1. **Desugar** ([`desugar`]): `let*` chains become nested
//!    single-binding `let`s, nested `and`/`or`/`progn` chains flatten,
//!    trivial wrappers (`(and x)`, one-form `progn`s) dissolve, quoted
//!    atoms become literals, and pure builtins over integer literals
//!    constant-fold — *only* when folding provably succeeds with the
//!    same result the runtime would produce (anything that could raise
//!    `Overflow`/`DivideByZero` is left for execution, preserving
//!    error identity and ordering).
//! 2. **Type propagation** ([`infer_body`]): a forward dataflow pass
//!    over the [`Ty`] lattice annotates every node with the type its
//!    value is *proven* to have. Parameters and captures start at
//!    `Any`; `let` bindings and `setq`s transfer the right-hand type;
//!    `if`/`and`/`or` join branches; `while` iterates to a fixpoint
//!    (the lattice has height 2, so this terminates in a few rounds).
//!    Builtin result types come from a signature table mirroring
//!    `builtins.rs` semantics (all-integer arithmetic stays integer —
//!    overflow raises rather than widening — predicates are boolean,
//!    `cons` is a cons, calls and accessors are `Any`).
//!
//! `compile.rs` consumes the annotated tree: where both operands of an
//! arithmetic/comparison are proven `Int` it emits unconditional
//! integer ops that skip the per-op tag dispatch. Soundness leans on
//! two frame facts: closures capture by value (a nested lambda cannot
//! mutate an enclosing slot), and the emit invariant that a frame slot
//! is only read directly at instruction time when the intervening
//! expression writes no slots.
//!
//! `tests/interp_properties.rs` holds the desugared program on the VM
//! to the lowered tree on the tree-walker over generated sugar.

use std::sync::Arc;

use curare_sexpr::Sexpr;

use crate::ast::{BuiltinOp, Expr, Func, LocalSlot, StructOp, VarRef};
use crate::lower::builtin_foldable;
use crate::value::{SymId, Value};

// ----------------------------------------------------------------
// The type lattice
// ----------------------------------------------------------------

/// The HIR type lattice: `Bot < {Nil ≤ Bool, Int, Float, Cons,
/// Struct, Sym, Str} < Any`.
///
/// `Bot` is "no value yet" (an unbound `let` slot before its binding
/// executes); `Nil` is the singleton type of `nil`, a subtype of
/// `Bool` so that predicate joins stay precise; `Any` is the top.
/// Only `Int` drives codegen today, but the full lattice is recorded
/// so later passes (and diagnostics) can use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Unreachable / not yet bound.
    Bot,
    /// Exactly `nil`.
    Nil,
    /// `nil` or `t` (predicate results).
    Bool,
    /// A fixnum in the tagged 60-bit range.
    Int,
    /// A heap float.
    Float,
    /// A cons cell.
    Cons,
    /// A `defstruct` record.
    Struct,
    /// A symbol.
    Sym,
    /// A heap string.
    Str,
    /// Anything.
    Any,
}

impl Ty {
    /// Least upper bound.
    pub fn join(self, other: Ty) -> Ty {
        use Ty::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Bot, x) | (x, Bot) => x,
            (Nil, Bool) | (Bool, Nil) => Bool,
            _ => Any,
        }
    }

    /// Lattice order: `self ≤ other`.
    pub fn le(self, other: Ty) -> bool {
        self.join(other) == other
    }
}

// ----------------------------------------------------------------
// The IR
// ----------------------------------------------------------------

/// A typed HIR expression: a desugared [`Expr`] shape plus the type
/// its value is proven to have.
#[derive(Debug, Clone, PartialEq)]
pub struct HExpr {
    /// Proven value type (set by [`infer_body`]; `Any` before).
    pub ty: Ty,
    /// The desugared expression.
    pub kind: HKind,
}

impl HExpr {
    fn new(kind: HKind) -> HExpr {
        HExpr { ty: Ty::Any, kind }
    }
}

/// Desugared expression shapes. Compared to [`Expr`]: no `cond`-era
/// sugar survives the lowerer already, and here `let*` is gone
/// (nested single-binding `let`s) so `Let` is always parallel.
#[derive(Debug, Clone, PartialEq)]
pub enum HKind {
    /// `nil`
    Nil,
    /// `t`
    T,
    /// Integer literal (always within the tagged 60-bit range — the
    /// desugarer leaves out-of-range literals as [`HKind::RaiseInt`]).
    Int(i64),
    /// Integer literal outside the fixnum range: raises `Overflow`
    /// on evaluation, like the tree-walker.
    RaiseInt,
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Quoted datum, built fresh per execution.
    Quote(Sexpr),
    /// Variable reference.
    Var(VarRef, String),
    /// Assignment; evaluates to the new value.
    Setq(VarRef, String, Box<HExpr>),
    /// Two-way branch.
    If(Box<HExpr>, Box<HExpr>, Box<HExpr>),
    /// Sequence; never empty, never a single form (desugared away).
    Progn(Vec<HExpr>),
    /// Short-circuit conjunction; always ≥ 2 forms after desugaring.
    And(Vec<HExpr>),
    /// Short-circuit disjunction; always ≥ 2 forms after desugaring.
    Or(Vec<HExpr>),
    /// Parallel `let` (sequential `let*` desugars to nesting).
    Let {
        /// `(slot, name, init)` triples.
        bindings: Vec<(LocalSlot, String, HExpr)>,
        /// Body forms.
        body: Vec<HExpr>,
    },
    /// Loop; evaluates to nil.
    While(Box<HExpr>, Vec<HExpr>),
    /// Call to a named function.
    Call {
        /// Callee symbol.
        name: SymId,
        /// Callee text for diagnostics.
        name_text: String,
        /// Arguments.
        args: Vec<HExpr>,
    },
    /// Primitive application.
    Builtin(BuiltinOp, Vec<HExpr>),
    /// Struct-type operation.
    Struct(StructOp, Vec<HExpr>),
    /// Closure template; the body compiles separately (its own HIR
    /// lowering happens when the template first reaches `compile`).
    Lambda {
        /// The anonymous function.
        func: Arc<Func>,
        /// Enclosing-frame slots captured by value.
        captures: Vec<LocalSlot>,
    },
    /// `#'f`.
    FuncRef(SymId, String),
    /// `(future (f ...))`.
    Future {
        /// Callee symbol.
        name: SymId,
        /// Callee text.
        name_text: String,
        /// Arguments.
        args: Vec<HExpr>,
    },
    /// `(cri-enqueue ...)` / `(cri-handoff ...)`; evaluates to nil.
    Enqueue {
        /// Call-site index.
        site: usize,
        /// Callee symbol.
        name: SymId,
        /// Callee text.
        name_text: String,
        /// Arguments.
        args: Vec<HExpr>,
        /// `cri-handoff`: publish at once.
        handoff: bool,
    },
    /// `(cri-lock ...)` / `(cri-unlock ...)`; evaluates to nil.
    LockOp {
        /// True to lock.
        lock: bool,
        /// The cell expression.
        base: Box<HExpr>,
        /// Field code.
        field: u32,
        /// Exclusive (write) vs shared (read).
        exclusive: bool,
    },
}

/// Frame geometry needed by type inference.
#[derive(Debug, Clone, Copy)]
pub struct FrameInfo {
    /// Captured slots (always `Any`).
    pub ncaptures: usize,
    /// Parameter count (parameters are `Any`).
    pub nparams: usize,
    /// Total frame slots.
    pub nslots: usize,
}

impl FrameInfo {
    /// Geometry of `func`'s frame.
    pub fn of(func: &Func) -> FrameInfo {
        FrameInfo { ncaptures: func.ncaptures, nparams: func.params.len(), nslots: func.nslots }
    }
}

/// Desugar and type a function body: the full HIR stage as `compile`
/// consumes it.
pub fn lower_body(func: &Func) -> Vec<HExpr> {
    let mut body: Vec<HExpr> = func.body.iter().map(desugar).collect();
    infer_body(&mut body, &FrameInfo::of(func));
    body
}

// ----------------------------------------------------------------
// Desugar rules
// ----------------------------------------------------------------

/// True when `h` is a literal whose evaluation has no effect and
/// cannot fail — droppable in discard position, usable for
/// branch folding.
fn effect_free_literal(h: &HExpr) -> bool {
    matches!(h.kind, HKind::Nil | HKind::T | HKind::Int(_))
}

/// Literal truthiness, when statically known.
fn literal_truth(h: &HExpr) -> Option<bool> {
    match h.kind {
        HKind::Nil => Some(false),
        HKind::T | HKind::Int(_) => Some(true),
        _ => None,
    }
}

/// Desugar one lowered expression into untyped HIR (types are filled
/// in by [`infer_body`]).
pub fn desugar(e: &Expr) -> HExpr {
    let kind = match e {
        Expr::Nil => HKind::Nil,
        Expr::T => HKind::T,
        // Rule `int-range`: in-range integers are literals;
        // out-of-range ones keep the tree-walker's evaluate-time
        // overflow error.
        Expr::Int(i) => match Value::int_checked(*i) {
            Some(_) => HKind::Int(*i),
            None => HKind::RaiseInt,
        },
        Expr::Float(x) => HKind::Float(*x),
        Expr::Str(s) => HKind::Str(s.clone()),
        // Rule `quote-atom`: quoted self-evaluating atoms become
        // literals (quoted conses/symbols still build per execution).
        Expr::Quote(d) => match d {
            Sexpr::Int(i) if Value::int_checked(*i).is_some() => HKind::Int(*i),
            Sexpr::Sym(s) if s == "nil" => HKind::Nil,
            Sexpr::Sym(s) if s == "t" => HKind::T,
            Sexpr::List(items) if items.is_empty() => HKind::Nil,
            _ => HKind::Quote(d.clone()),
        },
        Expr::Var(vr, name) => HKind::Var(*vr, name.clone()),
        Expr::Setq(vr, name, rhs) => HKind::Setq(*vr, name.clone(), Box::new(desugar(rhs))),
        // Rule `if-literal`: a literal condition selects its branch.
        Expr::If(c, t, f) => {
            let (c, t, f) = (desugar(c), desugar(t), desugar(f));
            match literal_truth(&c) {
                Some(true) => return t,
                Some(false) => return f,
                None => HKind::If(Box::new(c), Box::new(t), Box::new(f)),
            }
        }
        Expr::Progn(es) => return desugar_progn(es.iter().map(desugar).collect()),
        Expr::And(es) => return desugar_and(es.iter().map(desugar).collect()),
        Expr::Or(es) => return desugar_or(es.iter().map(desugar).collect()),
        // Rule `let*-split`: sequential lets become nested
        // single-binding lets (sound because each init resolves only
        // to *earlier* slots — the lowerer scopes a binding's own slot
        // in after its init).
        Expr::Let { bindings, body, sequential } => {
            let body_h = desugar_body(body);
            if *sequential && bindings.len() > 1 {
                let mut inner: Vec<HExpr> = body_h;
                for (slot, name, init) in bindings.iter().rev() {
                    let le = HExpr::new(HKind::Let {
                        bindings: vec![(*slot, name.clone(), desugar(init))],
                        body: inner,
                    });
                    inner = vec![le];
                }
                return inner.pop().expect("nonempty: bindings.len() > 1");
            }
            if bindings.is_empty() {
                // Rule `let-empty`: no bindings is just a body sequence.
                return desugar_progn(body_h);
            }
            HKind::Let {
                bindings: bindings.iter().map(|(s, n, i)| (*s, n.clone(), desugar(i))).collect(),
                body: body_h,
            }
        }
        Expr::While(c, body) => HKind::While(Box::new(desugar(c)), desugar_body(body)),
        Expr::Call { name, name_text, args } => HKind::Call {
            name: *name,
            name_text: name_text.clone(),
            args: args.iter().map(desugar).collect(),
        },
        Expr::Builtin(op, args) => {
            let args_h: Vec<HExpr> = args.iter().map(desugar).collect();
            // Rule `const-fold`: pure builtins over integer literals.
            if let Some(v) = fold_builtin(*op, &args_h) {
                return v;
            }
            HKind::Builtin(*op, args_h)
        }
        Expr::Struct(op, args) => HKind::Struct(*op, args.iter().map(desugar).collect()),
        Expr::Lambda { func, captures } => {
            HKind::Lambda { func: Arc::clone(func), captures: captures.clone() }
        }
        Expr::FuncRef(sym, text) => HKind::FuncRef(*sym, text.clone()),
        Expr::Future { name, name_text, args } => HKind::Future {
            name: *name,
            name_text: name_text.clone(),
            args: args.iter().map(desugar).collect(),
        },
        Expr::Enqueue { site, name, name_text, args, handoff } => HKind::Enqueue {
            site: *site,
            name: *name,
            name_text: name_text.clone(),
            args: args.iter().map(desugar).collect(),
            handoff: *handoff,
        },
        Expr::LockOp { lock, base, field, exclusive } => HKind::LockOp {
            lock: *lock,
            base: Box::new(desugar(base)),
            field: *field,
            exclusive: *exclusive,
        },
    };
    HExpr::new(kind)
}

fn desugar_body(body: &[Expr]) -> Vec<HExpr> {
    body.iter().map(desugar).collect()
}

/// Rule `progn-flatten`: nested `progn`s flatten, effect-free
/// literals in discard position drop, empty is `nil`, and a single
/// form dissolves the wrapper.
fn desugar_progn(es: Vec<HExpr>) -> HExpr {
    let mut out = Vec::with_capacity(es.len());
    let n = es.len();
    for (i, h) in es.into_iter().enumerate() {
        let last = i + 1 == n;
        match h.kind {
            HKind::Progn(inner) => {
                out.extend(inner);
                // A nested progn is never empty post-desugar, so the
                // last element's value carries through.
            }
            _ if !last && effect_free_literal(&h) => {}
            _ if !last && matches!(h.kind, HKind::Var(VarRef::Local(_), _)) => {
                // Rule `progn-drop`: reading a plain (non-captured)
                // local for effect is a no-op. Captured slots need the
                // checked load (they can be legitimately unbound), so
                // only drop when the reference cannot be a capture —
                // conservatively, never drop Var reads here unless the
                // compiler proves it; keep the read.
                out.push(h);
            }
            _ => out.push(h),
        }
    }
    match out.len() {
        0 => HExpr::new(HKind::Nil),
        1 => out.pop().expect("len checked"),
        _ => HExpr::new(HKind::Progn(out)),
    }
}

/// Rule `and-flatten`: nested `and`s flatten (short-circuit and value
/// semantics are preserved: a nested `and` yielding nil stops the
/// outer chain, any other yield continues it). Truthy literals in
/// non-final position drop; a literal nil truncates the chain. Empty
/// is `t`, a single form dissolves.
fn desugar_and(es: Vec<HExpr>) -> HExpr {
    let mut out: Vec<HExpr> = Vec::with_capacity(es.len());
    let n = es.len();
    let mut truncated = false;
    for (i, h) in es.into_iter().enumerate() {
        if truncated {
            break;
        }
        let last = i + 1 == n;
        match h.kind {
            HKind::And(inner) if !last => out.extend(inner),
            _ if !last && literal_truth(&h) == Some(true) => {}
            _ => {
                if !last && literal_truth(&h) == Some(false) {
                    // Later forms are dead; the chain's value is nil.
                    truncated = true;
                }
                out.push(h);
            }
        }
    }
    match out.len() {
        0 => HExpr::new(HKind::T),
        1 => out.pop().expect("len checked"),
        _ => HExpr::new(HKind::And(out)),
    }
}

/// Rule `or-flatten`: the dual of `and-flatten`. Literal nils in
/// non-final position drop; a truthy literal truncates. Empty is
/// `nil`, a single form dissolves.
fn desugar_or(es: Vec<HExpr>) -> HExpr {
    let mut out: Vec<HExpr> = Vec::with_capacity(es.len());
    let n = es.len();
    let mut truncated = false;
    for (i, h) in es.into_iter().enumerate() {
        if truncated {
            break;
        }
        let last = i + 1 == n;
        match h.kind {
            HKind::Or(inner) if !last => out.extend(inner),
            _ if !last && literal_truth(&h) == Some(false) => {}
            _ => {
                if !last && literal_truth(&h) == Some(true) {
                    truncated = true;
                }
                out.push(h);
            }
        }
    }
    match out.len() {
        0 => HExpr::new(HKind::Nil),
        1 => out.pop().expect("len checked"),
        _ => HExpr::new(HKind::Or(out)),
    }
}

// ----------------------------------------------------------------
// Constant folding
// ----------------------------------------------------------------

/// Fold a pure builtin over integer literals, mirroring
/// `builtins.rs` exactly (`fold_arith` reduction order, unit values,
/// unary inversion, `compare_chain` adjacency). Returns `None` — the
/// application stays residual — whenever evaluation could error
/// (overflow, division by zero) or the operator isn't in the pure
/// integer-closed set, so runtime error identity and ordering are
/// untouched.
fn fold_builtin(op: BuiltinOp, args: &[HExpr]) -> Option<HExpr> {
    use BuiltinOp::*;
    if !builtin_foldable(op) {
        return None;
    }
    let mut ints = Vec::with_capacity(args.len());
    for a in args {
        match a.kind {
            HKind::Int(i) => ints.push(i),
            _ => return None,
        }
    }
    let reduce = |int_op: fn(i64, i64) -> Option<i64>, unit: i64, unary_inverts: bool| {
        if ints.is_empty() {
            return Some(unit);
        }
        let mut vals = ints.clone();
        if vals.len() == 1 && unary_inverts {
            vals.insert(0, unit);
        }
        let mut acc = vals[0];
        for &b in &vals[1..] {
            acc = int_op(acc, b)?;
        }
        Some(acc)
    };
    let chain = |icmp: fn(i64, i64) -> bool| {
        Some(HExpr::new(if ints.windows(2).all(|p| icmp(p[0], p[1])) {
            HKind::T
        } else {
            HKind::Nil
        }))
    };
    let int_lit = |i: i64| Value::int_checked(i).map(|_| HExpr::new(HKind::Int(i)));
    let bool_lit = |b: bool| Some(HExpr::new(if b { HKind::T } else { HKind::Nil }));
    match op {
        Add => int_lit(reduce(i64::checked_add, 0, false)?),
        Sub if !ints.is_empty() => int_lit(reduce(i64::checked_sub, 0, true)?),
        Mul => int_lit(reduce(i64::checked_mul, 1, false)?),
        Min if !ints.is_empty() => int_lit(reduce(|a, b| Some(a.min(b)), 0, false)?),
        Max if !ints.is_empty() => int_lit(reduce(|a, b| Some(a.max(b)), 0, false)?),
        Abs if ints.len() == 1 => int_lit(ints[0].checked_abs()?),
        Add1 if ints.len() == 1 => int_lit(ints[0].checked_add(1)?),
        Sub1 if ints.len() == 1 => int_lit(ints[0].checked_sub(1)?),
        Lt => chain(|a, b| a < b),
        Gt => chain(|a, b| a > b),
        Le => chain(|a, b| a <= b),
        Ge => chain(|a, b| a >= b),
        NumEq => chain(|a, b| a == b),
        NumNe => chain(|a, b| a != b),
        Eq | Eql | Equal if ints.len() == 2 => bool_lit(ints[0] == ints[1]),
        Null | Consp | Symbolp | Stringp | Functionp if ints.len() == 1 => bool_lit(false),
        Atom | Numberp if ints.len() == 1 => bool_lit(true),
        _ => None,
    }
}

// ----------------------------------------------------------------
// Type propagation
// ----------------------------------------------------------------

/// Per-slot type environment for the forward pass.
type SlotTys = Vec<Ty>;

fn join_env(a: &mut SlotTys, b: &SlotTys) -> bool {
    let mut changed = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let j = x.join(y);
        if j != *x {
            *x = j;
            changed = true;
        }
    }
    changed
}

/// Run the forward type pass over a whole body, annotating each
/// [`HExpr::ty`] in evaluation order.
pub fn infer_body(body: &mut [HExpr], frame: &FrameInfo) {
    let mut env: SlotTys = vec![Ty::Bot; frame.nslots.max(frame.ncaptures + frame.nparams)];
    for t in env.iter_mut().take(frame.ncaptures + frame.nparams) {
        *t = Ty::Any;
    }
    let cx = InferCx { ncaptures: frame.ncaptures };
    for e in body {
        cx.infer(e, &mut env);
    }
}

struct InferCx {
    ncaptures: usize,
}

impl InferCx {
    /// Infer `e`'s type under `env`, applying its effects to `env`.
    fn infer(&self, e: &mut HExpr, env: &mut SlotTys) -> Ty {
        let ty = match &mut e.kind {
            HKind::Nil => Ty::Nil,
            HKind::T => Ty::Bool,
            HKind::Int(_) => Ty::Int,
            HKind::RaiseInt => Ty::Bot,
            HKind::Float(_) => Ty::Float,
            HKind::Str(_) => Ty::Str,
            HKind::Quote(_) => Ty::Any,
            HKind::Var(VarRef::Local(slot), _) => {
                if *slot < self.ncaptures {
                    Ty::Any
                } else {
                    env.get(*slot).copied().unwrap_or(Ty::Any)
                }
            }
            HKind::Var(VarRef::Global(_), _) => Ty::Any,
            HKind::Setq(vr, _, rhs) => {
                let t = self.infer(rhs, env);
                if let VarRef::Local(slot) = vr {
                    if *slot >= self.ncaptures {
                        if let Some(s) = env.get_mut(*slot) {
                            *s = t;
                        }
                    }
                }
                t
            }
            HKind::If(c, t, f) => {
                self.infer(c, env);
                let mut env_else = env.clone();
                let tt = self.infer(t, env);
                let tf = self.infer(f, &mut env_else);
                join_env(env, &env_else);
                tt.join(tf)
            }
            HKind::Progn(es) => {
                let mut ty = Ty::Nil;
                for s in es.iter_mut() {
                    ty = self.infer(s, env);
                }
                ty
            }
            HKind::And(es) => {
                // The first form runs unconditionally; each later one
                // only when everything before was true, so its effects
                // join in rather than overwrite.
                let mut ty = Ty::Nil;
                for (i, s) in es.iter_mut().enumerate() {
                    if i == 0 {
                        self.infer(s, env);
                    } else {
                        let mut taken = env.clone();
                        ty = self.infer(s, &mut taken);
                        join_env(env, &taken);
                    }
                }
                // Result: nil from any short-circuit, or the last
                // form's value.
                Ty::Nil.join(ty)
            }
            HKind::Or(es) => {
                let mut ty = Ty::Bot;
                for (i, s) in es.iter_mut().enumerate() {
                    if i == 0 {
                        ty = self.infer(s, env);
                    } else {
                        let mut taken = env.clone();
                        ty = ty.join(self.infer(s, &mut taken));
                        join_env(env, &taken);
                    }
                }
                ty
            }
            HKind::Let { bindings, body } => {
                // Parallel: all inits run against the pre-binding env.
                let mut tys = Vec::with_capacity(bindings.len());
                for (_, _, init) in bindings.iter_mut() {
                    tys.push(self.infer(init, env));
                }
                for ((slot, _, _), t) in bindings.iter().zip(tys) {
                    if *slot >= self.ncaptures {
                        if let Some(s) = env.get_mut(*slot) {
                            *s = t;
                        }
                    }
                }
                let mut ty = Ty::Nil;
                for s in body.iter_mut() {
                    ty = self.infer(s, env);
                }
                ty
            }
            HKind::While(c, body) => {
                // Fixpoint: the body may run any number of times.
                loop {
                    let mut round = env.clone();
                    self.infer(c, &mut round);
                    for s in body.iter_mut() {
                        self.infer(s, &mut round);
                    }
                    if !join_env(env, &round) {
                        break;
                    }
                }
                // Exit path: the condition runs once more; annotations
                // from the final fixpoint round above are already
                // sound for it.
                self.infer(c, env);
                Ty::Nil
            }
            HKind::Call { args, .. } | HKind::Future { args, .. } => {
                for a in args.iter_mut() {
                    self.infer(a, env);
                }
                Ty::Any
            }
            HKind::Enqueue { args, .. } => {
                for a in args.iter_mut() {
                    self.infer(a, env);
                }
                Ty::Nil
            }
            HKind::Builtin(op, args) => {
                let mut arg_tys = Vec::with_capacity(args.len());
                for a in args.iter_mut() {
                    arg_tys.push(self.infer(a, env));
                }
                builtin_result_ty(*op, &arg_tys)
            }
            HKind::Struct(op, args) => {
                for a in args.iter_mut() {
                    self.infer(a, env);
                }
                match op {
                    StructOp::Make { .. } => Ty::Struct,
                    StructOp::Pred { .. } => Ty::Bool,
                    StructOp::Ref { .. } | StructOp::Set { .. } => Ty::Any,
                }
            }
            HKind::Lambda { .. } | HKind::FuncRef(..) => Ty::Any,
            HKind::LockOp { base, .. } => {
                self.infer(base, env);
                Ty::Nil
            }
        };
        e.ty = ty;
        ty
    }
}

/// Result type of a builtin application given argument types —
/// mirrors `builtins.rs`: all-integer arithmetic raises on overflow
/// instead of widening, so `Int` in means `Int` out; any float mixes
/// to `Float` via contagion; predicates are boolean.
pub fn builtin_result_ty(op: BuiltinOp, args: &[Ty]) -> Ty {
    use BuiltinOp::*;
    let all_int = !args.is_empty() && args.iter().all(|&t| t == Ty::Int);
    let numericish =
        args.iter().all(|&t| t == Ty::Int || t == Ty::Float) && args.contains(&Ty::Float);
    match op {
        Add | Sub | Mul | Div => {
            if all_int || args.is_empty() {
                Ty::Int
            } else if numericish {
                Ty::Float
            } else {
                Ty::Any
            }
        }
        Mod => Ty::Int,
        Abs | Add1 | Sub1 => {
            if all_int {
                Ty::Int
            } else if numericish {
                Ty::Float
            } else {
                Ty::Any
            }
        }
        Min | Max => {
            if all_int {
                Ty::Int
            } else if args.iter().all(|&t| t == Ty::Float) {
                Ty::Float
            } else {
                Ty::Any
            }
        }
        Lt | Gt | Le | Ge | NumEq | NumNe | Null | Eq | Eql | Equal | Atom | Consp | Symbolp
        | Numberp | Stringp | Functionp => Ty::Bool,
        Cons => Ty::Cons,
        Length | HashCount | VectorLength => Ty::Int,
        AtomicIncfGlobal | AtomicIncfCell => Ty::Int,
        Gensym => Ty::Sym,
        Identity => args.first().copied().unwrap_or(Ty::Any),
        SetCar | SetCdr => args.get(1).copied().unwrap_or(Ty::Any),
        List => {
            if args.is_empty() {
                Ty::Nil
            } else {
                Ty::Cons
            }
        }
        _ => Ty::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;
    use crate::lower::Lowerer;
    use curare_sexpr::parse_one;

    fn desugar_src(src: &str) -> HExpr {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let ast = lw.lower_expr(&parse_one(src).unwrap()).unwrap();
        desugar(&ast)
    }

    fn lower_defun(src: &str) -> Vec<HExpr> {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let forms = curare_sexpr::parse_all(src).unwrap();
        let prog = lw.lower_program(&forms).unwrap();
        lower_body(&prog.funcs[0])
    }

    #[test]
    fn and_flattens_and_simplifies() {
        // Nested and chains flatten; truthy literals drop.
        let h = desugar_src("(and (and a b) 5 c)");
        let HKind::And(es) = &h.kind else { panic!("expected and, got {h:?}") };
        assert_eq!(es.len(), 3, "a b c survive: {es:?}");
        // Singleton dissolves.
        let h = desugar_src("(and a)");
        assert!(matches!(h.kind, HKind::Var(..)), "{h:?}");
        // Empty is t.
        assert_eq!(desugar_src("(and)").kind, HKind::T);
        // A literal nil truncates the chain.
        let h = desugar_src("(and a nil b)");
        let HKind::And(es) = &h.kind else { panic!("expected and, got {h:?}") };
        assert_eq!(es.len(), 2);
        assert_eq!(es[1].kind, HKind::Nil);
    }

    #[test]
    fn or_flattens_and_simplifies() {
        let h = desugar_src("(or (or a b) nil c)");
        let HKind::Or(es) = &h.kind else { panic!("expected or, got {h:?}") };
        assert_eq!(es.len(), 3);
        assert_eq!(desugar_src("(or)").kind, HKind::Nil);
        let h = desugar_src("(or a 5 b)");
        let HKind::Or(es) = &h.kind else { panic!("expected or, got {h:?}") };
        assert_eq!(es.len(), 2, "truthy literal truncates: {es:?}");
    }

    #[test]
    fn progn_flattens() {
        let h = desugar_src("(progn (progn 1 a) b)");
        let HKind::Progn(es) = &h.kind else { panic!("expected progn, got {h:?}") };
        // 1 drops (effect-free non-final), a and b stay.
        assert_eq!(es.len(), 2);
        assert!(matches!(desugar_src("(progn)").kind, HKind::Nil));
        assert!(matches!(desugar_src("(progn a)").kind, HKind::Var(..)));
    }

    #[test]
    fn let_star_splits_into_nested_lets() {
        let h = desugar_src("(let* ((x 1) (y (+ x 1))) y)");
        let HKind::Let { bindings, body } = &h.kind else { panic!("expected let, got {h:?}") };
        assert_eq!(bindings.len(), 1, "outer binds only x");
        let HKind::Let { bindings: inner, .. } = &body[0].kind else {
            panic!("expected nested let, got {:?}", body[0])
        };
        assert_eq!(inner.len(), 1, "inner binds only y");
    }

    #[test]
    fn if_literal_condition_folds() {
        assert!(matches!(desugar_src("(if t a b)").kind, HKind::Var(_, ref n) if n == "a"));
        assert!(matches!(desugar_src("(if nil a b)").kind, HKind::Var(_, ref n) if n == "b"));
        assert!(matches!(desugar_src("(if 7 a b)").kind, HKind::Var(_, ref n) if n == "a"));
        // Computed conditions stay.
        assert!(matches!(desugar_src("(if c a b)").kind, HKind::If(..)));
    }

    #[test]
    fn constant_folding_matches_runtime_semantics() {
        assert_eq!(desugar_src("(+ 1 2 3)").kind, HKind::Int(6));
        assert_eq!(desugar_src("(- 5)").kind, HKind::Int(-5));
        assert_eq!(desugar_src("(* 2 3 4)").kind, HKind::Int(24));
        assert_eq!(desugar_src("(min 3 1 2)").kind, HKind::Int(1));
        assert_eq!(desugar_src("(1+ 41)").kind, HKind::Int(42));
        assert_eq!(desugar_src("(< 1 2 3)").kind, HKind::T);
        assert_eq!(desugar_src("(< 1 3 2)").kind, HKind::Nil);
        assert_eq!(desugar_src("(eq 4 4)").kind, HKind::T);
        assert_eq!(desugar_src("(null 4)").kind, HKind::Nil);
        assert_eq!(desugar_src("(numberp 4)").kind, HKind::T);
        // (if (< 1 2) a b) folds all the way to a.
        assert!(matches!(desugar_src("(if (< 1 2) a b)").kind, HKind::Var(_, ref n) if n == "a"));
    }

    #[test]
    fn folding_preserves_errors() {
        // Overflow stays residual (the runtime raises).
        let max = (1i64 << 59) - 1;
        let h = desugar_src(&format!("(+ {max} 1)"));
        assert!(matches!(h.kind, HKind::Builtin(BuiltinOp::Add, _)), "{h:?}");
        // Division is never folded blind: (/ 1 0) must raise at runtime.
        let h = desugar_src("(/ 1 0)");
        assert!(matches!(h.kind, HKind::Builtin(BuiltinOp::Div, _)), "{h:?}");
        // Non-literal args stay residual.
        let h = desugar_src("(+ x 1)");
        assert!(matches!(h.kind, HKind::Builtin(BuiltinOp::Add, _)), "{h:?}");
    }

    #[test]
    fn quoted_atoms_become_literals() {
        assert_eq!(desugar_src("'42").kind, HKind::Int(42));
        assert_eq!(desugar_src("'nil").kind, HKind::Nil);
        assert_eq!(desugar_src("'t").kind, HKind::T);
        assert_eq!(desugar_src("'()").kind, HKind::Nil);
        // Quoted structure still builds per execution.
        assert!(matches!(desugar_src("'(1 2)").kind, HKind::Quote(_)));
        assert!(matches!(desugar_src("'x").kind, HKind::Quote(_)));
    }

    #[test]
    fn types_flow_through_lets_and_setq() {
        let body = lower_defun("(defun f (n) (let ((x 1)) (setq x (+ x 1)) (+ x 2)))");
        // The final (+ x 2) sees x: Int and is typed Int.
        let HKind::Let { body: lb, .. } = &body[0].kind else { panic!("{body:?}") };
        let last = lb.last().unwrap();
        assert_eq!(last.ty, Ty::Int, "{last:?}");
    }

    #[test]
    fn params_are_any_and_join_widens() {
        let body = lower_defun("(defun f (n) (let ((x (if n 1 2.0))) x))");
        let HKind::Let { bindings, body: lb } = &body[0].kind else { panic!("{body:?}") };
        assert_eq!(bindings[0].2.ty, Ty::Any, "int/float join is any");
        assert_eq!(lb.last().unwrap().ty, Ty::Any);
        let body = lower_defun("(defun g (n) (+ n 1))");
        assert_eq!(body[0].ty, Ty::Any, "param-typed arithmetic is unproven");
    }

    #[test]
    fn while_reaches_fixpoint() {
        // x starts Int but is widened by the float assignment in the
        // loop body; after the loop x must be Any, not Int.
        let body = lower_defun("(defun f (n) (let ((x 1)) (while n (setq x 1.5)) x))");
        let HKind::Let { body: lb, .. } = &body[0].kind else { panic!("{body:?}") };
        assert_eq!(lb.last().unwrap().ty, Ty::Any);
        // A loop that keeps x Int proves Int after.
        let body = lower_defun("(defun g (n) (let ((x 1)) (while n (setq x (+ x 1))) x))");
        let HKind::Let { body: lb, .. } = &body[0].kind else { panic!("{body:?}") };
        assert_eq!(lb.last().unwrap().ty, Ty::Int);
    }

    #[test]
    fn branch_types_join() {
        let body = lower_defun("(defun f (n) (if n 1 2))");
        assert_eq!(body[0].ty, Ty::Int);
        let body = lower_defun("(defun f (n) (if n 1 nil))");
        assert_eq!(body[0].ty, Ty::Any, "int/nil joins to any");
        let body = lower_defun("(defun f (n) (if n (null n) t))");
        assert_eq!(body[0].ty, Ty::Bool, "nil≤bool keeps predicate joins");
    }

    #[test]
    fn lattice_join_laws() {
        use Ty::*;
        let all = [Bot, Nil, Bool, Int, Float, Cons, Struct, Sym, Str, Any];
        for &a in &all {
            assert_eq!(a.join(a), a);
            assert_eq!(a.join(Bot), a);
            assert_eq!(a.join(Any), Any);
            for &b in &all {
                assert_eq!(a.join(b), b.join(a), "commutative {a:?} {b:?}");
                assert!(a.le(a.join(b)), "upper bound {a:?} {b:?}");
            }
        }
        assert_eq!(Nil.join(Bool), Bool);
        assert_eq!(Int.join(Float), Any);
    }
}
