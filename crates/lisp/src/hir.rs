//! High-level IR: the desugar and constant-fold stage between
//! [`crate::lower`] and [`crate::compile`].
//!
//! The lowerer produces [`Expr`] trees that the tree-walker evaluates
//! directly — that keeps the oracle simple, but it leaves the bytecode
//! compiler consuming a surface-shaped tree. [`desugar`] rewrites it
//! into the shapes `compile.rs` emits from: `let*` chains become nested
//! single-binding `let`s, nested `and`/`or`/`progn` chains flatten,
//! trivial wrappers (`(and x)`, one-form `progn`s) dissolve, quoted
//! atoms become literals, and pure builtins over integer literals
//! constant-fold — *only* when folding provably succeeds with the same
//! result the runtime would produce (anything that could raise
//! `Overflow`/`DivideByZero` is left for execution, preserving error
//! identity and ordering).
//!
//! The HIR carries no types: the VM's arithmetic ops test the integer
//! tag themselves (`vm::bin_op`), which costs what a proof would save.
//!
//! `tests/interp_properties.rs` holds the desugared program on the VM
//! to the lowered tree on the tree-walker over generated sugar.

use std::sync::Arc;

use curare_sexpr::{Sexpr, Symbol};

use crate::ast::{BuiltinOp, Expr, Func, LocalSlot, StructOp, VarRef};
use crate::lower::builtin_foldable;
use crate::value::{SymId, Value};

// ----------------------------------------------------------------
// The IR
// ----------------------------------------------------------------

/// Desugared expression shapes. Compared to [`Expr`]: no `cond`-era
/// sugar survives the lowerer already, and here `let*` is gone
/// (nested single-binding `let`s) so `Let` is always parallel.
#[derive(Debug, Clone, PartialEq)]
pub enum HExpr {
    /// `nil`
    Nil,
    /// `t`
    T,
    /// Integer literal (always within the tagged 60-bit range — the
    /// desugarer leaves out-of-range literals as [`HExpr::RaiseInt`]).
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
    Var(VarRef, Symbol),
    /// Assignment; evaluates to the new value.
    Setq(VarRef, Symbol, Box<HExpr>),
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
        bindings: Vec<(LocalSlot, Symbol, HExpr)>,
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
        name_text: Symbol,
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
    FuncRef(SymId, Symbol),
    /// `(future (f ...))`.
    Future {
        /// Callee symbol.
        name: SymId,
        /// Callee text.
        name_text: Symbol,
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
        name_text: Symbol,
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

/// Desugar a function body: the HIR stage as `compile` consumes it.
pub fn lower_body(func: &Func) -> Vec<HExpr> {
    desugar_body(&func.body)
}

// ----------------------------------------------------------------
// Desugar rules
// ----------------------------------------------------------------

/// True when `h` is a literal whose evaluation has no effect and
/// cannot fail — droppable in discard position, usable for
/// branch folding.
fn effect_free_literal(h: &HExpr) -> bool {
    matches!(h, HExpr::Nil | HExpr::T | HExpr::Int(_))
}

/// Literal truthiness, when statically known.
fn literal_truth(h: &HExpr) -> Option<bool> {
    match h {
        HExpr::Nil => Some(false),
        HExpr::T | HExpr::Int(_) => Some(true),
        _ => None,
    }
}

/// Desugar one lowered expression into HIR.
pub fn desugar(e: &Expr) -> HExpr {
    match e {
        Expr::Nil => HExpr::Nil,
        Expr::T => HExpr::T,
        // Rule `int-range`: in-range integers are literals;
        // out-of-range ones keep the tree-walker's evaluate-time
        // overflow error.
        Expr::Int(i) => match Value::int_checked(*i) {
            Some(_) => HExpr::Int(*i),
            None => HExpr::RaiseInt,
        },
        Expr::Float(x) => HExpr::Float(*x),
        Expr::Str(s) => HExpr::Str(s.clone()),
        // Rule `quote-atom`: quoted self-evaluating atoms become
        // literals (quoted conses/symbols still build per execution).
        Expr::Quote(d) => match d {
            Sexpr::Int(i) if Value::int_checked(*i).is_some() => HExpr::Int(*i),
            Sexpr::Sym(s) if *s == "nil" => HExpr::Nil,
            Sexpr::Sym(s) if *s == "t" => HExpr::T,
            Sexpr::List(items) if items.is_empty() => HExpr::Nil,
            _ => HExpr::Quote(d.clone()),
        },
        Expr::Var(vr, name) => HExpr::Var(*vr, *name),
        Expr::Setq(vr, name, rhs) => HExpr::Setq(*vr, *name, Box::new(desugar(rhs))),
        // Rule `if-literal`: a literal condition selects its branch.
        Expr::If(c, t, f) => {
            let (c, t, f) = (desugar(c), desugar(t), desugar(f));
            match literal_truth(&c) {
                Some(true) => t,
                Some(false) => f,
                None => HExpr::If(Box::new(c), Box::new(t), Box::new(f)),
            }
        }
        Expr::Progn(es) => desugar_progn(desugar_body(es)),
        Expr::And(es) => desugar_and(desugar_body(es)),
        Expr::Or(es) => desugar_or(desugar_body(es)),
        // Rule `let*-split`: sequential lets become nested
        // single-binding lets (sound because each init resolves only
        // to *earlier* slots — the lowerer scopes a binding's own slot
        // in after its init).
        Expr::Let { bindings, body, sequential } => {
            let body_h = desugar_body(body);
            if *sequential && bindings.len() > 1 {
                let mut inner: Vec<HExpr> = body_h;
                for (slot, name, init) in bindings.iter().rev() {
                    let le =
                        HExpr::Let { bindings: vec![(*slot, *name, desugar(init))], body: inner };
                    inner = vec![le];
                }
                inner.pop().expect("nonempty: bindings.len() > 1")
            } else if bindings.is_empty() {
                // Rule `let-empty`: no bindings is just a body sequence.
                desugar_progn(body_h)
            } else {
                HExpr::Let {
                    bindings: bindings.iter().map(|(s, n, i)| (*s, *n, desugar(i))).collect(),
                    body: body_h,
                }
            }
        }
        Expr::While(c, body) => HExpr::While(Box::new(desugar(c)), desugar_body(body)),
        Expr::Call { name, name_text, args } => HExpr::Call {
            name: *name,
            name_text: *name_text,
            args: args.iter().map(desugar).collect(),
        },
        Expr::Builtin(op, args) => {
            let args_h = desugar_body(args);
            // Rule `const-fold`: pure builtins over integer literals.
            fold_builtin(*op, &args_h).unwrap_or(HExpr::Builtin(*op, args_h))
        }
        Expr::Struct(op, args) => HExpr::Struct(*op, args.iter().map(desugar).collect()),
        Expr::Lambda { func, captures } => {
            HExpr::Lambda { func: Arc::clone(func), captures: captures.clone() }
        }
        Expr::FuncRef(sym, text) => HExpr::FuncRef(*sym, *text),
        Expr::Future { name, name_text, args } => HExpr::Future {
            name: *name,
            name_text: *name_text,
            args: args.iter().map(desugar).collect(),
        },
        Expr::Enqueue { site, name, name_text, args, handoff } => HExpr::Enqueue {
            site: *site,
            name: *name,
            name_text: *name_text,
            args: args.iter().map(desugar).collect(),
            handoff: *handoff,
        },
        Expr::LockOp { lock, base, field, exclusive } => HExpr::LockOp {
            lock: *lock,
            base: Box::new(desugar(base)),
            field: *field,
            exclusive: *exclusive,
        },
    }
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
        match h {
            HExpr::Progn(inner) => {
                out.extend(inner);
                // A nested progn is never empty post-desugar, so the
                // last element's value carries through.
            }
            _ if !last && effect_free_literal(&h) => {}
            _ if !last && matches!(h, HExpr::Var(VarRef::Local(_), _)) => {
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
        0 => HExpr::Nil,
        1 => out.pop().expect("len checked"),
        _ => HExpr::Progn(out),
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
        match h {
            HExpr::And(inner) if !last => out.extend(inner),
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
        0 => HExpr::T,
        1 => out.pop().expect("len checked"),
        _ => HExpr::And(out),
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
        match h {
            HExpr::Or(inner) if !last => out.extend(inner),
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
        0 => HExpr::Nil,
        1 => out.pop().expect("len checked"),
        _ => HExpr::Or(out),
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
        match a {
            HExpr::Int(i) => ints.push(*i),
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
    let int_lit = |i: i64| Value::int_checked(i).map(|_| HExpr::Int(i));
    let bool_lit = |b: bool| Some(if b { HExpr::T } else { HExpr::Nil });
    let chain = |icmp: fn(i64, i64) -> bool| bool_lit(ints.windows(2).all(|p| icmp(p[0], p[1])));
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

    #[test]
    fn and_flattens_and_simplifies() {
        // Nested and chains flatten; truthy literals drop.
        let h = desugar_src("(and (and a b) 5 c)");
        let HExpr::And(es) = &h else { panic!("expected and, got {h:?}") };
        assert_eq!(es.len(), 3, "a b c survive: {es:?}");
        // Singleton dissolves.
        let h = desugar_src("(and a)");
        assert!(matches!(h, HExpr::Var(..)), "{h:?}");
        // Empty is t.
        assert_eq!(desugar_src("(and)"), HExpr::T);
        // A literal nil truncates the chain.
        let h = desugar_src("(and a nil b)");
        let HExpr::And(es) = &h else { panic!("expected and, got {h:?}") };
        assert_eq!(es.len(), 2);
        assert_eq!(es[1], HExpr::Nil);
    }

    #[test]
    fn or_flattens_and_simplifies() {
        let h = desugar_src("(or (or a b) nil c)");
        let HExpr::Or(es) = &h else { panic!("expected or, got {h:?}") };
        assert_eq!(es.len(), 3);
        assert_eq!(desugar_src("(or)"), HExpr::Nil);
        let h = desugar_src("(or a 5 b)");
        let HExpr::Or(es) = &h else { panic!("expected or, got {h:?}") };
        assert_eq!(es.len(), 2, "truthy literal truncates: {es:?}");
    }

    #[test]
    fn progn_flattens() {
        let h = desugar_src("(progn (progn 1 a) b)");
        let HExpr::Progn(es) = &h else { panic!("expected progn, got {h:?}") };
        // 1 drops (effect-free non-final), a and b stay.
        assert_eq!(es.len(), 2);
        assert!(matches!(desugar_src("(progn)"), HExpr::Nil));
        assert!(matches!(desugar_src("(progn a)"), HExpr::Var(..)));
    }

    #[test]
    fn let_star_splits_into_nested_lets() {
        let h = desugar_src("(let* ((x 1) (y (+ x 1))) y)");
        let HExpr::Let { bindings, body } = &h else { panic!("expected let, got {h:?}") };
        assert_eq!(bindings.len(), 1, "outer binds only x");
        let HExpr::Let { bindings: inner, .. } = &body[0] else {
            panic!("expected nested let, got {:?}", body[0])
        };
        assert_eq!(inner.len(), 1, "inner binds only y");
    }

    #[test]
    fn if_literal_condition_folds() {
        assert!(matches!(desugar_src("(if t a b)"), HExpr::Var(_, ref n) if n == "a"));
        assert!(matches!(desugar_src("(if nil a b)"), HExpr::Var(_, ref n) if n == "b"));
        assert!(matches!(desugar_src("(if 7 a b)"), HExpr::Var(_, ref n) if n == "a"));
        // Computed conditions stay.
        assert!(matches!(desugar_src("(if c a b)"), HExpr::If(..)));
    }

    #[test]
    fn constant_folding_matches_runtime_semantics() {
        assert_eq!(desugar_src("(+ 1 2 3)"), HExpr::Int(6));
        assert_eq!(desugar_src("(- 5)"), HExpr::Int(-5));
        assert_eq!(desugar_src("(* 2 3 4)"), HExpr::Int(24));
        assert_eq!(desugar_src("(min 3 1 2)"), HExpr::Int(1));
        assert_eq!(desugar_src("(1+ 41)"), HExpr::Int(42));
        assert_eq!(desugar_src("(< 1 2 3)"), HExpr::T);
        assert_eq!(desugar_src("(< 1 3 2)"), HExpr::Nil);
        assert_eq!(desugar_src("(eq 4 4)"), HExpr::T);
        assert_eq!(desugar_src("(null 4)"), HExpr::Nil);
        assert_eq!(desugar_src("(numberp 4)"), HExpr::T);
        // (if (< 1 2) a b) folds all the way to a.
        assert!(matches!(desugar_src("(if (< 1 2) a b)"), HExpr::Var(_, ref n) if n == "a"));
    }

    #[test]
    fn folding_preserves_errors() {
        // Overflow stays residual (the runtime raises).
        let max = (1i64 << 59) - 1;
        let h = desugar_src(&format!("(+ {max} 1)"));
        assert!(matches!(h, HExpr::Builtin(BuiltinOp::Add, _)), "{h:?}");
        // Division is never folded blind: (/ 1 0) must raise at runtime.
        let h = desugar_src("(/ 1 0)");
        assert!(matches!(h, HExpr::Builtin(BuiltinOp::Div, _)), "{h:?}");
        // Non-literal args stay residual.
        let h = desugar_src("(+ x 1)");
        assert!(matches!(h, HExpr::Builtin(BuiltinOp::Add, _)), "{h:?}");
    }

    #[test]
    fn quoted_atoms_become_literals() {
        assert_eq!(desugar_src("'42"), HExpr::Int(42));
        assert_eq!(desugar_src("'nil"), HExpr::Nil);
        assert_eq!(desugar_src("'t"), HExpr::T);
        assert_eq!(desugar_src("'()"), HExpr::Nil);
        // Quoted structure still builds per execution.
        assert!(matches!(desugar_src("'(1 2)"), HExpr::Quote(_)));
        assert!(matches!(desugar_src("'x"), HExpr::Quote(_)));
    }
}
