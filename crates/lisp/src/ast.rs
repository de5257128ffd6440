//! The lowered abstract syntax of mini-Lisp programs.
//!
//! The reader produces [`Sexpr`] data; the
//! lowerer (see [`crate::lower`]) resolves variables to frame slots,
//! desugars `cond`/`when`/`dolist`/`c[ad]+r`, and produces this AST.
//! Both the evaluator and Curare's analyses consume it: accessor
//! chains appear explicitly as nested [`BuiltinOp::Car`],
//! [`BuiltinOp::Cdr`], and [`StructOp::Ref`] applications,
//! which is exactly the path alphabet of paper §2.

use std::sync::Arc;

use crate::heap::StructType;
use crate::value::SymId;
use curare_sexpr::{Sexpr, Symbol};

/// Index of a local variable in a function's frame.
pub type LocalSlot = usize;

/// A resolved variable reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarRef {
    /// Slot in the current frame (parameters first, then `let`s).
    Local(LocalSlot),
    /// A global (`defparameter`) variable.
    Global(SymId),
}

/// Primitive operations evaluated directly by the interpreter.
///
/// `Car`/`Cdr`/`StructRef` and their setters are the accessors and
/// modifications of paper §2; everything else is ordinary Lisp
/// machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinOp {
    /// `(car x)`
    Car,
    /// `(cdr x)`
    Cdr,
    /// `(cons a d)`
    Cons,
    /// `(rplaca c v)` / `(setf (car c) v)` — returns `v`.
    SetCar,
    /// `(rplacd c v)` / `(setf (cdr c) v)` — returns `v`.
    SetCdr,
    /// n-ary `+`
    Add,
    /// n-ary `-` (unary = negation)
    Sub,
    /// n-ary `*`
    Mul,
    /// n-ary `/` (integer division on ints)
    Div,
    /// `(mod a b)`
    Mod,
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
    /// numeric `/=`
    NumNe,
    /// `(min ...)`
    Min,
    /// `(max ...)`
    Max,
    /// `(abs x)`
    Abs,
    /// `(1+ x)`
    Add1,
    /// `(1- x)`
    Sub1,
    /// `(null x)` — also `(not x)`.
    Null,
    /// `(eq a b)` — identity.
    Eq,
    /// `(eql a b)` — identity + numbers by value.
    Eql,
    /// `(equal a b)` — structural.
    Equal,
    /// `(atom x)`
    Atom,
    /// `(consp x)`
    Consp,
    /// `(symbolp x)`
    Symbolp,
    /// `(numberp x)`
    Numberp,
    /// `(stringp x)`
    Stringp,
    /// `(functionp x)`
    Functionp,
    /// `(list ...)`
    List,
    /// `(append l1 l2 ...)` — non-destructive.
    Append,
    /// `(reverse l)` — non-destructive.
    Reverse,
    /// `(length l)`
    Length,
    /// `(nth i l)`
    Nth,
    /// `(setf (nth i l) v)`
    SetNth,
    /// `(nthcdr i l)`
    Nthcdr,
    /// `(assoc k alist)` (eql test)
    Assoc,
    /// `(member x l)` (eql test)
    Member,
    /// `(last l)`
    Last,
    /// `(copy-list l)`
    CopyList,
    /// `(print x)` — writes the value and a newline to the output log.
    Print,
    /// `(princ x)` — writes without newline.
    Princ,
    /// `(terpri)` — newline.
    Terpri,
    /// `(error "msg" ...)` — raises a user error.
    ErrorOp,
    /// `(make-hash-table)`
    MakeHash,
    /// `(gethash k h)` — nil if absent.
    Gethash,
    /// `(puthash k v h)` / `(setf (gethash k h) v)`
    Puthash,
    /// `(remhash k h)`
    Remhash,
    /// `(hash-table-count h)`
    HashCount,
    /// `(make-vector n init)`
    MakeVector,
    /// `(aref v i)`
    Aref,
    /// `(aset v i x)` / `(setf (aref v i) x)`
    Aset,
    /// `(vector-length v)`
    VectorLength,
    /// `(funcall f args...)`
    Funcall,
    /// `(apply f args... list)`
    Apply,
    /// `(mapcar f l)`
    Mapcar,
    /// `(identity x)`
    Identity,
    /// `(gensym)` — fresh uninterned-ish symbol (`#:gNNN`).
    Gensym,
    /// `(random n)` — deterministic per-interp PRNG, for workloads.
    Random,
    /// `(atomic-incf place-global delta)` — CAS add on a global; the
    /// reordering device of §3.2.3 for commutative updates.
    AtomicIncfGlobal,
    /// `(atomic-incf-cell base field delta)` — CAS add on a heap
    /// location (`field`: 0 = car, 1 = cdr, 2+k = struct field k); the
    /// §3.2.3 device for commutative updates of structure fields,
    /// using the "lock-per-word" style of atomic hardware.
    AtomicIncfCell,
    /// `(touch x)` — force a future (identity for normal values).
    Touch,
}

/// Struct-type-specific operations, resolved during lowering from
/// `defstruct`-generated names (`make-node`, `node-left`, `node-p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructOp {
    /// `(make-T f1 .. fk)`
    Make { ty: u32, nfields: usize },
    /// `(T-field x)`
    Ref { ty: u32, field: usize },
    /// `(setf (T-field x) v)`
    Set { ty: u32, field: usize },
    /// `(T-p x)`
    Pred { ty: u32 },
}

/// A lowered expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `nil`
    Nil,
    /// `t`
    T,
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `(quote datum)` — builds the datum in the heap on evaluation.
    Quote(Sexpr),
    /// Variable reference; the name is kept for diagnostics/codegen.
    Var(VarRef, Symbol),
    /// `(setq var e)`; evaluates to the new value.
    Setq(VarRef, Symbol, Box<Expr>),
    /// `(if c then else)`
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `(progn e...)`; empty evaluates to nil.
    Progn(Vec<Expr>),
    /// `(and e...)` — short-circuit.
    And(Vec<Expr>),
    /// `(or e...)` — short-circuit.
    Or(Vec<Expr>),
    /// `(let ((v e)...) body...)`. `sequential` marks `let*`.
    Let {
        /// `(slot, name, init)` triples.
        bindings: Vec<(LocalSlot, Symbol, Expr)>,
        /// Body forms.
        body: Vec<Expr>,
        /// True for `let*` scoping.
        sequential: bool,
    },
    /// `(while c body...)`; evaluates to nil.
    While(Box<Expr>, Vec<Expr>),
    /// Call to a named (global) function.
    Call {
        /// Function name.
        name: SymId,
        /// Name text for diagnostics.
        name_text: Symbol,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Primitive application.
    Builtin(BuiltinOp, Vec<Expr>),
    /// Struct-type operation.
    Struct(StructOp, Vec<Expr>),
    /// `(lambda (p...) body)`; captures listed frame slots by value.
    Lambda {
        /// The anonymous function template.
        func: Arc<Func>,
        /// Slots of the *enclosing* frame captured at evaluation time.
        captures: Vec<LocalSlot>,
    },
    /// `(function f)` / `#'f` — reference to a named function.
    FuncRef(SymId, Symbol),
    /// `(future (f args...))` — spawn via the runtime hooks;
    /// sequentially, evaluates the call directly (Multilisp semantics
    /// under a serial scheduler).
    Future {
        /// Callee.
        name: SymId,
        /// Callee text.
        name_text: Symbol,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `(cri-enqueue site f args...)` — produced by the CRI transform;
    /// hands the next invocation's arguments to the scheduler instead
    /// of calling directly. Evaluates to nil. `(cri-handoff site f
    /// args...)` is the same spawn with `handoff` set: the successor
    /// should become runnable now, not when this invocation ends.
    Enqueue {
        /// Which recursive call site this is (for per-site queues, §4.1).
        site: usize,
        /// Callee.
        name: SymId,
        /// Callee text.
        name_text: Symbol,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Publish at once (`cri-handoff`) instead of at invocation end.
        handoff: bool,
    },
    /// `(cri-lock base field)` / `(cri-unlock base field)` — produced
    /// by the locking transform (§3.2.1). `field` is a field code:
    /// 0=car, 1=cdr, 2+k=struct field k.
    LockOp {
        /// True for lock, false for unlock.
        lock: bool,
        /// Expression computing the cell whose field is locked.
        base: Box<Expr>,
        /// Field code.
        field: u32,
        /// Whether a read (shared) or write (exclusive) lock suffices.
        exclusive: bool,
    },
}

impl Expr {
    /// Visit this expression and all sub-expressions, outermost first.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_children(&mut |c| c.walk(f));
    }

    /// Apply `f` to each direct child expression.
    pub fn for_children<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::Nil
            | Expr::T
            | Expr::Int(_)
            | Expr::Float(_)
            | Expr::Str(_)
            | Expr::Quote(_)
            | Expr::Var(..)
            | Expr::FuncRef(..)
            | Expr::Lambda { .. } => {}
            Expr::Setq(_, _, e) => f(e),
            Expr::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Expr::Progn(es) | Expr::And(es) | Expr::Or(es) => es.iter().for_each(f),
            Expr::Let { bindings, body, .. } => {
                bindings.iter().for_each(|(_, _, e)| f(e));
                body.iter().for_each(f);
            }
            Expr::While(c, body) => {
                f(c);
                body.iter().for_each(f);
            }
            Expr::Call { args, .. }
            | Expr::Builtin(_, args)
            | Expr::Struct(_, args)
            | Expr::Future { args, .. }
            | Expr::Enqueue { args, .. } => args.iter().for_each(f),
            Expr::LockOp { base, .. } => f(base),
        }
    }

    /// Mutable traversal of direct children.
    pub fn for_children_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Expr::Nil
            | Expr::T
            | Expr::Int(_)
            | Expr::Float(_)
            | Expr::Str(_)
            | Expr::Quote(_)
            | Expr::Var(..)
            | Expr::FuncRef(..)
            | Expr::Lambda { .. } => {}
            Expr::Setq(_, _, e) => f(e),
            Expr::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Expr::Progn(es) | Expr::And(es) | Expr::Or(es) => es.iter_mut().for_each(f),
            Expr::Let { bindings, body, .. } => {
                bindings.iter_mut().for_each(|(_, _, e)| f(e));
                body.iter_mut().for_each(f);
            }
            Expr::While(c, body) => {
                f(c);
                body.iter_mut().for_each(f);
            }
            Expr::Call { args, .. }
            | Expr::Builtin(_, args)
            | Expr::Struct(_, args)
            | Expr::Future { args, .. }
            | Expr::Enqueue { args, .. } => args.iter_mut().for_each(f),
            Expr::LockOp { base, .. } => f(base),
        }
    }

    /// Number of AST nodes; the size measure used for |H| and |T|
    /// estimates (paper §3.1 cites Sarkar-Hennessy-style cost
    /// measures; node count is our proxy).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// True if `self` contains a call (direct, future, or enqueue) to
    /// the named function.
    pub fn calls(&self, name: SymId) -> bool {
        let mut found = false;
        self.walk(&mut |e| match e {
            Expr::Call { name: n, .. }
            | Expr::Future { name: n, .. }
            | Expr::Enqueue { name: n, .. }
                if *n == name =>
            {
                found = true
            }
            _ => {}
        });
        found
    }
}

/// A lowered function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Name (empty for lambdas).
    pub name: String,
    /// Interned name symbol.
    pub name_sym: SymId,
    /// Parameter names; they occupy frame slots `ncaptures..ncaptures+params.len()`.
    pub params: Vec<String>,
    /// Number of captured slots prepended to the frame (lambdas only).
    pub ncaptures: usize,
    /// Total frame size: captures + parameters + let-bound locals.
    pub nslots: usize,
    /// Body forms, evaluated in order; the last is the result.
    pub body: Vec<Expr>,
    /// Source-level declarations attached to this function (untouched
    /// `(declare ...)` forms, consumed by the analysis crate).
    pub declarations: Vec<Sexpr>,
}

impl Func {
    /// Total AST size of the body.
    pub fn size(&self) -> usize {
        self.body.iter().map(Expr::size).sum()
    }
}

/// A lowered top-level program: function definitions, struct types,
/// global initializations, and top-level expressions in order.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Functions in definition order.
    pub funcs: Vec<Arc<Func>>,
    /// Top-level forms to evaluate (globals assignments, calls).
    pub toplevel: Vec<Expr>,
    /// Top-level `(curare-declare ...)` forms, consumed by analysis.
    pub declarations: Vec<Sexpr>,
    /// The struct types the program's `defstruct`s defined, each with
    /// the id the lowering heap gave it (the `ty` of a field access) —
    /// what a declared accessor name resolves against.
    pub structs: Vec<(u32, StructType)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(i: i64) -> Expr {
        Expr::Int(i)
    }

    #[test]
    fn walk_counts_nodes() {
        let e = Expr::If(
            Box::new(Expr::Builtin(
                BuiltinOp::Null,
                vec![Expr::Var(VarRef::Local(0), Symbol::intern("l"))],
            )),
            Box::new(Expr::Nil),
            Box::new(Expr::Builtin(BuiltinOp::Add, vec![int(1), int(2)])),
        );
        assert_eq!(e.size(), 7);
    }

    #[test]
    fn calls_detects_recursion() {
        let e = Expr::Call { name: 5, name_text: Symbol::intern("f"), args: vec![int(1)] };
        assert!(e.calls(5));
        assert!(!e.calls(6));
        let wrapped = Expr::Progn(vec![Expr::Nil, e]);
        assert!(wrapped.calls(5));
    }

    #[test]
    fn calls_sees_enqueue_and_future() {
        let name_text = Symbol::intern("f");
        let e = Expr::Enqueue { site: 0, name: 3, name_text, args: vec![], handoff: false };
        assert!(e.calls(3));
        let e = Expr::Future { name: 4, name_text: Symbol::intern("g"), args: vec![] };
        assert!(e.calls(4));
    }

    #[test]
    fn for_children_mut_replaces() {
        let mut e = Expr::Progn(vec![int(1), int(2)]);
        e.for_children_mut(&mut |c| *c = Expr::Nil);
        assert_eq!(e, Expr::Progn(vec![Expr::Nil, Expr::Nil]));
    }
}
