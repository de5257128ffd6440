//! Collecting structure accesses and modifications from a function
//! body (paper §2.1: "an analyzer must identify a set of structure
//! accessors and detect when the destination of a path used in a write
//! operation is equal to a source or target in the path of another
//! operation").
//!
//! The collector resolves `c[ad]+r` chains and struct-field chains
//! rooted at the function's parameters, following local-variable
//! aliases flow-insensitively (the paper's combination is explicitly
//! flow-insensitive, §2.1). Anything it cannot root at a parameter is
//! counted as an *unknown* access, which the transformability verdict
//! treats conservatively.

use std::collections::{BTreeMap, BTreeSet};

use curare_lisp::ast::{BuiltinOp, Expr, Func, LocalSlot, StructOp, VarRef};
use curare_lisp::SymId;
use curare_sexpr::Symbol;

use crate::path::{Accessor, Path};

/// One structure access or modification found in a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Index of the parameter the path is rooted at.
    pub root: usize,
    /// The access path from that parameter.
    pub path: Path,
    /// True for a modification (`setf`/`rplaca`/struct-set).
    pub write: bool,
    /// True when the access can execute *after* a self-recursive call
    /// in its invocation — a tail access. Heads execute in invocation
    /// order (§3.2.2), so head-only (`tail == false`) accesses are
    /// exactly the ones head ordering serializes; the lock synthesizer
    /// uses this to drop locks for pairs already ordered. The flag is
    /// conservative: a branch join or loop that *may* follow a
    /// self-call marks its accesses tail.
    pub tail: bool,
}

/// Everything the collector learned about a function's memory
/// behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessSummary {
    /// Parameter-rooted accesses.
    pub records: Vec<AccessRecord>,
    /// Reads whose root could not be resolved to a parameter.
    pub unknown_reads: usize,
    /// Writes whose root could not be resolved to a parameter —
    /// these make the function unanalyzable without declarations.
    pub unknown_writes: usize,
    /// Global variables read (paper §2: variable conflicts are the
    /// easy case — but they still are conflicts).
    pub globals_read: BTreeSet<String>,
    /// Global variables written with `setq`/`setf`. Atomic
    /// `atomic-incf` updates are *not* counted: they are the §3.2.3
    /// reordering device and carry no ordering constraint.
    pub globals_written: BTreeSet<String>,
}

impl AccessSummary {
    /// All write records.
    pub fn writes(&self) -> impl Iterator<Item = &AccessRecord> {
        self.records.iter().filter(|r| r.write)
    }

    /// All read records.
    pub fn reads(&self) -> impl Iterator<Item = &AccessRecord> {
        self.records.iter().filter(|r| !r.write)
    }
}

/// Flow-insensitive alias facts for one local slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SlotAlias {
    /// Never assigned an analyzable value (or not assigned at all).
    Unknown,
    /// Always an accessor chain from parameter `root`; the set holds
    /// every distinct assignment's path.
    Chain { root: usize, paths: BTreeSet<Path> },
}

/// Collect the access summary of `func`.
pub fn collect_accesses(func: &Func) -> AccessSummary {
    collect(&func.body.iter().collect::<Vec<_>>(), func, Scope::Function, Some(func.name_sym))
}

/// The access summary of `stmts` — nodes of defun `func`'s body — as if they
/// stood alone, in order, as the body of a function with `func`'s
/// parameters: only the parameters and the variables the statements
/// bind themselves are locals, and any other variable reads and writes
/// as the global of its name (a parameter's, if it is one's). So a
/// `setq` of a `let` variable bound around the statements is a global
/// write, and no call is a self-call. This is what lowering the
/// statements as such a function gives, without lowering them.
pub fn statement_accesses(func: &Func, stmts: &[&Expr]) -> AccessSummary {
    let mut inner = Vec::new();
    for s in stmts {
        s.walk(&mut |e| {
            if let Expr::Let { bindings, .. } = e {
                inner.extend(bindings.iter().map(|&(slot, _, _)| slot));
            }
        });
    }
    collect(stmts, func, Scope::Alone { params: &func.params, inner: &inner }, None)
}

fn collect(
    body: &[&Expr],
    func: &Func,
    scope: Scope<'_>,
    self_sym: Option<SymId>,
) -> AccessSummary {
    let aliases = Aliases::solve(body, func, scope);
    let mut out = AccessSummary::default();
    let mut cx = Cx { aliases: &aliases, self_sym, tail: false };
    for e in body {
        collect_expr(e, &mut cx, &mut out);
    }
    out
}

/// How the collector reads a variable reference of the lowered body.
#[derive(Clone, Copy)]
enum Scope<'a> {
    /// A whole function: every local is its own frame slot.
    Function,
    /// Statements read alone ([`statement_accesses`]): `inner` are the
    /// slots they bind themselves.
    Alone { params: &'a [String], inner: &'a [LocalSlot] },
}

impl Scope<'_> {
    /// The frame slot `var` (named `name`) reads here; `None` for a
    /// global. A variable bound around statements read alone is the
    /// parameter of its name, the last one if two share it, as a
    /// lowering of them would bind it — or else a global.
    fn slot(self, var: VarRef, name: Symbol) -> Option<LocalSlot> {
        match (self, var) {
            (_, VarRef::Global(_)) => None,
            (Scope::Function, VarRef::Local(s)) => Some(s),
            (Scope::Alone { params, inner }, VarRef::Local(s)) => {
                if s < params.len() || inner.contains(&s) {
                    Some(s)
                } else {
                    params.iter().rposition(|p| *p == *name)
                }
            }
        }
    }
}

/// Collection context: alias facts plus the head/tail position
/// tracker. `tail` flips to true once a self-recursive call has been
/// passed in evaluation order and stays true — branch joins thereby
/// over-approximate toward tail, which is the sound direction (a
/// head-only claim is a claim of ordering).
struct Cx<'a> {
    aliases: &'a Aliases<'a>,
    self_sym: Option<SymId>,
    tail: bool,
}

impl Cx<'_> {
    fn global(&self, var: VarRef, name: Symbol) -> bool {
        self.aliases.scope.slot(var, name).is_none()
    }
}

/// The flow-insensitive alias facts of a body, per frame slot, and the
/// scope its variables are read in.
pub(crate) struct Aliases<'a> {
    slots: BTreeMap<LocalSlot, SlotAlias>,
    scope: Scope<'a>,
}

impl Aliases<'static> {
    /// The alias facts of `func`'s whole body.
    pub(crate) fn of(func: &Func) -> Self {
        Aliases::solve(&func.body.iter().collect::<Vec<_>>(), func, Scope::Function)
    }
}

impl<'a> Aliases<'a> {
    /// Resolve `expr` to chains `(root_param, paths)` if it is an
    /// accessor chain over a parameter or a parameter-aliased local.
    pub(crate) fn chase(&self, expr: &Expr) -> Option<(usize, BTreeSet<Path>)> {
        self.chase_then(expr, None)
    }

    /// [`Aliases::chase`] of `expr` followed by the letter `last`: one
    /// walk down the chain collects its letters, then each of the base
    /// variable's paths is extended by them at once.
    fn chase_then(&self, expr: &Expr, last: Option<Accessor>) -> Option<(usize, BTreeSet<Path>)> {
        let mut letters: Vec<Accessor> = last.into_iter().collect();
        let mut e = expr;
        let slot = loop {
            let (letter, base) = match e {
                Expr::Var(var, name) => break self.scope.slot(*var, *name)?,
                Expr::Builtin(BuiltinOp::Car, args) => (Accessor::Car, &args[0]),
                Expr::Builtin(BuiltinOp::Cdr, args) => (Accessor::Cdr, &args[0]),
                Expr::Struct(StructOp::Ref { ty, field }, args) => {
                    (Accessor::Field { ty: *ty, field: *field as u32 }, &args[0])
                }
                _ => return None,
            };
            letters.push(letter);
            e = base;
        };
        let Some(SlotAlias::Chain { root, paths }) = self.slots.get(&slot) else { return None };
        letters.reverse();
        Some((*root, paths.iter().map(|p| p.followed_by(&letters)).collect()))
    }

    /// Fixed-point alias solve: a slot is a known chain only if *every*
    /// assignment to it (parameter binding, `let` init, `setq`) resolves
    /// to a chain over the same parameter. Self-referential assignments
    /// (`(setq x (cdr x))`) are conservatively unknown.
    fn solve(body: &[&Expr], func: &Func, scope: Scope<'a>) -> Self {
        // Gather all assignments: slot -> list of rhs expressions.
        let mut assigns: BTreeMap<usize, Vec<&Expr>> = BTreeMap::new();
        let mut stack: Vec<&Expr> = body.to_vec();
        let mut all: Vec<(usize, &Expr)> = Vec::new();
        while let Some(e) = stack.pop() {
            match e {
                Expr::Setq(var, name, rhs) => {
                    if let Some(slot) = scope.slot(*var, *name) {
                        all.push((slot, rhs));
                    }
                }
                Expr::Let { bindings, .. } => {
                    for (slot, _, init) in bindings {
                        all.push((*slot, init));
                    }
                }
                _ => {}
            }
            e.for_children(&mut |c| stack.push(c));
        }
        for (slot, rhs) in all {
            assigns.entry(slot).or_default().push(rhs);
        }

        // Parameters start as ε-chains of themselves; slots that are
        // also assigned elsewhere will be re-checked below.
        let params = func.ncaptures..func.ncaptures + func.params.len();
        let mut aliases = Aliases { slots: BTreeMap::new(), scope };
        for (i, slot) in params.clone().enumerate() {
            aliases.slots.insert(
                slot,
                SlotAlias::Chain { root: i, paths: std::iter::once(Path::empty()).collect() },
            );
        }

        // A parameter that is reassigned in the body loses its identity
        // as a stable root *unless* every reassignment is a chain over
        // itself (handled by the transfer-function analysis, not here):
        // for access collection we conservatively drop reassigned
        // params.
        for slot in assigns.keys() {
            if params.contains(slot) {
                aliases.slots.insert(*slot, SlotAlias::Unknown);
            }
        }

        // Iterate to a fixed point over the remaining slots.
        loop {
            let mut changed = false;
            for (&slot, rhss) in &assigns {
                if matches!(aliases.slots.get(&slot), Some(SlotAlias::Unknown)) {
                    continue;
                }
                let mut root: Option<usize> = None;
                let mut paths: BTreeSet<Path> = BTreeSet::new();
                let mut ok = true;
                for rhs in rhss {
                    // A nil assignment creates no aliasing: nil has no
                    // fields, so it contributes no paths.
                    if matches!(rhs, Expr::Nil) {
                        continue;
                    }
                    // Self-reference check: the rhs chain must not pass
                    // through the slot being assigned.
                    if aliases.mentions_slot(rhs, slot) {
                        ok = false;
                        break;
                    }
                    match aliases.chase(rhs) {
                        Some((r, ps)) => {
                            if *root.get_or_insert(r) != r {
                                ok = false;
                                break;
                            }
                            paths.extend(ps);
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                let new = match root {
                    Some(root) if ok => SlotAlias::Chain { root, paths },
                    _ => SlotAlias::Unknown,
                };
                if aliases.slots.get(&slot) != Some(&new) {
                    aliases.slots.insert(slot, new);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        aliases
    }

    fn mentions_slot(&self, e: &Expr, slot: usize) -> bool {
        let mut found = false;
        e.walk(&mut |x| {
            if let Expr::Var(var, name) = x {
                found |= self.scope.slot(*var, *name) == Some(slot);
            }
        });
        found
    }
}

/// Record accesses in `e`. Accessor chains are recorded at their
/// outermost node only (the conflict test's prefix semantics covers
/// the intermediate reads).
fn collect_expr(e: &Expr, cx: &mut Cx<'_>, out: &mut AccessSummary) {
    match e {
        Expr::Var(var, name) if cx.global(*var, *name) => {
            out.globals_read.insert(name.to_string());
        }
        Expr::Setq(var, name, rhs) if cx.global(*var, *name) => {
            out.globals_written.insert(name.to_string());
            collect_expr(rhs, cx, out);
        }
        Expr::Builtin(BuiltinOp::AtomicIncfGlobal, args) => {
            // The sanctioned commutative update: neither a read nor a
            // write for ordering purposes (§3.2.3). Only the delta
            // expression is analyzed.
            if let Some(delta) = args.get(1) {
                collect_expr(delta, cx, out);
            }
        }
        Expr::Builtin(BuiltinOp::Car | BuiltinOp::Cdr, args) => {
            match cx.aliases.chase(e) {
                Some((root, paths)) => {
                    for path in paths {
                        out.records.push(AccessRecord { root, path, write: false, tail: cx.tail });
                    }
                    // The whole chain is recorded; don't descend into
                    // the chain itself (it has no non-chain children).
                    descend_non_chain(&args[0], cx, out);
                }
                None => {
                    out.unknown_reads += usize::from(!is_harmless_root(&args[0]));
                    collect_expr(&args[0], cx, out);
                }
            }
        }
        Expr::Struct(StructOp::Ref { .. }, args) => match cx.aliases.chase(e) {
            Some((root, paths)) => {
                for path in paths {
                    out.records.push(AccessRecord { root, path, write: false, tail: cx.tail });
                }
                descend_non_chain(&args[0], cx, out);
            }
            None => {
                out.unknown_reads += usize::from(!is_harmless_root(&args[0]));
                collect_expr(&args[0], cx, out);
            }
        },
        Expr::Builtin(op @ (BuiltinOp::SetCar | BuiltinOp::SetCdr), args) => {
            let letter = if *op == BuiltinOp::SetCar { Accessor::Car } else { Accessor::Cdr };
            // The stored value is evaluated before the store lands;
            // analyze it first so the write carries the position the
            // store itself occupies.
            collect_expr(&args[1], cx, out);
            match cx.aliases.chase_then(&args[0], Some(letter)) {
                Some((root, paths)) => {
                    for path in paths {
                        out.records.push(AccessRecord { root, path, write: true, tail: cx.tail });
                    }
                    descend_non_chain(&args[0], cx, out);
                }
                None => {
                    out.unknown_writes += 1;
                    collect_expr(&args[0], cx, out);
                }
            }
        }
        Expr::Struct(StructOp::Set { ty, field }, args) => {
            let letter = Accessor::Field { ty: *ty, field: *field as u32 };
            collect_expr(&args[1], cx, out);
            match cx.aliases.chase_then(&args[0], Some(letter)) {
                Some((root, paths)) => {
                    for path in paths {
                        out.records.push(AccessRecord { root, path, write: true, tail: cx.tail });
                    }
                    descend_non_chain(&args[0], cx, out);
                }
                None => {
                    out.unknown_writes += 1;
                    collect_expr(&args[0], cx, out);
                }
            }
        }
        Expr::Call { name, args, .. }
        | Expr::Future { name, args, .. }
        | Expr::Enqueue { name, args, .. } => {
            // Arguments evaluate in the head of *this* invocation;
            // everything after a self-call runs concurrently with the
            // spawned invocations and is tail.
            for a in args {
                collect_expr(a, cx, out);
            }
            if Some(*name) == cx.self_sym {
                cx.tail = true;
            }
        }
        Expr::If(cond, then_e, else_e) => {
            // Only one branch executes: a self-call in one branch does
            // not put the *other* branch after a spawn. Each branch
            // starts from the state after the condition; what follows
            // the whole `if` is tail if any taken branch could have
            // spawned.
            collect_expr(cond, cx, out);
            let entry = cx.tail;
            collect_expr(then_e, cx, out);
            let then_tail = cx.tail;
            cx.tail = entry;
            collect_expr(else_e, cx, out);
            cx.tail = cx.tail || then_tail;
        }
        Expr::While(cond, body) => {
            // A loop that self-calls interleaves its iterations with
            // the spawned invocations; conservatively mark the whole
            // loop tail.
            if cx.self_sym.is_some_and(|me| e.calls(me)) {
                cx.tail = true;
            }
            collect_expr(cond, cx, out);
            for b in body {
                collect_expr(b, cx, out);
            }
        }
        _ => e.for_children(&mut |c| collect_expr(c, cx, out)),
    }
}

/// Walk down an accessor chain and continue collection below it (at
/// the first non-chain expression).
fn descend_non_chain(e: &Expr, cx: &mut Cx<'_>, out: &mut AccessSummary) {
    match e {
        Expr::Builtin(BuiltinOp::Car | BuiltinOp::Cdr, args) => {
            descend_non_chain(&args[0], cx, out)
        }
        Expr::Struct(StructOp::Ref { .. }, args) => descend_non_chain(&args[0], cx, out),
        Expr::Var(..) => {}
        other => collect_expr(other, cx, out),
    }
}

/// Variables and literals at a chain root never themselves touch
/// structure memory; only genuinely complex roots count as unknown.
fn is_harmless_root(e: &Expr) -> bool {
    matches!(e, Expr::Var(..) | Expr::Nil | Expr::T | Expr::Int(_) | Expr::Str(_) | Expr::Quote(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_all;

    fn summary_of(src: &str) -> AccessSummary {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        collect_accesses(&prog.funcs[0])
    }

    fn paths(records: &[AccessRecord], write: bool) -> Vec<String> {
        let mut v: Vec<String> = records
            .iter()
            .filter(|r| r.write == write)
            .map(|r| format!("{}:{}", r.root, r.path))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn figure_3_simple_walk() {
        // (print (car l)) then (f (cdr l)): reads car and cdr of l.
        let s = summary_of("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        assert_eq!(paths(&s.records, false), ["0:car", "0:cdr"]);
        assert_eq!(paths(&s.records, true), Vec::<String>::new());
        assert_eq!(s.unknown_writes, 0);
    }

    #[test]
    fn figure_4_conflict_accesses() {
        // (setf (cadr l) (car l)): write cdr.car, read car.
        let s = summary_of("(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
        assert!(paths(&s.records, true).contains(&"0:cdr.car".to_string()), "{s:?}");
        assert!(paths(&s.records, false).contains(&"0:car".to_string()), "{s:?}");
    }

    #[test]
    fn figure_5_accessors() {
        // §2.2 lists A1=cdr (read), A2=cdr.car (modify), A3=car (read).
        let s = summary_of(
            "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))",
        );
        let writes = paths(&s.records, true);
        assert_eq!(writes, ["0:cdr.car"]);
        let reads = paths(&s.records, false);
        assert!(reads.contains(&"0:car".to_string()));
        assert!(reads.contains(&"0:cdr".to_string()));
        assert!(reads.contains(&"0:cdr.car".to_string()));
        assert_eq!(s.unknown_writes, 0);
    }

    #[test]
    fn local_aliases_are_followed() {
        let s = summary_of(
            "(defun f (l)
               (let ((x (cdr l)))
                 (setf (car x) 1)
                 (f x)))",
        );
        assert_eq!(paths(&s.records, true), ["0:cdr.car"]);
    }

    #[test]
    fn alias_chains_through_two_locals() {
        let s = summary_of(
            "(defun f (l)
               (let* ((x (cdr l)) (y (cdr x)))
                 (setf (car y) 1)))",
        );
        assert_eq!(paths(&s.records, true), ["0:cdr.cdr.car"]);
    }

    #[test]
    fn multiple_assignments_union_paths() {
        let s = summary_of(
            "(defun f (l p)
               (let ((x nil))
                 (if p (setq x (car l)) (setq x (cdr l)))
                 (setf (car x) 1)))",
        );
        // x ∈ {car, cdr} of l; writes car.car and cdr.car.
        let mut writes = paths(&s.records, true);
        writes.sort();
        assert_eq!(writes, ["0:car.car", "0:cdr.car"]);
    }

    #[test]
    fn different_roots_make_unknown() {
        let s = summary_of(
            "(defun f (a b p)
               (let ((x (if p a b)))
                 (setf (car x) 1)))",
        );
        // x's init is an `if`, not a chain — unknown write.
        assert_eq!(s.unknown_writes, 1);
    }

    #[test]
    fn self_referential_assignment_is_unknown() {
        let s = summary_of(
            "(defun f (l)
               (let ((x l))
                 (while (consp x) (setq x (cdr x)))
                 (setf (car x) 1)))",
        );
        assert_eq!(s.unknown_writes, 1);
        assert_eq!(paths(&s.records, true), Vec::<String>::new());
    }

    #[test]
    fn reassigned_parameter_is_dropped() {
        let s = summary_of(
            "(defun f (l)
               (setq l (cdr l))
               (setf (car l) 1))",
        );
        assert_eq!(s.unknown_writes, 1);
    }

    #[test]
    fn struct_fields_are_letters() {
        let s = summary_of(
            "(defstruct node next value)
             (defun bump (n)
               (setf (node-value n) (1+ (node-value n)))
               (bump (node-next n)))",
        );
        let writes = paths(&s.records, true);
        assert_eq!(writes.len(), 1);
        assert!(writes[0].starts_with("0:f0.1"), "{writes:?}");
        let reads = paths(&s.records, false);
        assert!(reads.iter().any(|p| p.starts_with("0:f0.0")), "{reads:?}");
    }

    #[test]
    fn writes_to_fresh_cells_are_not_param_writes() {
        // The DPS pattern: (let ((cell (cons v nil))) ... (setf (cdr dest) cell))
        let s = summary_of(
            "(defun g (dest v)
               (let ((cell (cons v nil)))
                 (setf (cdr dest) cell)
                 cell))",
        );
        assert_eq!(paths(&s.records, true), ["0:cdr"]);
        // `cell` itself roots at a cons, not a param: unknown only if
        // written through; here it is not.
        assert_eq!(s.unknown_writes, 0);
    }

    #[test]
    fn second_parameter_roots() {
        let s = summary_of("(defun f (a b) (setf (car b) (car a)))");
        assert_eq!(paths(&s.records, true), ["1:car"]);
        assert_eq!(paths(&s.records, false), ["0:car"]);
    }

    #[test]
    fn global_rooted_write_is_unknown() {
        let s = summary_of("(defun f () (setf (car *g*) 1))");
        assert_eq!(s.unknown_writes, 1);
    }

    #[test]
    fn tail_attribution_marks_post_call_accesses() {
        let s = summary_of(
            "(defun f (l)
               (when l
                 (setf (cadr l) 1)
                 (f (cdr l))
                 (print (car l))))",
        );
        assert!(s.writes().all(|w| !w.tail), "pre-call write is head: {s:?}");
        // The cdr read feeding the self-call argument is head; the car
        // read after the call is tail.
        assert!(s.reads().any(|r| r.path.to_string() == "cdr" && !r.tail), "{s:?}");
        assert!(s.reads().any(|r| r.path.to_string() == "car" && r.tail), "{s:?}");
    }

    #[test]
    fn while_loop_containing_self_call_is_all_tail() {
        let s = summary_of(
            "(defun f (l)
               (while (consp l)
                 (setf (car l) 1)
                 (f (cdr l))))",
        );
        assert!(s.writes().all(|w| w.tail), "{s:?}");
    }

    #[test]
    fn head_only_function_has_no_tail_accesses() {
        let s = summary_of("(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
        assert!(s.records.iter().all(|r| !r.tail), "{s:?}");
    }
}
