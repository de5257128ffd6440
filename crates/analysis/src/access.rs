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

use curare_lisp::ast::{BuiltinOp, Expr, Func, StructOp, VarRef};

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
#[derive(Debug, Clone, Default)]
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
    let aliases = solve_aliases(func);
    let mut out = AccessSummary::default();
    let mut cx = Cx { aliases: &aliases, self_sym: func.name_sym, tail: false };
    for e in &func.body {
        collect_expr(e, &mut cx, &mut out);
    }
    out
}

/// Collection context: alias facts plus the head/tail position
/// tracker. `tail` flips to true once a self-recursive call has been
/// passed in evaluation order and stays true — branch joins thereby
/// over-approximate toward tail, which is the sound direction (a
/// head-only claim is a claim of ordering).
struct Cx<'a> {
    aliases: &'a BTreeMap<usize, SlotAlias>,
    self_sym: curare_lisp::SymId,
    tail: bool,
}

/// Resolve `expr` to chains `(root_param, paths)` if it is an accessor
/// chain over a parameter or a parameter-aliased local.
pub(crate) fn chase(
    expr: &Expr,
    aliases: &BTreeMap<usize, SlotAlias>,
) -> Option<(usize, BTreeSet<Path>)> {
    match expr {
        Expr::Var(VarRef::Local(slot), _) => match aliases.get(slot) {
            Some(SlotAlias::Chain { root, paths }) => Some((*root, paths.clone())),
            _ => None,
        },
        Expr::Builtin(BuiltinOp::Car, args) => extend(chase(&args[0], aliases), Accessor::Car),
        Expr::Builtin(BuiltinOp::Cdr, args) => extend(chase(&args[0], aliases), Accessor::Cdr),
        Expr::Struct(StructOp::Ref { ty, field }, args) => {
            extend(chase(&args[0], aliases), Accessor::Field { ty: *ty, field: *field as u32 })
        }
        _ => None,
    }
}

fn extend(base: Option<(usize, BTreeSet<Path>)>, a: Accessor) -> Option<(usize, BTreeSet<Path>)> {
    base.map(|(root, paths)| {
        (
            root,
            paths
                .into_iter()
                .map(|mut p| {
                    p.push(a);
                    p
                })
                .collect(),
        )
    })
}

/// Fixed-point alias solve: a slot is a known chain only if *every*
/// assignment to it (parameter binding, `let` init, `setq`) resolves
/// to a chain over the same parameter. Self-referential assignments
/// (`(setq x (cdr x))`) are conservatively unknown.
pub(crate) fn solve_aliases(func: &Func) -> BTreeMap<usize, SlotAlias> {
    // Gather all assignments: slot -> list of rhs expressions.
    let mut assigns: BTreeMap<usize, Vec<&Expr>> = BTreeMap::new();
    let mut stack: Vec<&Expr> = func.body.iter().collect();
    let mut all: Vec<(usize, &Expr)> = Vec::new();
    while let Some(e) = stack.pop() {
        match e {
            Expr::Setq(VarRef::Local(slot), _, rhs) => all.push((*slot, rhs)),
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

    // Parameters start as ε-chains of themselves; slots that are also
    // assigned elsewhere will be re-checked below.
    let nparams = func.params.len();
    let mut aliases: BTreeMap<usize, SlotAlias> = BTreeMap::new();
    for i in 0..nparams {
        aliases.insert(
            func.ncaptures + i,
            SlotAlias::Chain { root: i, paths: std::iter::once(Path::empty()).collect() },
        );
    }

    // A parameter that is reassigned in the body loses its identity as
    // a stable root *unless* every reassignment is a chain over itself
    // (handled by the transfer-function analysis, not here): for
    // access collection we conservatively drop reassigned params.
    for &slot in assigns.keys() {
        if slot >= func.ncaptures && slot < func.ncaptures + nparams {
            aliases.insert(slot, SlotAlias::Unknown);
        }
    }

    // Iterate to a fixed point over the remaining slots.
    loop {
        let mut changed = false;
        for (&slot, rhss) in &assigns {
            if matches!(aliases.get(&slot), Some(SlotAlias::Unknown)) {
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
                if expr_mentions_slot(rhs, slot) {
                    ok = false;
                    break;
                }
                match chase(rhs, &aliases) {
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
            if aliases.get(&slot) != Some(&new) {
                aliases.insert(slot, new);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    aliases
}

fn expr_mentions_slot(e: &Expr, slot: usize) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if matches!(x, Expr::Var(VarRef::Local(s), _) if *s == slot) {
            found = true;
        }
    });
    found
}

/// Record accesses in `e`. Accessor chains are recorded at their
/// outermost node only (the conflict test's prefix semantics covers
/// the intermediate reads).
fn collect_expr(e: &Expr, cx: &mut Cx<'_>, out: &mut AccessSummary) {
    match e {
        Expr::Var(VarRef::Global(_), name) => {
            out.globals_read.insert(name.to_string());
        }
        Expr::Setq(VarRef::Global(_), name, rhs) => {
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
            match chase(e, cx.aliases) {
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
        Expr::Struct(StructOp::Ref { .. }, args) => match chase(e, cx.aliases) {
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
            match extend(
                chase(&args[0], cx.aliases).or_else(|| base_chain(&args[0], cx.aliases)),
                letter,
            ) {
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
            match extend(chase(&args[0], cx.aliases), letter) {
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
            if *name == cx.self_sym {
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
            if e.calls(cx.self_sym) {
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

/// For a `setf` base that is itself a bare chain root, produce it.
fn base_chain(e: &Expr, aliases: &BTreeMap<usize, SlotAlias>) -> Option<(usize, BTreeSet<Path>)> {
    chase(e, aliases)
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
