//! The head/tail partition and CRI concurrency estimate (paper §3.1).
//!
//! - *tail*: statements that are not recursive calls and are dominated
//!   by a recursive call;
//! - *head*: everything else, including the recursive calls;
//! - concurrency of the CRI execution: `(|H| + |T|) / |H|` — the head
//!   is the serial prefix each invocation must finish before spawning
//!   the next, so a smaller head means more overlap.
//!
//! Lisp's control flow is structured, so dominance is a property of the
//! syntax and the partition is one walk over the lowered body in
//! evaluation order (one step per atom, per operator after its operands,
//! per `if`/`while` after its test). A self-call dominates everything
//! after it in the same sequence; it dominates what follows an `if`
//! only from the test, what follows an `and`/`or` only from the first
//! operand (the others may be skipped), and what follows a `while` only
//! from the test (the body may run zero times). No graph is built: the
//! statement-level CFG and its dominator tree survive as the test
//! oracle this walk is checked against, node by node.
//!
//! The same walk places the self-calls: it carries whether the value
//! of the form it visits is used (an operand, a test, a binding's
//! initialiser) or not (a statement whose value is discarded, or the
//! function's own return value), and counts the self-calls whose value
//! is used — the calls that block CRI conversion.
//!
//! `|H|` and `|T|` count the statements of the function itself. What
//! running them costs also depends on what they call, so the partition
//! carries a second, interprocedural measure ([`Cost`]): each step's
//! unit plus the whole body of every defun it calls, from a
//! [`CallCosts`] table built once per program. The transformer reads
//! the tail's cost to decide whether a spawned successor is worth a
//! queue round trip (hand-off) or should wait for the invocation's
//! end (batch and chain).

use std::collections::HashMap;

use curare_lisp::ast::{BuiltinOp, Expr, Func, Program};
use curare_lisp::SymId;

use crate::path::Path;

/// What one evaluation step can cost beyond its own unit — the part
/// of the §3.1 size measure that is not visible in the statement
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Extra {
    /// Nothing: the step is its unit cost.
    None,
    /// A direct call: the named function's whole body runs here.
    Call(SymId),
    /// No static bound: a loop, or a callee only known at run time
    /// (`funcall`, `apply`, `mapcar`).
    Unbounded,
}

impl Extra {
    /// Classify one step. `future` and `cri-enqueue` are spawns, not
    /// work done here, whatever they name.
    fn of(e: &Expr) -> Extra {
        match e {
            Expr::Call { name, .. } => Extra::Call(*name),
            Expr::While(..)
            | Expr::Builtin(BuiltinOp::Funcall | BuiltinOp::Apply | BuiltinOp::Mapcar, _) => {
                Extra::Unbounded
            }
            _ => Extra::None,
        }
    }
}

/// A static cost in the unit of [`HeadTail::head_size`] (one per AST
/// node), or no static bound at all. Ordered: every bounded cost is
/// below `Unbounded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cost {
    /// At most this many units (both arms of a branch are counted).
    Bounded(usize),
    /// A loop, a recursive callee or an unknown callee is involved.
    Unbounded,
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        match (self, rhs) {
            (Cost::Bounded(a), Cost::Bounded(b)) => Cost::Bounded(a.saturating_add(b)),
            _ => Cost::Unbounded,
        }
    }
}

impl std::fmt::Display for Cost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cost::Bounded(n) => write!(f, "{n}"),
            Cost::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// Whole-body cost of every defun of a program: its own nodes plus,
/// transitively, the bodies it calls — one memoised walk over the call
/// graph. A function on a call cycle, or reaching one, is unbounded;
/// so is any name the table does not hold.
#[derive(Debug, Clone, Default)]
pub struct CallCosts {
    bodies: HashMap<SymId, Cost>,
}

impl CallCosts {
    /// Cost every defun of `prog`.
    pub fn of_program(prog: &Program) -> CallCosts {
        let funcs: HashMap<SymId, &Func> = prog.funcs.iter().map(|f| (f.name_sym, &**f)).collect();
        /// `bodies` is the memo. A function being walked is entered
        /// as unbounded, which is what meeting it again (a call cycle)
        /// must yield; its sum replaces the entry when the walk ends.
        fn visit(
            name: SymId,
            funcs: &HashMap<SymId, &Func>,
            bodies: &mut HashMap<SymId, Cost>,
        ) -> Cost {
            if let Some(&known) = bodies.get(&name) {
                return known;
            }
            let Some(func) = funcs.get(&name) else { return Cost::Unbounded };
            bodies.insert(name, Cost::Unbounded);
            let mut total = Cost::Bounded(0);
            for e in &func.body {
                e.walk(&mut |node| {
                    total = total
                        + match Extra::of(node) {
                            Extra::None => Cost::Bounded(1),
                            Extra::Call(callee) => Cost::Bounded(1) + visit(callee, funcs, bodies),
                            Extra::Unbounded => Cost::Unbounded,
                        };
                });
            }
            bodies.insert(name, total);
            total
        }
        // Visiting order does not matter: sums are exact, and every
        // function on or reaching a cycle ends up unbounded from
        // whichever member the walk enters it.
        let mut bodies = HashMap::new();
        for &name in funcs.keys() {
            visit(name, &funcs, &mut bodies);
        }
        CallCosts { bodies }
    }

    /// What one call of `name` costs; unbounded for unknown names.
    pub fn body(&self, name: SymId) -> Cost {
        self.bodies.get(&name).copied().unwrap_or(Cost::Unbounded)
    }

    /// What evaluating the one step `e` costs.
    fn step(&self, e: &Expr) -> Cost {
        match Extra::of(e) {
            Extra::None => Cost::Bounded(1),
            Extra::Call(callee) => Cost::Bounded(1) + self.body(callee),
            Extra::Unbounded => Cost::Unbounded,
        }
    }
}

/// The partition of a function body with its size measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadTail {
    /// Summed size of head operations (|H|), ≥ 1 for nonempty bodies.
    pub head_size: usize,
    /// Summed size of tail operations (|T|).
    pub tail_size: usize,
    /// Number of self-recursive call sites.
    pub recursive_calls: usize,
    /// Self-calls whose value feeds another computation (neither
    /// discarded nor returned); these block CRI conversion.
    pub value_position_calls: usize,
    /// Interprocedural cost of the head: `head_size` plus the bodies
    /// of the defuns the head calls.
    pub head_cost: Cost,
    /// Interprocedural cost of the tail — what a spawned successor
    /// could overlap with if it were runnable at once.
    pub tail_cost: Cost,
}

impl HeadTail {
    /// The CRI concurrency estimate `(|H|+|T|)/|H|` (§3.1). Returns 1.0
    /// for non-recursive functions (no overlap to exploit).
    pub fn concurrency(&self) -> f64 {
        if self.recursive_calls == 0 || self.head_size == 0 {
            return 1.0;
        }
        (self.head_size + self.tail_size) as f64 / self.head_size as f64
    }
}

/// Compute the head/tail partition of `func`, with no knowledge of
/// the rest of the program: every call of another defun makes the cost
/// of its side unbounded.
pub fn head_tail(func: &Func) -> HeadTail {
    head_tail_in(func, &CallCosts::default())
}

/// [`head_tail`] with callee bodies costed from `calls`.
pub fn head_tail_in(func: &Func, calls: &CallCosts) -> HeadTail {
    head_tail_bracketed(func, calls, &[])
}

/// The steps a lock bracket adds to its side of the partition, one lock
/// per location in `locations` (a path whose last letter is the locked
/// field). Each lock binds its cell — the root variable, then one step
/// per accessor of the location's path without its field — and both
/// the acquire and the release are an operation over the bound variable
/// (two steps each). A bracket that `keeps` its statements' value
/// binds it and reads it back after the releases: one step more. The
/// `let*` that binds the cells, the `let` that binds the value, and the
/// `progn` that gathers a coalesced run, are no steps of their own.
pub fn lock_bracket_steps<'p>(locations: impl IntoIterator<Item = &'p Path>, keeps: bool) -> usize {
    let locks: usize = locations.into_iter().map(|p| (1 + p.len().saturating_sub(1)) + 2 + 2).sum();
    locks + usize::from(keeps)
}

/// [`head_tail_in`] of `func` once each of `brackets` wraps a statement
/// of it: `(statement, steps)` names a node of `func`'s body and the
/// steps ([`lock_bracket_steps`]) of the bracket around it, which
/// count on the side of the partition the statement starts on. A
/// bracket holds no self-call, so it moves nothing else: this is the
/// partition of the bracketed function, without lowering it.
pub fn head_tail_bracketed(
    func: &Func,
    calls: &CallCosts,
    brackets: &[(&Expr, usize)],
) -> HeadTail {
    let p = Partition::of(func, calls, brackets);
    HeadTail {
        head_size: p.head_size,
        tail_size: p.tail_size,
        recursive_calls: p.recursive_calls,
        value_position_calls: p.value_position_calls,
        head_cost: p.head_cost,
        tail_cost: p.tail_cost,
    }
}

/// The sums of one partition walk. Every `walk` takes the flag "a
/// self-call dominates this point" and returns it for the point after
/// the expression; it also takes the flag "the expression's value is
/// used".
struct Partition<'a> {
    fname: SymId,
    calls: &'a CallCosts,
    /// Statements wrapped in lock brackets, with the brackets' steps.
    brackets: &'a [(&'a Expr, usize)],
    recursive_calls: usize,
    value_position_calls: usize,
    head_size: usize,
    tail_size: usize,
    head_cost: Cost,
    tail_cost: Cost,
    /// Per step, in evaluation order: (self-call, tail).
    #[cfg(test)]
    steps: Vec<(bool, bool)>,
}

impl<'a> Partition<'a> {
    fn of(func: &Func, calls: &'a CallCosts, brackets: &'a [(&'a Expr, usize)]) -> Self {
        let mut p = Partition {
            fname: func.name_sym,
            calls,
            brackets,
            recursive_calls: 0,
            value_position_calls: 0,
            head_size: 0,
            tail_size: 0,
            head_cost: Cost::Bounded(0),
            tail_cost: Cost::Bounded(0),
            #[cfg(test)]
            steps: Vec::new(),
        };
        p.body(&func.body, false, false);
        p
    }

    /// Count the step `e` itself. A self-call is a spawn under CRI, not
    /// work done here, and never tail — but it dominates what follows.
    /// A direct one whose value is `used` is a value-position call; a
    /// spawn never yields its callee's value.
    fn step(&mut self, e: &Expr, dominated: bool, used: bool) -> bool {
        let own = matches!(
            e,
            Expr::Call { name, .. } | Expr::Future { name, .. } | Expr::Enqueue { name, .. }
                if *name == self.fname
        );
        self.value_position_calls += usize::from(used && own && matches!(e, Expr::Call { .. }));
        let tail = dominated && !own;
        let cost = if own { Cost::Bounded(1) } else { self.calls.step(e) };
        if tail {
            self.tail_size += 1;
            self.tail_cost = self.tail_cost + cost;
        } else {
            self.head_size += 1;
            self.head_cost = self.head_cost + cost;
        }
        self.recursive_calls += usize::from(own);
        #[cfg(test)]
        self.steps.push((own, tail));
        dominated || own
    }

    /// Operands, tests and initialisers: every value is used.
    fn seq(&mut self, es: &[Expr], dominated: bool) -> bool {
        es.iter().fold(dominated, |d, e| self.walk(e, d, true))
    }

    /// A sequence of statements: each value is discarded but the last,
    /// which is the sequence's own.
    fn body(&mut self, es: &[Expr], dominated: bool, used: bool) -> bool {
        let last = es.len().saturating_sub(1);
        es.iter().enumerate().fold(dominated, |d, (i, e)| self.walk(e, d, used && i == last))
    }

    /// Count the unit steps of a bracket that starts where `dominated`
    /// holds.
    fn bracket(&mut self, steps: usize, dominated: bool) {
        let (size, cost) = if dominated {
            (&mut self.tail_size, &mut self.tail_cost)
        } else {
            (&mut self.head_size, &mut self.head_cost)
        };
        *size += steps;
        *cost = *cost + Cost::Bounded(steps);
    }

    /// Walk `e`, whose value is `used` or not (discarded, or returned
    /// as the function's own).
    fn walk(&mut self, e: &Expr, dominated: bool, used: bool) -> bool {
        if let Some(&(_, steps)) = self.brackets.iter().find(|(s, _)| std::ptr::eq(*s, e)) {
            self.bracket(steps, dominated);
        }
        match e {
            Expr::If(c, t, f) => {
                let at_branch = self.walk(c, dominated, true);
                let at_branch = self.step(e, at_branch, used);
                self.walk(t, at_branch, used);
                self.walk(f, at_branch, used);
                at_branch
            }
            Expr::Progn(es) | Expr::And(es) | Expr::Or(es) if es.is_empty() => {
                self.step(e, dominated, used)
            }
            Expr::Progn(es) => self.body(es, dominated, used),
            // Every operand but the last is tested; the last is the
            // chain's value.
            Expr::And(es) | Expr::Or(es) => {
                let (last, tested) = es.split_last().expect("not empty");
                match tested.split_first() {
                    None => self.walk(last, dominated, used),
                    Some((first, rest)) => {
                        let after_first = self.walk(first, dominated, true);
                        let d = self.seq(rest, after_first);
                        self.walk(last, d, used);
                        after_first
                    }
                }
            }
            Expr::Let { bindings, body, .. } => {
                let d = bindings.iter().fold(dominated, |d, (_, _, init)| self.walk(init, d, true));
                self.body(body, d, used)
            }
            Expr::While(c, body) => {
                let at_test = self.walk(c, dominated, true);
                let at_test = self.step(e, at_test, used);
                self.body(body, at_test, false);
                at_test
            }
            Expr::Setq(_, _, rhs) => {
                let d = self.walk(rhs, dominated, true);
                self.step(e, d, used)
            }
            Expr::Call { args, .. }
            | Expr::Builtin(_, args)
            | Expr::Struct(_, args)
            | Expr::Future { args, .. }
            | Expr::Enqueue { args, .. } => {
                let d = self.seq(args, dominated);
                self.step(e, d, used)
            }
            Expr::LockOp { base, .. } => {
                let d = self.walk(base, dominated, true);
                self.step(e, d, used)
            }
            _ => self.step(e, dominated, used),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Cfg, ENTRY, EXIT};
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_all;

    /// How a function's self-call sites sit in its body: the reference
    /// the partition walk's `value_position_calls` is held to.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct CallPositions {
        /// Calls whose value is discarded, and every spawn (an enqueue
        /// yields no value, a future is non-strict).
        free: usize,
        /// Calls whose value is the function's own return value.
        tail: usize,
        /// Calls whose value feeds another computation.
        value: usize,
    }

    /// The classification the partition walk replaced: its own walk
    /// with a (tail, discarded) context per form.
    fn classify_calls(func: &Func) -> CallPositions {
        let mut out = CallPositions::default();
        if let Some((last, init)) = func.body.split_last() {
            for e in init {
                walk(e, func, false, true, &mut out);
            }
            walk(last, func, true, false, &mut out);
        }
        return out;

        fn walk(e: &Expr, func: &Func, tail: bool, discarded: bool, out: &mut CallPositions) {
            match e {
                Expr::Call { name, args, .. } if *name == func.name_sym => {
                    if discarded {
                        out.free += 1;
                    } else if tail {
                        out.tail += 1;
                    } else {
                        out.value += 1;
                    }
                    for a in args {
                        walk(a, func, false, false, out);
                    }
                }
                Expr::Enqueue { name, args, .. } | Expr::Future { name, args, .. }
                    if *name == func.name_sym =>
                {
                    out.free += 1;
                    for a in args {
                        walk(a, func, false, false, out);
                    }
                }
                Expr::Progn(es) => {
                    if let Some((last, init)) = es.split_last() {
                        for s in init {
                            walk(s, func, false, true, out);
                        }
                        walk(last, func, tail, discarded, out);
                    }
                }
                Expr::And(es) | Expr::Or(es) => {
                    if let Some((last, init)) = es.split_last() {
                        for s in init {
                            walk(s, func, false, false, out);
                        }
                        walk(last, func, tail, discarded, out);
                    }
                }
                Expr::Let { bindings, body, .. } => {
                    for (_, _, init) in bindings {
                        walk(init, func, false, false, out);
                    }
                    if let Some((last, init)) = body.split_last() {
                        for s in init {
                            walk(s, func, false, true, out);
                        }
                        walk(last, func, tail, discarded, out);
                    }
                }
                Expr::If(c, t, f) => {
                    walk(c, func, false, false, out);
                    walk(t, func, tail, discarded, out);
                    walk(f, func, tail, discarded, out);
                }
                Expr::While(c, body) => {
                    walk(c, func, false, false, out);
                    for s in body {
                        walk(s, func, false, true, out);
                    }
                }
                other => other.for_children(&mut |c| walk(c, func, false, false, out)),
            }
        }
    }

    /// The partition of the first defun of `src`, its value-position
    /// count held to the reference, and the reference's positions.
    fn positions(src: &str) -> (HeadTail, CallPositions) {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        let (h, reference) = (head_tail(&prog.funcs[0]), classify_calls(&prog.funcs[0]));
        assert_eq!(h.value_position_calls, reference.value, "{src}");
        (h, reference)
    }

    fn ht(src: &str) -> HeadTail {
        positions(src).0
    }

    #[test]
    fn head_recursive_has_large_tail() {
        // Recursive call first, work after: big tail, small head,
        // high concurrency (the shape §3.1 favors).
        let h = ht("(defun f (l)
                      (when l
                        (f (cdr l))
                        (print (car l))
                        (print (car l))
                        (print (car l))))");
        assert!(h.tail_size > 0, "{h:?}");
        assert!(h.concurrency() > 1.5, "{h:?}");
        assert_eq!(h.recursive_calls, 1);
        assert_eq!(h.value_position_calls, 0);
    }

    #[test]
    fn tail_recursive_has_empty_tail() {
        // Everything executes before the recursive call: tail empty,
        // concurrency (h+0)/h = 1 per unit... i.e. minimal.
        let (h, at) = positions("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        assert_eq!(h.tail_size, 0, "{h:?}");
        assert!((h.concurrency() - 1.0).abs() < f64::EPSILON);
        assert_eq!(at, CallPositions { free: 0, tail: 1, value: 0 });
    }

    #[test]
    fn non_recursive_concurrency_is_one() {
        let (h, at) = positions("(defun f (l) (car l))");
        assert_eq!(h.recursive_calls, 0);
        assert_eq!(h.concurrency(), 1.0);
        assert_eq!(at, CallPositions::default());
    }

    #[test]
    fn statements_in_untaken_branch_are_head() {
        // The print in the else-branch is not dominated by the call.
        let h = ht("(defun f (l) (if l (f (cdr l)) (print l)))");
        assert_eq!(h.tail_size, 0, "{h:?}");
    }

    #[test]
    fn remq_is_not_tail_recursive_but_remq_tail_version_is() {
        let (h, at) = positions(
            "(defun remq (obj lst)
               (cond ((null lst) nil)
                     ((eq obj (car lst)) (remq obj (cdr lst)))
                     (t (cons (car lst) (remq obj (cdr lst))))))",
        );
        assert_eq!(h.value_position_calls, 1, "the cons-wrapped call is not tail");
        assert_eq!(at, CallPositions { free: 0, tail: 1, value: 1 });
        assert_eq!(h.recursive_calls, 2);

        let (h2, at) = positions("(defun walk (l) (if (null l) nil (walk (cdr l))))");
        assert_eq!(h2.value_position_calls, 0);
        assert_eq!(at, CallPositions { free: 0, tail: 1, value: 0 });
    }

    #[test]
    fn free_calls_counted() {
        let (h, at) = positions(
            "(defun f (l)
               (when l
                 (f (car l))
                 (f (cdr l))))",
        );
        // First call's value discarded; second is the return value.
        assert_eq!(at, CallPositions { free: 1, tail: 1, value: 0 });
        assert_eq!(h.value_position_calls, 0);
        assert_eq!(h.recursive_calls, 2);
    }

    #[test]
    fn enqueue_is_always_free() {
        // A spawn yields no value of its callee, wherever it stands;
        // a direct call in the same operand position is a value call.
        for (src, value) in [
            ("(defun f (l) (when l (cri-enqueue 0 f (cdr l))))", 0),
            ("(defun f (l) (list (cri-enqueue 0 f (cdr l)) (future (f l))))", 0),
            ("(defun f (l) (list (cri-enqueue 0 f (f (cdr l)))))", 1),
            ("(defun f (l) (and (f l) (or (f l) (progn (f l) (f l)))))", 2),
            ("(defun f (l) (let ((x (f l))) (while (f x) (f x)) (setq x (f x))))", 3),
        ] {
            let (h, at) = positions(src);
            assert_eq!(h.value_position_calls, value, "{src}");
            assert_eq!(at.free + at.tail + at.value, h.recursive_calls, "{src}");
        }
        let (_, at) = positions("(defun f (l) (when l (cri-enqueue 0 f (cdr l))))");
        assert_eq!(at, CallPositions { free: 1, tail: 0, value: 0 });
    }

    /// Every defun of every shipped program: the partition walk counts
    /// the value-position self-calls the reference classification does.
    #[test]
    fn value_positions_of_the_shipped_programs_match_the_reference() {
        let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lisp");
        let mut checked = 0;
        for dir in [examples.clone(), examples.join("fixtures")] {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_none_or(|x| x != "lisp") {
                    continue;
                }
                let src = std::fs::read_to_string(&path).unwrap();
                let heap = Heap::new();
                let prog = Lowerer::new(&heap).lower_program(&parse_all(&src).unwrap()).unwrap();
                for func in &prog.funcs {
                    let (h, reference) = (head_tail(func), classify_calls(func));
                    assert_eq!(h.value_position_calls, reference.value, "{}", path.display());
                    checked += 1;
                }
            }
        }
        assert!(checked >= 20, "{checked} defuns");
    }

    /// Head/tail of the *last* defun of `src`, costed over the whole
    /// program.
    fn ht_in(src: &str) -> HeadTail {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        head_tail_in(prog.funcs.last().unwrap(), &CallCosts::of_program(&prog))
    }

    #[test]
    fn tail_cost_includes_the_bodies_the_tail_calls() {
        let direct = ht_in("(defun f (l) (when l (f (cdr l)) (setf (car l) (+ (car l) 1))))");
        assert_eq!(direct.tail_cost, Cost::Bounded(direct.tail_size), "no calls: cost = size");
        // The same work behind a helper, and behind a helper's helper
        // (a diamond: `twice` reaches `bump` on two paths).
        let helper = ht_in(
            "(defun bump (v) (+ v 1))
             (defun f (l) (when l (f (cdr l)) (setf (car l) (bump (car l)))))",
        );
        let Cost::Bounded(one) = helper.tail_cost else { panic!("{helper:?}") };
        assert_eq!(one, helper.tail_size + 3, "bump's body is 3 nodes");
        let diamond = ht_in(
            "(defun bump (v) (+ v 1))
             (defun twice (v) (bump (bump v)))
             (defun f (l) (when l (f (cdr l)) (setf (car l) (twice (car l)))))",
        );
        // twice = 3 own nodes + 2 × bump.
        assert_eq!(diamond.tail_cost, Cost::Bounded(diamond.tail_size + 3 + 2 * 3));
        // The head is costed the same way, and |H|, |T| are untouched.
        let head = ht_in(
            "(defun bump (v) (+ v 1))
             (defun f (l) (when l (setf (car l) (bump (car l))) (f (cdr l))))",
        );
        assert_eq!(head.tail_cost, Cost::Bounded(0));
        assert_eq!(head.head_cost, Cost::Bounded(head.head_size + 3));
    }

    #[test]
    fn loops_recursion_and_unknown_callees_are_unbounded() {
        for (what, src) in [
            ("a loop", "(defun f (l) (when l (f (cdr l)) (while (car l) (setf (car l) nil))))"),
            (
                "a recursive callee",
                "(defun len (l) (if l (+ 1 (len (cdr l))) 0))
                 (defun f (l) (when l (f (cdr l)) (len l)))",
            ),
            (
                "mutual recursion reached through a helper",
                "(defun ev (n) (if (= n 0) t (od (- n 1))))
                 (defun od (n) (if (= n 0) nil (ev (- n 1))))
                 (defun check (n) (ev n))
                 (defun f (l) (when l (f (cdr l)) (check (car l))))",
            ),
            ("an undefined callee", "(defun f (l) (when l (f (cdr l)) (mystery l)))"),
            ("funcall", "(defun f (l g) (when l (f (cdr l) g) (funcall g (car l))))"),
        ] {
            let h = ht_in(src);
            assert_eq!(h.tail_cost, Cost::Unbounded, "{what}: {h:?}");
            assert!(matches!(h.head_cost, Cost::Bounded(_)), "{what}: {h:?}");
        }
        // Without the program, any call of another defun is unknown.
        let alone = ht("(defun f (l) (when l (f (cdr l)) (bump (car l))))");
        assert_eq!(alone.tail_cost, Cost::Unbounded);
        assert!(Cost::Bounded(usize::MAX) < Cost::Unbounded);
        assert_eq!((Cost::Bounded(2) + Cost::Bounded(3)).to_string(), "5");
        assert_eq!((Cost::Bounded(2) + Cost::Unbounded).to_string(), "unbounded");
    }

    /// A seeded body built from the special forms that shape control
    /// flow, with self-calls `(f …)` in test, arm, operand, binding
    /// initialiser and loop-body positions, and inside other calls.
    struct BodyGen(curare_testkit::Rng);

    impl BodyGen {
        fn below(&mut self, n: u64) -> u64 {
            self.0.below(n as usize) as u64
        }

        fn exprs(&mut self, depth: u32, min: u64, max: u64) -> String {
            let n = min + self.below(max - min + 1);
            (0..n).map(|_| format!(" {}", self.expr(depth))).collect()
        }

        fn expr(&mut self, depth: u32) -> String {
            let pick = if depth == 0 { self.below(4) } else { self.below(16) };
            let d = depth.saturating_sub(1);
            match pick {
                0 => "l".into(),
                1 => "1".into(),
                2 => "(f (cdr l))".into(),
                3 => "(print l)".into(),
                4 | 5 => format!("(f {})", self.expr(d)),
                6 => format!("(cons {} {})", self.expr(d), self.expr(d)),
                7 => format!("(if {} {}{})", self.expr(d), self.expr(d), self.exprs(d, 0, 1)),
                8 => format!(
                    "(cond ({}{}) ({}{}) (t{}))",
                    self.expr(d),
                    self.exprs(d, 0, 2),
                    self.expr(d),
                    self.exprs(d, 0, 1),
                    self.exprs(d, 1, 1)
                ),
                9 => format!("(when {}{})", self.expr(d), self.exprs(d, 0, 3)),
                10 => format!("(and{})", self.exprs(d, 0, 3)),
                11 => format!("(or{})", self.exprs(d, 0, 3)),
                12 => format!("(while {}{})", self.expr(d), self.exprs(d, 0, 3)),
                13 => format!(
                    "(let ((x {}) (y {})){})",
                    self.expr(d),
                    self.expr(d),
                    self.exprs(d, 0, 3)
                ),
                14 => format!("(progn{})", self.exprs(d, 0, 3)),
                _ => format!("(setq l {})", self.expr(d)),
            }
        }
    }

    #[test]
    fn partition_matches_the_dominance_definition() {
        // §3.1 verbatim — "not a recursive call and dominated by a
        // recursive call" — checked node by node with the CFG's
        // `dominates`, against the structured walk `head_tail` uses.
        // The CFG creates its nodes in the walk's evaluation order.
        let mut sources: Vec<String> = [
            "(defun f (l) (when l (print 1) (f (cdr l)) (print 2) (print 3)))",
            "(defun f (l) (if l (progn (f (car l)) (print 1)) (print 2)) (print 3))",
            "(defun f (l) (cond ((null l) nil) ((car l) (f (car l)) (print 1)) (t (f (cdr l)))) (print l))",
            "(defun f (l) (while (consp l) (f (car l)) (setq l (cdr l))) (print l))",
            "(defun f (l) (and l (f (car l)) (print 1)) (or (f (cdr l)) (print 2)) (print 3))",
            "(defun f (l) (let ((x (car l))) (when x (f x) (print x)) (f (cdr l)) (print l)))",
            "(defun f (l) (when l (f (car l)) (f (cdr l)) (print l)))",
            "(defun f (l) (car l))",
        ]
        .map(String::from)
        .to_vec();
        let mut gen = BodyGen(curare_testkit::Rng::new(26));
        sources.extend((0..600).map(|_| format!("(defun f (l){})", gen.exprs(4, 1, 4))));
        let (mut tails, mut self_calls, mut values) = (0, 0, 0);
        for src in &sources {
            let heap = Heap::new();
            let prog = Lowerer::new(&heap).lower_program(&parse_all(src).unwrap()).unwrap();
            let func = &prog.funcs[0];
            let cfg = Cfg::build(func);
            let idom = cfg.immediate_dominators();
            let calls = cfg.recursive_call_nodes();
            let oracle: Vec<(bool, bool)> = (0..cfg.nodes.len())
                .filter(|&n| n != ENTRY && n != EXIT)
                .map(|n| {
                    assert_ne!(idom[n], usize::MAX, "every step is reachable: {src}");
                    let own = calls.contains(&n);
                    (own, !own && calls.iter().any(|&c| cfg.dominates(&idom, c, n)))
                })
                .collect();
            assert_eq!(Partition::of(func, &CallCosts::default(), &[]).steps, oracle, "{src}");
            let h = head_tail(func);
            assert_eq!(h.tail_size, oracle.iter().filter(|s| s.1).count(), "{src}");
            assert_eq!(h.head_size + h.tail_size, oracle.len(), "{src}");
            assert_eq!(h.recursive_calls, calls.len(), "{src}");
            assert_eq!(h.value_position_calls, classify_calls(func).value, "{src}");
            values += h.value_position_calls;
            tails += h.tail_size;
            self_calls += h.recursive_calls;
        }
        assert!(tails > 1000 && self_calls > 1000, "the bodies exercise the walk");
        assert!(values > 100 && values < self_calls, "{values} of {self_calls} calls used");
    }

    #[test]
    fn concurrency_grows_with_tail_work() {
        let small = ht("(defun f (l) (when l (f (cdr l)) (print l)))");
        let big = ht("(defun f (l)
                        (when l
                          (f (cdr l))
                          (print l) (print l) (print l) (print l)
                          (print l) (print l) (print l) (print l)))");
        assert!(big.concurrency() > small.concurrency(), "{small:?} vs {big:?}");
    }
}
