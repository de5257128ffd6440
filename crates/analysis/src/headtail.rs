//! The head/tail partition and CRI concurrency estimate (paper §3.1).
//!
//! - *tail*: statements that are not recursive calls and are dominated
//!   by a recursive call;
//! - *head*: everything else, including the recursive calls;
//! - concurrency of the CRI execution: `(|H| + |T|) / |H|` — the head
//!   is the serial prefix each invocation must finish before spawning
//!   the next, so a smaller head means more overlap.
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

use curare_lisp::ast::{Expr, Func, Program};
use curare_lisp::SymId;

use crate::cfg::{Cfg, Extra, NodeKind, ENTRY, EXIT};

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

    fn step(&self, size: usize, extra: Extra) -> Cost {
        match extra {
            Extra::None => Cost::Bounded(size),
            Extra::Call(callee) => Cost::Bounded(size) + self.body(callee),
            Extra::Unbounded => Cost::Unbounded,
        }
    }
}

/// The partition of a function body with its size measures.
#[derive(Debug, Clone)]
pub struct HeadTail {
    /// Summed size of head operations (|H|), ≥ 1 for nonempty bodies.
    pub head_size: usize,
    /// Summed size of tail operations (|T|).
    pub tail_size: usize,
    /// Number of self-recursive call sites.
    pub recursive_calls: usize,
    /// True if every self-recursive call is in tail position (the
    /// returned value is the call's value).
    pub tail_recursive: bool,
    /// Number of *free* call sites: self-calls whose value is unused.
    pub free_calls: usize,
    /// Self-calls whose value feeds another computation (neither free
    /// nor tail); these block CRI conversion.
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

/// Compute the head/tail partition of `func` via CFG dominance, with
/// no knowledge of the rest of the program: every call of another
/// defun makes the cost of its side unbounded.
pub fn head_tail(func: &Func) -> HeadTail {
    head_tail_in(func, &CallCosts::default())
}

/// [`head_tail`] with callee bodies costed from `calls`.
pub fn head_tail_in(func: &Func, calls: &CallCosts) -> HeadTail {
    let cfg = Cfg::build(func);
    let idom = cfg.immediate_dominators();
    let is_rec = |n: usize| matches!(cfg.nodes[n], NodeKind::Op { recursive_call: true, .. });
    let recursive_calls = (0..cfg.nodes.len()).filter(|&n| is_rec(n)).count();
    // after_call[n]: a recursive call strictly dominates n — true of
    // n's immediate dominator or inherited from it. One pass: each
    // node walks up to the nearest ancestor already decided (the
    // entry, decided false, ends every chain) and fills in the chain.
    // A function that never calls itself is all head.
    let mut after_call: Vec<Option<bool>> = vec![None; cfg.nodes.len()];
    after_call[ENTRY] = Some(false);
    let mut chain = Vec::new();
    if recursive_calls > 0 {
        for start in 0..cfg.nodes.len() {
            let mut n = start;
            while after_call[n].is_none() && idom[n] != usize::MAX {
                chain.push(n);
                n = idom[n];
            }
            let mut known = after_call[n].unwrap_or(false);
            while let Some(c) = chain.pop() {
                known = known || is_rec(idom[c]);
                after_call[c] = Some(known);
            }
        }
    }
    let mut head_size = 0usize;
    let mut tail_size = 0usize;
    let mut head_cost = Cost::Bounded(0);
    let mut tail_cost = Cost::Bounded(0);
    for (n, kind) in cfg.nodes.iter().enumerate() {
        let NodeKind::Op { size, recursive_call, extra, .. } = kind else { continue };
        if n == ENTRY || n == EXIT || idom[n] == usize::MAX {
            continue;
        }
        // A self-call is a spawn under CRI, not work done here — and
        // never tail, whatever dominates it.
        let cost = if *recursive_call { Cost::Bounded(*size) } else { calls.step(*size, *extra) };
        if !recursive_call && after_call[n] == Some(true) {
            tail_size += size;
            tail_cost = tail_cost + cost;
        } else {
            head_size += size;
            head_cost = head_cost + cost;
        }
    }
    let positions = classify_calls(func);
    HeadTail {
        head_size,
        tail_size,
        recursive_calls,
        tail_recursive: is_tail_recursive(func),
        free_calls: positions.free,
        value_position_calls: positions.value,
        head_cost,
        tail_cost,
    }
}

/// True if every self-recursive call sits in tail position.
pub fn is_tail_recursive(func: &Func) -> bool {
    let mut all_tail = true;
    let mut any = false;
    // Visit body forms: only the last is in tail position.
    if let Some((last, init)) = func.body.split_last() {
        for e in init {
            check(e, func, false, &mut all_tail, &mut any);
        }
        check(last, func, true, &mut all_tail, &mut any);
    }
    return any && all_tail;

    fn check(e: &Expr, func: &Func, tail: bool, all_tail: &mut bool, any: &mut bool) {
        match e {
            Expr::Call { name, args, .. } if *name == func.name_sym => {
                *any = true;
                if !tail {
                    *all_tail = false;
                }
                for a in args {
                    check(a, func, false, all_tail, any);
                }
            }
            Expr::If(c, t, f) => {
                check(c, func, false, all_tail, any);
                check(t, func, tail, all_tail, any);
                check(f, func, tail, all_tail, any);
            }
            Expr::Progn(es) | Expr::And(es) | Expr::Or(es) => {
                if let Some((last, init)) = es.split_last() {
                    for s in init {
                        // and/or non-final elements are tested, their
                        // value *is* used, so a call there is not tail.
                        check(s, func, false, all_tail, any);
                    }
                    check(last, func, tail, all_tail, any);
                }
            }
            Expr::Let { bindings, body, .. } => {
                for (_, _, init) in bindings {
                    check(init, func, false, all_tail, any);
                }
                if let Some((last, init)) = body.split_last() {
                    for s in init {
                        check(s, func, false, all_tail, any);
                    }
                    check(last, func, tail, all_tail, any);
                }
            }
            other => other.for_children(&mut |c| check(c, func, false, all_tail, any)),
        }
    }
}

/// How a function's self-recursive call sites sit in its body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallPositions {
    /// Calls whose value is discarded (free calls, §3.1).
    pub free: usize,
    /// Calls in tail position (the value, if any, is the function's
    /// own return value — CRI-convertible).
    pub tail: usize,
    /// Calls whose value feeds another computation; these block CRI
    /// until a §5 enabling transformation removes them.
    pub value: usize,
}

/// Classify every self-call site by position.
pub fn classify_calls(func: &Func) -> CallPositions {
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
                // Enqueues never yield a value; futures are non-strict
                // by construction. Both count as free.
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
                        // Non-final and/or elements are tested: used.
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

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_all;

    fn ht(src: &str) -> HeadTail {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        head_tail(&prog.funcs[0])
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
        assert_eq!(h.free_calls, 1);
        assert!(!h.tail_recursive);
    }

    #[test]
    fn tail_recursive_has_empty_tail() {
        // Everything executes before the recursive call: tail empty,
        // concurrency (h+0)/h = 1 per unit... i.e. minimal.
        let h = ht("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        assert_eq!(h.tail_size, 0, "{h:?}");
        assert!((h.concurrency() - 1.0).abs() < f64::EPSILON);
        assert!(h.tail_recursive);
    }

    #[test]
    fn non_recursive_concurrency_is_one() {
        let h = ht("(defun f (l) (car l))");
        assert_eq!(h.recursive_calls, 0);
        assert_eq!(h.concurrency(), 1.0);
        assert!(!h.tail_recursive);
    }

    #[test]
    fn statements_in_untaken_branch_are_head() {
        // The print in the else-branch is not dominated by the call.
        let h = ht("(defun f (l) (if l (f (cdr l)) (print l)))");
        assert_eq!(h.tail_size, 0, "{h:?}");
    }

    #[test]
    fn remq_is_not_tail_recursive_but_remq_tail_version_is() {
        let h = ht("(defun remq (obj lst)
                      (cond ((null lst) nil)
                            ((eq obj (car lst)) (remq obj (cdr lst)))
                            (t (cons (car lst) (remq obj (cdr lst))))))");
        assert!(!h.tail_recursive, "the cons-wrapped call is not tail");
        assert_eq!(h.recursive_calls, 2);

        let h2 = ht("(defun walk (l) (if (null l) nil (walk (cdr l))))");
        assert!(h2.tail_recursive);
    }

    #[test]
    fn free_calls_counted() {
        let h = ht("(defun f (l)
                      (when l
                        (f (car l))
                        (f (cdr l))))");
        // First call's value discarded; second is the return value.
        assert_eq!(h.free_calls, 1);
        assert_eq!(h.recursive_calls, 2);
    }

    #[test]
    fn enqueue_is_always_free() {
        let h = ht("(defun f (l) (when l (cri-enqueue 0 f (cdr l))))");
        assert_eq!(h.free_calls, 1);
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

    #[test]
    fn partition_matches_the_dominance_definition() {
        // §3.1 verbatim — "not a recursive call and dominated by a
        // recursive call" — checked node by node with `dominates`,
        // against the one-pass propagation `head_tail` uses.
        for src in [
            "(defun f (l) (when l (print 1) (f (cdr l)) (print 2) (print 3)))",
            "(defun f (l) (if l (progn (f (car l)) (print 1)) (print 2)) (print 3))",
            "(defun f (l) (cond ((null l) nil) ((car l) (f (car l)) (print 1)) (t (f (cdr l)))) (print l))",
            "(defun f (l) (while (consp l) (f (car l)) (setq l (cdr l))) (print l))",
            "(defun f (l) (and l (f (car l)) (print 1)) (or (f (cdr l)) (print 2)) (print 3))",
            "(defun f (l) (let ((x (car l))) (when x (f x) (print x)) (f (cdr l)) (print l)))",
            "(defun f (l) (when l (f (car l)) (f (cdr l)) (print l)))",
            "(defun f (l) (car l))",
        ] {
            let heap = Heap::new();
            let prog = Lowerer::new(&heap).lower_program(&parse_all(src).unwrap()).unwrap();
            let cfg = Cfg::build(&prog.funcs[0]);
            let idom = cfg.immediate_dominators();
            let calls = cfg.recursive_call_nodes();
            let naive: usize = (0..cfg.nodes.len())
                .filter(|&n| n != ENTRY && n != EXIT && idom[n] != usize::MAX)
                .filter(|n| !calls.contains(n))
                .filter(|&n| calls.iter().any(|&c| cfg.dominates(&idom, c, n)))
                .count();
            let h = head_tail(&prog.funcs[0]);
            assert_eq!(h.tail_size, naive, "{src}");
            assert_eq!(h.recursive_calls, calls.len(), "{src}");
        }
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
