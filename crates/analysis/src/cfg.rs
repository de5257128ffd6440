//! A statement-level control-flow graph with dominators.
//!
//! The head/tail partition of paper §3.1 is defined by dominance: "a
//! statement S belongs in the tail of f if S is not a recursive call
//! and is dominated by a recursive call". This module builds a CFG
//! from the lowered AST (one node per evaluation step, with diamonds
//! for `if`, loops for `while`, and short-circuit edges for
//! `and`/`or`) and computes immediate dominators with the iterative
//! Cooper–Harvey–Kennedy algorithm.

use curare_lisp::ast::{BuiltinOp, Expr, Func};
use curare_lisp::SymId;

/// What one evaluation step can cost beyond its own unit — the part
/// of the §3.1 size measure that is not visible in the statement
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extra {
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
    pub fn of(e: &Expr) -> Extra {
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

/// What a CFG node represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Function entry.
    Entry,
    /// Function exit.
    Exit,
    /// One evaluation step; `size` is its unit cost, `label` a short
    /// description for diagnostics.
    Op {
        /// Cost contribution (1 per AST node).
        size: usize,
        /// True for self-recursive call/future/enqueue sites.
        recursive_call: bool,
        /// Human-readable description.
        label: String,
        /// Cost the step stands for beyond `size`.
        extra: Extra,
    },
}

/// A control-flow graph over evaluation steps.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Node payloads; node 0 is entry, node 1 is exit.
    pub nodes: Vec<NodeKind>,
    /// Successor lists.
    pub succs: Vec<Vec<usize>>,
}

/// Entry node index.
pub const ENTRY: usize = 0;
/// Exit node index.
pub const EXIT: usize = 1;

struct Builder {
    nodes: Vec<NodeKind>,
    succs: Vec<Vec<usize>>,
    fname: curare_lisp::SymId,
}

impl Builder {
    fn new_node(&mut self, kind: NodeKind) -> usize {
        self.nodes.push(kind);
        self.succs.push(Vec::new());
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
        }
    }

    fn connect_all(&mut self, froms: &[usize], to: usize) {
        for &f in froms {
            self.edge(f, to);
        }
    }

    fn op_node(&mut self, e: &Expr, preds: &[usize]) -> usize {
        let recursive_call = matches!(
            e,
            Expr::Call { name, .. } | Expr::Future { name, .. } | Expr::Enqueue { name, .. }
                if *name == self.fname
        );
        let label = match e {
            Expr::Call { name_text, .. } => format!("call {name_text}"),
            Expr::Future { name_text, .. } => format!("future {name_text}"),
            Expr::Enqueue { name_text, .. } => format!("enqueue {name_text}"),
            Expr::Builtin(op, _) => format!("{op:?}"),
            Expr::Struct(op, _) => format!("{op:?}"),
            Expr::Setq(_, n, _) => format!("setq {n}"),
            Expr::Var(_, n) => format!("var {n}"),
            Expr::LockOp { lock: true, .. } => "lock".to_string(),
            Expr::LockOp { lock: false, .. } => "unlock".to_string(),
            other => shape_name(other).to_string(),
        };
        let extra = Extra::of(e);
        let n = self.new_node(NodeKind::Op { size: 1, recursive_call, label, extra });
        self.connect_all(preds, n);
        n
    }

    /// Build the subgraph for `e` given current predecessors; returns
    /// the exits of the subgraph.
    fn build(&mut self, e: &Expr, preds: Vec<usize>) -> Vec<usize> {
        match e {
            Expr::If(c, t, f) => {
                let c_exits = self.build(c, preds);
                let branch = self.op_node(e, &c_exits);
                let t_exits = self.build(t, vec![branch]);
                let f_exits = self.build(f, vec![branch]);
                t_exits.into_iter().chain(f_exits).collect()
            }
            Expr::Progn(es) => {
                let mut cur = preds;
                for s in es {
                    cur = self.build(s, cur);
                }
                if es.is_empty() {
                    let n = self.op_node(e, &cur);
                    vec![n]
                } else {
                    cur
                }
            }
            Expr::And(es) | Expr::Or(es) => {
                // Each element may short-circuit to the merge point.
                let mut exits = Vec::new();
                let mut cur = preds;
                for (i, s) in es.iter().enumerate() {
                    cur = self.build(s, cur);
                    if i + 1 < es.len() {
                        // Short-circuit exit possible after each
                        // non-final element.
                        exits.extend(cur.iter().copied());
                    }
                }
                exits.extend(cur);
                if es.is_empty() {
                    let n = self.op_node(e, &exits);
                    vec![n]
                } else {
                    exits
                }
            }
            Expr::Let { bindings, body, .. } => {
                let mut cur = preds;
                for (_, _, init) in bindings {
                    cur = self.build(init, cur);
                }
                for s in body {
                    cur = self.build(s, cur);
                }
                cur
            }
            Expr::While(c, body) => {
                let c_exits = self.build(c, preds);
                let test = self.op_node(e, &c_exits);
                let mut cur = vec![test];
                for s in body {
                    cur = self.build(s, cur);
                }
                // Back edge to the loop test's condition re-evaluation:
                // approximate by re-entering the test node.
                self.connect_all(&cur, test);
                vec![test]
            }
            Expr::Setq(_, _, rhs) => {
                let r_exits = self.build(rhs, preds);
                vec![self.op_node(e, &r_exits)]
            }
            Expr::Call { args, .. }
            | Expr::Builtin(_, args)
            | Expr::Struct(_, args)
            | Expr::Future { args, .. }
            | Expr::Enqueue { args, .. } => {
                let mut cur = preds;
                for a in args {
                    cur = self.build(a, cur);
                }
                vec![self.op_node(e, &cur)]
            }
            Expr::LockOp { base, .. } => {
                let cur = self.build(base, preds);
                vec![self.op_node(e, &cur)]
            }
            // Atoms: one node each.
            _ => vec![self.op_node(e, &preds)],
        }
    }
}

fn shape_name(e: &Expr) -> &'static str {
    match e {
        Expr::Nil => "nil",
        Expr::T => "t",
        Expr::Int(_) => "int",
        Expr::Float(_) => "float",
        Expr::Str(_) => "str",
        Expr::Quote(_) => "quote",
        Expr::Lambda { .. } => "lambda",
        Expr::FuncRef(..) => "function",
        Expr::Progn(_) => "progn",
        Expr::And(_) => "and",
        Expr::Or(_) => "or",
        Expr::If(..) => "if",
        Expr::While(..) => "while",
        _ => "op",
    }
}

impl Cfg {
    /// Build the CFG of `func`'s body.
    pub fn build(func: &Func) -> Cfg {
        let mut b = Builder { nodes: Vec::new(), succs: Vec::new(), fname: func.name_sym };
        let entry = b.new_node(NodeKind::Entry);
        let exit = b.new_node(NodeKind::Exit);
        debug_assert_eq!(entry, ENTRY);
        debug_assert_eq!(exit, EXIT);
        let mut cur = vec![entry];
        for e in &func.body {
            cur = b.build(e, cur);
        }
        b.connect_all(&cur, exit);
        Cfg { nodes: b.nodes, succs: b.succs }
    }

    /// Reverse-postorder over reachable nodes.
    fn rpo(&self) -> Vec<usize> {
        let mut order = Vec::new();
        let mut seen = vec![false; self.nodes.len()];
        fn dfs(cfg: &Cfg, n: usize, seen: &mut [bool], order: &mut Vec<usize>) {
            seen[n] = true;
            for &s in &cfg.succs[n] {
                if !seen[s] {
                    dfs(cfg, s, seen, order);
                }
            }
            order.push(n);
        }
        dfs(self, ENTRY, &mut seen, &mut order);
        order.reverse();
        order
    }

    /// Immediate dominators (Cooper–Harvey–Kennedy). `idom[ENTRY] =
    /// ENTRY`; unreachable nodes get `usize::MAX`.
    pub fn immediate_dominators(&self) -> Vec<usize> {
        let rpo = self.rpo();
        let mut rpo_index = vec![usize::MAX; self.nodes.len()];
        for (i, &n) in rpo.iter().enumerate() {
            rpo_index[n] = i;
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (n, ss) in self.succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(n);
            }
        }
        let mut idom = vec![usize::MAX; self.nodes.len()];
        idom[ENTRY] = ENTRY;
        let mut changed = true;
        while changed {
            changed = false;
            for &n in rpo.iter().skip(1) {
                let mut new_idom = usize::MAX;
                for &p in &preds[n] {
                    if idom[p] == usize::MAX {
                        continue;
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(&idom, &rpo_index, p, new_idom)
                    };
                }
                if new_idom != usize::MAX && idom[n] != new_idom {
                    idom[n] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }

    /// Is `a` a dominator of `b` (including `a == b`)?
    pub fn dominates(&self, idom: &[usize], a: usize, b: usize) -> bool {
        let mut n = b;
        loop {
            if n == a {
                return true;
            }
            if n == ENTRY || idom[n] == usize::MAX {
                return a == ENTRY && n == ENTRY;
            }
            let up = idom[n];
            if up == n {
                return false;
            }
            n = up;
        }
    }

    /// Node indices of self-recursive call sites.
    pub fn recursive_call_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, k)| {
                matches!(k, NodeKind::Op { recursive_call: true, .. }).then_some(i)
            })
            .collect()
    }
}

fn intersect(idom: &[usize], rpo_index: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while rpo_index[a] > rpo_index[b] {
            a = idom[a];
        }
        while rpo_index[b] > rpo_index[a] {
            b = idom[b];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_all;

    fn cfg_of(src: &str) -> Cfg {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        Cfg::build(&prog.funcs[0])
    }

    #[test]
    fn linear_body_chains() {
        let cfg = cfg_of("(defun f (x) (print x) (print x))");
        // entry, exit, plus nodes; every non-exit node has successors.
        assert!(cfg.nodes.len() >= 4);
        let idom = cfg.immediate_dominators();
        // Exit is dominated by entry.
        assert!(cfg.dominates(&idom, ENTRY, EXIT));
    }

    #[test]
    fn if_creates_diamond() {
        let cfg = cfg_of("(defun f (x) (if x (print 1) (print 2)) (print 3))");
        let idom = cfg.immediate_dominators();
        // The final print is reached from both arms; neither arm
        // dominates it, but the branch condition does.
        let print3 = cfg
            .nodes
            .iter()
            .position(|k| matches!(k, NodeKind::Op { label, .. } if label == "Print"))
            .expect("has prints");
        let _ = print3;
        assert!(cfg.dominates(&idom, ENTRY, EXIT));
    }

    #[test]
    fn recursive_call_nodes_found() {
        let cfg = cfg_of("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        assert_eq!(cfg.recursive_call_nodes().len(), 1);
        let cfg = cfg_of("(defun f (l) (when l (f (car l)) (f (cdr l))))");
        assert_eq!(cfg.recursive_call_nodes().len(), 2);
    }

    #[test]
    fn statement_after_call_is_dominated() {
        let cfg = cfg_of("(defun f (l) (f (cdr l)) (print l))");
        let idom = cfg.immediate_dominators();
        let call = cfg.recursive_call_nodes()[0];
        let print = cfg
            .nodes
            .iter()
            .position(|k| matches!(k, NodeKind::Op { label, .. } if label == "Print"))
            .expect("print exists");
        assert!(cfg.dominates(&idom, call, print));
        assert!(!cfg.dominates(&idom, print, call));
    }

    #[test]
    fn statement_in_other_branch_not_dominated() {
        let cfg = cfg_of("(defun f (l) (if l (f (cdr l)) (print l)))");
        let idom = cfg.immediate_dominators();
        let call = cfg.recursive_call_nodes()[0];
        let print = cfg
            .nodes
            .iter()
            .position(|k| matches!(k, NodeKind::Op { label, .. } if label == "Print"))
            .expect("print exists");
        assert!(!cfg.dominates(&idom, call, print));
    }

    #[test]
    fn while_loop_back_edge() {
        let cfg = cfg_of("(defun f (l) (while (consp l) (setq l (cdr l))) (print l))");
        let idom = cfg.immediate_dominators();
        assert!(cfg.dominates(&idom, ENTRY, EXIT));
        // The print after the loop is dominated by the loop test.
        let test = cfg
            .nodes
            .iter()
            .position(|k| matches!(k, NodeKind::Op { label, .. } if label == "while"))
            .expect("while node");
        let print = cfg
            .nodes
            .iter()
            .position(|k| matches!(k, NodeKind::Op { label, .. } if label == "Print"))
            .expect("print");
        assert!(cfg.dominates(&idom, test, print));
    }

    #[test]
    fn every_node_dominated_by_entry() {
        let cfg = cfg_of(
            "(defun f (l)
               (cond ((null l) nil)
                     (t (setf (cadr l) (car l)) (f (cdr l)))))",
        );
        let idom = cfg.immediate_dominators();
        for n in 0..cfg.nodes.len() {
            if idom[n] != usize::MAX {
                assert!(cfg.dominates(&idom, ENTRY, n), "node {n}");
            }
        }
    }

    #[test]
    fn dominance_is_antisymmetric_for_distinct_nodes() {
        let cfg = cfg_of("(defun f (x) (print x) (print (car x)))");
        let idom = cfg.immediate_dominators();
        for a in 0..cfg.nodes.len() {
            for b in 0..cfg.nodes.len() {
                if a != b && idom[a] != usize::MAX && idom[b] != usize::MAX {
                    assert!(
                        !(cfg.dominates(&idom, a, b) && cfg.dominates(&idom, b, a)),
                        "{a} and {b} dominate each other"
                    );
                }
            }
        }
    }
}
