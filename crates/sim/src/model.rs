//! Bridging the static analysis to the simulator.
//!
//! The analysis crate measures `|H|`, `|T|`, and conflict distances of
//! a real function (paper §3.1–3.2); this module turns those measures
//! into a [`SimConfig`] so the simulator can
//! predict the function's CRI behaviour at any depth and server count.

use curare_analysis::FunctionAnalysis;

use crate::engine::SimConfig;
use crate::formula;

/// The timing-relevant shape of one analyzed function.
#[derive(Debug, Clone)]
pub struct FunctionModel {
    /// Head size |H| (≥ 1: the recursive call is always in the head).
    pub head: u64,
    /// Tail size |T|.
    pub tail: u64,
    /// Minimum conflict distance, if any conflicts exist.
    pub conflict_distance: Option<u64>,
    /// Number of self-recursive call sites.
    pub sites: usize,
}

impl FunctionModel {
    /// Extract the model from a function analysis.
    pub fn from_analysis(analysis: &FunctionAnalysis) -> Self {
        FunctionModel {
            head: analysis.head_tail.head_size.max(1) as u64,
            tail: analysis.head_tail.tail_size as u64,
            conflict_distance: analysis.conflicts.min_distance.map(|d| d as u64),
            sites: analysis.head_tail.recursive_calls,
        }
    }

    /// The §3.1 concurrency estimate for this function.
    pub fn concurrency(&self) -> f64 {
        let base = formula::concurrency(self.head as f64, self.tail as f64);
        match self.conflict_distance {
            Some(d) => base.min(d as f64),
            None => base,
        }
    }

    /// A simulator configuration for `depth` invocations on `servers`.
    pub fn config(&self, depth: u64, servers: u64) -> SimConfig {
        let mut cfg = SimConfig::new(depth, servers, self.head, self.tail);
        if let Some(d) = self.conflict_distance {
            cfg = cfg.with_conflict_distance(d);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use curare_analysis::{analyze_function, DeclDb};
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_all;

    fn model_of(src: &str) -> FunctionModel {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        FunctionModel::from_analysis(&analyze_function(&prog.funcs[0], &DeclDb::new()))
    }

    #[test]
    fn tail_recursive_model_has_no_tail() {
        let m = model_of("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        assert_eq!(m.tail, 0);
        assert!(m.head >= 1);
        assert_eq!(m.concurrency(), 1.0);
        assert_eq!(m.sites, 1);
    }

    #[test]
    fn head_recursive_model_has_tail_work() {
        let m = model_of(
            "(defun f (l)
               (when l
                 (f (cdr l))
                 (print (car l)) (print (car l)) (print (car l))))",
        );
        assert!(m.tail > 0, "{m:?}");
        assert!(m.concurrency() > 1.0);
    }

    #[test]
    fn conflicts_cap_the_model_concurrency() {
        let m = model_of(
            "(defun f (acc l)
               (when l
                 (f acc (cdr l))
                 (setf (car acc) (+ (car acc) (car l)))))",
        );
        assert_eq!(m.conflict_distance, Some(1));
        assert_eq!(m.concurrency(), 1.0);
    }

    #[test]
    fn model_drives_simulation() {
        let m = FunctionModel { head: 2, tail: 6, conflict_distance: Some(2), sites: 1 };
        let r = simulate(&m.config(1000, 8));
        assert!(r.achieved_concurrency <= 2.0 + 1e-9);
        assert!(r.speedup > 1.5, "{}", r.speedup);
    }
}
