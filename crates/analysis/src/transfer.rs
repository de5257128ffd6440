//! Transfer functions (paper §2.1).
//!
//! For a parameter `v` of a recursive function, the transfer function
//! `τ_v` is "the accessor of the difference in the value of `v`"
//! between one invocation and the next. The function of Figure 3
//! (`(f (cdr l))`) has `τ_l = cdr`; `remq`'s `obj` parameter has
//! `τ_obj = ε`; a parameter whose next value cannot be expressed as an
//! accessor chain over its current value gets `τ = A*` (everything is
//! possible). Multiple recursive call sites combine with `|`
//! (flow-insensitively, as the paper specifies).

use std::collections::BTreeSet;

use curare_lisp::ast::{Expr, Func};
use curare_lisp::SymId;

use crate::access::{chase, solve_aliases};
use crate::path::Path;
use crate::regex::PathRegex;

/// The per-invocation transfer function of one parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transfer {
    /// Every recursive call passes an accessor chain of this
    /// parameter; the set holds one path per call site (ε = unchanged).
    Literal(BTreeSet<Path>),
    /// At least one call site passes something unanalyzable: `A*`.
    Unknown,
}

impl Transfer {
    /// Regex for one application of τ.
    pub fn regex(&self) -> PathRegex {
        match self {
            Transfer::Unknown => PathRegex::any_star(),
            Transfer::Literal(paths) => {
                let mut it = paths.iter();
                let Some(first) = it.next() else {
                    // No recursive call passes this parameter: treat as
                    // unchanged.
                    return PathRegex::Empty;
                };
                let mut re = PathRegex::literal(first);
                for p in it {
                    re = re.or(PathRegex::literal(p));
                }
                re
            }
        }
    }

    /// Shortest single-application path length (0 for ε, `None` for
    /// unknown). Used to bound the conflict-distance search.
    pub fn min_step_len(&self) -> Option<usize> {
        match self {
            Transfer::Unknown => None,
            Transfer::Literal(paths) => paths.iter().map(Path::len).min(),
        }
    }
}

/// Transfer functions for every parameter of one function, plus the
/// recursive call sites they were derived from.
#[derive(Debug, Clone)]
pub struct TransferSummary {
    /// `τ` per parameter, indexed like `func.params`.
    pub per_param: Vec<Transfer>,
    /// Number of self-recursive call sites found (direct calls,
    /// futures, and enqueues).
    pub call_sites: usize,
}

/// Find the self-recursive call argument lists of `func`.
fn self_call_args(func: &Func) -> Vec<&[Expr]> {
    let mut sites = Vec::new();
    fn walk<'a>(e: &'a Expr, name: SymId, sites: &mut Vec<&'a [Expr]>) {
        match e {
            Expr::Call { name: n, args, .. }
            | Expr::Future { name: n, args, .. }
            | Expr::Enqueue { name: n, args, .. }
                if *n == name =>
            {
                sites.push(args.as_slice());
            }
            _ => {}
        }
        e.for_children(&mut |c| walk(c, name, sites));
    }
    for e in &func.body {
        walk(e, func.name_sym, &mut sites);
    }
    sites
}

/// Compute the transfer functions of `func`'s parameters.
///
/// Non-recursive functions return an empty-site summary with every
/// parameter `ε` (they have no inter-invocation relation to model).
pub fn transfer_functions(func: &Func) -> TransferSummary {
    let aliases = solve_aliases(func);
    let sites = self_call_args(func);
    let mut per_param = Vec::with_capacity(func.params.len());
    for i in 0..func.params.len() {
        let mut acc: Option<Transfer> = None;
        for args in &sites {
            let contribution = match args.get(i) {
                // CRI enqueue sites can carry extra args; index by
                // position among the original parameters.
                Some(arg) => match chase(arg, &aliases) {
                    Some((root, paths)) if root == i => Transfer::Literal(paths),
                    _ => Transfer::Unknown,
                },
                None => Transfer::Unknown,
            };
            acc = Some(match (acc, contribution) {
                (None, c) => c,
                (Some(Transfer::Unknown), _) | (Some(_), Transfer::Unknown) => Transfer::Unknown,
                (Some(Transfer::Literal(mut a)), Transfer::Literal(b)) => {
                    a.extend(b);
                    Transfer::Literal(a)
                }
            });
        }
        per_param.push(acc.unwrap_or_else(|| Transfer::Literal(BTreeSet::new())));
    }
    TransferSummary { per_param, call_sites: sites.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::parse_list_path;
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_all;

    fn summary_of(src: &str) -> TransferSummary {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        transfer_functions(&prog.funcs[0])
    }

    fn literal(paths: &[&str]) -> Transfer {
        Transfer::Literal(paths.iter().map(|p| parse_list_path(p).unwrap()).collect())
    }

    #[test]
    fn figure_3_tau_is_cdr() {
        let s = summary_of("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        assert_eq!(s.call_sites, 1);
        assert_eq!(s.per_param[0], literal(&["cdr"]));
        assert_eq!(s.per_param[0].regex().to_string(), "cdr");
    }

    #[test]
    fn remq_obj_is_identity() {
        let s = summary_of(
            "(defun remq (obj lst)
               (cond ((null lst) nil)
                     ((eq obj (car lst)) (remq obj (cdr lst)))
                     (t (cons (car lst) (remq obj (cdr lst))))))",
        );
        assert_eq!(s.call_sites, 2);
        assert_eq!(s.per_param[0], literal(&["ε"]));
        assert_eq!(s.per_param[1], literal(&["cdr"]));
    }

    #[test]
    fn two_sites_alternate() {
        // Binary tree walk: τ = left|right (as struct fields).
        let s = summary_of(
            "(defstruct node left right value)
             (defun walk (n)
               (when n
                 (walk (node-left n))
                 (walk (node-right n))))",
        );
        assert_eq!(s.call_sites, 2);
        let Transfer::Literal(paths) = &s.per_param[0] else { panic!("{:?}", s.per_param[0]) };
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn skipping_two_is_cddr() {
        let s = summary_of("(defun f (l) (when l (f (cddr l))))");
        assert_eq!(s.per_param[0], literal(&["cdr.cdr"]));
    }

    #[test]
    fn unanalyzable_arg_is_unknown() {
        let s = summary_of("(defun f (l) (when l (f (reverse l))))");
        assert_eq!(s.per_param[0], Transfer::Unknown);
        assert_eq!(s.per_param[0].regex(), PathRegex::any_star());
        assert!(s.per_param[0].min_step_len().is_none());
    }

    #[test]
    fn cross_parameter_flow_is_unknown() {
        // Arg for param 0 is a chain over param 1.
        let s = summary_of("(defun f (a b) (when a (f (cdr b) b)))");
        assert_eq!(s.per_param[0], Transfer::Unknown);
        assert_eq!(s.per_param[1], literal(&["ε"]));
    }

    #[test]
    fn non_recursive_function_has_no_sites() {
        let s = summary_of("(defun f (l) (car l))");
        assert_eq!(s.call_sites, 0);
        assert_eq!(s.per_param[0], literal(&[]));
    }

    #[test]
    fn enqueue_and_future_sites_count() {
        let s = summary_of("(defun f (l) (when l (cri-enqueue 0 f (cdr l))))");
        assert_eq!(s.call_sites, 1);
        assert_eq!(s.per_param[0], literal(&["cdr"]));
        let s = summary_of("(defun f (l) (when l (future (f (cdr l)))))");
        assert_eq!(s.call_sites, 1);
        assert_eq!(s.per_param[0], literal(&["cdr"]));
    }

    #[test]
    fn min_step_len() {
        assert_eq!(literal(&["cdr"]).min_step_len(), Some(1));
        assert_eq!(literal(&["cdr.cdr", "cdr"]).min_step_len(), Some(1));
        assert_eq!(literal(&["ε"]).min_step_len(), Some(0));
    }
}
