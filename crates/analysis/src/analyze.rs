//! The combined per-function analysis and transformability verdict.
//!
//! [`Analyzer`] is the front door the transformer uses: built once per
//! program from what its functions share, its `analyse` runs access
//! collection, transfer functions, conflict detection, and the
//! head/tail partition, then decides which of the paper's devices
//! apply — and, per §6, explains *why* a function could not be
//! transformed, since "the unresolved conflicts that necessitate these
//! locks" are the programmer's tuning feedback. Nothing else prepares
//! a program: [`analyze_program`] is the same analyzer applied to every
//! function, [`analyze_function`] the analysis of a function with no
//! program around it.

use curare_lisp::ast::{Func, Program};

use crate::access::{collect_accesses, AccessSummary};
use crate::canon::Canonicalizer;
use crate::conflict::{conflict_report, ConflictReport};
use crate::declare::{DeclDb, DeclError};
use crate::headtail::{head_tail_in, CallCosts, HeadTail};
use crate::transfer::{transfer_functions, TransferSummary};

/// How a function can be executed concurrently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No conflicts: invocations may run fully concurrently.
    ConflictFree,
    /// Conflicts exist but every one has a finite distance; locking
    /// (or delays) preserves sequential semantics with concurrency
    /// bounded by the minimum distance.
    NeedsSynchronization {
        /// min(d₁…d_u) of §3.2.1.
        min_distance: usize,
    },
    /// Not transformable as-is; the reasons list what blocked it.
    Blocked,
    /// Not a recursive function — nothing for CRI to do.
    NotRecursive,
}

/// A reason the verdict was [`Verdict::Blocked`] (§6 feedback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockReason {
    /// A write whose root the analysis could not resolve.
    UnknownWrite,
    /// The function uses the value of a self-recursive call, so
    /// invocations cannot be spawned asynchronously (§5 discusses the
    /// enabling transformations that remove this).
    UsesCallResult,
    /// The programmer declared `dont-transform`.
    DeclaredOff,
    /// The function writes global variables with plain `setq`/`setf`;
    /// concurrent invocations would race. Declaring the update
    /// `reorderable` lets the reorder transform rewrite it to an
    /// atomic update (§3.2.3).
    GlobalWrite(Vec<String>),
}

/// Everything learned about one function.
#[derive(Debug, Clone)]
pub struct FunctionAnalysis {
    /// The function's name.
    pub name: String,
    /// Collected accesses.
    pub accesses: AccessSummary,
    /// Per-parameter transfer functions.
    pub transfers: TransferSummary,
    /// Conflicts and distances.
    pub conflicts: ConflictReport,
    /// Head/tail partition and concurrency estimate.
    pub head_tail: HeadTail,
    /// The verdict.
    pub verdict: Verdict,
    /// Reasons when blocked.
    pub reasons: Vec<BlockReason>,
}

impl FunctionAnalysis {
    /// The CRI concurrency bound: the head/tail estimate capped by the
    /// minimum conflict distance (§3.2.1).
    pub fn concurrency_bound(&self) -> f64 {
        let base = self.head_tail.concurrency();
        match self.conflicts.min_distance {
            Some(d) => base.min(d as f64),
            None => base,
        }
    }

    /// Render the §6-style feedback for the programmer.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("function {}:\n", self.name));
        out.push_str(&format!(
            "  recursive call sites: {}; head |H| = {}, tail |T| = {}, concurrency (|H|+|T|)/|H| = {:.2}\n",
            self.head_tail.recursive_calls,
            self.head_tail.head_size,
            self.head_tail.tail_size,
            self.head_tail.concurrency()
        ));
        for (i, t) in self.transfers.per_param.iter().enumerate() {
            out.push_str(&format!("  τ[{i}] = {}\n", t.regex()));
        }
        if self.conflicts.conflicts.is_empty() {
            out.push_str("  no conflicts detected\n");
        }
        for c in &self.conflicts.conflicts {
            out.push_str(&format!(
                "  conflict: write {} ⊙ {} at distance {}{}\n",
                c.write_path,
                c.other_path,
                c.distance,
                if c.persistent { " (persists at all larger distances)" } else { "" }
            ));
        }
        if !self.accesses.globals_written.is_empty() {
            out.push_str(&format!(
                "  global write(s): {} — declare the update reorderable or remove it\n",
                self.accesses.globals_written.iter().cloned().collect::<Vec<_>>().join(", ")
            ));
        }
        if self.conflicts.unknown_writes > 0 {
            out.push_str(&format!(
                "  {} write(s) with unanalyzable roots — supply declarations (§6)\n",
                self.conflicts.unknown_writes
            ));
        }
        out.push_str(&format!("  verdict: {:?}\n", self.verdict));
        out
    }
}

/// How much work the analyses of one restructuring did: plain counters
/// a caller passes down the call chain, so that re-analysing a form or
/// re-testing a pair shows as a count rather than as a timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Full [`FunctionAnalysis`] runs.
    pub functions_analysed: usize,
    /// Distinct `(root, path, write)` classes the access records of
    /// those functions collapsed into.
    pub path_classes: usize,
    /// `(write class, class)` pairs put to the conflict test.
    pub pair_tests: usize,
    /// Automata built: one per `(τ, d)`, each from `τᵈ⁻¹`.
    pub automata_built: usize,
    /// Statements lowered as `%curare-probe` functions by the devices.
    pub probe_lowerings: usize,
}

/// What the functions of one program share — its declarations, the
/// canonicalizer its `inverse` pairs resolve to (with one, every
/// conflict test is the canonical one, so benign-alias detours are
/// seen: §2.1) and the cost of every defun's body — and the one way to
/// analyse a function of it. The restructurer builds one per program
/// and hands it on in its output, so every later reader (`curare
/// analyze`, `check`, the lock certifier, the sanitizer) judges the
/// program by what the devices were chosen from.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    decls: DeclDb,
    canon: Option<Canonicalizer>,
    calls: CallCosts,
}

impl Analyzer {
    /// Prepare `prog`: collect its declarations, resolve its inverse
    /// pairs against its struct types, cost its bodies.
    pub fn of_program(prog: &Program) -> Result<Self, DeclError> {
        let decls = DeclDb::from_program(prog)?;
        let canon = (!decls.inverse_pairs().is_empty())
            .then(|| Canonicalizer::from_decls(&decls, &prog.structs));
        Ok(Analyzer { decls, canon, calls: CallCosts::of_program(prog) })
    }

    /// The program's declarations.
    pub fn decls(&self) -> &DeclDb {
        &self.decls
    }

    /// What the program's `inverse` declarations resolved to, if it
    /// made any.
    pub fn canonicalizer(&self) -> Option<&Canonicalizer> {
        self.canon.as_ref()
    }

    /// The head/tail partition of `func`, callee bodies costed from
    /// the program.
    pub fn head_tail(&self, func: &Func) -> HeadTail {
        head_tail_in(func, &self.calls)
    }

    /// Analyse one function of the program (or a rewriting of one).
    pub fn analyse(&self, func: &Func, stats: &mut AnalysisStats) -> FunctionAnalysis {
        stats.functions_analysed += 1;
        let accesses = collect_accesses(func);
        let transfers = transfer_functions(func);
        let conflicts = conflict_report(&accesses, &transfers, self.canon.as_ref(), stats);
        let ht = self.head_tail(func);

        let mut reasons = Vec::new();
        if self.decls.transform_requested(&func.name) == Some(false) {
            reasons.push(BlockReason::DeclaredOff);
        }
        if conflicts.unknown_writes > 0 {
            reasons.push(BlockReason::UnknownWrite);
        }
        // A function whose recursive results feed further computation
        // cannot spawn its invocations asynchronously (§3.1). Free calls
        // and tail-position calls are fine: neither needs the value before
        // proceeding.
        if ht.recursive_calls > 0 && ht.value_position_calls > 0 {
            reasons.push(BlockReason::UsesCallResult);
        }
        if ht.recursive_calls > 0 && !accesses.globals_written.is_empty() {
            reasons
                .push(BlockReason::GlobalWrite(accesses.globals_written.iter().cloned().collect()));
        }

        let verdict = if ht.recursive_calls == 0 {
            Verdict::NotRecursive
        } else if !reasons.is_empty() {
            Verdict::Blocked
        } else if conflicts.is_conflict_free() {
            Verdict::ConflictFree
        } else {
            match conflicts.min_distance {
                Some(d) => Verdict::NeedsSynchronization { min_distance: d },
                None => Verdict::ConflictFree,
            }
        };

        FunctionAnalysis {
            name: func.name.clone(),
            accesses,
            transfers,
            conflicts,
            head_tail: ht,
            verdict,
            reasons,
        }
    }
}

/// Analyze one function on its own under `decls`: no canonicalizer,
/// and every call of another defun costs its side of the partition
/// unbounded.
pub fn analyze_function(func: &Func, decls: &DeclDb) -> FunctionAnalysis {
    let alone = Analyzer { decls: decls.clone(), ..Analyzer::default() };
    alone.analyse(func, &mut AnalysisStats::default())
}

/// Analyze every function of a lowered program, as the restructurer
/// does: under the program's declarations and canonicalizer, with
/// head/tail costs that include callee bodies.
pub fn analyze_program(prog: &Program) -> Result<Vec<FunctionAnalysis>, DeclError> {
    let analyzer = Analyzer::of_program(prog)?;
    let stats = &mut AnalysisStats::default();
    Ok(prog.funcs.iter().map(|f| analyzer.analyse(f, stats)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_all;

    fn analyze(src: &str) -> FunctionAnalysis {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        let decls = DeclDb::from_program(&prog).unwrap();
        analyze_function(&prog.funcs[0], &decls)
    }

    #[test]
    fn figure_3_conflict_free() {
        let a = analyze("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        assert_eq!(a.verdict, Verdict::ConflictFree);
        assert!(a.reasons.is_empty());
    }

    #[test]
    fn figure_5_needs_synchronization_at_distance_1() {
        let a = analyze(
            "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))",
        );
        assert_eq!(a.verdict, Verdict::NeedsSynchronization { min_distance: 1 });
        assert!((a.concurrency_bound() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_recursive_function() {
        let a = analyze("(defun f (l) (car l))");
        assert_eq!(a.verdict, Verdict::NotRecursive);
    }

    #[test]
    fn value_using_recursion_is_blocked() {
        let a = analyze("(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))");
        assert_eq!(a.verdict, Verdict::Blocked);
        assert!(a.reasons.contains(&BlockReason::UsesCallResult));
    }

    #[test]
    fn tail_recursion_is_not_blocked() {
        let a = analyze("(defun walk (l) (if (null l) nil (walk (cdr l))))");
        assert_eq!(a.verdict, Verdict::ConflictFree);
    }

    #[test]
    fn dont_transform_declaration_blocks() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(
                &parse_all(
                    "(curare-declare (dont-transform f))
                     (defun f (l) (when l (print (car l)) (f (cdr l))))",
                )
                .unwrap(),
            )
            .unwrap();
        let decls = DeclDb::from_program(&prog).unwrap();
        let a = analyze_function(&prog.funcs[0], &decls);
        assert_eq!(a.verdict, Verdict::Blocked);
        assert!(a.reasons.contains(&BlockReason::DeclaredOff));
    }

    #[test]
    fn unknown_write_blocks_with_reason() {
        let a = analyze("(defun f (l) (setf (car *g*) 1) (f (cdr l)))");
        assert_eq!(a.verdict, Verdict::Blocked);
        assert!(a.reasons.contains(&BlockReason::UnknownWrite));
        assert!(a.explain().contains("unanalyzable roots"));
    }

    #[test]
    fn explain_contains_tau_and_conflicts() {
        let a = analyze("(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
        let text = a.explain();
        assert!(text.contains("τ[0] = cdr"), "{text}");
        assert!(text.contains("distance 1"), "{text}");
    }

    #[test]
    fn concurrency_bound_capped_by_distance() {
        // Head-recursive with lots of tail work but a distance-2
        // conflict: bound = 2.
        let a = analyze(
            "(defun f (l)
               (when l
                 (setf (caddr l) (car l))
                 (f (cdr l))
                 (print l) (print l) (print l) (print l)
                 (print l) (print l) (print l) (print l)))",
        );
        assert_eq!(a.conflicts.min_distance, Some(2));
        assert!(a.concurrency_bound() <= 2.0);
    }

    #[test]
    fn global_write_blocks_recursive_function() {
        let a = analyze(
            "(defun walk (l)
               (when l
                 (setq *sum* (+ *sum* (car l)))
                 (walk (cdr l))))",
        );
        assert_eq!(a.verdict, Verdict::Blocked);
        assert!(a.reasons.iter().any(
            |r| matches!(r, BlockReason::GlobalWrite(gs) if gs.contains(&"*sum*".to_string()))
        ));
    }

    #[test]
    fn atomic_incf_does_not_block() {
        let a = analyze(
            "(defun walk (l)
               (when l
                 (atomic-incf *sum* (car l))
                 (walk (cdr l))))",
        );
        assert_eq!(a.verdict, Verdict::ConflictFree, "{:?}", a.reasons);
    }

    #[test]
    fn global_write_in_non_recursive_function_is_fine() {
        let a = analyze("(defun set-it (v) (setq *g* v))");
        assert_eq!(a.verdict, Verdict::NotRecursive);
    }

    #[test]
    fn canonicalizer_changes_the_verdict_for_backward_writers() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(
                &parse_all(
                    "(defun walk (n)
                       (when n
                         (when (dl-pred n)
                           (setf (dl-value (dl-pred n)) (dl-value n)))
                         (walk (dl-succ n))))
                     (curare-declare (inverse succ pred))
                     (defstruct dl succ pred value)",
                )
                .unwrap(),
            )
            .unwrap();

        // The function alone, then as a function of its program: the
        // struct type and the declaration below it are the program's.
        let plain = analyze_function(&prog.funcs[0], &DeclDb::new());
        let canonical = analyze_program(&prog).unwrap().remove(0);
        assert!(
            canonical.conflicts.min_distance.is_some(),
            "canonical analysis must find the backward-write conflict"
        );
        assert!(
            plain.conflicts.min_distance.is_none()
                || plain.conflicts.conflicts.len() < canonical.conflicts.conflicts.len(),
            "the canonicalizer adds conflicts the plain test misses"
        );
    }

    #[test]
    fn analyze_program_covers_all_functions() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw
            .lower_program(
                &parse_all(
                    "(defun a (l) (when l (a (cdr l))))
                     (defun b (l) (car l))",
                )
                .unwrap(),
            )
            .unwrap();
        let all = analyze_program(&prog).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].verdict, Verdict::ConflictFree);
        assert_eq!(all[1].verdict, Verdict::NotRecursive);
    }
}
