//! Conflict detection between recursive invocations (paper §2).
//!
//! A structure modification `M = ⟨A₁, v⟩` in invocation `i` conflicts
//! with an access `⟨A₂, v⟩` in invocation `i+d` when `A₁ ≤ τ^d ∘ A₂`
//! (the written location lies on the later access's path), and
//! symmetrically when the later reference is the modification. The
//! *distance* of a conflict is the number of invocations separating
//! the references; the minimum distance bounds the concurrency that
//! locking can retain (§3.2.1: "the maximum concurrency of f is no
//! more than min(d₁ … d_u)").

use std::collections::{HashMap, HashSet};

use crate::access::{collect_accesses, AccessRecord, AccessSummary};
use crate::analyze::AnalysisStats;
use crate::canon::Canonicalizer;
use crate::canon_conflict::CanonShifts;
use crate::path::Path;
use crate::regex::{PowerChain, PowerTrace};
use crate::transfer::{transfer_functions, Transfer, TransferSummary};
use curare_lisp::ast::Func;

/// Whether a conflict involves two writes or a write and a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependencyKind {
    /// Flow or anti dependency (one write, one read — which is which
    /// depends on execution order the flow-insensitive analysis does
    /// not track).
    WriteRead,
    /// Output dependency.
    WriteWrite,
}

/// One detected conflict between invocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// Parameter the conflicting paths are rooted at.
    pub root: usize,
    /// The modification path.
    pub write_path: Path,
    /// The other access's path.
    pub other_path: Path,
    /// Kind of dependency.
    pub kind: DependencyKind,
    /// Minimum distance (in invocations) at which the conflict occurs.
    pub distance: usize,
    /// True if the conflict recurs at every distance ≥ `distance`
    /// (e.g. a write through an invariant pointer).
    pub persistent: bool,
}

/// The conflict analysis of one function.
#[derive(Debug, Clone)]
pub struct ConflictReport {
    /// All conflicts, deduplicated by (root, paths, kind).
    pub conflicts: Vec<Conflict>,
    /// The smallest conflict distance, if any conflict exists.
    pub min_distance: Option<usize>,
    /// Writes whose roots the analysis could not resolve; a nonzero
    /// count means the function cannot be proven safe.
    pub unknown_writes: usize,
    /// Unresolvable reads (informational).
    pub unknown_reads: usize,
}

impl ConflictReport {
    /// True when no conflicts and no unknown writes exist: invocations
    /// may run fully concurrently without synchronization.
    pub fn is_conflict_free(&self) -> bool {
        self.conflicts.is_empty() && self.unknown_writes == 0
    }
}

/// Largest distance probed when a conflict's persistence is checked.
fn distance_bound(write: usize, other: usize, tau: &Transfer) -> usize {
    match tau.min_step_len() {
        // Unknown τ: distance 1 already conflicts; no need to search.
        None => 1,
        Some(0) => write.max(other) + 2,
        Some(step) => (write + other) / step + 2,
    }
}

/// The distinct `(root, path, write)` classes of `records`, each by
/// its first record, in first-occurrence order. The conflict test
/// reads nothing else of a record, so a body that loads one word
/// sixteen times asks its questions once.
fn path_classes(records: &[AccessRecord]) -> Vec<&AccessRecord> {
    let mut seen = HashSet::new();
    records.iter().filter(|r| seen.insert((r.root, &r.path, r.write))).collect()
}

/// The pair tests of one parameter: τ's powers as one automaton, deep
/// enough for the longest pair's bound, and one simulation per
/// distinct path.
struct PairEngine<'a> {
    tau: &'a Transfer,
    traces: HashMap<&'a Path, PowerTrace>,
}

impl<'a> PairEngine<'a> {
    fn new(tau: &'a Transfer, classes: &[&'a AccessRecord], stats: &mut AnalysisStats) -> Self {
        let longest = |writes_only: bool| {
            let lens = classes.iter().filter(|c| c.write || !writes_only).map(|c| c.path.len());
            lens.max().unwrap_or(0)
        };
        let deepest = distance_bound(longest(true), longest(false), tau) + 1;
        let chain = PowerChain::new(&tau.regex(), deepest);
        stats.automata_built += deepest;
        let traces = classes.iter().map(|c| (&c.path, chain.trace(&c.path))).collect();
        PairEngine { tau, traces }
    }

    /// Detect conflicts between `write` and `other` under τ, returning
    /// the minimal distance and persistence.
    ///
    /// Two orientations, because the flow-insensitive analysis does not
    /// know which frame runs first:
    ///
    /// - **write earlier** (`A₁ ≤ τ^d ∘ A₂`, `A₁` the modification): the
    ///   write lands on — or strictly above, on the traversal of — the
    ///   path the invocation `d` frames later accesses. Either the
    ///   write is a prefix of a string of `τ^d` alone, or it splits
    ///   into one and a prefix of `other`.
    /// - **write later**: the word the later invocation writes, seen from
    ///   the earlier frame, is `τ^d ∘ write`; it conflicts when it IS the
    ///   earlier access's word or a pointer word on its traversal — i.e.
    ///   `other` splits into a string of `τ^d`, then `write`, then any
    ///   rest. A *strictly shorter* earlier read of a pointer whose
    ///   subtree is later written names a different word and is no
    ///   conflict (the deeper traversal-read case is the swapped pair's
    ///   write-earlier orientation).
    fn test(&self, write: &Path, other: &Path) -> Option<(usize, bool)> {
        let bound = distance_bound(write.len(), other.len(), self.tau);
        let (tw, to) = (&self.traces[write], &self.traces[other]);
        let (w, o) = (write.accessors(), other.accessors());
        let hits = |d: usize| {
            tw.is_prefix_in(d)
                || (0..=w.len()).any(|i| tw.splits_at(i, d) && o.starts_with(&w[i..]))
                || (0..=o.len())
                    .any(|i| i + w.len() >= 1 && to.splits_at(i, d) && o[i..].starts_with(w))
        };
        let d0 = (1..=bound).find(|&d| hits(d))?;
        // Persistence: by the prefix-stability argument (once d·|τ|min
        // exceeds |write|, the reachable prefixes stop changing), testing
        // one distance past the bound decides all larger distances.
        Some((d0, hits(bound + 1)))
    }
}

/// Run the full conflict analysis for `func`.
pub fn analyze_conflicts(func: &Func) -> ConflictReport {
    let accesses = collect_accesses(func);
    let transfers = transfer_functions(func);
    conflicts_from_parts(&accesses, &transfers)
}

/// Conflict analysis from precomputed accesses and transfers.
pub fn conflicts_from_parts(
    accesses: &AccessSummary,
    transfers: &TransferSummary,
) -> ConflictReport {
    conflict_report(accesses, transfers, None, &mut AnalysisStats::default())
}

/// The conflict engine: every write class of a parameter against every
/// class of that parameter (the paper's formula naturally covers a
/// write against itself), by the string-prefix test and, under a
/// canonicalizer that can rewrite one of the parameter's paths, by the
/// canonical-alias test as well.
///
/// Where neither τ's steps nor the parameter's paths hold a letter of
/// an inverse pair, canonicalisation is the identity on every string
/// the alias test builds. It then asks the prefix test's own two
/// questions (`write ≤ τᵈ∘other`; `other = τᵈ·write·rest`), over
/// distances past which those answers no longer change, so it can
/// never find a distance below the prefix test's and is skipped.
pub(crate) fn conflict_report(
    accesses: &AccessSummary,
    transfers: &TransferSummary,
    canon: Option<&Canonicalizer>,
    stats: &mut AnalysisStats,
) -> ConflictReport {
    let classes = path_classes(&accesses.records);
    stats.path_classes += classes.len();
    let mut conflicts = Vec::new();
    let mut aliases = Vec::new();
    for (root, tau) in transfers.per_param.iter().enumerate() {
        let mine: Vec<&AccessRecord> = classes.iter().filter(|c| c.root == root).copied().collect();
        if !mine.iter().any(|c| c.write) {
            continue;
        }
        let engine = PairEngine::new(tau, &mine, stats);
        let steps = match tau {
            Transfer::Literal(steps) => Some(steps),
            Transfer::Unknown => None,
        };
        let mut paths = steps.into_iter().flatten().chain(mine.iter().map(|c| &c.path));
        let mut shifts = canon
            .filter(|canon| paths.any(|p| canon.touches(p)))
            .map(|canon| CanonShifts::new(tau, canon));
        for w in mine.iter().filter(|c| c.write) {
            for o in &mine {
                stats.pair_tests += 1;
                stats.alias_tests += usize::from(shifts.is_some());
                let kind =
                    if o.write { DependencyKind::WriteWrite } else { DependencyKind::WriteRead };
                let conflict = |distance, persistent| Conflict {
                    root,
                    write_path: w.path.clone(),
                    other_path: o.path.clone(),
                    kind,
                    distance,
                    persistent,
                };
                let plain = engine.test(&w.path, &o.path);
                if let Some((distance, persistent)) = plain {
                    conflicts.push(conflict(distance, persistent));
                }
                // A canonical alias counts only below the distance the
                // prefix test already reports for the pair.
                if let Some(d) = shifts.as_mut().and_then(|s| s.alias_distance(&w.path, &o.path)) {
                    if plain.is_none_or(|(d0, _)| d < d0) {
                        aliases.push(conflict(d, false));
                    }
                }
            }
        }
    }
    conflicts.append(&mut aliases);
    conflicts.sort_by_key(|c| (c.distance, c.root));
    let min_distance = conflicts.first().map(|c| c.distance);
    ConflictReport {
        conflicts,
        min_distance,
        unknown_writes: accesses.unknown_writes,
        unknown_reads: accesses.unknown_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_all;

    fn report_of(src: &str) -> ConflictReport {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        analyze_conflicts(&prog.funcs[0])
    }

    #[test]
    fn figure_3_is_conflict_free() {
        let r = report_of("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        assert!(r.is_conflict_free(), "{r:?}");
        assert_eq!(r.min_distance, None);
    }

    #[test]
    fn figure_4_conflict_at_distance_1() {
        // "the distance of the conflict is 1 since the location written
        // in an invocation is read in the subsequent one" (§2.1).
        let r = report_of("(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))");
        assert_eq!(r.min_distance, Some(1), "{r:?}");
        let c = &r.conflicts[0];
        assert_eq!(c.write_path.to_string(), "cdr.car");
        assert_eq!(c.kind, DependencyKind::WriteRead);
    }

    #[test]
    fn figure_5_conflicts() {
        // §2.2: A2 ⊙₁ A3 (cdr.car vs car); A2 does not conflict with A1.
        let r = report_of(
            "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))",
        );
        assert_eq!(r.min_distance, Some(1));
        // The write cdr.car conflicts with read car at distance 1...
        assert!(r.conflicts.iter().any(|c| c.write_path.to_string() == "cdr.car"
            && c.other_path.to_string() == "car"
            && c.distance == 1));
        // ...but never with the read of cdr (cdr⁺.car is never a
        // prefix of all-cdr strings).
        assert!(!r
            .conflicts
            .iter()
            .any(|c| c.write_path.to_string() == "cdr.car" && c.other_path.to_string() == "cdr"));
    }

    #[test]
    fn skip_two_conflict_distance_two() {
        // Write one cell ahead but recurse two: conflict at distance...
        // write path cdr.car, τ = cdr.cdr, read path car:
        // cdr.car ≤ (cdr.cdr)^d.car? d=1: cdr.cdr.car no (needs
        // cdr.car prefix → second letter car vs cdr: no). So no
        // conflict with car. But write cdr.car vs read cdr.car:
        // (cdr.cdr)^d.cdr.car: d=1 gives cdr.cdr.cdr.car; prefix
        // cdr.car fails. Self-pair: cdr.car vs cdr.car at d where
        // τ^d = ε? never. So conflict-free!
        let r = report_of(
            "(defun f (l)
               (when l
                 (setf (cadr l) (car l))
                 (f (cddr l))))",
        );
        assert!(r.is_conflict_free(), "{r:?}");
    }

    #[test]
    fn write_two_ahead_read_current_distance_two() {
        // (setf (caddr l) (car l)), τ = cdr: write cdr.cdr.car; read
        // car. cdr.cdr.car ≤ cdr^d.car ⇔ d = 2.
        let r = report_of(
            "(defun f (l)
               (when l
                 (setf (caddr l) (car l))
                 (f (cdr l))))",
        );
        assert_eq!(r.min_distance, Some(2), "{r:?}");
    }

    #[test]
    fn invariant_pointer_write_is_persistent_distance_1() {
        // Writing through an unchanged parameter hits the same cell in
        // every invocation: conflict at every distance.
        let r = report_of(
            "(defun f (acc l)
               (when l
                 (setf (car acc) (+ (car acc) (car l)))
                 (f acc (cdr l))))",
        );
        assert_eq!(r.min_distance, Some(1));
        assert!(r.conflicts.iter().any(|c| c.persistent), "{r:?}");
        // Output dependency with itself is among them.
        assert!(r.conflicts.iter().any(|c| c.kind == DependencyKind::WriteWrite));
    }

    #[test]
    fn unknown_tau_forces_conflict() {
        let r = report_of(
            "(defun f (l)
               (when l
                 (setf (car l) 1)
                 (f (reverse l))))",
        );
        assert_eq!(r.min_distance, Some(1), "{r:?}");
    }

    #[test]
    fn unknown_write_blocks() {
        let r = report_of("(defun f (l) (setf (car *global*) 1) (f (cdr l)))");
        assert!(!r.is_conflict_free());
        assert_eq!(r.unknown_writes, 1);
        assert!(r.conflicts.is_empty());
    }

    #[test]
    fn pure_reader_state_never_conflicts() {
        let r = report_of("(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))");
        assert!(r.is_conflict_free());
    }

    #[test]
    fn writes_on_different_parameters_do_not_interact() {
        // Without aliasing declarations the analysis treats distinct
        // parameters as distinct SAPP roots (the paper's no-alias
        // assumption, which declarations assert).
        let r = report_of(
            "(defun f (a b)
               (when a
                 (setf (car a) (car b))
                 (f (cdr a) (cdr b))))",
        );
        // write car (root a) vs read car (root b): different roots.
        // write car vs τ^d.car on root a: car ≤ cdr^d.car fails.
        assert!(r.is_conflict_free(), "{r:?}");
    }

    #[test]
    fn dps_output_writes_have_distance_conflicts_only_via_dest() {
        // remq-d writes (cdr dest) where dest's τ is unknown-ish: dest
        // is rebound to a fresh cell at some sites and itself at
        // others. The blank-slate analysis must find a potential
        // conflict (paper §5: "CURARE's conflict-detection algorithm is
        // flow-insensitive and hence the function would need
        // synchronization code").
        let r = report_of(
            "(defun remq-d (dest obj lst)
               (cond ((null lst) (setf (cdr dest) nil))
                     ((eq obj (car lst)) (remq-d dest obj (cdr lst)))
                     (t (let ((cell (cons (car lst) nil)))
                          (remq-d cell obj (cdr lst))
                          (setf (cdr dest) cell)))))",
        );
        assert!(!r.is_conflict_free(), "{r:?}");
    }

    #[test]
    fn shallow_write_conflicts_with_deeper_read_ahead() {
        // The write happens in the *later* frame: invocation i reads
        // (car (cdr l)) — the word invocation i+1 writes with
        // (setf (car l) ...). τ∘car = cdr.car = the read path exactly.
        let r = report_of(
            "(defun fw (l)
               (when (cdr l)
                 (fw (cdr l))
                 (setf (car l) (* (car l) 2))
                 (car (cdr l))))",
        );
        assert_eq!(r.min_distance, Some(1), "{r:?}");
        assert!(r.conflicts.iter().any(|c| c.write_path.to_string() == "car"
            && c.other_path.to_string() == "cdr.car"
            && c.kind == DependencyKind::WriteRead));
        // The guard's pure-cdr read names spine pointers, not the
        // written car word: no conflict with it.
        assert!(!r.conflicts.iter().any(|c| c.other_path.to_string() == "cdr"));
    }

    #[test]
    fn read_window_conflict_distance_is_window_depth() {
        // Reads k=2 cells ahead of the write: the later frame's write,
        // seen from the reading frame, is cdr^d.car; it equals the
        // read path cdr.cdr.car only at d = 2.
        let r = report_of(
            "(defun fw (l)
               (when (cdr (cdr l))
                 (fw (cdr l))
                 (setf (car l) (* (car l) 2))
                 (car (cdr (cdr l)))))",
        );
        assert!(
            r.conflicts.iter().any(|c| c.write_path.to_string() == "car"
                && c.other_path.to_string() == "cdr.cdr.car"
                && c.distance == 2),
            "{r:?}"
        );
    }

    #[test]
    fn shorter_pointer_read_is_not_a_conflict_with_deeper_write() {
        // Invocation i reads the pointer word cdr; invocation i+d
        // writes cdr^{d+1}.car — a different word. The traversal-read
        // direction (later frame reads what an earlier frame wrote) is
        // the forward orientation and fires only when the write is a
        // prefix of the translated access, which all-cdr strings never
        // let cdr.car be.
        let r = report_of(
            "(defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (setf (cadr l) 1)))",
        );
        assert!(!r.conflicts.iter().any(|c| c.other_path.to_string() == "cdr"), "{r:?}");
    }

    /// Where no string holds a paired letter, canonicalisation is the
    /// identity and the canonical test may be skipped: on generated
    /// list and struct paths and τs, a canonicalizer that touches
    /// nothing (no alias test runs) reports what one pairing every
    /// present letter with an absent partner reports (the alias test
    /// runs on every pair, canonicalising nothing), and what no
    /// canonicalizer reports.
    #[test]
    fn the_alias_test_adds_nothing_where_no_paired_letter_appears() {
        use crate::path::Accessor;
        use std::collections::BTreeSet;

        use curare_testkit::Rng;
        let field = |ty, field| Accessor::Field { ty, field };
        let letters = [Accessor::Car, Accessor::Cdr, field(0, 0), field(0, 1)];
        fn path(rng: &mut Rng, letters: &[Accessor], min: usize, max: usize) -> Path {
            let len = min + rng.below(max - min + 1);
            Path::from((0..len).map(|_| *rng.pick(letters)).collect::<Vec<_>>())
        }
        let mut untouched = Canonicalizer::identity();
        untouched.add_pair(field(7, 0), field(7, 1));
        let mut forced = Canonicalizer::identity();
        for (i, &a) in letters.iter().enumerate() {
            forced.add_pair(a, field(9, i as u32));
        }
        let mut rng = Rng::new(0x5eed);
        let (mut alias_tests, mut conflicts) = (0, 0);
        for case in 0..300 {
            let mut per_param = Vec::new();
            for _ in 0..2 {
                per_param.push(match rng.below(8) {
                    0 => Transfer::Unknown,
                    1 => Transfer::Literal(BTreeSet::new()),
                    _ => {
                        let n = 1 + rng.below(2);
                        Transfer::Literal((0..n).map(|_| path(&mut rng, &letters, 0, 2)).collect())
                    }
                });
            }
            let mut records = Vec::new();
            for _ in 0..2 + rng.below(5) {
                let (root, path) = (rng.below(2), path(&mut rng, &letters, 1, 3));
                records.push(AccessRecord { root, path, write: rng.below(2) == 0, tail: false });
            }
            let accesses = AccessSummary { records, ..AccessSummary::default() };
            let transfers = TransferSummary { per_param };
            let report = |canon: Option<&Canonicalizer>| {
                let mut stats = AnalysisStats::default();
                let r = conflict_report(&accesses, &transfers, canon, &mut stats);
                (r.conflicts, r.min_distance, stats)
            };
            let (plain, plain_min, _) = report(None);
            let (skipped, skipped_min, skipped_stats) = report(Some(&untouched));
            let (tested, tested_min, tested_stats) = report(Some(&forced));
            assert_eq!(skipped_stats.alias_tests, 0, "case {case}");
            assert_eq!(tested_stats.alias_tests, tested_stats.pair_tests, "case {case}");
            assert_eq!((&skipped, skipped_min), (&plain, plain_min), "case {case}");
            assert_eq!((&tested, tested_min), (&plain, plain_min), "case {case}: {transfers:?}");
            alias_tests += tested_stats.alias_tests;
            conflicts += plain.len();
        }
        assert!(alias_tests > 1000 && conflicts > 300, "{alias_tests} tests, {conflicts}");
    }

    #[test]
    fn struct_recursion_conflicts() {
        let r = report_of(
            "(defstruct node next value)
             (defun bump (n)
               (when n
                 (setf (node-value (node-next n)) (node-value n))
                 (bump (node-next n))))",
        );
        assert_eq!(r.min_distance, Some(1), "{r:?}");
    }
}
