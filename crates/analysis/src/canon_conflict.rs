//! Conflict detection modulo canonicalization (paper §2.1).
//!
//! With declared inverse accessors (`(curare-declare (inverse succ
//! pred))`), two textually different paths can name one location:
//! a *backward* write `pred.value` in invocation *i* is, in invocation
//! *i−1*'s coordinates, `succ.pred.value` — which canonicalizes to
//! `value`, that invocation's own read. The plain string-prefix test
//! misses this; the canonical test enumerates the (finite, for literal
//! transfer functions) strings of `τᵈ ∘ A`, canonicalizes each, and
//! compares against the canonicalized other path.

use std::collections::{BTreeSet, HashMap};

use crate::access::AccessSummary;
use crate::analyze::AnalysisStats;
use crate::canon::Canonicalizer;
use crate::conflict::{conflict_report, ConflictReport};
use crate::path::Path;
use crate::transfer::{Transfer, TransferSummary};

/// Cap on enumerated composition strings (alternation fan-out).
const MAX_STRINGS: usize = 4096;

/// All strings of `τ^d ∘ suffix` for a literal transfer function;
/// `None` when the enumeration exceeds the cap or τ is unknown.
fn compose_strings(tau: &Transfer, d: usize, suffix: &Path) -> Option<BTreeSet<Path>> {
    let Transfer::Literal(steps) = tau else { return None };
    if steps.is_empty() {
        // No recursive site: τ ≈ ε.
        return Some(std::iter::once(suffix.clone()).collect());
    }
    let mut fronts: BTreeSet<Path> = std::iter::once(Path::empty()).collect();
    for _ in 0..d {
        let mut next = BTreeSet::new();
        for f in &fronts {
            for s in steps {
                next.insert(f.concat(s));
                if next.len() > MAX_STRINGS {
                    return None;
                }
            }
        }
        fronts = next;
    }
    Some(fronts.into_iter().map(|f| f.concat(suffix)).collect())
}

/// The canonical reading of `τ^d ∘ path`: where its strings end, and
/// every location a traversal along them reads.
struct Shifted {
    /// The canonical form of each string.
    dests: BTreeSet<Path>,
    /// The canonical form of each nonempty prefix of each string.
    reads: BTreeSet<Path>,
}

/// The canonical-alias test of one parameter, with `τ^d ∘ path`
/// enumerated and canonicalized once per `(d, path)`.
pub(crate) struct CanonShifts<'a> {
    tau: &'a Transfer,
    canon: &'a Canonicalizer,
    shifted: HashMap<(usize, &'a Path), Option<Shifted>>,
}

impl<'a> CanonShifts<'a> {
    pub(crate) fn new(tau: &'a Transfer, canon: &'a Canonicalizer) -> Self {
        CanonShifts { tau, canon, shifted: HashMap::new() }
    }

    /// Enumerate and canonicalize `τ^d ∘ path`, unless already done.
    fn fill(&mut self, d: usize, path: &'a Path) {
        let (tau, canon) = (self.tau, self.canon);
        self.shifted.entry((d, path)).or_insert_with(|| {
            let mut shifted = Shifted { dests: BTreeSet::new(), reads: BTreeSet::new() };
            for s in compose_strings(tau, d, path)? {
                let prefix = |k: usize| Path::from(s.accessors()[..k].to_vec());
                shifted.reads.extend((1..=s.len()).map(|k| canon.canonicalize(&prefix(k))));
                shifted.dests.insert(canon.canonicalize(&s));
            }
            Some(shifted)
        });
    }

    /// The smallest distance at which `write` and `other` name one
    /// location canonically, in either temporal direction:
    ///
    /// 1. the write happens in the *earlier* invocation, and its
    ///    destination coincides with a location the later invocation's
    ///    traversal `τ^d ∘ other` reads (the location named by each
    ///    nonempty prefix of its path);
    /// 2. the write happens in the *later* invocation: its destination,
    ///    re-expressed in the earlier invocation's coordinates, is the
    ///    string set `τ^d ∘ write`, one of which coincides with a
    ///    location the earlier access's own traversal reads.
    ///
    /// An unknown τ, or one whose strings exceed the cap, is left to
    /// the plain analysis.
    pub(crate) fn alias_distance(&mut self, write: &'a Path, other: &'a Path) -> Option<usize> {
        let dest = self.canon.canonicalize(write);
        self.fill(0, other);
        (1..=bound(write, other, self.tau)).find(|&d| {
            self.fill(d, other);
            self.fill(d, write);
            let at = |d: usize, path: &'a Path| self.shifted[&(d, path)].as_ref();
            at(d, other).is_some_and(|later| later.reads.contains(&dest))
                || at(d, write)
                    .zip(at(0, other))
                    .is_some_and(|(moved, own)| !moved.dests.is_disjoint(&own.reads))
        })
    }
}

/// Largest distance worth probing: once `d · min-step` exceeds the
/// combined path lengths, prefixes stabilize (see `conflict.rs`); the
/// cancellation of inverse pairs can only *shorten* strings, so a
/// small extra margin covers detours.
fn bound(write: &Path, other: &Path, tau: &Transfer) -> usize {
    match tau.min_step_len() {
        None => 1,
        Some(0) => write.len().max(other.len()) + 2,
        Some(step) => (write.len() + other.len()) / step + 4,
    }
}

/// Conflict analysis with a canonicalizer: like
/// [`crate::conflict::conflicts_from_parts`], plus detection of
/// canonical aliases in *both* temporal directions (the later
/// invocation's access re-expressed in the earlier one's coordinates).
pub fn conflicts_with_canon(
    accesses: &AccessSummary,
    transfers: &TransferSummary,
    canon: &Canonicalizer,
) -> ConflictReport {
    conflict_report(accesses, transfers, Some(canon), &mut AnalysisStats::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::collect_accesses;
    use crate::conflict::DependencyKind;
    use crate::declare::DeclDb;
    use crate::transfer::transfer_functions;
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::{parse_all, parse_one};

    fn analyze_with_decl(src: &str, decl: Option<&str>) -> ConflictReport {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        let func = prog
            .funcs
            .iter()
            .find(|f| f.body.iter().any(|e| e.calls(f.name_sym)))
            .expect("a recursive function");
        let accesses = collect_accesses(func);
        let transfers = transfer_functions(func);
        let canon = match decl {
            Some(d) => {
                let mut db = DeclDb::new();
                db.add_toplevel(&parse_one(d).unwrap()).unwrap();
                Canonicalizer::from_decls(&db, &prog.structs)
            }
            None => Canonicalizer::identity(),
        };
        conflicts_with_canon(&accesses, &transfers, &canon)
    }

    fn analyze(src: &str, with_inverse: bool) -> ConflictReport {
        analyze_with_decl(src, with_inverse.then_some("(curare-declare (inverse succ pred))"))
    }

    const BACKWARD_WRITER: &str = "
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (when (dl-pred n)
      (setf (dl-value (dl-pred n)) (dl-value n)))
    (walk (dl-succ n))))";

    #[test]
    fn backward_write_found_only_with_canonicalization() {
        // Writing the *previous* node's value: invocation i's write
        // aliases invocation i-1's read, but only the canonical test
        // sees it (succ.pred cancels).
        let plain = analyze(BACKWARD_WRITER, false);
        assert!(
            !plain.conflicts.iter().any(|c| c.distance == 1
                && c.kind == DependencyKind::WriteRead
                && c.write_path.to_string().contains("f0.1")),
            "plain analysis should miss the canonical alias: {plain:?}"
        );
        let canonical = analyze(BACKWARD_WRITER, true);
        assert_eq!(canonical.min_distance, Some(1), "{canonical:?}");
    }

    #[test]
    fn forward_writer_unchanged_by_canonicalization() {
        let src = "
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (setf (dl-value (dl-succ n)) (dl-value n))
    (walk (dl-succ n))))";
        let plain = analyze(src, false);
        let canonical = analyze(src, true);
        assert_eq!(plain.min_distance, Some(1));
        assert_eq!(canonical.min_distance, Some(1));
    }

    #[test]
    fn conflict_free_stays_conflict_free() {
        let src = "
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (print (dl-value n))
    (walk (dl-succ n))))";
        let canonical = analyze(src, true);
        assert!(canonical.is_conflict_free(), "{canonical:?}");
    }

    #[test]
    fn double_backward_write_cancels_at_distance_two() {
        // Writing two nodes back: invocation i's destination is, in
        // invocation i-2's coordinates, succ.succ.pred.pred.value —
        // both inverse pairs must cancel for the alias to surface.
        let src = "
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (when (dl-pred n)
      (setf (dl-value (dl-pred (dl-pred n))) (dl-value n)))
    (walk (dl-succ n))))";
        let plain = analyze(src, false);
        assert!(plain.is_conflict_free(), "plain prefix test must miss it: {plain:?}");
        let canonical = analyze(src, true);
        assert_eq!(canonical.min_distance, Some(2), "{canonical:?}");
    }

    #[test]
    fn mixed_cons_struct_paths_cancel_through_fields() {
        // The alias detour runs through struct fields (succ.pred
        // cancels) but the conflicting location is a cons word hanging
        // off the struct: the canonical paths mix field and car
        // letters.
        let src = "
(defstruct dl succ pred items)
(defun walk (n)
  (when n
    (print (car (dl-items n)))
    (when (dl-pred n)
      (setf (car (dl-items (dl-pred n))) 0))
    (walk (dl-succ n))))";
        let plain = analyze(src, false);
        assert!(
            !plain.conflicts.iter().any(|c| c.kind == DependencyKind::WriteRead),
            "plain analysis should miss the mixed-path alias: {plain:?}"
        );
        let canonical = analyze(src, true);
        assert_eq!(canonical.min_distance, Some(1), "{canonical:?}");
        assert!(
            canonical.conflicts.iter().any(|c| c.kind == DependencyKind::WriteRead),
            "{canonical:?}"
        );
    }

    #[test]
    fn partial_cancellation_must_not_merge_distinct_cells() {
        // Recursing two succ steps while writing one node back: the
        // written nodes are the odd positions, the read ones even.
        // τ^d ∘ write = succ^{2d}.pred.value cancels only partially
        // (to succ^{2d-1}.value ≠ value), so canonicalization must
        // *fail* to merge the paths and report conflict-freedom.
        let src = "
(defstruct dl succ pred value)
(defun walk (n)
  (when n
    (when (dl-pred n)
      (setf (dl-value (dl-pred n)) 0))
    (print (dl-value n))
    (walk (dl-succ (dl-succ n)))))";
        let canonical = analyze(src, true);
        assert!(canonical.is_conflict_free(), "{canonical:?}");
    }

    #[test]
    fn unresolvable_inverse_pair_leaves_paths_uncanonicalized() {
        // (inverse fwd bwd) names accessors no struct defines: the
        // canonicalizer resolves nothing and silently degenerates to
        // the identity, so the backward-write alias is missed. This is
        // the blind spot `curare check` C003 reports.
        let degenerate =
            analyze_with_decl(BACKWARD_WRITER, Some("(curare-declare (inverse fwd bwd))"));
        assert!(degenerate.is_conflict_free(), "{degenerate:?}");
        let proper = analyze(BACKWARD_WRITER, true);
        assert_eq!(proper.min_distance, Some(1));
    }

    #[test]
    fn compose_strings_enumerates_alternations() {
        use crate::path::parse_list_path;
        let tau = Transfer::Literal(
            [parse_list_path("car").unwrap(), parse_list_path("cdr").unwrap()]
                .into_iter()
                .collect(),
        );
        let s = compose_strings(&tau, 2, &Path::empty()).unwrap();
        assert_eq!(s.len(), 4); // {car,cdr}²
        let s3 = compose_strings(&tau, 3, &parse_list_path("car").unwrap()).unwrap();
        assert_eq!(s3.len(), 8);
        assert!(s3.iter().all(|p| p.len() == 4));
    }

    #[test]
    fn unknown_tau_is_left_to_the_plain_analysis() {
        let tau = Transfer::Unknown;
        assert!(compose_strings(&tau, 1, &Path::empty()).is_none());
    }
}
