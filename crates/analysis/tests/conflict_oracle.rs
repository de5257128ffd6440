//! Seeded battery for the conflict engine: its report is cross-checked
//! against a brute-force oracle that applies §2's definition directly.
//! The engine collapses records into path classes, holds every power
//! of τ in one automaton and answers each pair from two simulations;
//! the oracle does none of that — it enumerates the strings of `τᵈ`
//! for every distance up to the bound and tests prefixes one by one.

use std::collections::BTreeSet;

use curare_analysis::conflict::conflicts_from_parts;
use curare_analysis::{
    collect_accesses, conflicts_with_canon, transfer_functions, AccessRecord, AccessSummary,
    Accessor, Canonicalizer, Conflict, ConflictReport, DependencyKind, Path, Transfer,
    TransferSummary,
};
use curare_lisp::{Heap, Lowerer};
use curare_sexpr::parse_all;
use curare_testkit::{Rng, Walker, WRAPPERS};

// ---------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------

/// The strings of `τᵈ` for `d = 0, 1, …, depth`.
fn powers(steps: &BTreeSet<Path>, depth: usize) -> Vec<BTreeSet<Path>> {
    let mut out = vec![BTreeSet::from([Path::empty()])];
    for d in 1..=depth {
        let next = out[d - 1].iter().flat_map(|u| steps.iter().map(|s| u.concat(s))).collect();
        out.push(next);
    }
    out
}

/// The distance bound of `conflict.rs`: past it the reachable prefixes
/// stop changing, so one more distance decides persistence.
fn bound(write: &Path, other: &Path, steps: &BTreeSet<Path>) -> usize {
    match steps.iter().map(Path::len).min().expect("a literal τ with a site") {
        0 => write.len().max(other.len()) + 2,
        step => (write.len() + other.len()) / step + 2,
    }
}

/// Does a write at `write` conflict with an access at `other` made
/// `d` invocations apart? Either frame may be the earlier one: the
/// write lies on the path `τᵈ ∘ other` the later access walks, or the
/// later write, `τᵈ ∘ write` in the earlier frame's coordinates, is a
/// word the earlier access's own traversal reads.
fn hits(write: &Path, other: &Path, tau_d: &BTreeSet<Path>) -> bool {
    tau_d.iter().any(|u| {
        write.is_prefix_of(&u.concat(other))
            || (1..=other.len()).any(|k| u.concat(write).accessors() == &other.accessors()[..k])
    })
}

fn oracle(records: &[AccessRecord], steps: &BTreeSet<Path>) -> BTreeSet<String> {
    let longest = records.iter().map(|r| r.path.len()).max().unwrap_or(0);
    let tau = powers(steps, 2 * longest + 3);
    let mut out = BTreeSet::new();
    for w in records.iter().filter(|r| r.write) {
        for o in records.iter().filter(|o| o.root == w.root) {
            let b = bound(&w.path, &o.path, steps);
            if let Some(d) = (1..=b).find(|&d| hits(&w.path, &o.path, &tau[d])) {
                let kind =
                    if o.write { DependencyKind::WriteWrite } else { DependencyKind::WriteRead };
                out.insert(key(&Conflict {
                    root: w.root,
                    write_path: w.path.clone(),
                    other_path: o.path.clone(),
                    kind,
                    distance: d,
                    persistent: hits(&w.path, &o.path, &tau[b + 1]),
                }));
            }
        }
    }
    out
}

fn key(c: &Conflict) -> String {
    format!("{c:?}")
}

// ---------------------------------------------------------------
// Generators
// ---------------------------------------------------------------

fn gen_path(rng: &mut Rng, min: usize, max: usize) -> Path {
    let len = min + rng.below(max - min + 1);
    Path::from((0..len).map(|_| *rng.pick(&[Accessor::Car, Accessor::Cdr])).collect::<Vec<_>>())
}

/// A literal τ (one call site) or an alternating one (two), ε allowed.
fn gen_tau(rng: &mut Rng) -> BTreeSet<Path> {
    (0..1 + rng.below(2)).map(|_| gen_path(rng, 0, 2)).collect()
}

fn summary(records: Vec<AccessRecord>) -> AccessSummary {
    AccessSummary { records, ..AccessSummary::default() }
}

fn keys(report: &ConflictReport) -> BTreeSet<String> {
    report.conflicts.iter().map(key).collect()
}

// ---------------------------------------------------------------
// Properties
// ---------------------------------------------------------------

/// For every walker shape, under its own τ and under random literal
/// and alternating ones, with random extra records and duplicates: the
/// engine's conflicts, distances, persistence and minimum distance are
/// the oracle's, the report lists each conflict once in distance
/// order, and duplicating or shuffling the records changes nothing.
#[test]
fn engine_agrees_with_the_prefix_definition() {
    let mut rng = Rng::new(0x5EED_0005_ACCE_5505);
    // The walker family's 24 under its first wrapper, `(when l …)`.
    let shapes: Vec<String> = Walker::family()
        .iter()
        .filter(|w| w.wrapper == Some(WRAPPERS[0]))
        .map(Walker::source)
        .collect();
    assert_eq!(shapes.len(), 24);
    let mut conflicts_seen = 0;
    for src in &shapes {
        let heap = Heap::new();
        let prog = Lowerer::new(&heap).lower_program(&parse_all(src).unwrap()).unwrap();
        let func = &prog.funcs[0];
        let own = transfer_functions(func);
        let Transfer::Literal(own_steps) = &own.per_param[0] else { panic!("{src}: {own:?}") };
        for draw in 0..12 {
            let steps = if draw == 0 { own_steps.clone() } else { gen_tau(&mut rng) };
            let mut records = collect_accesses(func).records;
            for _ in 0..rng.below(5) {
                let (path, write) = (gen_path(&mut rng, 1, 3), rng.below(3) == 0);
                records.push(AccessRecord { root: 0, path, write, tail: false });
            }
            for _ in 0..rng.below(4) {
                records.push(rng.pick(&records).clone());
            }
            let transfers = TransferSummary { per_param: vec![Transfer::Literal(steps.clone())] };
            let case = format!("{src}, τ = {steps:?}, records = {records:?}");

            let report = conflicts_from_parts(&summary(records.clone()), &transfers);
            let expected = oracle(&records, &steps);
            assert_eq!(keys(&report), expected, "{case}");
            assert_eq!(report.conflicts.len(), expected.len(), "a conflict listed twice: {case}");
            assert!(report.conflicts.windows(2).all(|p| p[0].distance <= p[1].distance), "{case}");
            assert_eq!(
                report.min_distance,
                report.conflicts.iter().map(|c| c.distance).min(),
                "{case}"
            );
            conflicts_seen += expected.len();

            // The canonical test under a canonicalizer with no inverse
            // pairs is the prefix test.
            let canonical = conflicts_with_canon(
                &summary(records.clone()),
                &transfers,
                &Canonicalizer::identity(),
            );
            assert_eq!(keys(&canonical), expected, "{case}");

            let mut doubled = [records.clone(), records].concat();
            rng.shuffle(&mut doubled);
            let again = conflicts_from_parts(&summary(doubled), &transfers);
            assert_eq!(keys(&again), expected, "{case}");
            assert_eq!(again.min_distance, report.min_distance, "{case}");
        }
    }
    assert!(conflicts_seen > 500, "the battery must exercise conflicts: {conflicts_seen}");
}
