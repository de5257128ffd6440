//! The heap-access sanitizer's checking side: reconstruct the
//! happens-before order of a recorded run, enumerate cross-invocation
//! conflicting access pairs, and diff them against the §2 static
//! conflict predictions.
//!
//! **The oracle.** The static analysis claims: every pair of heap
//! accesses from *different* CRI invocations that can race (same
//! location, at least one write) is predicted by some conflict in a
//! function's [`ConflictReport`](curare_analysis::ConflictReport). The
//! sanitizer tests the contrapositive on a real run:
//!
//! - **observed but unpredicted and unordered** — a soundness failure:
//!   the runtime exhibited a race the analysis missed;
//! - **predicted but never observed** — a precision loss only; the
//!   ratio of manifested predictions is reported.
//!
//! **Happens-before.** Each invocation's records (confined to the one
//! server thread that executed it) are split into *segments* at every
//! spawn and touch. Edges: program order within an invocation, spawn
//! (everything before the spawn precedes the child), and touch (the
//! touched future's whole invocation precedes everything after the
//! touch). Lock-based ordering is deliberately *not* modeled: a
//! lock-guarded pair is unordered here but predicted statically, so it
//! never reports as a failure — only *unpredicted* pairs need an
//! order.
//!
//! **Matching.** Observed pairs are keyed by their two final accessor
//! codes (0 = car, 1 = cdr, 2+k = struct field k), unordered;
//! predicted pairs take the same key from the conflict's write/other
//! path tails. A function with unanalyzable writes predicts ⊤ — every
//! pair — matching its conservative treatment by the pipeline.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use curare_analysis::analyze::analyze_function_with_canon;
use curare_analysis::{Canonicalizer, DeclDb};
use curare_lisp::{Heap, Lowerer};
use curare_obs::{Json, SanEvent, SanRecord};
use curare_sexpr::parse_all;

/// Unordered pair of final accessor codes.
pub type PairKey = (u64, u64);

fn pair_key(a: u64, b: u64) -> PairKey {
    (a.min(b), a.max(b))
}

/// The static side of the diff: every conflict the analysis predicts,
/// as accessor-code pair keys.
#[derive(Debug, Clone, Default)]
pub struct PredictedPairs {
    /// Predicted (write-tail, other-tail) keys.
    pub keys: BTreeSet<PairKey>,
    /// True when some recursive function had unanalyzable writes: the
    /// analysis predicts a conflict everywhere, so no observed pair
    /// can be a surprise.
    pub top: bool,
}

/// Collect the predicted conflict set of a source program (with
/// canonicalization when inverse accessors are declared, mirroring the
/// pipeline).
pub fn predicted_pairs(src: &str) -> Result<PredictedPairs, String> {
    let forms = parse_all(src).map_err(|e| e.to_string())?;
    let heap = Heap::new();
    let prog = {
        let mut lw = Lowerer::new(&heap);
        lw.lower_program(&forms).map_err(|e| e.to_string())?
    };
    let decls = DeclDb::from_program(&prog).map_err(|e| e.to_string())?;
    let canon =
        (!decls.inverse_pairs().is_empty()).then(|| Canonicalizer::from_decls(&decls, &heap));

    let mut out = PredictedPairs::default();
    for func in &prog.funcs {
        let analysis = analyze_function_with_canon(func, &decls, canon.as_ref());
        if analysis.conflicts.unknown_writes > 0 {
            out.top = true;
        }
        for c in &analysis.conflicts.conflicts {
            match (c.write_path.last(), c.other_path.last()) {
                (Some(w), Some(o)) => {
                    out.keys.insert(pair_key(w.field_code() as u64, o.field_code() as u64));
                }
                // A conflict on a parameter root itself has no cell
                // tag to match; predict everything.
                _ => out.top = true,
            }
        }
    }
    // Destination-passing style introduces writes the source never
    // had: every invocation links its freshly consed cell into the
    // caller's destination cdr, and the wrapper reads the result head
    // back out of its own destination. The transform synchronizes
    // those (links happen in queue order, the result read after pool
    // quiescence), so they are predicted conflicts, not surprises.
    if let Ok(out2) = curare_transform::Curare::new().transform_forms(&forms) {
        if out2.reports.iter().any(|r| r.devices.contains(&curare_transform::Device::Dps)) {
            out.keys.insert(pair_key(1, 1)); // dest cdr link vs cdr link/read
        }
    }
    Ok(out)
}

/// One observed-but-unpredicted pair (a soundness failure example).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnpredictedPair {
    /// Packed location both accesses hit.
    pub loc: u64,
    /// The pair's accessor-code key.
    pub key: PairKey,
    /// The two invocations involved.
    pub invs: (u64, u64),
    /// Whether each side wrote.
    pub writes: (bool, bool),
}

/// The cross-check's full result.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// The static prediction diffed against.
    pub predicted: PredictedPairs,
    /// Distinct keys of observed conflicting pairs (ordered or not).
    pub observed: BTreeSet<PairKey>,
    /// The subset of `observed` with no happens-before order between
    /// the two sides — the pairs that only mutual exclusion (a lock
    /// placement) or atomicity can be excusing. This is what the lock
    /// coverage check audits.
    pub unordered_observed: BTreeSet<PairKey>,
    /// Examples of unordered, unpredicted pairs (capped at 16).
    pub unpredicted: Vec<UnpredictedPair>,
    /// Total count of unordered, unpredicted pairs.
    pub unpredicted_total: usize,
    /// Cross-invocation pairs examined.
    pub pairs_checked: usize,
    /// True when the pair scan hit its cap; coverage was partial.
    pub capped: bool,
    /// Total records in the snapshot.
    pub events: usize,
}

const MAX_EXAMPLES: usize = 16;
const MAX_PAIRS: usize = 200_000;

impl CrossCheck {
    /// The soundness verdict: no observed race escaped prediction.
    pub fn sound(&self) -> bool {
        self.unpredicted_total == 0
    }

    /// Fraction of predicted pairs that manifested in this run
    /// (1.0 when nothing was predicted — nothing was wasted).
    pub fn precision(&self) -> f64 {
        if self.predicted.keys.is_empty() {
            return 1.0;
        }
        let hit = self.predicted.keys.intersection(&self.observed).count();
        hit as f64 / self.predicted.keys.len() as f64
    }

    /// The imprecision ratio: predicted-but-unobserved over predicted
    /// (0.0 when nothing was predicted). A high ratio means the static
    /// analysis paid for synchronization the run never needed.
    pub fn unobserved_ratio(&self) -> f64 {
        1.0 - self.precision()
    }

    /// Stable single-line JSON, suitable as a `curare-report/1`
    /// section (schema marker `curare-sanitize/1`).
    pub fn to_json(&self) -> Json {
        let predicted: Vec<Json> = self
            .predicted
            .keys
            .iter()
            .map(|&(a, b)| Json::obj().set("a", a as f64).set("b", b as f64))
            .collect();
        let examples: Vec<Json> = self
            .unpredicted
            .iter()
            .map(|u| {
                Json::obj()
                    .set("loc", u.loc as f64)
                    .set("a", u.key.0 as f64)
                    .set("b", u.key.1 as f64)
                    .set("inv1", u.invs.0 as f64)
                    .set("inv2", u.invs.1 as f64)
            })
            .collect();
        Json::obj()
            .set("schema", "curare-sanitize/1")
            .set("sound", self.sound())
            .set("precision", self.precision())
            .set("unobserved_ratio", self.unobserved_ratio())
            .set("events", self.events)
            .set("pairs_checked", self.pairs_checked)
            .set("capped", self.capped)
            .set("predicted_top", self.predicted.top)
            .set("predicted_pairs", predicted)
            .set("observed_pairs", self.observed.len())
            .set("unordered_observed", self.unordered_observed.len())
            .set("unpredicted_total", self.unpredicted_total)
            .set("unpredicted", examples)
    }
}

/// One deduplicated access instance at a location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct AccessAt {
    inv: u64,
    seg: usize,
    write: bool,
    atomic: bool,
    tag: u64,
}

/// Diff a recorded snapshot against the predicted conflict set.
pub fn cross_check(lanes: &[Vec<SanRecord>], predicted: &PredictedPairs) -> CrossCheck {
    // 1. Per-invocation event sequences. An invocation executes on
    // exactly one thread (helping saves/restores the binding), so its
    // records live in one lane in program order; concatenating lanes
    // in index order cannot interleave one invocation's records.
    let mut seqs: BTreeMap<u64, Vec<SanEvent>> = BTreeMap::new();
    let mut events = 0usize;
    for lane in lanes {
        for rec in lane {
            events += 1;
            seqs.entry(rec.inv).or_default().push(rec.ev);
        }
    }

    // 2. Segmentation: split each invocation at spawns and touches.
    // seg_count[inv] = number of segments; accesses collected per
    // (inv, local segment index).
    let mut seg_count: BTreeMap<u64, usize> = BTreeMap::new();
    let mut accesses: Vec<(u64, usize, SanEvent)> = Vec::new();
    let mut spawn_edges: Vec<(u64, usize, u64)> = Vec::new(); // (inv, seg, child)
    let mut touch_edges: Vec<(u64, usize, u64)> = Vec::new(); // (inv, post-seg, future)
    let mut future_owner: HashMap<u64, u64> = HashMap::new();
    for (&inv, evs) in &seqs {
        let mut seg = 0usize;
        for &ev in evs {
            match ev {
                SanEvent::Access { .. } => accesses.push((inv, seg, ev)),
                SanEvent::Spawn { child, future } => {
                    if let Some(f) = future {
                        future_owner.insert(f, child);
                    }
                    spawn_edges.push((inv, seg, child));
                    seg += 1;
                }
                SanEvent::Touch { future } => {
                    seg += 1;
                    touch_edges.push((inv, seg, future));
                }
            }
        }
        seg_count.insert(inv, seg + 1);
    }

    // 3. Global node ids and the happens-before DAG.
    let mut base: BTreeMap<u64, usize> = BTreeMap::new();
    let mut nodes = 0usize;
    for (&inv, &n) in &seg_count {
        base.insert(inv, nodes);
        nodes += n;
    }
    let node = |inv: u64, seg: usize| base[&inv] + seg;
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    for (&inv, &n) in &seg_count {
        for s in 0..n.saturating_sub(1) {
            succs[node(inv, s)].push(node(inv, s + 1));
        }
    }
    for &(inv, seg, child) in &spawn_edges {
        // A child that recorded nothing has no node — and no accesses
        // to order.
        if seg_count.contains_key(&child) {
            succs[node(inv, seg)].push(node(child, 0));
        }
    }
    for &(inv, post_seg, future) in &touch_edges {
        if let Some(&owner) = future_owner.get(&future) {
            if let Some(&n) = seg_count.get(&owner) {
                succs[node(owner, n - 1)].push(node(inv, post_seg));
            }
        }
    }

    // 4. Location index, deduplicated: repeated identical accesses in
    // one segment add nothing to the pair scan.
    let mut index: BTreeMap<u64, BTreeSet<AccessAt>> = BTreeMap::new();
    for &(inv, seg, ev) in &accesses {
        if inv == 0 {
            continue; // outside any CRI invocation: driver-side work
        }
        if let SanEvent::Access { loc, write, atomic, tag } = ev {
            index.entry(loc).or_default().insert(AccessAt {
                inv,
                seg: node(inv, seg),
                write,
                atomic,
                tag,
            });
        }
    }

    // 5. Pair scan. Reachability is answered by DFS over the DAG with
    // a memo; unpredicted keys are rare (none, in a sound run), so the
    // DFS almost never runs.
    let mut reach_memo: HashMap<(usize, usize), bool> = HashMap::new();
    let mut check = CrossCheck {
        predicted: predicted.clone(),
        observed: BTreeSet::new(),
        unordered_observed: BTreeSet::new(),
        unpredicted: Vec::new(),
        unpredicted_total: 0,
        pairs_checked: 0,
        capped: false,
        events,
    };
    'locs: for (&loc, accs) in &index {
        if !accs.iter().any(|a| a.write) {
            continue;
        }
        let accs: Vec<&AccessAt> = accs.iter().collect();
        for i in 0..accs.len() {
            for j in i + 1..accs.len() {
                let (a, b) = (accs[i], accs[j]);
                if a.inv == b.inv || !(a.write || b.write) || (a.atomic && b.atomic) {
                    continue;
                }
                if check.pairs_checked >= MAX_PAIRS {
                    check.capped = true;
                    break 'locs;
                }
                check.pairs_checked += 1;
                let key = pair_key(a.tag, b.tag);
                check.observed.insert(key);
                let ordered = reaches(&succs, &mut reach_memo, a.seg, b.seg)
                    || reaches(&succs, &mut reach_memo, b.seg, a.seg);
                if !ordered {
                    check.unordered_observed.insert(key);
                }
                if predicted.top || predicted.keys.contains(&key) || ordered {
                    continue;
                }
                check.unpredicted_total += 1;
                if check.unpredicted.len() < MAX_EXAMPLES {
                    check.unpredicted.push(UnpredictedPair {
                        loc,
                        key,
                        invs: (a.inv, b.inv),
                        writes: (a.write, b.write),
                    });
                }
            }
        }
    }
    check
}

/// Is `to` reachable from `from` in the happens-before DAG?
fn reaches(
    succs: &[Vec<usize>],
    memo: &mut HashMap<(usize, usize), bool>,
    from: usize,
    to: usize,
) -> bool {
    if from == to {
        return true;
    }
    if let Some(&r) = memo.get(&(from, to)) {
        return r;
    }
    let mut stack = vec![from];
    let mut visited = vec![false; succs.len()];
    visited[from] = true;
    let mut found = false;
    while let Some(n) = stack.pop() {
        if n == to {
            found = true;
            break;
        }
        for &s in &succs[n] {
            if !visited[s] {
                visited[s] = true;
                stack.push(s);
            }
        }
    }
    memo.insert((from, to), found);
    found
}

/// Keys of conflicting pairs that the lock placements in force for
/// this program cover (declared placements, or the synthesized CRI
/// placement of functions whose conflicts are not fully ordered).
/// Atomic rewrites are excluded separately by the pair scan, and
/// head-ordered / future-synced pairs are ordered in the recorded
/// happens-before DAG — so an observed *unordered* pair is legitimate
/// exactly when one of these keys matches it.
pub fn covered_keys(src: &str) -> Result<BTreeSet<PairKey>, String> {
    use curare_analysis::locksynth::{declared_placement, synthesize, OrderingContext};

    let forms = parse_all(src).map_err(|e| e.to_string())?;
    let heap = Heap::new();
    let prog = {
        let mut lw = Lowerer::new(&heap);
        lw.lower_program(&forms).map_err(|e| e.to_string())?
    };
    let decls = DeclDb::from_program(&prog).map_err(|e| e.to_string())?;
    let canon =
        (!decls.inverse_pairs().is_empty()).then(|| Canonicalizer::from_decls(&decls, &heap));
    let mut out = BTreeSet::new();
    for func in &prog.funcs {
        let analysis = analyze_function_with_canon(func, &decls, canon.as_ref());
        if analysis.conflicts.conflicts.is_empty() {
            continue;
        }
        let params: Vec<&str> = func.params.iter().map(String::as_str).collect();
        let placement = match decls.lock_placement(&analysis.name) {
            Some(d) => declared_placement(&analysis, &params, d, OrderingContext::cri()),
            None => synthesize(&analysis, &params, OrderingContext::cri()),
        };
        for pair in placement.pairs.iter().filter(|p| p.covered) {
            if let (Some(w), Some(o)) =
                (pair.conflict.write_path.last(), pair.conflict.other_path.last())
            {
                out.insert(pair_key(w.field_code() as u64, o.field_code() as u64));
            }
        }
    }
    Ok(out)
}

/// The dynamic half of the lock certifier: a sanitized run diffed
/// against the placements in force.
#[derive(Debug, Clone)]
pub struct LockCheck {
    /// The ordinary sanitizer cross-check of the same run.
    pub check: CrossCheck,
    /// Pair keys the placements cover.
    pub covered: BTreeSet<PairKey>,
    /// Observed, happens-before-unordered pairs no placement covers —
    /// races the locks were supposed to exclude.
    pub uncovered: Vec<PairKey>,
}

impl LockCheck {
    /// Did every observed unordered conflict fall under a lock?
    pub fn covered_ok(&self) -> bool {
        self.uncovered.is_empty()
    }

    /// Stable single-line JSON (schema `curare-lockcheck/1`).
    pub fn to_json(&self) -> Json {
        let covered: Vec<Json> = self
            .covered
            .iter()
            .map(|&(a, b)| Json::obj().set("a", a as f64).set("b", b as f64))
            .collect();
        let uncovered: Vec<Json> = self
            .uncovered
            .iter()
            .map(|&(a, b)| Json::obj().set("a", a as f64).set("b", b as f64))
            .collect();
        Json::obj()
            .set("schema", "curare-lockcheck/1")
            .set("covered_ok", self.covered_ok())
            .set("sound", self.check.sound())
            .set("unordered_observed", self.check.unordered_observed.len())
            .set("covered_keys", covered)
            .set("uncovered", uncovered)
            .set("sanitize", self.check.to_json())
    }
}

/// Diff a finished cross-check against the placements in force for
/// `src`: every observed unordered pair must be lock-covered (or the
/// prediction was ⊤, in which case the static side already gave up on
/// precision and the ordinary soundness verdict is all we can say).
pub fn lock_coverage(src: &str, check: CrossCheck) -> Result<LockCheck, String> {
    let covered = covered_keys(src)?;
    let uncovered: Vec<PairKey> = check
        .unordered_observed
        .iter()
        .filter(|k| !covered.contains(k) && !check.predicted.top)
        .copied()
        .collect();
    Ok(LockCheck { check, covered, uncovered })
}

/// Replay a program under its transformed form (locks and all) with
/// the sanitizer installed, and fail the coverage check if any
/// observed happens-before-unordered conflict escapes the synthesized
/// or declared lock placement. Serialize calls like [`sanitized_run`].
pub fn sanitized_lock_check(
    src: &str,
    entry: &str,
    servers: usize,
    mode: curare_runtime::SchedMode,
    args_for: impl FnOnce(&curare_lisp::Interp) -> Vec<curare_lisp::Value>,
) -> Result<LockCheck, String> {
    let check = sanitized_run(src, entry, servers, mode, args_for)?;
    lock_coverage(src, check)
}

/// Run a program's transformed form on a CRI pool with the sanitizer
/// installed and cross-check the recording. `args_for` builds the
/// entry function's arguments on the loaded interpreter's heap
/// (before recording starts, so setup accesses are not logged).
///
/// Installs the process-global sanitizer for the run's duration:
/// callers (tests, the experiments driver) must serialize sanitized
/// runs.
pub fn sanitized_run(
    src: &str,
    entry: &str,
    servers: usize,
    mode: curare_runtime::SchedMode,
    args_for: impl FnOnce(&curare_lisp::Interp) -> Vec<curare_lisp::Value>,
) -> Result<CrossCheck, String> {
    use std::sync::Arc;

    let predicted = predicted_pairs(src)?;
    let out = curare_transform::Curare::new().transform_source(src).map_err(|e| e.to_string())?;
    let interp = Arc::new(curare_lisp::Interp::new());
    interp.load_str(&out.source()).map_err(|e| e.to_string())?;
    let args = args_for(&interp);

    let log = curare_obs::AccessLog::new(servers);
    curare_obs::install_sanitizer(Some(Arc::clone(&log)));
    let rt = curare_runtime::CriRuntime::with_mode(Arc::clone(&interp), servers, mode);
    let run_result = rt.run(entry, &args);
    drop(rt);
    curare_obs::install_sanitizer(None);
    run_result.map_err(|e| e.to_string())?;
    Ok(cross_check(&log.snapshot(), &predicted))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dps_introduced_links_are_predicted() {
        // The pure remq has no conflicts, but its DPS form links cells
        // through destination cdrs; those transform-introduced
        // accesses must land in the predicted set.
        let src = "(defun remq (obj lst)
                     (cond ((null lst) nil)
                           ((eq obj (car lst)) (remq obj (cdr lst)))
                           (t (cons (car lst) (remq obj (cdr lst))))))";
        let p = predicted_pairs(src).unwrap();
        assert!(p.keys.contains(&(1, 1)), "{:?}", p.keys);
        assert!(!p.top);
    }

    fn acc(inv: u64, loc: u64, write: bool, tag: u64) -> SanRecord {
        SanRecord { inv, ev: SanEvent::Access { loc, write, atomic: false, tag } }
    }

    fn spawn(inv: u64, child: u64, future: Option<u64>) -> SanRecord {
        SanRecord { inv, ev: SanEvent::Spawn { child, future } }
    }

    fn touch(inv: u64, future: u64) -> SanRecord {
        SanRecord { inv, ev: SanEvent::Touch { future } }
    }

    #[test]
    fn pre_spawn_write_is_ordered_before_child() {
        // inv 1 writes loc 8, then spawns inv 2, which reads loc 8:
        // ordered by the spawn edge, so unpredicted stays empty even
        // with an empty prediction set.
        let lanes = vec![vec![acc(1, 8, true, 0), spawn(1, 2, None)], vec![acc(2, 8, false, 0)]];
        let check = cross_check(&lanes, &PredictedPairs::default());
        assert!(check.sound(), "{:?}", check.unpredicted);
        assert_eq!(check.pairs_checked, 1);
        assert_eq!(check.observed.len(), 1);
    }

    #[test]
    fn post_spawn_read_against_child_write_is_a_failure() {
        // inv 1 spawns inv 2 and *then* reads loc 8, which inv 2
        // writes: no order between them, nothing predicted → unsound.
        let lanes = vec![vec![spawn(1, 2, None), acc(1, 8, false, 0)], vec![acc(2, 8, true, 0)]];
        let check = cross_check(&lanes, &PredictedPairs::default());
        assert!(!check.sound());
        assert_eq!(check.unpredicted_total, 1);
        assert_eq!(check.unpredicted[0].loc, 8);
        assert_eq!(check.unpredicted[0].key, (0, 0));
    }

    #[test]
    fn predicted_pair_is_not_a_failure_even_unordered() {
        let lanes = vec![vec![spawn(1, 2, None), acc(1, 8, false, 0)], vec![acc(2, 8, true, 0)]];
        let mut predicted = PredictedPairs::default();
        predicted.keys.insert((0, 0));
        let check = cross_check(&lanes, &predicted);
        assert!(check.sound());
        // ... and it manifested, so precision is 1.
        assert!((check.precision() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn touch_orders_child_before_continuation() {
        // inv 1 spawns inv 2 as future 7, touches it, then writes what
        // the child wrote: ordered through the touch edge.
        let lanes = vec![
            vec![spawn(1, 2, Some(7)), touch(1, 7), acc(1, 8, true, 0)],
            vec![acc(2, 8, true, 0)],
        ];
        let check = cross_check(&lanes, &PredictedPairs::default());
        assert!(check.sound(), "{:?}", check.unpredicted);
    }

    #[test]
    fn same_invocation_and_atomic_pairs_are_ignored() {
        let lanes = vec![vec![
            acc(1, 8, true, 0),
            acc(1, 8, false, 0), // same invocation: no pair
            SanRecord {
                inv: 2,
                ev: SanEvent::Access { loc: 9, write: true, atomic: true, tag: 0 },
            },
            SanRecord {
                inv: 3,
                ev: SanEvent::Access { loc: 9, write: true, atomic: true, tag: 0 },
            },
        ]];
        let check = cross_check(&lanes, &PredictedPairs::default());
        assert!(check.sound());
        assert_eq!(check.pairs_checked, 0);
    }

    #[test]
    fn driver_accesses_are_excluded() {
        // inv 0 (the driver, displaying results) reads everything the
        // invocations wrote; no pairs involve it.
        let lanes = vec![vec![acc(0, 8, false, 0)], vec![acc(1, 8, true, 0)]];
        let check = cross_check(&lanes, &PredictedPairs::default());
        assert!(check.sound());
        assert_eq!(check.pairs_checked, 0);
    }

    #[test]
    fn top_prediction_absorbs_everything() {
        let lanes = vec![vec![spawn(1, 2, None), acc(1, 8, false, 3)], vec![acc(2, 8, true, 5)]];
        let predicted = PredictedPairs { keys: BTreeSet::new(), top: true };
        let check = cross_check(&lanes, &predicted);
        assert!(check.sound());
    }

    #[test]
    fn predicted_pairs_of_figure5_cover_its_races() {
        let src = "(defun f (l)
                     (cond ((null l) nil)
                           ((null (cdr l)) (f (cdr l)))
                           (t (setf (cadr l) (+ (car l) (cadr l)))
                              (f (cdr l)))))";
        let p = predicted_pairs(src).unwrap();
        assert!(!p.top);
        // The write tail is car (cadr = cdr.car); conflicting reads
        // end in car too.
        assert!(p.keys.contains(&(0, 0)), "{:?}", p.keys);
    }

    #[test]
    fn predicted_pairs_of_the_aliasing_fixture_are_empty() {
        // The soundness fixture: same-root pairing cannot see the
        // cross-parameter alias, so nothing is predicted — which is
        // exactly what the sanitizer must catch dynamically.
        let src = "(defun mix (a b)
                     (when (consp b)
                       (mix (cddr a) (cdr b))
                       (setf (car b) (car a))))";
        let p = predicted_pairs(src).unwrap();
        assert!(!p.top, "no unknown writes in the fixture");
        assert!(p.keys.is_empty(), "{:?}", p.keys);
    }

    #[test]
    fn json_round_trips() {
        let lanes = vec![vec![spawn(1, 2, None), acc(1, 8, false, 0)], vec![acc(2, 8, true, 0)]];
        let check = cross_check(&lanes, &PredictedPairs::default());
        let text = check.to_json().to_string();
        assert!(!text.contains('\n'));
        let doc = Json::parse(&text).expect("round-trip");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("curare-sanitize/1"));
        assert_eq!(doc.get("sound").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("unpredicted_total").and_then(Json::as_f64), Some(1.0));
        let ex = doc.get("unpredicted").and_then(Json::as_arr).unwrap();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].get("loc").and_then(Json::as_f64), Some(8.0));
    }
}

#[cfg(test)]
mod sanitized_tests {
    use super::*;
    use curare_runtime::SchedMode;
    use std::sync::{Mutex, PoisonError};

    // The sanitizer install point is process-global: serialize runs.
    static RUN_GUARD: Mutex<()> = Mutex::new(());

    fn list_src(n: usize) -> String {
        format!("(list {})", vec!["1"; n].join(" "))
    }

    fn run(src: &str, entry: &str, n: usize, servers: usize, mode: SchedMode) -> CrossCheck {
        let _g = RUN_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        sanitized_run(src, entry, servers, mode, |interp| {
            vec![interp.load_str(&list_src(n)).unwrap()]
        })
        .expect("sanitized run")
    }

    const FIGURE5: &str = "(defun f (l)
                             (cond ((null l) nil)
                                   ((null (cdr l)) (f (cdr l)))
                                   (t (setf (cadr l) (+ (car l) (cadr l)))
                                      (f (cdr l)))))";

    #[test]
    fn figure5_is_sound_under_central_scheduling() {
        let check = run(FIGURE5, "f", 48, 3, SchedMode::Central);
        assert!(check.sound(), "unpredicted: {:?}", check.unpredicted);
        assert!(check.events > 0, "recording actually happened");
        // The predicted (car, car) conflict manifests.
        assert!((check.precision() - 1.0).abs() < 1e-9, "{:?}", check.observed);
        assert!(!check.capped);
    }

    #[test]
    fn figure5_is_sound_under_sharded_scheduling() {
        let check = run(FIGURE5, "f", 48, 3, SchedMode::Sharded);
        assert!(check.sound(), "unpredicted: {:?}", check.unpredicted);
        assert!(check.observed.contains(&(0, 0)), "{:?}", check.observed);
    }

    #[test]
    fn pure_reader_observes_no_pairs() {
        let src = "(defun walk (l) (cond ((null l) nil) (t (walk (cdr l)))))";
        let check = run(src, "walk", 32, 2, SchedMode::Sharded);
        assert!(check.sound());
        assert_eq!(check.pairs_checked, 0, "reads only: no conflicting pairs");
        assert!(check.events > 0);
    }

    #[test]
    fn per_cell_writer_is_sound() {
        // Each invocation writes only its own cell before spawning.
        let src = "(defun rot (l)
                     (when (consp l)
                       (setf (car l) (+ (car l) 1))
                       (rot (cdr l))))";
        let check = run(src, "rot", 32, 2, SchedMode::Sharded);
        assert!(check.sound(), "unpredicted: {:?}", check.unpredicted);
    }

    #[test]
    fn handed_off_tail_heavy_walker_observes_no_unpredicted_pair() {
        // `cri-handoff` makes the successor runnable while its
        // producer's tail still runs — the overlap the conflict
        // analysis licensed. The tail writes only its own cell, so the
        // run must show no conflicting pair the analysis did not
        // predict, under either scheduler.
        let src = include_str!("../../../examples/lisp/tail_heavy.lisp");
        for mode in [SchedMode::Central, SchedMode::Sharded] {
            let check = run(src, "th", 48, 2, mode);
            assert!(check.sound(), "{mode:?} unpredicted: {:?}", check.unpredicted);
            assert!(check.events > 0, "recording actually happened");
        }
    }

    #[test]
    fn future_synced_tail_is_sound() {
        // The post-call write forces future synchronization; the touch
        // edges must order the unwind writes.
        let src = "(defun acc (l)
                     (when (consp l)
                       (acc (cdr l))
                       (when (consp (cdr l))
                         (setf (cadr l) (+ (car l) (cadr l))))))";
        let check = run(src, "acc", 32, 2, SchedMode::Sharded);
        assert!(check.sound(), "unpredicted: {:?}", check.unpredicted);
    }

    #[test]
    fn dps_remq_is_sound() {
        let src = "(defun remq (obj lst)
                     (cond ((null lst) nil)
                           ((eq obj (car lst)) (remq obj (cdr lst)))
                           (t (cons (car lst) (remq obj (cdr lst))))))";
        let _g = RUN_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let check = sanitized_run(src, "remq", 2, SchedMode::Sharded, |interp| {
            let key = interp.load_str("3").unwrap();
            let lst = interp.load_str("(list 1 3 2 3 4 3 5 6 7 8)").unwrap();
            vec![key, lst]
        })
        .expect("sanitized run");
        assert!(check.sound(), "unpredicted: {:?}", check.unpredicted);
    }

    /// The deliberately under-declared aliasing fixture: both
    /// parameters walk the *same* list at different strides, so a
    /// post-spawn read of `(car a)` races a deeper invocation's write
    /// of `(car b)` on the same cell. The same-root static pairing
    /// cannot see this — the sanitizer must.
    const MIX: &str = "(defun mix (a b)
                         (when (consp b)
                           (mix (cddr a) (cdr b))
                           (setf (car b) (car a))))";

    fn run_mix(mode: SchedMode) -> CrossCheck {
        let _g = RUN_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        sanitized_run(MIX, "mix", 2, mode, |interp| {
            let l = interp.load_str(&list_src(12)).unwrap();
            vec![l, l]
        })
        .expect("sanitized run")
    }

    #[test]
    fn aliased_parameters_are_caught_as_soundness_failure() {
        let check = run_mix(SchedMode::Sharded);
        assert!(!check.sound(), "the alias race must be observed and unpredicted");
        assert!(check.unpredicted_total > 0);
        assert_eq!(check.unpredicted[0].key, (0, 0), "car vs car");
        assert!(check.predicted.keys.is_empty(), "statically invisible");
    }

    #[test]
    fn aliased_parameters_are_caught_under_central_scheduling_too() {
        let check = run_mix(SchedMode::Central);
        assert!(!check.sound(), "unpredicted: {:?}", check.unpredicted);
    }

    /// The lock-rescue program replayed under the sanitizer: the
    /// bracketed tail RMWs produce observed, happens-before-unordered
    /// conflicting pairs, and every one of them must fall under the
    /// synthesized placement.
    const LOCKED_RMWS: &str = "(curare-declare (reorderable *))
                               (defun f (l)
                                 (when (cdr l)
                                   (f (cdr l))
                                   (setf (car l) (* (car l) 2))
                                   (setf (cadr l) (* (cadr l) 3))))";

    #[test]
    fn synthesized_placement_covers_every_observed_conflict() {
        for mode in [SchedMode::Central, SchedMode::Sharded] {
            let _g = RUN_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
            let lc = sanitized_lock_check(LOCKED_RMWS, "f", 3, mode, |interp| {
                vec![interp.load_str(&list_src(32)).unwrap()]
            })
            .expect("sanitized lock check");
            assert!(lc.check.sound(), "unpredicted: {:?}", lc.check.unpredicted);
            assert!(lc.covered_ok(), "uncovered: {:?}", lc.uncovered);
            assert!(lc.covered.contains(&(0, 0)), "{:?}", lc.covered);
        }
    }

    #[test]
    fn lock_coverage_flags_unordered_pairs_without_a_placement() {
        // The aliasing fixture has no placement at all: its unordered
        // observed pair must surface as uncovered, not be absorbed.
        let check = run_mix(SchedMode::Sharded);
        let lc = lock_coverage(MIX, check).expect("coverage diff");
        assert!(!lc.covered_ok(), "{:?}", lc.covered);
        let text = lc.to_json().to_string();
        let doc = Json::parse(&text).expect("round-trip");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("curare-lockcheck/1"));
        assert_eq!(doc.get("covered_ok").and_then(Json::as_bool), Some(false));
    }
}
