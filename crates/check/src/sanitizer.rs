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
//! - **predicted but never observed** — a precision loss only
//!   (`experiments sanitize` prints manifested against predicted).
//!
//! **Happens-before.** Each invocation (confined to the one server
//! thread that executed it, and stamped by the journal's one clock) is
//! split into *segments* at the epochs of its spawns and touches; what
//! it did at an epoch lies in the segment after as many of those as
//! precede it. Edges: program order within an invocation, spawn
//! (everything before the spawn precedes the child), and touch (the
//! touched future's whole invocation precedes everything after the
//! touch). Lock-based ordering is deliberately *not* modeled: a
//! lock-guarded pair is unordered here but predicted statically, so it
//! never reports as a failure — only *unpredicted* pairs need an
//! order. (Touch edges make it a DAG and it is not the sequential rank
//! of `speclog`'s `SpawnTree`, so reachability is searched, not looked
//! up there: DESIGN.md "Sanitizer".)
//!
//! **Matching.** Observed pairs are keyed by their two final accessor
//! codes (0 = car, 1 = cdr, 2+k = struct field k: `accessor_code` of
//! the location), unordered; predicted pairs take the same key from
//! the conflict's write/other path tails. Accesses to globals are in
//! the journal and skipped here: the §2 prediction is about heap words.
//! A function with unanalyzable writes predicts ⊤ — every pair —
//! matching its conservative treatment by the pipeline.
//!
//! **The static side is read, not derived.** [`predicted_pairs`] takes
//! the record of the restructuring whose text runs
//! ([`CurareOutput`]): the conflicts are those of the analyses the
//! devices were chosen from, the lock-covered pairs those of the
//! placements the brackets were written from. [`sanitized_run`]
//! restructures its program once and reads both from that one record.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use curare_analysis::Conflict;
use curare_lisp::speclog::{self, accessor_code, Observed, GLOBAL_LOC_BIT};
use curare_transform::{Curare, CurareOutput, Device};

/// Unordered pair of final accessor codes.
pub type PairKey = (u64, u64);

/// The key of a conflict's two path tails; `None` for a conflict on a
/// parameter root itself, which has no cell tag to match.
fn conflict_key(c: &Conflict) -> Option<PairKey> {
    let (w, o) =
        (c.write_path.last()?.field_code() as u64, c.other_path.last()?.field_code() as u64);
    Some((w.min(o), w.max(o)))
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
    /// The subset a lock placement in force covers (`Device::Locks`:
    /// the placement in the function's report). Atomic rewrites are
    /// excluded separately by the pair scan, and head-ordered /
    /// future-synced pairs are ordered in the recorded happens-before
    /// DAG — so an observed *unordered* pair is legitimate exactly when
    /// one of these keys matches it.
    pub covered: BTreeSet<PairKey>,
}

/// The predicted conflict set of a restructured program, from its
/// record.
pub fn predicted_pairs(out: &CurareOutput) -> PredictedPairs {
    let mut pairs = PredictedPairs::default();
    for report in &out.reports {
        pairs.top |= report.analysis.conflicts.unknown_writes > 0;
        for c in &report.analysis.conflicts.conflicts {
            match conflict_key(c) {
                Some(key) => {
                    pairs.keys.insert(key);
                }
                None => pairs.top = true,
            }
        }
        let covered = report.placement.iter().flat_map(|p| &p.pairs).filter(|p| p.covered);
        pairs.covered.extend(covered.filter_map(|p| conflict_key(&p.conflict)));
        // Destination-passing style introduces writes the source never
        // had: every invocation links its freshly consed cell into the
        // caller's destination cdr, and the wrapper reads the result
        // head back out of its own destination. The transform
        // synchronizes those (links happen in queue order, the result
        // read after pool quiescence), so they are predicted conflicts,
        // not surprises.
        if report.devices.contains(&Device::Dps) {
            pairs.keys.insert((1, 1)); // dest cdr link vs cdr link/read
        }
    }
    pairs
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
    /// Records judged: heap-word accesses, spawns and touches.
    pub events: usize,
}

const MAX_EXAMPLES: usize = 16;
const MAX_PAIRS: usize = 200_000;

impl CrossCheck {
    /// The soundness verdict: no observed race escaped prediction.
    pub fn sound(&self) -> bool {
        self.unpredicted_total == 0
    }
}

/// One deduplicated access instance at a location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct AccessAt {
    inv: u64,
    seg: usize,
    write: bool,
    atomic: bool,
}

/// Diff what the journal observed against the predicted conflict set.
pub fn cross_check(seen: &Observed, predicted: &PredictedPairs) -> CrossCheck {
    let accesses = || seen.accesses.iter().filter(|a| a.loc & GLOBAL_LOC_BIT == 0);

    // 1. Segmentation: every invocation with a record of its own, as
    // (its first segment's number, the epochs of its spawns and touches
    // that cut it). An invocation runs on one thread and the journal
    // has one clock, so ascending epoch is its program order, whatever
    // order the lanes gave the records up in.
    let mut segs: BTreeMap<u64, (usize, Vec<u64>)> = BTreeMap::new();
    for a in accesses() {
        segs.entry(a.inv).or_default();
    }
    for s in &seen.spawns {
        segs.entry(s.parent).or_default().1.push(s.epoch);
    }
    for t in &seen.touches {
        segs.entry(t.inv).or_default().1.push(t.epoch);
    }
    let mut nodes = 0usize;
    for (first, cuts) in segs.values_mut() {
        cuts.sort_unstable();
        *first = nodes;
        nodes += cuts.len() + 1;
    }
    // The segment `inv` was in at `epoch`. (An invocation that recorded
    // nothing has no node — and no accesses to order.)
    let node = |inv: u64, epoch: u64| {
        let (first, cuts) = segs.get(&inv)?;
        Some(first + cuts.partition_point(|&c| c < epoch))
    };

    // 2. The happens-before DAG: program order (every segment but an
    // invocation's last precedes the next one), spawns, touches.
    let mut succs: Vec<Vec<usize>> = (1..=nodes).map(|next| vec![next]).collect();
    for (first, cuts) in segs.values() {
        succs[first + cuts.len()].clear();
    }
    let mut future_owner: HashMap<u64, u64> = HashMap::new();
    for s in &seen.spawns {
        if let Some(f) = s.future {
            future_owner.insert(f, s.child);
        }
        if let (Some(before), Some(child)) = (node(s.parent, s.epoch), node(s.child, 0)) {
            succs[before].push(child);
        }
    }
    for t in &seen.touches {
        let owner_end = future_owner.get(&t.future).and_then(|&owner| node(owner, u64::MAX));
        if let (Some(end), Some(after)) = (owner_end, node(t.inv, t.epoch + 1)) {
            succs[end].push(after);
        }
    }

    // 3. Location index, deduplicated: repeated identical accesses in
    // one segment add nothing to the pair scan.
    let mut index: BTreeMap<u64, BTreeSet<AccessAt>> = BTreeMap::new();
    for a in accesses().filter(|a| a.inv != 0) {
        index.entry(a.loc).or_default().insert(AccessAt {
            inv: a.inv,
            seg: node(a.inv, a.epoch).expect("an accessor has segments"),
            write: a.write,
            atomic: a.atomic,
        });
    }

    // 4. Pair scan. Reachability is answered by DFS over the DAG with
    // a memo, for every candidate pair in both directions: a predicted
    // pair's order is wanted too (`unordered_observed` is what
    // `lock_coverage` holds the placements to).
    let mut reach_memo: HashMap<(usize, usize), bool> = HashMap::new();
    let mut check = CrossCheck {
        predicted: predicted.clone(),
        observed: BTreeSet::new(),
        unordered_observed: BTreeSet::new(),
        unpredicted: Vec::new(),
        unpredicted_total: 0,
        pairs_checked: 0,
        capped: false,
        events: accesses().count() + seen.spawns.len() + seen.touches.len(),
    };
    'locs: for (&loc, accs) in &index {
        if !accs.iter().any(|a| a.write) {
            continue;
        }
        // The accessor code is the word's, so both sides carry it.
        let key = (accessor_code(loc), accessor_code(loc));
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

/// The dynamic half of the lock certifier: the observed,
/// happens-before-unordered pairs of a finished cross-check that no
/// placement in force covers (`check.predicted.covered`) — races the
/// locks were supposed to exclude. Empty when the prediction was ⊤: the
/// static side already gave up on precision there, and the ordinary
/// soundness verdict is all there is to say.
pub fn lock_coverage(check: &CrossCheck) -> Vec<PairKey> {
    let predicted = &check.predicted;
    let uncovered = |k: &&PairKey| !predicted.covered.contains(k) && !predicted.top;
    check.unordered_observed.iter().filter(uncovered).copied().collect()
}

/// Restructure a program, run the restructured text on a CRI pool with
/// the access journal observing (`speclog::observe`) and cross-check
/// what it saw against the record of that one restructuring.
/// `args_for` builds the entry function's arguments on the loaded
/// interpreter's heap (before recording starts, so setup accesses are
/// not journaled).
///
/// The journal is process-wide and serves one run at a time: while
/// another sanitized run, or a speculative one, is in flight this
/// returns that refusal and disturbs nothing.
pub fn sanitized_run(
    src: &str,
    entry: &str,
    servers: usize,
    mode: curare_runtime::SchedMode,
    args_for: impl FnOnce(&curare_lisp::Interp) -> Vec<curare_lisp::Value>,
) -> Result<CrossCheck, String> {
    use std::sync::Arc;

    let out = Curare::new().transform_source(src).map_err(|e| e.to_string())?;
    let predicted = predicted_pairs(&out);
    let interp = Arc::new(curare_lisp::Interp::new());
    interp.load_str(&out.source()).map_err(|e| e.to_string())?;
    let args = args_for(&interp);

    speclog::observe().map_err(|e| e.to_string())?;
    let rt = curare_runtime::CriRuntime::with_mode(Arc::clone(&interp), servers, mode);
    let run_result = rt.run(entry, &args);
    drop(rt);
    let seen = speclog::observed();
    run_result.map_err(|e| e.to_string())?;
    Ok(cross_check(&seen, &predicted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use curare_lisp::speclog::{Access, Spawn, Touch};

    #[test]
    fn dps_introduced_links_are_predicted() {
        // The pure remq has no conflicts, but its DPS form links cells
        // through destination cdrs; those transform-introduced
        // accesses must land in the predicted set.
        let src = "(defun remq (obj lst)
                     (cond ((null lst) nil)
                           ((eq obj (car lst)) (remq obj (cdr lst)))
                           (t (cons (car lst) (remq obj (cdr lst))))))";
        let p = predicted(src);
        assert!(p.keys.contains(&(1, 1)), "{:?}", p.keys);
        assert!(!p.top);
    }

    /// The static side of `src`, restructured by the default pipeline.
    fn predicted(src: &str) -> PredictedPairs {
        predicted_pairs(&Curare::new().transform_source(src).unwrap())
    }

    /// One thing an invocation did: read or write `loc`, spawn `child`
    /// (with its future's id), touch `future`.
    #[derive(Clone, Copy)]
    enum Did {
        Read(u64),
        Write(u64),
        Spawn(u64, Option<u64>),
        Touch(u64),
    }
    use Did::*;

    /// The journal of `(invocation, what it did)` in the order it
    /// happened: the k-th record is stamped epoch k + 1.
    fn seen(in_order: &[(u64, Did)]) -> Observed {
        let mut seen = Observed::default();
        for (&(inv, did), epoch) in in_order.iter().zip(1..) {
            match did {
                Read(loc) | Write(loc) => {
                    let write = matches!(did, Write(_));
                    seen.accesses.push(Access { inv, loc, epoch, write, atomic: false });
                }
                Spawn(child, future) => {
                    seen.spawns.push(Spawn { parent: inv, child, epoch, future })
                }
                Touch(future) => seen.touches.push(Touch { inv, future, epoch }),
            }
        }
        seen
    }

    /// inv 1 spawns inv 2 and *then* reads `loc`, which inv 2 writes:
    /// no order between them.
    fn post_spawn_race(loc: u64) -> Observed {
        seen(&[(1, Spawn(2, None)), (1, Read(loc)), (2, Write(loc))])
    }

    #[test]
    fn pre_spawn_write_is_ordered_before_child() {
        // inv 1 writes loc 8, then spawns inv 2, which reads loc 8:
        // ordered by the spawn edge, so unpredicted stays empty even
        // with an empty prediction set.
        let seen = seen(&[(1, Write(8)), (1, Spawn(2, None)), (2, Read(8))]);
        let check = cross_check(&seen, &PredictedPairs::default());
        assert!(check.sound(), "{:?}", check.unpredicted);
        assert_eq!((check.pairs_checked, check.observed.len(), check.events), (1, 1, 3));
    }

    #[test]
    fn post_spawn_read_against_child_write_is_a_failure() {
        // Nothing orders them, nothing predicted them → unsound.
        let check = cross_check(&post_spawn_race(8), &PredictedPairs::default());
        assert!(!check.sound());
        assert_eq!(check.unpredicted_total, 1);
        assert_eq!(check.unpredicted[0].loc, 8);
        assert_eq!(check.unpredicted[0].key, (0, 0));
    }

    #[test]
    fn predicted_pair_is_not_a_failure_even_unordered() {
        let mut predicted = PredictedPairs::default();
        predicted.keys.insert((0, 0));
        let check = cross_check(&post_spawn_race(8), &predicted);
        assert!(check.sound());
        // ... and it manifested.
        assert!(check.observed.contains(&(0, 0)));
    }

    #[test]
    fn touch_orders_child_before_continuation() {
        // inv 1 spawns inv 2 as future 7 and touches it. What it writes
        // after the touch is ordered behind the child's write through
        // the touch edge; what it wrote before is not. Epochs say which
        // is which, not the order the lanes gave the records up in.
        let journal = |early: bool| {
            let (spawn, child) = ((1, Spawn(2, Some(7))), (2, Write(8)));
            let (write, touch) = ((1, Write(8)), (1, Touch(7)));
            let order =
                if early { [spawn, write, child, touch] } else { [spawn, child, touch, write] };
            let mut seen = seen(&order);
            seen.accesses.reverse();
            cross_check(&seen, &PredictedPairs::default())
        };
        assert!(journal(false).sound(), "{:?}", journal(false).unpredicted);
        assert_eq!(journal(true).unpredicted[0].invs, (1, 2), "written before the touch");
    }

    #[test]
    fn same_invocation_and_atomic_pairs_are_ignored() {
        // inv 1 against itself is no pair, and two atomic RMWs of one
        // word never race.
        let mut seen = seen(&[(1, Write(8)), (1, Read(8)), (2, Write(9)), (3, Write(9))]);
        seen.accesses[2..].iter_mut().for_each(|a| a.atomic = true);
        let check = cross_check(&seen, &PredictedPairs::default());
        assert!(check.sound());
        assert_eq!(check.pairs_checked, 0);
    }

    #[test]
    fn driver_accesses_are_excluded() {
        // inv 0 (the driver, displaying results) reads everything the
        // invocations wrote; no pairs involve it.
        let seen = seen(&[(0, Read(8)), (1, Write(8))]);
        let check = cross_check(&seen, &PredictedPairs::default());
        assert!(check.sound());
        assert_eq!(check.pairs_checked, 0);
    }

    #[test]
    fn a_conflicting_pair_on_a_global_is_ignored() {
        // A global's cell is in the journal (speculation undoes it)
        // and not judged here: §2 predicts heap words.
        let check = cross_check(&post_spawn_race(GLOBAL_LOC_BIT | 8), &PredictedPairs::default());
        assert!(check.sound());
        assert_eq!((check.pairs_checked, check.events), (0, 1), "only the spawn counts");
    }

    #[test]
    fn top_prediction_absorbs_everything() {
        let predicted = PredictedPairs { top: true, ..PredictedPairs::default() };
        let check = cross_check(&post_spawn_race(speclog::struct_loc(8, 3)), &predicted);
        assert!(check.sound());
        assert_eq!(check.observed, BTreeSet::from([(5, 5)]), "field 3 of a struct");
    }

    #[test]
    fn predicted_pairs_of_figure5_cover_its_races() {
        let src = "(defun f (l)
                     (cond ((null l) nil)
                           ((null (cdr l)) (f (cdr l)))
                           (t (setf (cadr l) (+ (car l) (cadr l)))
                              (f (cdr l)))))";
        let p = predicted(src);
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
        let p = predicted(src);
        assert!(!p.top, "no unknown writes in the fixture");
        assert!(p.keys.is_empty(), "{:?}", p.keys);
    }
}

#[cfg(test)]
mod sanitized_tests {
    use super::*;
    use curare_runtime::SchedMode;
    use std::sync::{Mutex, PoisonError};

    // The journal is process-global and serves one run at a time:
    // serialize runs.
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
        assert!(check.predicted.keys.is_subset(&check.observed), "{:?}", check.observed);
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
    fn a_struct_field_is_keyed_by_its_accessor_code() {
        // Figure 5 over a `defstruct` chain: each invocation adds its
        // node's `val` into the next node's. `val` is field 1, so both
        // sides of the predicted — and of the observed — pair carry
        // accessor code 2 + 1, read back out of the packed location.
        let src = "(defstruct node next val)
                   (defun bump (n)
                     (when (node-next n)
                       (setf (node-val (node-next n))
                             (+ (node-val n) (node-val (node-next n))))
                       (bump (node-next n))))";
        let _g = RUN_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let check = sanitized_run(src, "bump", 2, SchedMode::Sharded, |interp| {
            let chain = "(let ((l nil)) (dotimes (i 24) (setq l (make-node l 1))) l)";
            vec![interp.load_str(chain).unwrap()]
        })
        .expect("sanitized run");
        assert!(check.sound(), "unpredicted: {:?}", check.unpredicted);
        assert!(check.predicted.keys.contains(&(3, 3)), "{:?}", check.predicted.keys);
        assert!(check.observed.contains(&(3, 3)), "{:?}", check.observed);
        assert!(check.observed.iter().all(|&(a, b)| a >= 2 && b >= 2), "{:?}", check.observed);
    }

    #[test]
    fn one_journaled_run_at_a_time_and_a_failed_one_frees_the_journal() {
        let _g = RUN_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let run = |src| {
            sanitized_run(src, "walk", 2, SchedMode::Sharded, |interp| {
                vec![interp.load_str(&list_src(8)).unwrap()]
            })
        };
        // The last invocation's body errors: the error is the run's,
        // as it would be unobserved, and the journal is free again.
        let failing = "(defun walk (l) (cond ((null l) (car 7)) (t (walk (cdr l)))))";
        let err = run(failing).expect_err("the body error is the run's");
        assert!(err.contains("car") && !speclog::armed(), "{err}");
        // While a speculative run holds the journal a sanitized one is
        // refused (two recorders used to run side by side, unaware).
        speclog::arm().expect("free after the failed run");
        let refused = run(failing).expect_err("one run at a time");
        assert!(refused.contains("a speculative run is already in flight"), "{refused}");
        assert!(speclog::armed(), "refused means untouched");
        speclog::disarm();
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
            let check = sanitized_run(LOCKED_RMWS, "f", 3, mode, |interp| {
                vec![interp.load_str(&list_src(32)).unwrap()]
            })
            .expect("sanitized run");
            assert!(check.sound(), "unpredicted: {:?}", check.unpredicted);
            assert_eq!(lock_coverage(&check), [], "uncovered");
            let covered = &check.predicted.covered;
            assert!(covered.contains(&(0, 0)), "{covered:?}");
        }
    }

    #[test]
    fn lock_coverage_flags_unordered_pairs_without_a_placement() {
        // The aliasing fixture has no placement at all: its unordered
        // observed pair must surface as uncovered, not be absorbed.
        let check = run_mix(SchedMode::Sharded);
        assert!(!lock_coverage(&check).is_empty(), "{:?}", check.predicted.covered);
    }
}
