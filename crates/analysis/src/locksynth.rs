//! Lock synthesis (paper §3.2.1, grounded by Locksynth): derive the
//! *minimal* read-write lock placement from the conflict report.
//!
//! The conflict analysis (§2) is a declarative specification: pairs of
//! accesses that may touch the same location from invocations `d`
//! apart. This pass synthesizes synchronization from that
//! specification instead of locking every conflicting pair:
//!
//! - **rw modes**: a lock path is exclusive only if a write of this
//!   invocation lands at or below it; read-only locations take shared
//!   locks, so readers never exclude readers.
//! - **drops**: a pair whose write side executes in the head needs no
//!   lock — heads execute in invocation order (§3.2.2), so the write
//!   already happens before the later invocation's access. Future
//!   synchronization (§3.1) orders everything and drops all locks.
//! - **coalescing**: candidate locks are minimized greedily; a lock is
//!   removed only if every pair it covered remains covered by a
//!   *coinciding* lock pair (see below), so disjoint location-set
//!   groups collapse toward one lock path without losing exclusion.
//!
//! Soundness of a placement is a *physical* property: the writer locks
//! path `w` of its own frame, the accessor locks a prefix `q` of its
//! path, and these guard the same cell-field iff `w ∈ L(τ^d ∘ q)` or
//! `q ∈ L(τ^d ∘ w)` — whichever frame is the earlier one, its lock
//! path seen `d` invocations later IS the other's locked word. The
//! certifier in `curare-check` re-checks exactly this predicate
//! (C007/C008); [`covering_pair`] is the shared definition.

use std::collections::BTreeMap;

use crate::access::AccessSummary;
use crate::analyze::FunctionAnalysis;
use crate::conflict::{Conflict, DependencyKind};
use crate::path::Path;
use crate::regex::PowerChain;
use crate::transfer::Transfer;

/// Acquisition mode of a synthesized lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockMode {
    /// Shared (read) — concurrent holders allowed.
    Shared,
    /// Exclusive (write) — sole holder.
    Exclusive,
}

impl LockMode {
    /// Stable lowercase name used in JSON and messages.
    pub fn name(self) -> &'static str {
        match self {
            LockMode::Shared => "shared",
            LockMode::Exclusive => "exclusive",
        }
    }
}

/// What ordering the surrounding transformation already guarantees;
/// pairs ordered by it need no lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingContext {
    /// Heads execute in invocation order (true inside the CRI
    /// pipeline: each invocation's head completes before it spawns
    /// the next).
    pub head_ordering: bool,
    /// Every tail is ordered by future/touch synchronization — no
    /// pair needs a lock at all.
    pub future_synced: bool,
}

impl OrderingContext {
    /// The CRI pipeline context: head ordering holds by construction.
    pub fn cri() -> Self {
        OrderingContext { head_ordering: true, future_synced: false }
    }

    /// No ordering guarantees (standalone lock device, sanitizer
    /// coverage checks): every conflicting pair needs a lock.
    pub fn none() -> Self {
        OrderingContext { head_ordering: false, future_synced: false }
    }
}

/// Why a pair does (or does not) need a lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairOrder {
    /// Nothing orders it: must be covered by locks.
    Unordered,
    /// Write side is head-only and heads run in invocation order.
    HeadOrdered,
    /// Ordered by future/touch synchronization.
    FutureSynced,
}

impl PairOrder {
    /// Stable name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            PairOrder::Unordered => "unordered",
            PairOrder::HeadOrdered => "head-ordered",
            PairOrder::FutureSynced => "future-synced",
        }
    }
}

/// One conflicting pair, classified.
#[derive(Debug, Clone)]
pub struct PairInfo {
    /// The conflict as reported by the analysis.
    pub conflict: Conflict,
    /// Why it does / does not need a lock.
    pub order: PairOrder,
    /// For unordered pairs: is it covered by the placement's locks?
    /// Ordered pairs are trivially true.
    pub covered: bool,
}

/// One lock of a placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthLock {
    /// Parameter index the path is rooted at.
    pub root: usize,
    /// Parameter name.
    pub root_name: String,
    /// Path of the locked location (last letter = field).
    pub path: Path,
    /// Shared or exclusive.
    pub mode: LockMode,
    /// Disjoint location-set group id (locks co-covering a pair share
    /// a group).
    pub group: usize,
    /// Indices into [`Placement::pairs`] this lock helps cover.
    pub covers: Vec<usize>,
    /// Human-readable justification (which pair, which mode, why not
    /// dropped).
    pub reason: String,
}

/// A synthesized (or declared) lock placement for one function.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Function name.
    pub function: String,
    /// True when the locks came from a `(locks ...)` declaration
    /// rather than synthesis.
    pub declared: bool,
    /// The ordering context the placement was computed under.
    pub context: OrderingContext,
    /// Every conflicting pair, classified and coverage-checked.
    pub pairs: Vec<PairInfo>,
    /// The locks, sorted by (root, path) — acquisition order.
    pub locks: Vec<SynthLock>,
    /// Lock count of the naive all-pairs placement (baseline).
    pub naive_count: usize,
    /// `min(d₁…d_u)` of §3.2.1 — the predicted concurrency bound.
    pub min_distance: Option<usize>,
}

impl Placement {
    /// True when every unordered pair is covered: the placement is
    /// sound to rely on for exclusion.
    pub fn is_certified_clean(&self) -> bool {
        self.pairs.iter().all(|p| p.covered)
    }

    /// Unordered pairs left uncovered.
    pub fn uncovered(&self) -> usize {
        self.pairs.iter().filter(|p| !p.covered).count()
    }

    /// The `curare-locks/1` placement document (single line).
    pub fn to_json(&self) -> curare_obs::Json {
        let pairs: Vec<curare_obs::Json> = self
            .pairs
            .iter()
            .map(|p| {
                curare_obs::Json::obj()
                    .set("root", p.conflict.root)
                    .set("write_path", p.conflict.write_path.to_string())
                    .set("other_path", p.conflict.other_path.to_string())
                    .set(
                        "kind",
                        match p.conflict.kind {
                            DependencyKind::WriteRead => "write-read",
                            DependencyKind::WriteWrite => "write-write",
                        },
                    )
                    .set("distance", p.conflict.distance)
                    .set("order", p.order.name())
                    .set("covered", p.covered)
            })
            .collect();
        let locks: Vec<curare_obs::Json> = self
            .locks
            .iter()
            .map(|l| {
                curare_obs::Json::obj()
                    .set("root", l.root)
                    .set("root_name", l.root_name.as_str())
                    .set("path", l.path.to_string())
                    .set("mode", l.mode.name())
                    .set("group", l.group)
                    .set(
                        "covers",
                        l.covers
                            .iter()
                            .map(|&i| curare_obs::Json::from(i as u64))
                            .collect::<Vec<curare_obs::Json>>(),
                    )
                    .set("reason", l.reason.as_str())
            })
            .collect();
        let mut doc = curare_obs::Json::obj()
            .set("schema", "curare-locks/1")
            .set("function", self.function.as_str())
            .set("declared", self.declared)
            .set("head_ordering", self.context.head_ordering)
            .set("future_synced", self.context.future_synced)
            .set("certified_clean", self.is_certified_clean())
            .set("naive_locks", self.naive_count)
            .set("pairs", pairs)
            .set("locks", locks);
        if let Some(d) = self.min_distance {
            doc = doc.set("min_distance", d);
        }
        doc
    }
}

/// Is there a distance `d ≥ 1` with `write == τ^d ∘ q` — i.e. do the
/// writer's lock path and the accessor's lock path name the *same
/// physical cell-field* `d` invocations apart? Unlike the insertion
/// heuristic in `transform::locks`, an unknown τ answers **no**:
/// certification must prove coincidence, not assume it.
pub fn coincides(write: &Path, tau: &Transfer, q: &Path) -> bool {
    let bound = match tau.min_step_len() {
        None => return false,
        Some(0) => write.len().max(q.len()) + 2,
        Some(step) => (write.len() + q.len()) / step + 2,
    };
    // `write = u·q` with `u ∈ τ^d`: one simulation of `write` through
    // τ's powers answers for every `d`.
    let Some(split) = write.len().checked_sub(q.len()) else { return false };
    if write.accessors()[split..] != *q.accessors() {
        return false;
    }
    let trace = PowerChain::new(&tau.regex(), bound).trace(write);
    (1..=bound).any(|d| trace.splits_at(split, d))
}

/// A lock at `lock` covers an access at `access` when it guards it or
/// an ancestor field on the access's path.
fn lock_covers(lock: &Path, access: &Path) -> bool {
    lock.is_prefix_of(access)
}

/// Find locks establishing exclusion for `c`: `lw` covering the write
/// side, `lo` covering the other side, not both shared, and
/// physically coinciding across the pair's frames. This is the
/// soundness predicate the C007 certifier re-checks.
pub fn covering_pair(
    locks: &[SynthLock],
    c: &Conflict,
    transfers: &[Transfer],
) -> Option<(usize, usize)> {
    let tau = transfers.get(c.root)?;
    for (i, lw) in locks.iter().enumerate() {
        if lw.root != c.root || lw.path.is_empty() || !lock_covers(&lw.path, &c.write_path) {
            continue;
        }
        for (j, lo) in locks.iter().enumerate() {
            if lo.root != c.root || lo.path.is_empty() || !lock_covers(&lo.path, &c.other_path) {
                continue;
            }
            if lw.mode == LockMode::Shared && lo.mode == LockMode::Shared {
                continue;
            }
            // Coincidence is checked in both directions because either
            // frame may be the earlier one: the writer's lock path d
            // frames later may be the accessor's word (`lw = τ^d ∘ lo`)
            // or the accessor's lock path d frames later may be the
            // writer's word (`lo = τ^d ∘ lw`). Either way both holders
            // lock the same physical cell-field.
            if coincides(&lw.path, tau, &lo.path) || coincides(&lo.path, tau, &lw.path) {
                return Some((i, j));
            }
        }
    }
    None
}

/// Classify one pair under `ctx`: the write side happening in the head
/// of its invocation means head ordering already sequences it before
/// every later invocation's access.
fn classify(c: &Conflict, accesses: &AccessSummary, ctx: OrderingContext) -> PairOrder {
    if ctx.future_synced {
        return PairOrder::FutureSynced;
    }
    if ctx.head_ordering {
        let mut saw = false;
        let mut all_head = true;
        for r in accesses
            .records
            .iter()
            .filter(|r| r.write && r.root == c.root && r.path == c.write_path)
        {
            saw = true;
            all_head &= !r.tail;
        }
        // A canon-rewritten path matches no record: conservatively
        // unordered.
        if saw && all_head {
            return PairOrder::HeadOrdered;
        }
    }
    PairOrder::Unordered
}

/// Mode of a lock path: exclusive iff some write of *this* invocation
/// lands at or below it (the lock then guards a write and must
/// exclude all other holders).
fn mode_of(root: usize, path: &Path, accesses: &AccessSummary) -> LockMode {
    let writes_below = accesses
        .writes()
        .any(|w| w.root == root && (path == &w.path || path.is_prefix_of(&w.path)));
    if writes_below {
        LockMode::Exclusive
    } else {
        LockMode::Shared
    }
}

/// The naive all-pairs placement: both paths of every conflicting
/// pair, all exclusive. The baseline synthesis must never exceed.
pub fn naive(analysis: &FunctionAnalysis, params: &[&str]) -> Vec<SynthLock> {
    let mut paths: BTreeMap<(usize, Path), ()> = BTreeMap::new();
    for c in &analysis.conflicts.conflicts {
        if !c.write_path.is_empty() {
            paths.insert((c.root, c.write_path.clone()), ());
        }
        if !c.other_path.is_empty() {
            paths.insert((c.root, c.other_path.clone()), ());
        }
    }
    paths
        .into_keys()
        .map(|(root, path)| SynthLock {
            root,
            root_name: params.get(root).map(|s| s.to_string()).unwrap_or_default(),
            path,
            mode: LockMode::Exclusive,
            group: 0,
            covers: Vec::new(),
            reason: "naive all-pairs placement".to_string(),
        })
        .collect()
}

/// Synthesize the minimal placement for `analysis` under `ctx`.
pub fn synthesize(analysis: &FunctionAnalysis, params: &[&str], ctx: OrderingContext) -> Placement {
    let mut pairs: Vec<PairInfo> = analysis
        .conflicts
        .conflicts
        .iter()
        .map(|c| PairInfo {
            conflict: c.clone(),
            order: classify(c, &analysis.accesses, ctx),
            covered: true,
        })
        .collect();

    // Candidate locks from unordered pairs: the writer's destination
    // and the *shortest* nonempty coinciding prefix of the accessor's
    // path (the same physical cell seen d invocations later).
    let mut cand: BTreeMap<(usize, Path), String> = BTreeMap::new();
    for p in pairs.iter().filter(|p| p.order == PairOrder::Unordered) {
        let c = &p.conflict;
        if !c.write_path.is_empty() {
            cand.entry((c.root, c.write_path.clone())).or_insert_with(|| {
                format!(
                    "write destination of pair {} ⊙ {} at distance {} (unordered: write is in the tail or head ordering is off)",
                    c.write_path, c.other_path, c.distance
                )
            });
        }
        if let Some(tau) = analysis.transfers.per_param.get(c.root) {
            for plen in 1..=c.other_path.len() {
                let q = Path::from(c.other_path.accessors()[..plen].to_vec());
                if coincides(&c.write_path, tau, &q) || coincides(&q, tau, &c.write_path) {
                    cand.entry((c.root, q.clone())).or_insert_with(|| {
                        format!(
                            "accessor side of pair {} ⊙ {}: location {} coincides with the write destination across invocations",
                            c.write_path, c.other_path, q
                        )
                    });
                    break;
                }
            }
        }
    }

    let mut locks: Vec<SynthLock> = cand
        .into_iter()
        .map(|((root, path), reason)| {
            let mode = mode_of(root, &path, &analysis.accesses);
            SynthLock {
                root,
                root_name: params.get(root).map(|s| s.to_string()).unwrap_or_default(),
                path,
                mode,
                group: 0,
                covers: Vec::new(),
                reason,
            }
        })
        .collect();

    // Which unordered pairs does the full candidate set cover?
    let transfers = &analysis.transfers.per_param;
    let baseline: Vec<bool> = pairs
        .iter()
        .map(|p| {
            p.order != PairOrder::Unordered
                || covering_pair(&locks, &p.conflict, transfers).is_some()
        })
        .collect();

    // Greedy minimization (coalescing): drop a lock when every pair
    // that was covered stays covered — longest paths first, so coarse
    // ancestor locks absorb fine ones when coincidence permits.
    let mut victims: Vec<(usize, Path)> = locks.iter().map(|l| (l.root, l.path.clone())).collect();
    victims.sort_by_key(|(_, p)| std::cmp::Reverse(p.len()));
    for (root, path) in victims {
        let trial: Vec<SynthLock> =
            locks.iter().filter(|l| !(l.root == root && l.path == path)).cloned().collect();
        let still_covered = pairs.iter().zip(&baseline).all(|(p, &was)| {
            !was || p.order != PairOrder::Unordered
                || covering_pair(&trial, &p.conflict, transfers).is_some()
        });
        if still_covered {
            locks = trial;
        }
    }

    let naive_locks = naive(analysis, params);
    // Safety valve for the minimality contract: synthesis must never
    // exceed the naive count. If greedy minimization could not get
    // below it and the naive placement covers no fewer pairs, take it.
    if locks.len() > naive_locks.len() {
        let naive_covered = pairs
            .iter()
            .filter(|p| {
                p.order == PairOrder::Unordered
                    && covering_pair(&naive_locks, &p.conflict, transfers).is_some()
            })
            .count();
        let synth_covered = pairs
            .iter()
            .zip(&baseline)
            .filter(|(p, &was)| p.order == PairOrder::Unordered && was)
            .count();
        if naive_covered >= synth_covered {
            locks = naive_locks.clone();
        }
    }

    finish(
        analysis.name.clone(),
        false,
        ctx,
        &mut pairs,
        locks,
        naive_locks.len(),
        analysis.conflicts.min_distance,
        transfers,
    )
}

/// Build a placement from declared locks (a `(locks ...)` clause):
/// the programmer's assertion, audited by the certifier rather than
/// recomputed.
pub fn declared_placement(
    analysis: &FunctionAnalysis,
    params: &[&str],
    declared: &[(bool, String, Path)],
    ctx: OrderingContext,
) -> Placement {
    let mut pairs: Vec<PairInfo> = analysis
        .conflicts
        .conflicts
        .iter()
        .map(|c| PairInfo {
            conflict: c.clone(),
            order: classify(c, &analysis.accesses, ctx),
            covered: true,
        })
        .collect();
    let locks: Vec<SynthLock> = declared
        .iter()
        .filter_map(|(exclusive, root_name, path)| {
            let root = params.iter().position(|p| p == root_name)?;
            Some(SynthLock {
                root,
                root_name: root_name.clone(),
                path: path.clone(),
                mode: if *exclusive { LockMode::Exclusive } else { LockMode::Shared },
                group: 0,
                covers: Vec::new(),
                reason: "declared".to_string(),
            })
        })
        .collect();
    let naive_count = naive(analysis, params).len();
    finish(
        analysis.name.clone(),
        true,
        ctx,
        &mut pairs,
        locks,
        naive_count,
        analysis.conflicts.min_distance,
        &analysis.transfers.per_param,
    )
}

/// Common tail of placement construction: compute coverage, per-lock
/// `covers` lists, and disjoint location-set groups; sort locks into
/// acquisition order.
#[allow(clippy::too_many_arguments)]
fn finish(
    function: String,
    declared: bool,
    ctx: OrderingContext,
    pairs: &mut [PairInfo],
    mut locks: Vec<SynthLock>,
    naive_count: usize,
    min_distance: Option<usize>,
    transfers: &[Transfer],
) -> Placement {
    locks.sort_by(|a, b| (a.root, &a.path).cmp(&(b.root, &b.path)));

    // Union-find over locks: co-covering a pair joins a group.
    let mut parent: Vec<usize> = (0..locks.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut r = i;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = i;
        while parent[c] != c {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }

    for (pi, p) in pairs.iter_mut().enumerate() {
        match p.order {
            PairOrder::Unordered => match covering_pair(&locks, &p.conflict, transfers) {
                Some((i, j)) => {
                    p.covered = true;
                    if !locks[i].covers.contains(&pi) {
                        locks[i].covers.push(pi);
                    }
                    if !locks[j].covers.contains(&pi) {
                        locks[j].covers.push(pi);
                    }
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
                None => p.covered = false,
            },
            _ => p.covered = true,
        }
    }

    // Densely number the groups in lock order.
    let mut group_ids: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, lock) in locks.iter_mut().enumerate() {
        let r = find(&mut parent, i);
        let next = group_ids.len();
        lock.group = *group_ids.entry(r).or_insert(next);
    }

    Placement {
        function,
        declared,
        context: ctx,
        pairs: pairs.to_vec(),
        locks,
        naive_count,
        min_distance,
    }
}

/// Certifier issue: one C007 (unsound) or C008 (non-minimal) finding.
#[derive(Debug, Clone)]
pub struct CertIssue {
    /// True for unsound (uncovered pair, C007), false for
    /// non-minimal (useless lock, C008).
    pub unsound: bool,
    /// Human-readable description.
    pub message: String,
}

/// Certify `placement` against the analysis it claims to cover:
/// every unordered pair must have a coinciding, not-both-shared lock
/// pair (else unsound — C007), and every lock must take part in
/// covering some unordered pair (else non-minimal — C008).
pub fn certify(placement: &Placement, analysis: &FunctionAnalysis) -> Vec<CertIssue> {
    let transfers = &analysis.transfers.per_param;
    let mut issues = Vec::new();
    let mut useful = vec![false; placement.locks.len()];
    for p in &placement.pairs {
        if p.order != PairOrder::Unordered {
            continue;
        }
        match covering_pair(&placement.locks, &p.conflict, transfers) {
            Some((i, j)) => {
                useful[i] = true;
                useful[j] = true;
            }
            None => issues.push(CertIssue {
                unsound: true,
                message: format!(
                    "conflicting pair write {} ⊙ {} at distance {} is unordered and uncovered: no coinciding lock pair establishes exclusion",
                    p.conflict.write_path, p.conflict.other_path, p.conflict.distance
                ),
            }),
        }
    }
    for (l, used) in placement.locks.iter().zip(&useful) {
        if !used {
            issues.push(CertIssue {
                unsound: false,
                message: format!(
                    "lock {} {} on {} covers no live unordered conflict — droppable (the naive all-pairs placement would still emit it)",
                    l.mode.name(),
                    l.path,
                    if l.root_name.is_empty() { format!("param {}", l.root) } else { l.root_name.clone() }
                ),
            });
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_function;
    use crate::declare::DeclDb;
    use crate::path::{parse_list_path, Accessor};
    use curare_lisp::{Heap, Lowerer};
    use curare_sexpr::parse_all;

    fn analyze(src: &str) -> FunctionAnalysis {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(src).unwrap()).unwrap();
        let decls = DeclDb::from_program(&prog).unwrap();
        analyze_function(&prog.funcs[0], &decls)
    }

    const FIGURE_4: &str = "(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))";

    #[test]
    fn figure_4_rw_modes_and_coverage() {
        let a = analyze(FIGURE_4);
        let p = synthesize(&a, &["l"], OrderingContext::none());
        assert!(p.is_certified_clean(), "{p:?}");
        let by_path: BTreeMap<String, LockMode> =
            p.locks.iter().map(|l| (l.path.to_string(), l.mode)).collect();
        assert_eq!(by_path.get("cdr.car"), Some(&LockMode::Exclusive), "{by_path:?}");
        assert_eq!(
            by_path.get("car"),
            Some(&LockMode::Shared),
            "read-only side is shared: {by_path:?}"
        );
        // Both locks serve the same pair: one group.
        assert!(p.locks.iter().all(|l| l.group == 0), "{:?}", p.locks);
        assert!(certify(&p, &a).is_empty(), "{:?}", certify(&p, &a));
    }

    #[test]
    fn head_ordering_drops_all_locks_for_head_writers() {
        // The figure-4 write is in the head (before the self-call):
        // under the CRI context the pair is head-ordered and the
        // placement is empty.
        let a = analyze(FIGURE_4);
        let p = synthesize(&a, &["l"], OrderingContext::cri());
        assert!(p.locks.is_empty(), "{:?}", p.locks);
        assert!(p.pairs.iter().all(|pr| pr.order == PairOrder::HeadOrdered), "{:?}", p.pairs);
        assert!(p.is_certified_clean());
        assert!(p.naive_count > 0, "naive would still lock the pair");
    }

    #[test]
    fn tail_writer_stays_unordered_under_cri() {
        // The write happens after the self-call: head ordering does
        // not sequence it, so locks are still required.
        let a = analyze(
            "(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (cadr l) (car l))))",
        );
        let p = synthesize(&a, &["l"], OrderingContext::cri());
        assert!(p.pairs.iter().any(|pr| pr.order == PairOrder::Unordered), "{:?}", p.pairs);
        assert!(!p.locks.is_empty());
    }

    #[test]
    fn future_sync_drops_everything() {
        let a = analyze(FIGURE_4);
        let ctx = OrderingContext { head_ordering: false, future_synced: true };
        let p = synthesize(&a, &["l"], ctx);
        assert!(p.locks.is_empty());
        assert!(p.pairs.iter().all(|pr| pr.order == PairOrder::FutureSynced));
    }

    #[test]
    fn traversal_conflict_is_reported_uncovered() {
        // Writing the spine pointer (setf (cdr l) ...) conflicts with
        // every later access *through* it; the only coinciding
        // accessor prefix is ε (the root value), which no location
        // lock can guard. Synthesis must say so, not silently claim
        // soundness.
        let a = analyze(
            "(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (cdr l) nil)))",
        );
        let p = synthesize(&a, &["l"], OrderingContext::none());
        assert!(!p.is_certified_clean(), "{p:?}");
        let issues = certify(&p, &a);
        assert!(issues.iter().any(|i| i.unsound), "{issues:?}");
    }

    #[test]
    fn synthesis_never_exceeds_naive() {
        for src in [
            FIGURE_4,
            "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))",
            "(defun f (l)
               (when l
                 (setf (car l) (caar l))
                 (setf (car (car l)) 2)
                 (f (car l))))",
        ] {
            let a = analyze(src);
            let p = synthesize(&a, &["l"], OrderingContext::none());
            assert!(p.locks.len() <= p.naive_count, "{src}: {} > {}", p.locks.len(), p.naive_count);
        }
    }

    #[test]
    fn read_window_writer_gets_rw_placement() {
        // Invocation i writes its own car and reads one cell ahead —
        // the word invocation i+1 writes. The synthesized placement is
        // exclusive on the write destination plus a *shared* lock on
        // the read-ahead word (readers never exclude readers), covered
        // via the reversed coincidence cdr.car = τ¹ ∘ car.
        let a = analyze(
            "(defun fw (l)
               (when (cdr l)
                 (fw (cdr l))
                 (setf (car l) (* (car l) 2))
                 (car (cdr l))))",
        );
        let p = synthesize(&a, &["l"], OrderingContext::cri());
        assert!(p.is_certified_clean(), "{p:?}");
        assert!(p.pairs.iter().any(|pr| pr.order == PairOrder::Unordered));
        let by_path: BTreeMap<String, LockMode> =
            p.locks.iter().map(|l| (l.path.to_string(), l.mode)).collect();
        assert_eq!(by_path.get("car"), Some(&LockMode::Exclusive), "{by_path:?}");
        assert_eq!(by_path.get("cdr.car"), Some(&LockMode::Shared), "{by_path:?}");
        assert!(certify(&p, &a).is_empty(), "{:?}", certify(&p, &a));
        assert!(p.locks.len() <= p.naive_count);
    }

    #[test]
    fn declared_placement_is_audited_not_trusted() {
        let a = analyze(FIGURE_4);
        // A shared-only declaration cannot exclude the writer: C007.
        let decl = vec![(false, "l".to_string(), parse_list_path("car").unwrap())];
        let p = declared_placement(&a, &["l"], &decl, OrderingContext::none());
        assert!(!p.is_certified_clean());
        assert!(certify(&p, &a).iter().any(|i| i.unsound));

        // The synthesized shape, declared by hand, certifies clean.
        let decl = vec![
            (true, "l".to_string(), parse_list_path("cdr.car").unwrap()),
            (false, "l".to_string(), parse_list_path("car").unwrap()),
        ];
        let p = declared_placement(&a, &["l"], &decl, OrderingContext::none());
        assert!(p.is_certified_clean(), "{p:?}");
        assert!(certify(&p, &a).is_empty());
    }

    #[test]
    fn useless_declared_lock_is_flagged_non_minimal() {
        let a = analyze(FIGURE_4);
        let decl = vec![
            (true, "l".to_string(), parse_list_path("cdr.car").unwrap()),
            (false, "l".to_string(), parse_list_path("car").unwrap()),
            // cdr.cdr guards nothing that conflicts.
            (true, "l".to_string(), parse_list_path("cdr.cdr").unwrap()),
        ];
        let p = declared_placement(&a, &["l"], &decl, OrderingContext::none());
        let issues = certify(&p, &a);
        assert!(issues.iter().any(|i| !i.unsound && i.message.contains("cdr.cdr")), "{issues:?}");
        assert!(!issues.iter().any(|i| i.unsound), "{issues:?}");
    }

    #[test]
    fn placement_json_round_trips() {
        let a = analyze(FIGURE_4);
        let p = synthesize(&a, &["l"], OrderingContext::none());
        let text = p.to_json().to_string();
        assert!(!text.contains('\n'), "single line: {text}");
        let doc = curare_obs::Json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").and_then(curare_obs::Json::as_str), Some("curare-locks/1"));
        assert_eq!(doc.get("certified_clean").and_then(curare_obs::Json::as_bool), Some(true));
        assert!(doc.get("locks").and_then(curare_obs::Json::as_arr).is_some_and(|a| !a.is_empty()));
        let lock = &doc.get("locks").and_then(curare_obs::Json::as_arr).unwrap()[0];
        assert!(lock.get("mode").and_then(curare_obs::Json::as_str).is_some());
        assert!(lock.get("reason").and_then(curare_obs::Json::as_str).is_some());
    }

    /// Property: over randomly generated cdr-walker programs whose
    /// accesses all land on `car` words at random spine depths, the
    /// synthesized placement (a) certifies clean — every unordered
    /// conflicting pair covered, no redundant lock, (b) never exceeds
    /// the naive all-pairs count, and (c) never grants a shared lock
    /// on a path the function writes.
    #[test]
    fn random_walkers_synthesize_certified_minimal_placements() {
        // Deterministic LCG (Knuth MMIX constants) so failures replay.
        let mut state: u64 = 0xcafe_f00d_d15e_a5e5;
        let mut next = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let word = |depth: u64| {
            let mut s = String::from("l");
            for _ in 0..depth {
                s = format!("(cdr {s})");
            }
            format!("(car {s})")
        };
        for round in 0..48 {
            let writes = 1 + next(2);
            let reads = next(4);
            let mut body = String::new();
            for _ in 0..writes {
                let w = word(next(4));
                body.push_str(&format!("(setf {w} (* {w} 2)) "));
            }
            for _ in 0..reads {
                body.push_str(&word(next(4)));
                body.push(' ');
            }
            let src = format!("(defun fw (l) (when (cdr l) (fw (cdr l)) {body}))");
            let a = analyze(&src);
            let p = synthesize(&a, &["l"], OrderingContext::none());
            assert!(p.is_certified_clean(), "round {round}: {src}\n{p:?}");
            assert!(certify(&p, &a).is_empty(), "round {round}: {src}\n{:?}", certify(&p, &a));
            assert!(
                p.locks.len() <= p.naive_count,
                "round {round}: {src}: {} locks > naive {}",
                p.locks.len(),
                p.naive_count
            );
            for lock in &p.locks {
                let written = a
                    .accesses
                    .records
                    .iter()
                    .any(|r| r.write && r.root == lock.root && r.path == lock.path);
                assert!(
                    !(written && lock.mode == LockMode::Shared),
                    "round {round}: {src}: shared lock on written path {}",
                    lock.path
                );
            }
        }
    }

    #[test]
    fn coincides_is_strict_about_unknown_tau() {
        // A function whose parameter is reassigned has unknown τ:
        // coverage must not be claimed.
        let a = analyze(
            "(defun f (l)
               (setq l (cdr l))
               (setf (car l) 1)
               (f l))",
        );
        // No parameter-rooted conflicts survive (unknown root), so
        // nothing to cover — but coincides itself must refuse.
        let tau = &a.transfers.per_param[0];
        if tau.min_step_len().is_none() {
            assert!(!coincides(&Path::from([Accessor::Car]), tau, &Path::from([Accessor::Car])));
        }
    }
}
