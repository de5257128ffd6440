//! The speculation write-log and commit-time validator (`SpecMode`).
//!
//! The paper's pipeline forces sequential ordering the moment a
//! conflict cannot be *proven* absent (a ⊤-write verdict, or aliasing
//! the single-access-path premise cannot rule out). `SpecMode` is the
//! optimistic alternative: such invocations run in parallel anyway,
//! every heap effect is journaled here, and a commit-time validator
//! decides — after the run quiesces — whether the interleaving that
//! actually happened is equivalent to the sequential execution. When
//! it is not, the sequentially later invocation is aborted (its writes
//! undone from the journal) and replayed after its conflictor; after
//! `spec_retry_limit` rounds, or on any surprise the replay machinery
//! cannot express, the run falls back to the sequential-degradation
//! ladder: roll back *everything* and rerun the roots inline, which
//! returns the exact sequential answer by construction.
//!
//! # Epoch brackets
//!
//! Every journaled access is stamped with a `[lo, hi]` interval from
//! one global SeqCst clock: `lo` ticks before the heap load/store, `hi`
//! after (writes perform the store *inside* the journal lock, so the
//! journal's append order is exactly the heap's store order per
//! location). Two accesses whose intervals are disjoint are ordered as
//! their intervals are; overlapping intervals mean the race was too
//! close to call and are treated as conflicting — the conservative
//! direction, since a spurious abort only costs a replay.
//!
//! # Sequential ranks
//!
//! The validator rebuilds the spawn tree from the journal's
//! registration and spawn records, then assigns every *segment* (the
//! span of an invocation between two of its spawns) its position in
//! the sequential execution: an invocation's segment before its k-th
//! spawn runs before the k-th child's whole subtree, which runs before
//! the next segment. This is exactly the order `SequentialHooks` would
//! have executed — heads in spawn order, tails in unwind order. A run
//! commits iff for every same-location pair (at least one write, not
//! both atomic RMWs, different invocations) the epoch order agrees
//! with the rank order.
//!
//! # Scope
//!
//! Cons cells, struct slots, and global variables are journaled;
//! vector and hash-table mutations are not (mirroring the sanitizer's
//! location model) — programs mutating those should not be admitted to
//! speculation. Atomic RMWs journal a compensating delta instead of an
//! old-value snapshot, so undo never loses concurrent increments.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::Result;
use crate::heap::Heap;
use crate::sync::{Mutex, MutexGuard};
use crate::value::{FuncId, SymId, Value};
use curare_obs::EventKind;

/// Bit marking a packed location as a global-variable cell (heap locs
/// use the low 62 bits plus [`curare_obs::sanitize::STRUCT_LOC_BIT`]).
pub const GLOBAL_LOC_BIT: u64 = 1 << 62;

static ARMED: AtomicBool = AtomicBool::new(false);
/// The global epoch clock. SeqCst so that an access bracket that ends
/// before another begins really did happen first (the fetch-adds are
/// full barriers on every supported target).
static CLOCK: AtomicU64 = AtomicU64::new(1);
static JOURNAL: Mutex<Option<Journal>> = Mutex::new(None);

thread_local! {
    /// Reads buffered per thread, flushed into the journal at task
    /// boundaries (the pool calls [`flush_reads`] after every task).
    static READ_BUF: RefCell<Vec<ReadRec>> = const { RefCell::new(Vec::new()) };
    /// Nonzero while this thread is replaying that invocation inline.
    static REPLAYING: Cell<u64> = const { Cell::new(0) };
}

#[derive(Debug, Clone, Copy)]
struct ReadRec {
    inv: u64,
    loc: u64,
    lo: u64,
    hi: u64,
}

/// Where a journaled write landed, resolvable for undo without
/// re-deriving it from the location packing.
#[derive(Clone)]
enum CellRef {
    /// A packed cons-word or struct-slot location.
    HeapLoc(u64),
    /// A global variable's backing cell.
    Global(Arc<AtomicU64>),
}

impl CellRef {
    fn load(&self, heap: &Heap) -> u64 {
        match self {
            CellRef::HeapLoc(loc) => heap.spec_loc_cell(*loc).load(Ordering::Acquire),
            CellRef::Global(c) => c.load(Ordering::Acquire),
        }
    }

    fn store(&self, heap: &Heap, bits: u64) {
        match self {
            CellRef::HeapLoc(loc) => heap.spec_loc_cell(*loc).store(bits, Ordering::Release),
            CellRef::Global(c) => c.store(bits, Ordering::Release),
        }
    }
}

enum WriteKind {
    /// A plain store: undo restores `old`, redo restores `new`.
    Store { old: u64, new: u64 },
    /// An atomic RMW: undo applies `-delta`, redo `+delta`.
    Add { delta: i64 },
}

struct WriteRec {
    inv: u64,
    loc: u64,
    lo: u64,
    hi: u64,
    cell: CellRef,
    kind: WriteKind,
}

struct OutRec {
    inv: u64,
    epoch: u64,
    line: String,
}

struct SpawnRec {
    /// Segment boundary: the clock tick at the spawn point. Refreshed
    /// when the invocation is replayed.
    epoch: u64,
    child: u64,
    fid: FuncId,
    args: Vec<Value>,
    /// True when the spawn created a future (replays cannot reproduce
    /// those and escalate instead).
    future: bool,
}

struct InvEntry {
    parent: u64,
    fid: FuncId,
    args: Vec<Value>,
    spawns: Vec<SpawnRec>,
    /// Expectation cursor while this invocation is being replayed.
    replay_idx: usize,
    /// The body returned an error (parked; the validator decides).
    errored: bool,
    /// Ever aborted (for the commit-clean ratio).
    aborted: bool,
}

#[derive(Default)]
struct Journal {
    invs: BTreeMap<u64, InvEntry>,
    writes: Vec<WriteRec>,
    reads: Vec<ReadRec>,
    output: Vec<OutRec>,
    aborts: u64,
    replays: u64,
    /// Set when replay hit something it cannot reproduce (argument
    /// mismatch, a future spawn, a changed spawn count).
    escalate: bool,
}

#[inline]
fn tick() -> u64 {
    CLOCK.fetch_add(1, Ordering::SeqCst)
}

// ----------------------------------------------------------------
// Arming and hot-path hooks
// ----------------------------------------------------------------

/// Arm the journal for one run. The caller owns exclusivity: exactly
/// one speculative run may be in flight per process (test batteries
/// serialize on this, like the chaos and sanitizer install points).
pub fn arm() {
    let mut j = JOURNAL.lock();
    CLOCK.store(1, Ordering::SeqCst);
    *j = Some(Journal::default());
    ARMED.store(true, Ordering::Release);
}

/// Disarm and drop any journal state (used on error paths; [`resolve`]
/// disarms itself).
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *JOURNAL.lock() = None;
    READ_BUF.with(|b| b.borrow_mut().clear());
}

/// True while a speculative run is journaling.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

#[inline]
fn active_inv() -> u64 {
    if !armed() {
        return 0;
    }
    curare_obs::current_invocation()
}

/// Begin a journaled read bracket: returns the `lo` tick, or `None`
/// when the access should not be journaled (mode off, or the driving
/// thread outside any invocation). The caller performs the load, then
/// calls [`read_end`].
#[inline]
pub fn read_begin() -> Option<u64> {
    if active_inv() == 0 {
        return None;
    }
    Some(tick())
}

/// Close a read bracket opened by [`read_begin`].
#[inline]
pub fn read_end(loc: u64, lo: u64) {
    let inv = curare_obs::current_invocation();
    let hi = tick();
    READ_BUF.with(|b| b.borrow_mut().push(ReadRec { inv, loc, lo, hi }));
}

/// Flush the calling thread's buffered reads into the journal. The
/// pool calls this at every task boundary; buffered records from a run
/// that has already resolved are dropped.
pub fn flush_reads() {
    let buf: Vec<ReadRec> = READ_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if buf.is_empty() {
        return;
    }
    if let Some(j) = JOURNAL.lock().as_mut() {
        j.reads.extend(buf);
    }
}

/// An open write section: holds the journal lock so the heap store it
/// brackets lands in journal-append order.
pub struct WriteSection {
    guard: MutexGuard<'static, Option<Journal>>,
    inv: u64,
    lo: u64,
}

/// Open a write section, or `None` when the write should not be
/// journaled. While the section is open the journal lock is held:
/// perform the store (or CAS loop) and close it with one of the
/// `store_*`/`add_*` methods.
#[inline]
pub fn write_section() -> Option<WriteSection> {
    let inv = active_inv();
    if inv == 0 {
        return None;
    }
    let guard = JOURNAL.lock();
    guard.as_ref()?;
    let lo = tick();
    Some(WriteSection { guard, inv, lo })
}

impl WriteSection {
    fn push(mut self, loc: u64, cell: CellRef, kind: WriteKind) {
        let hi = tick();
        if let Some(j) = self.guard.as_mut() {
            j.writes.push(WriteRec { inv: self.inv, loc, lo: self.lo, hi, cell, kind });
        }
    }

    /// Journal a plain store to packed heap location `loc`.
    pub fn store_heap(self, loc: u64, old: u64, new: u64) {
        self.push(loc, CellRef::HeapLoc(loc), WriteKind::Store { old, new });
    }

    /// Journal a plain store to global `sym`.
    pub fn store_global(self, sym: SymId, cell: &Arc<AtomicU64>, old: u64, new: u64) {
        self.push(
            GLOBAL_LOC_BIT | sym as u64,
            CellRef::Global(Arc::clone(cell)),
            WriteKind::Store { old, new },
        );
    }

    /// Journal an atomic RMW on packed heap location `loc`.
    pub fn add_heap(self, loc: u64, delta: i64) {
        self.push(loc, CellRef::HeapLoc(loc), WriteKind::Add { delta });
    }

    /// Journal an atomic RMW on global `sym`.
    pub fn add_global(self, sym: SymId, cell: &Arc<AtomicU64>, delta: i64) {
        self.push(
            GLOBAL_LOC_BIT | sym as u64,
            CellRef::Global(Arc::clone(cell)),
            WriteKind::Add { delta },
        );
    }
}

/// Journal a read of global `sym` (globals have no packed heap
/// location, so they bracket here instead of in the heap).
#[inline]
pub fn note_global_read(sym: SymId, read: impl FnOnce() -> u64) -> u64 {
    match read_begin() {
        None => read(),
        Some(lo) => {
            let bits = read();
            read_end(GLOBAL_LOC_BIT | sym as u64, lo);
            bits
        }
    }
}

/// Divert a printed line into the journal; returns `false` when the
/// caller should append to the ordinary output log instead. Committed
/// lines are released in sequential order by [`resolve`].
pub fn divert_emit(line: &str) -> bool {
    let inv = active_inv();
    if inv == 0 {
        return false;
    }
    let epoch = tick();
    if let Some(j) = JOURNAL.lock().as_mut() {
        j.output.push(OutRec { inv, epoch, line: line.to_string() });
        true
    } else {
        false
    }
}

// ----------------------------------------------------------------
// Task lifecycle (called by the pool)
// ----------------------------------------------------------------

/// Register a spawned invocation with its re-execution recipe.
pub fn register_invocation(inv: u64, parent: u64, fid: FuncId, args: &[Value]) {
    if let Some(j) = JOURNAL.lock().as_mut() {
        j.invs.insert(
            inv,
            InvEntry {
                parent,
                fid,
                args: args.to_vec(),
                spawns: Vec::new(),
                replay_idx: 0,
                errored: false,
                aborted: false,
            },
        );
    }
}

/// Record that `parent` spawned `child` (segment boundary for the
/// validator, expectation for replays).
pub fn record_spawn(parent: u64, child: u64, fid: FuncId, args: &[Value], future: bool) {
    if parent == 0 {
        return;
    }
    if let Some(j) = JOURNAL.lock().as_mut() {
        let epoch = CLOCK.fetch_add(1, Ordering::SeqCst);
        if let Some(e) = j.invs.get_mut(&parent) {
            e.spawns.push(SpawnRec { epoch, child, fid, args: args.to_vec(), future });
        }
    }
}

/// Park a body error: in `SpecMode` a task error does not abort the
/// run (the inputs it read may be a misspeculation); the validator
/// escalates to the sequential rerun, which reproduces any genuine
/// error exactly.
pub fn record_error(inv: u64) {
    if let Some(j) = JOURNAL.lock().as_mut() {
        if let Some(e) = j.invs.get_mut(&inv) {
            e.errored = true;
        }
    }
}

// ----------------------------------------------------------------
// Replay hooks (called by the pool's RuntimeHooks)
// ----------------------------------------------------------------

/// True while the calling thread is replaying an aborted invocation
/// (spawns are suppressed and checked against the original run).
#[inline]
pub fn replaying() -> bool {
    REPLAYING.with(Cell::get) != 0
}

/// Force escalation: the replay machinery hit a structure it cannot
/// reproduce (e.g. a future whose original value was already consumed
/// by its toucher). The current round finishes; the next resolution
/// pass rolls everything back and falls to the sequential rerun.
pub fn escalate_now() {
    if let Some(j) = JOURNAL.lock().as_mut() {
        j.escalate = true;
    }
}

/// A suppressed spawn inside a replayed body: check it against the
/// original run's expectation and refresh the segment boundary.
/// Returns `false` (and flags escalation) when the replayed body
/// diverged — different callee, different arguments, a future where an
/// enqueue was, or more spawns than before.
pub fn replay_spawn(fid: FuncId, args: &[Value], future: bool) -> bool {
    let inv = REPLAYING.with(Cell::get);
    let mut g = JOURNAL.lock();
    let Some(j) = g.as_mut() else { return false };
    let Some(e) = j.invs.get_mut(&inv) else {
        j.escalate = true;
        return false;
    };
    let i = e.replay_idx;
    let ok = match e.spawns.get(i) {
        Some(s) => s.fid == fid && s.args == args && s.future == future,
        None => false,
    };
    if !ok {
        j.escalate = true;
        return false;
    }
    e.spawns[i].epoch = CLOCK.fetch_add(1, Ordering::SeqCst);
    e.replay_idx = i + 1;
    true
}

// ----------------------------------------------------------------
// Validation
// ----------------------------------------------------------------

/// Per-invocation segment boundaries (spawn epochs, ascending) and the
/// sequential rank of each segment.
struct InvRanks {
    boundaries: Vec<u64>,
    seg_ranks: Vec<u64>,
}

/// Assign sequential ranks by iterative DFS over the spawn tree (the
/// chains these programs build can be tens of thousands of invocations
/// deep, so no recursion).
fn compute_ranks(j: &Journal) -> HashMap<u64, InvRanks> {
    let mut ranks: HashMap<u64, InvRanks> = HashMap::with_capacity(j.invs.len());
    let mut counter: u64 = 0;
    let roots: Vec<u64> = j
        .invs
        .iter()
        .filter(|(_, e)| e.parent == 0 || !j.invs.contains_key(&e.parent))
        .map(|(&inv, _)| inv)
        .collect();
    for root in roots {
        if ranks.contains_key(&root) {
            continue; // defensive: malformed parent links
        }
        // (invocation, index of the next spawn to descend into)
        let mut stack: Vec<(u64, usize)> = Vec::new();
        let enter = |inv: u64, ranks: &mut HashMap<u64, InvRanks>, counter: &mut u64| {
            let e = &j.invs[&inv];
            let boundaries: Vec<u64> = e.spawns.iter().map(|s| s.epoch).collect();
            *counter += 1;
            ranks.insert(inv, InvRanks { boundaries, seg_ranks: vec![*counter] });
        };
        enter(root, &mut ranks, &mut counter);
        stack.push((root, 0));
        while let Some(&mut (inv, ref mut idx)) = stack.last_mut() {
            let e = &j.invs[&inv];
            if *idx < e.spawns.len() {
                let child = e.spawns[*idx].child;
                *idx += 1;
                if j.invs.contains_key(&child) && !ranks.contains_key(&child) {
                    enter(child, &mut ranks, &mut counter);
                    stack.push((child, 0));
                } else {
                    // Child never registered (or duplicate link):
                    // still open the parent's next segment.
                    counter += 1;
                    ranks.get_mut(&inv).expect("entered").seg_ranks.push(counter);
                }
            } else {
                stack.pop();
                if let Some(&(parent, _)) = stack.last() {
                    counter += 1;
                    ranks.get_mut(&parent).expect("entered").seg_ranks.push(counter);
                }
            }
        }
    }
    ranks
}

fn rank_of(ranks: &HashMap<u64, InvRanks>, inv: u64, epoch: u64) -> Option<u64> {
    let r = ranks.get(&inv)?;
    let seg = r.boundaries.partition_point(|&b| b <= epoch);
    Some(r.seg_ranks.get(seg).copied().unwrap_or_else(|| *r.seg_ranks.last().unwrap_or(&0)))
}

#[derive(Clone, Copy)]
struct Acc {
    inv: u64,
    lo: u64,
    hi: u64,
    write: bool,
    atomic: bool,
    rank: u64,
}

/// The invocations that must abort, mapped to the smallest sequential
/// rank at which they violated (the replay order key).
fn validate(j: &Journal, ranks: &HashMap<u64, InvRanks>) -> BTreeMap<u64, u64> {
    let mut by_loc: HashMap<u64, Vec<Acc>> = HashMap::new();
    let mut push = |inv: u64, loc: u64, lo: u64, hi: u64, write: bool, atomic: bool| {
        if let Some(rank) = rank_of(ranks, inv, lo) {
            by_loc.entry(loc).or_default().push(Acc { inv, lo, hi, write, atomic, rank });
        }
    };
    for r in &j.reads {
        push(r.inv, r.loc, r.lo, r.hi, false, false);
    }
    for w in &j.writes {
        let atomic = matches!(w.kind, WriteKind::Add { .. });
        push(w.inv, w.loc, w.lo, w.hi, true, atomic);
    }
    let mut aborts: BTreeMap<u64, u64> = BTreeMap::new();
    for accs in by_loc.values() {
        if accs.len() < 2 {
            continue;
        }
        for (i, a) in accs.iter().enumerate() {
            for b in &accs[i + 1..] {
                if a.inv == b.inv || (!a.write && !b.write) || (a.atomic && b.atomic) {
                    continue;
                }
                // Epoch order: strict bracket separation, else the
                // race was too close to call.
                let consistent = if a.hi < b.lo {
                    a.rank < b.rank
                } else if b.hi < a.lo {
                    b.rank < a.rank
                } else {
                    false
                };
                if !consistent {
                    let later = if a.rank > b.rank { a } else { b };
                    let slot = aborts.entry(later.inv).or_insert(later.rank);
                    *slot = (*slot).min(later.rank);
                }
            }
        }
    }
    aborts
}

// ----------------------------------------------------------------
// Undo
// ----------------------------------------------------------------

/// Undo the journaled writes of `abort_set`: per touched location,
/// walk the journal backwards from the current heap value to the
/// pre-run value, then replay only the surviving writes forward.
/// Exact for any interleaving because journal order is store order.
fn undo_writes(j: &mut Journal, heap: &Heap, abort_set: &BTreeSet<u64>) {
    let mut locs: BTreeSet<u64> = BTreeSet::new();
    for w in &j.writes {
        if abort_set.contains(&w.inv) {
            locs.insert(w.loc);
        }
    }
    for loc in locs {
        let entries: Vec<&WriteRec> = j.writes.iter().filter(|w| w.loc == loc).collect();
        let Some(first) = entries.first() else { continue };
        let mut val = first.cell.load(heap);
        for w in entries.iter().rev() {
            match &w.kind {
                WriteKind::Store { old, .. } => val = *old,
                WriteKind::Add { delta } => val = add_bits(val, -delta),
            }
        }
        for w in &entries {
            if abort_set.contains(&w.inv) {
                continue;
            }
            match &w.kind {
                WriteKind::Store { new, .. } => val = *new,
                WriteKind::Add { delta } => val = add_bits(val, *delta),
            }
        }
        first.cell.store(heap, val);
    }
    j.writes.retain(|w| !abort_set.contains(&w.inv));
    j.reads.retain(|r| !abort_set.contains(&r.inv));
    j.output.retain(|o| !abort_set.contains(&o.inv));
    for &inv in abort_set {
        if let Some(e) = j.invs.get_mut(&inv) {
            e.errored = false;
            e.aborted = true;
            e.replay_idx = 0;
        }
    }
}

fn add_bits(bits: u64, delta: i64) -> u64 {
    match Value::from_bits(bits).as_int() {
        Some(i) => Value::int_checked(i + delta).map(|v| v.bits()).unwrap_or(bits),
        None => bits,
    }
}

// ----------------------------------------------------------------
// Resolution
// ----------------------------------------------------------------

/// What [`resolve`] decided.
pub struct Resolution {
    /// Invocations committed (0 when escalated).
    pub committed: u64,
    /// Total invocation aborts across replay rounds.
    pub aborts: u64,
    /// Replays executed.
    pub replays: u64,
    /// Invocations that committed without ever aborting.
    pub clean: u64,
    /// The run fell back to the sequential-degradation ladder: all
    /// journaled writes were rolled back and the caller must rerun
    /// `roots` inline, sequentially, in order.
    pub escalated: bool,
    /// Root invocations (re-execution recipes) in spawn order.
    pub roots: Vec<(FuncId, Vec<Value>)>,
    /// Committed printed lines, in sequential order.
    pub output: Vec<String>,
}

/// Validate the quiesced run, replaying aborted invocations through
/// `run_body` (which must execute one function body under the caller's
/// hooks, with spawns routed to [`replay_spawn`]). Disarms the journal
/// before returning. Must only be called when no task is in flight.
pub fn resolve(
    heap: &Heap,
    retry_limit: u32,
    run_body: &mut dyn FnMut(FuncId, Vec<Value>) -> Result<Value>,
) -> Resolution {
    let mut rounds: u32 = 0;
    loop {
        // Decide this round's fate under the lock, then release it for
        // any replays.
        let plan = {
            let mut g = JOURNAL.lock();
            let Some(j) = g.as_mut() else {
                return empty_resolution();
            };
            if j.escalate {
                Plan::Escalate
            } else {
                let ranks = compute_ranks(j);
                let aborts = validate(j, &ranks);
                if aborts.is_empty() {
                    if j.invs.values().any(|e| e.errored) {
                        Plan::Escalate
                    } else {
                        return commit(g, ranks);
                    }
                } else if rounds >= retry_limit {
                    Plan::Escalate
                } else {
                    let set: BTreeSet<u64> = aborts.keys().copied().collect();
                    let future_aborted = j
                        .invs
                        .values()
                        .any(|e| e.spawns.iter().any(|s| s.future && set.contains(&s.child)));
                    if future_aborted {
                        // A future-valued invocation's result may already
                        // have been consumed by its toucher; an abort
                        // cannot retract that value, so the whole run
                        // falls back to the sequential rerun.
                        Plan::Escalate
                    } else {
                        // Abort now (undo under the lock), replay after.
                        j.aborts += set.len() as u64;
                        for &inv in &set {
                            curare_obs::record(EventKind::SpecAbort, inv);
                        }
                        undo_writes(j, heap, &set);
                        let mut order: Vec<(u64, u64)> =
                            aborts.iter().map(|(&inv, &rank)| (rank, inv)).collect();
                        order.sort_unstable();
                        Plan::Replay(order.into_iter().map(|(_, inv)| inv).collect())
                    }
                }
            }
        };
        match plan {
            Plan::Escalate => return escalate(heap),
            Plan::Replay(invs) => {
                rounds += 1;
                for inv in invs {
                    let Some((fid, args)) = ({
                        let mut g = JOURNAL.lock();
                        g.as_mut().and_then(|j| {
                            j.replays += 1;
                            j.invs.get(&inv).map(|e| (e.fid, e.args.clone()))
                        })
                    }) else {
                        continue;
                    };
                    curare_obs::record(EventKind::SpecReplay, inv);
                    REPLAYING.with(|r| r.set(inv));
                    let prev = curare_obs::set_invocation(inv);
                    let res = run_body(fid, args);
                    curare_obs::set_invocation(prev);
                    REPLAYING.with(|r| r.set(0));
                    flush_reads();
                    let mut g = JOURNAL.lock();
                    if let Some(j) = g.as_mut() {
                        if let Some(e) = j.invs.get_mut(&inv) {
                            if res.is_err() {
                                e.errored = true;
                            }
                            if e.replay_idx != e.spawns.len() {
                                j.escalate = true;
                            }
                        }
                    }
                }
            }
        }
    }
}

enum Plan {
    Escalate,
    Replay(Vec<u64>),
}

fn empty_resolution() -> Resolution {
    ARMED.store(false, Ordering::Release);
    Resolution {
        committed: 0,
        aborts: 0,
        replays: 0,
        clean: 0,
        escalated: false,
        roots: Vec::new(),
        output: Vec::new(),
    }
}

fn commit(
    mut g: MutexGuard<'static, Option<Journal>>,
    ranks: HashMap<u64, InvRanks>,
) -> Resolution {
    ARMED.store(false, Ordering::Release);
    let j = g.take().expect("journal present");
    let mut out: Vec<(u64, u64, String)> = j
        .output
        .into_iter()
        .map(|o| (rank_of(&ranks, o.inv, o.epoch).unwrap_or(u64::MAX), o.epoch, o.line))
        .collect();
    out.sort_by_key(|a| (a.0, a.1));
    let committed = j.invs.len() as u64;
    let clean = j.invs.values().filter(|e| !e.aborted).count() as u64;
    for &inv in j.invs.keys() {
        curare_obs::record(EventKind::SpecCommit, inv);
    }
    Resolution {
        committed,
        aborts: j.aborts,
        replays: j.replays,
        clean,
        escalated: false,
        roots: Vec::new(),
        output: out.into_iter().map(|(_, _, l)| l).collect(),
    }
}

fn escalate(heap: &Heap) -> Resolution {
    let mut g = JOURNAL.lock();
    let Some(j) = g.as_mut() else {
        return empty_resolution();
    };
    let all: BTreeSet<u64> = j.invs.keys().copied().collect();
    undo_writes(j, heap, &all);
    ARMED.store(false, Ordering::Release);
    let j = g.take().expect("journal present");
    let roots: Vec<(FuncId, Vec<Value>)> = j
        .invs
        .iter()
        .filter(|(_, e)| e.parent == 0 || !j.invs.contains_key(&e.parent))
        .map(|(_, e)| (e.fid, e.args.clone()))
        .collect();
    Resolution {
        committed: 0,
        aborts: j.aborts,
        replays: j.replays,
        clean: 0,
        escalated: true,
        roots,
        output: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    // The journal is a process-global; serialize tests that arm it.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        TEST_GUARD.lock()
    }

    fn loc_car(v: Value) -> u64 {
        match v.decode() {
            crate::value::Val::Cons(id) => id << 1,
            _ => panic!("cons"),
        }
    }

    #[test]
    fn clean_single_writer_run_commits() {
        let _g = guard();
        let heap = Heap::new();
        let a = heap.cons(Value::int(1), Value::NIL);
        let b = heap.cons(Value::int(2), Value::NIL);
        arm();
        register_invocation(1, 0, 0, &[a]);
        register_invocation(2, 1, 0, &[b]);
        // inv 1 head writes a, spawns 2; inv 2 writes b. Disjoint.
        curare_obs::set_invocation(1);
        heap.set_car(a, Value::int(10)).unwrap();
        record_spawn(1, 2, 0, &[b], false);
        curare_obs::set_invocation(2);
        heap.set_car(b, Value::int(20)).unwrap();
        curare_obs::set_invocation(0);
        flush_reads();
        let r = resolve(&heap, 4, &mut |_, _| Ok(Value::NIL));
        assert!(!r.escalated);
        assert_eq!(r.committed, 2);
        assert_eq!(r.clean, 2);
        assert_eq!(r.aborts, 0);
        assert_eq!(heap.car(a).unwrap(), Value::int(10));
        assert_eq!(heap.car(b).unwrap(), Value::int(20));
    }

    #[test]
    fn stale_read_aborts_and_replays() {
        let _g = guard();
        let heap = Heap::new();
        let x = heap.cons(Value::int(1), Value::NIL);
        let dst = heap.cons(Value::int(0), Value::NIL);
        arm();
        register_invocation(1, 0, 0, &[]);
        register_invocation(2, 1, 0, &[]);
        // Sequential order: head(1), head+tail(2), tail(1). inv 1's
        // *tail* should see inv 2's write of x — but inv 1 reads x
        // before inv 2 writes it (stale), then copies it into dst.
        curare_obs::set_invocation(1);
        record_spawn(1, 2, 0, &[], false);
        let stale = heap.car(x).unwrap(); // tail read, epoch-early
        heap.set_car(dst, stale).unwrap();
        curare_obs::set_invocation(2);
        heap.set_car(x, Value::int(42)).unwrap();
        curare_obs::set_invocation(0);
        flush_reads();
        // Replay of inv 1 re-runs its body: spawn (suppressed and
        // matched against the record), then read x, write dst.
        let heap_ref = &heap;
        let r = resolve(heap_ref, 4, &mut |_, _| {
            assert!(replay_spawn(0, &[], false));
            let v = heap_ref.car(x)?;
            heap_ref.set_car(dst, v)?;
            Ok(Value::NIL)
        });
        assert!(!r.escalated, "replay should converge");
        assert!(r.aborts >= 1);
        assert!(r.replays >= 1);
        assert_eq!(heap.car(dst).unwrap(), Value::int(42), "tail must see conflictor's write");
    }

    #[test]
    fn escalation_rolls_everything_back() {
        let _g = guard();
        let heap = Heap::new();
        let a = heap.cons(Value::int(1), Value::NIL);
        arm();
        register_invocation(1, 0, 7, &[a]);
        curare_obs::set_invocation(1);
        heap.set_car(a, Value::int(99)).unwrap();
        curare_obs::set_invocation(0);
        flush_reads();
        record_error(1); // parked body error forces escalation
        let r = resolve(&heap, 4, &mut |_, _| Ok(Value::NIL));
        assert!(r.escalated);
        assert_eq!(r.roots, vec![(7, vec![a])]);
        assert_eq!(heap.car(a).unwrap(), Value::int(1), "rolled back to pre-run value");
    }

    #[test]
    fn atomic_adds_undo_by_compensation() {
        let _g = guard();
        let heap = Heap::new();
        let c = heap.cons(Value::int(10), Value::NIL);
        let loc = loc_car(c);
        arm();
        register_invocation(1, 0, 0, &[]);
        register_invocation(2, 0, 0, &[]);
        curare_obs::set_invocation(1);
        heap.atomic_add_field(c, 0, 5).unwrap();
        curare_obs::set_invocation(2);
        heap.atomic_add_field(c, 0, 3).unwrap();
        curare_obs::set_invocation(0);
        assert_eq!(heap.car(c).unwrap(), Value::int(18));
        {
            let mut g = JOURNAL.lock();
            let j = g.as_mut().unwrap();
            assert_eq!(j.writes.iter().filter(|w| w.loc == loc).count(), 2);
            let set: BTreeSet<u64> = [1u64].into_iter().collect();
            undo_writes(j, &heap, &set);
        }
        assert_eq!(heap.car(c).unwrap(), Value::int(13), "only inv 1's delta compensated");
        disarm();
    }

    #[test]
    fn output_commits_in_sequential_order() {
        let _g = guard();
        let heap = Heap::new();
        arm();
        register_invocation(1, 0, 0, &[]);
        register_invocation(2, 1, 0, &[]);
        // Tail prints run in unwind order: inv 2's line precedes
        // inv 1's even though inv 1 printed first by the clock.
        curare_obs::set_invocation(1);
        record_spawn(1, 2, 0, &[], false);
        assert!(divert_emit("tail-of-1"));
        curare_obs::set_invocation(2);
        assert!(divert_emit("tail-of-2"));
        curare_obs::set_invocation(0);
        flush_reads();
        let r = resolve(&heap, 4, &mut |_, _| Ok(Value::NIL));
        assert_eq!(r.output, vec!["tail-of-2".to_string(), "tail-of-1".to_string()]);
    }
}
