//! The access journal: the one recorder of what an invocation did to
//! the heap — which invocation touched which word, who spawned whom,
//! who saw which future resolved — armed at one of two levels by
//! whoever will read it. [`observe`] is the heap-access sanitizer's:
//! the run is left alone (`print` is not diverted, errors are not
//! parked, nothing is undone) and [`observed`] hands its records to
//! `curare_check::cross_check`. [`arm`] is speculation's, read by
//! [`resolve_run`]: the rest of this page. The journal is process-wide, so
//! one run holds it at a time, at one level.
//!
//! # Speculation
//!
//! The paper's pipeline forces sequential ordering the moment a
//! conflict cannot be *proven* absent (a ⊤-write verdict, or aliasing
//! the single-access-path premise cannot rule out). `SpecMode` is the
//! optimistic alternative: such invocations run in parallel anyway,
//! every heap effect is journaled here, and a commit-time validator
//! decides — after the run quiesces — whether the interleaving that
//! actually happened is equivalent to the sequential execution. When
//! it is not, the sequentially later invocation is aborted (its writes
//! undone from the journal) and replayed after its conflictor — which
//! aborts too when it is a read that took its value from that write; after
//! `retry_limit` rounds, or on any surprise the replay machinery
//! cannot express, the run falls back to the sequential-degradation
//! ladder: roll back *everything* and rerun the roots inline, which
//! returns the exact sequential answer by construction.
//!
//! The invocation, not the word, is the unit of commit, so nothing is
//! globally ordered *while* invocations run — only when they are
//! judged. Recording is private per server; ordering happens once, in
//! [`resolve_run`].
//!
//! # Lanes
//!
//! Every record — read bracket, write, spawn, touch, parked error,
//! diverted output line — is appended to the executing thread's own lane
//! (`curare_obs::tracer::lane()`; threads that share a lane number
//! share its mutex, nothing else). The run path takes no process-wide
//! lock and never looks at another lane. **Visibility at quiescence:**
//! a record is in its lane before the call that made it returns, hence
//! before its task's pending count is released; `resolve` runs after
//! the pool saw the pending count reach zero, so draining the lanes
//! then sees every record of the run, whichever server made it and in
//! whatever order parents and children finished.
//!
//! # Locations
//!
//! A location is one mutable word, in the packing this page defines: the
//! car of cons `id` is `id << 1`, its cdr `id << 1 | 1`, a struct slot
//! [`struct_loc`], global `sym` [`GLOBAL_LOC_BIT`]` | sym`. A slot is
//! one field of one struct for good, so its location carries the field
//! index, and the §2 accessor code the sanitizer keys pairs on
//! ([`accessor_code`]) is read off the location, not kept beside it.
//!
//! # Epoch brackets and stripes
//!
//! Every journaled access is stamped with a `[lo, hi]` interval from
//! one global SeqCst clock (`curare_obs::tick`: the word lives on the id
//! source's cache line, which every spawn writes anyway, and arming
//! restarts it): `lo` ticks before the heap load/store, `hi`
//! after. Two accesses whose intervals are disjoint are ordered as
//! their intervals are; overlapping intervals mean the race was too
//! close to call and are treated as conflicting — the conservative
//! direction, since a spurious abort only costs a replay. Reads take
//! their two ticks and no lock but their lane's. A write holds one of
//! `STRIPES` mutexes, chosen by its packed location, from before `lo`
//! until after `hi`.
//! **Store order:** two writes to one word therefore have disjoint
//! brackets in the order their stores hit the heap, so *ascending `lo`
//! is the store order of a location* — the one fact undo needs (a plain
//! store's recorded `old` is the value its predecessor in that order
//! left) and the write–write test relies on.
//!
//! # Sequential ranks
//!
//! The validator rebuilds the spawn tree from the spawn records
//! (`SpawnTree`), then assigns every *segment* (the span of an
//! invocation between two of its spawns) its position in the
//! sequential execution: an invocation's segment before its k-th spawn
//! runs before the k-th child's whole subtree, which runs before the
//! next segment. This is exactly the order `SequentialHooks` would have
//! executed — heads in spawn order, tails in unwind order. A run
//! commits iff for every same-location pair (at least one write, not
//! both atomic RMWs, different invocations) the sequentially earlier
//! bracket ends before the later one begins. `sweep` decides that in
//! two passes over the accesses sorted by `(location, rank)`.
//!
//! # Scope
//!
//! Cons cells, struct slots, and global variables are journaled;
//! vector and hash-table mutations are not — programs mutating those
//! should not be admitted to speculation. Atomic RMWs journal a
//! compensating delta instead of an old-value snapshot, so undo never
//! loses concurrent increments.

#[cfg(test)]
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::error::{LispError, Result};
use crate::heap::Heap;
use crate::interp::{Interp, RuntimeHooks};
use crate::sync::{Mutex, MutexGuard};
use crate::value::{FuncId, Value};
use curare_obs::{tick, EventKind};

/// Bit marking a packed location as a struct slot ([`struct_loc`]).
pub const STRUCT_LOC_BIT: u64 = 1 << 63;
/// Bit marking a packed location as a global-variable cell (the low
/// bits are its symbol).
pub const GLOBAL_LOC_BIT: u64 = 1 << 62;
/// A struct location's low bits are its index in the heap's slot
/// arena; the bits from here up to [`GLOBAL_LOC_BIT`] its field index.
const FIELD_SHIFT: u32 = 40;
const SLOT_MASK: u64 = (1 << FIELD_SHIFT) - 1;
const FIELD_MASK: u64 = (GLOBAL_LOC_BIT >> FIELD_SHIFT) - 1;

/// The packed location of field `idx` of a struct, which is slot
/// `slot` of the heap's slot arena.
#[inline]
pub fn struct_loc(slot: u64, idx: usize) -> u64 {
    debug_assert!(slot <= SLOT_MASK && idx as u64 <= FIELD_MASK, "slot {slot}, field {idx}");
    STRUCT_LOC_BIT | (idx as u64) << FIELD_SHIFT | slot
}

/// The slot-arena index in a [`struct_loc`].
#[inline]
pub(crate) fn struct_slot(loc: u64) -> u64 {
    loc & SLOT_MASK
}

/// The §2 accessor code of the word at heap location `loc`: 0 = car,
/// 1 = cdr, 2+k = struct field k.
pub fn accessor_code(loc: u64) -> u64 {
    if loc & STRUCT_LOC_BIT != 0 {
        2 + (loc >> FIELD_SHIFT & FIELD_MASK)
    } else {
        loc & 1
    }
}

/// Lanes the run's records spread over; lane numbers wrap.
const LANES: usize = 64;
/// Stripe mutexes serialising writes per location. Two servers collide
/// on a stripe only when their locations hash alike, so the count
/// wants to be well above the server count and nothing more.
const STRIPES: usize = 64;

/// The journal's level: who armed it, hence what it does to the run
/// besides recording it — nothing ([`observe`]), or divert its output,
/// park its errors and undo ([`arm`]).
const OFF: u8 = 0;
const OBSERVE: u8 = 1;
const UNDO: u8 = 2;
static LEVEL: AtomicU8 = AtomicU8::new(OFF);
/// Set by a replay that cannot be reproduced (it created a future),
/// read once per resolution round: the next pass rolls everything back
/// and falls to the sequential rerun.
static ESCALATE: AtomicBool = AtomicBool::new(false);

// Aligned apart: a lane is written by one server at a time, and two
// servers' stripes should not share a cache line either.
#[repr(align(128))]
struct Lane(Mutex<LaneBuf>);
#[repr(align(64))]
struct Stripe(Mutex<()>);

static LANE: [Lane; LANES] = [const { Lane(Mutex::new(LaneBuf::new())) }; LANES];
static STRIPE: [Stripe; STRIPES] = [const { Stripe(Mutex::new(())) }; STRIPES];

#[derive(Clone, Copy)]
struct ReadRec {
    inv: u64,
    loc: u64,
    lo: u64,
    hi: u64,
}

#[derive(Clone, Copy)]
enum WriteKind {
    /// A plain store: undo restores `old`, redo restores `new`.
    Store { old: u64, new: u64 },
    /// An atomic RMW: undo applies `-delta`, redo `+delta`.
    Add { delta: i64 },
}

#[derive(Clone)]
struct WriteRec {
    inv: u64,
    loc: u64,
    lo: u64,
    hi: u64,
    kind: WriteKind,
    /// The backing cell of a global (heap locations resolve from `loc`).
    global: Option<Arc<AtomicU64>>,
}

struct OutRec {
    inv: u64,
    epoch: u64,
    line: String,
}

/// One spawn, recorded once: the child's registration with its
/// re-execution recipe, and the parent's segment boundary. A root has
/// parent 0. With child 0 it is a suppressed spawn of a replayed body,
/// matched against the original at the next resolution round.
#[derive(Clone)]
struct SpawnRec {
    parent: u64,
    child: u64,
    /// The clock tick at the spawn point; refreshed by a replay.
    epoch: u64,
    fid: FuncId,
    /// The future the child resolves, or [`NO_FUTURE`] (replays cannot
    /// reproduce a spawn that created one and escalate instead).
    future: u64,
    /// The arguments, in the lane's (then the journal's) arena.
    args_at: usize,
    argc: u32,
    // Resolve-time state of the child, all clear on the run path.
    /// The body returned an error (parked; the validator decides).
    errored: bool,
    /// Ever aborted (for the commit-clean ratio).
    aborted: bool,
    /// Aborted this round: its records are being undone, and its
    /// replay must respawn exactly what the original spawned.
    doomed: bool,
    respawned: u32,
}

/// [`SpawnRec::future`] of a spawn that created none. A sentinel, and
/// the record's two counts `u32`, because it is written on every spawn
/// of an armed run and is 56 bytes this way: at 72, with an
/// `Option<u64>` and `usize`s, the aliased mixer executed 5–7 % slower.
const NO_FUTURE: u64 = u64::MAX;

/// What one lane holds between two resolution rounds.
struct LaneBuf {
    reads: Vec<ReadRec>,
    writes: Vec<WriteRec>,
    spawns: Vec<SpawnRec>,
    touches: Vec<Touch>,
    args: Vec<Value>,
    errors: Vec<u64>,
    output: Vec<OutRec>,
}

impl LaneBuf {
    const fn new() -> Self {
        LaneBuf {
            reads: Vec::new(),
            writes: Vec::new(),
            spawns: Vec::new(),
            touches: Vec::new(),
            args: Vec::new(),
            errors: Vec::new(),
            output: Vec::new(),
        }
    }
}

/// The calling thread's lane.
#[inline]
fn lane() -> MutexGuard<'static, LaneBuf> {
    LANE[curare_obs::tracer::lane() % LANES].0.lock()
}

fn clear_lanes() {
    for lane in &LANE {
        *lane.0.lock() = LaneBuf::new();
    }
}

// ----------------------------------------------------------------
// Arming and hot-path hooks
// ----------------------------------------------------------------

/// Take the disarmed journal to `level`. The journal is process-wide,
/// so one run may record at a time: arming an armed journal is an
/// error and leaves the run in flight untouched.
fn engage(level: u8) -> Result<()> {
    if let Err(held) = LEVEL.compare_exchange(OFF, level, Ordering::AcqRel, Ordering::Acquire) {
        let run = if held == UNDO { "speculative" } else { "sanitized" };
        return Err(LispError::User(format!("a {run} run is already in flight")));
    }
    // A thread outside the last run may have appended between its
    // level test and that run's disarm.
    clear_lanes();
    ESCALATE.store(false, Ordering::SeqCst);
    curare_obs::set_journaling(true);
    Ok(())
}

/// Arm the journal for one speculative run, to be read by [`resolve_run`].
pub fn arm() -> Result<()> {
    engage(UNDO)
}

/// Arm the journal to watch one run without touching it, to be read by
/// [`observed`].
pub fn observe() -> Result<()> {
    engage(OBSERVE)
}

/// Disarm and drop any journal state (used on error paths; [`resolve_run`]
/// and [`observed`] disarm themselves).
pub fn disarm() {
    curare_obs::set_journaling(false);
    LEVEL.store(OFF, Ordering::Release);
    clear_lanes();
}

/// True while the journal records, at either level.
#[inline]
pub fn armed() -> bool {
    LEVEL.load(Ordering::Relaxed) != OFF
}

/// True while a speculative run is journaling.
#[inline]
fn speculating() -> bool {
    LEVEL.load(Ordering::Relaxed) == UNDO
}

/// The word in `cell`, which is location `loc`: a plain load, and while
/// the journal is armed a read bracket around it. All a disarmed
/// journal costs an accessor is the level test; the rest is out of
/// line, like everything only an armed journal reaches.
#[inline]
pub fn load(cell: &AtomicU64, loc: u64) -> u64 {
    if !armed() {
        return cell.load(Ordering::Acquire);
    }
    load_journaled(cell, loc)
}

#[inline(never)]
fn load_journaled(cell: &AtomicU64, loc: u64) -> u64 {
    // The driving thread outside any invocation is no part of the run.
    let inv = curare_obs::current_invocation();
    if inv == 0 {
        return cell.load(Ordering::Acquire);
    }
    let lo = tick();
    let bits = cell.load(Ordering::Acquire);
    let hi = tick();
    lane().reads.push(ReadRec { inv, loc, lo, hi });
    bits
}

/// Store `new` into `cell`, which is location `loc` (`global`: the
/// same cell, when it is a [`GLOBAL_LOC_BIT`] location): a plain
/// store, and while the journal is armed a write section around it.
#[inline]
pub fn store(cell: &AtomicU64, loc: u64, global: Option<&Arc<AtomicU64>>, new: u64) {
    if !armed() {
        return cell.store(new, Ordering::Release);
    }
    store_journaled(cell, loc, global, new)
}

#[inline(never)]
fn store_journaled(cell: &AtomicU64, loc: u64, global: Option<&Arc<AtomicU64>>, new: u64) {
    match open_section(loc, global) {
        None => cell.store(new, Ordering::Release),
        Some(sec) => {
            let old = cell.load(Ordering::Acquire);
            cell.store(new, Ordering::Release);
            sec.store(old, new);
        }
    }
}

/// An open write section: holds its location's stripe, so the heap
/// store it brackets is ordered against every other journaled write of
/// that location as their brackets are.
pub struct WriteSection {
    stripe: MutexGuard<'static, ()>,
    inv: u64,
    loc: u64,
    lo: u64,
    global: Option<Arc<AtomicU64>>,
}

/// Open a write section on packed location `loc` (`global`: the
/// backing cell when it is a [`GLOBAL_LOC_BIT`] location), or `None`
/// when the write should not be journaled. While the section is open
/// the location's stripe is held: perform the store (or CAS loop) and
/// close it with [`WriteSection::store`] or [`WriteSection::add`].
/// [`store`] does all of it for a plain store.
#[inline]
pub fn write_section(loc: u64, global: Option<&Arc<AtomicU64>>) -> Option<WriteSection> {
    if !armed() {
        return None;
    }
    open_section(loc, global)
}

#[inline(never)]
fn open_section(loc: u64, global: Option<&Arc<AtomicU64>>) -> Option<WriteSection> {
    let inv = curare_obs::current_invocation();
    if inv == 0 {
        return None;
    }
    let global = global.cloned();
    // Fibonacci hashing: neighbouring cells land on different stripes.
    let stripe =
        STRIPE[(loc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize % STRIPES].0.lock();
    Some(WriteSection { stripe, inv, loc, lo: tick(), global })
}

impl WriteSection {
    /// Journal the plain store just performed (`old` was loaded inside
    /// the section).
    pub fn store(self, old: u64, new: u64) {
        self.close(WriteKind::Store { old, new });
    }

    /// Journal the atomic RMW just performed.
    pub fn add(self, delta: i64) {
        self.close(WriteKind::Add { delta });
    }

    #[inline(never)]
    fn close(self, kind: WriteKind) {
        let WriteSection { stripe, inv, loc, lo, global } = self;
        let hi = tick();
        drop(stripe);
        lane().writes.push(WriteRec { inv, loc, lo, hi, kind, global });
    }
}

/// Divert a printed line into the journal of a speculative run;
/// returns `false` when the caller should append to the ordinary
/// output log instead. Committed lines are released in sequential
/// order by [`resolve_run`].
pub fn divert_emit(line: &str) -> bool {
    let inv = if speculating() { curare_obs::current_invocation() } else { 0 };
    if inv == 0 {
        return false;
    }
    let epoch = tick();
    lane().output.push(OutRec { inv, epoch, line: line.to_string() });
    true
}

// ----------------------------------------------------------------
// Task lifecycle (called by the pool)
// ----------------------------------------------------------------

/// Whether a pool's spawns are this run's to record
/// ([`record_spawn`]). A sanitizer observes every pool. A speculative
/// run's order is made of its own pool's spawns only (`speculative`:
/// the caller is a speculating pool): accesses of unregistered
/// invocations are no part of it, and a plain pool running beside it
/// must stay out of its tree.
#[inline]
pub fn registers(speculative: bool) -> bool {
    match LEVEL.load(Ordering::Relaxed) {
        OFF => false,
        OBSERVE => true,
        _ => speculative,
    }
}

/// Record that `parent` (0 for a root) spawned `child`, to resolve
/// `future` if it created one: the child's registration with its
/// re-execution recipe and the parent's segment boundary.
pub fn record_spawn(parent: u64, child: u64, fid: FuncId, args: &[Value], future: Option<u64>) {
    let epoch = tick();
    let mut lane = lane();
    let args_at = lane.args.len();
    lane.args.extend_from_slice(args);
    lane.spawns.push(SpawnRec {
        parent,
        child,
        epoch,
        fid,
        future: future.unwrap_or(NO_FUTURE),
        args_at,
        argc: args.len() as u32,
        errored: false,
        aborted: false,
        doomed: false,
        respawned: 0,
    });
}

/// Record that the calling thread's invocation saw `future` resolved:
/// whatever it does from here on happens after the whole invocation
/// that resolved it. Only [`observed`] reads touches (the speculative
/// validator orders by the spawn tree alone), so only the observe
/// level records them.
pub fn record_touch(future: u64) {
    if LEVEL.load(Ordering::Relaxed) == OBSERVE {
        let inv = curare_obs::current_invocation();
        lane().touches.push(Touch { inv, future, epoch: tick() });
    }
}

/// Park a body error: in `SpecMode` a task error does not abort the
/// run (the inputs it read may be a misspeculation); the validator
/// escalates to the sequential rerun, which reproduces any genuine
/// error exactly.
pub fn record_error(inv: u64) {
    if speculating() {
        lane().errors.push(inv);
    }
}

// ----------------------------------------------------------------
// The observe level's reader
// ----------------------------------------------------------------

/// One heap-word or global access of an observed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The invocation that made it (never 0).
    pub inv: u64,
    /// The packed location (see the module docs).
    pub loc: u64,
    /// The clock tick at which it began.
    pub epoch: u64,
    /// True for writes (including atomic read-modify-writes).
    pub write: bool,
    /// True for an atomic RMW (`atomic-incf`-family); two atomic
    /// writes to the same word never race.
    pub atomic: bool,
}

/// One spawn of an observed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spawn {
    /// The spawning invocation (0: the driving thread).
    pub parent: u64,
    /// The spawned invocation.
    pub child: u64,
    /// The clock tick at the spawn point.
    pub epoch: u64,
    /// The future the child resolves, when the spawn created one.
    pub future: Option<u64>,
}

/// One observation of a resolved future.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// The touching invocation (0: the driving thread).
    pub inv: u64,
    /// The touched future.
    pub future: u64,
    /// The clock tick at which it was seen resolved.
    pub epoch: u64,
}

/// What an observed run did, in no particular order: one thread runs
/// an invocation and one clock stamps its records, so ascending
/// `epoch` is program order within each invocation.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Every journaled access.
    pub accesses: Vec<Access>,
    /// Every spawn, of every pool.
    pub spawns: Vec<Spawn>,
    /// Every touch that found its future resolved.
    pub touches: Vec<Touch>,
}

/// Hand over what the journal recorded since [`observe`], and disarm
/// it. Must only be called when no task is in flight.
pub fn observed() -> Observed {
    let mut seen = Observed::default();
    let access = |inv, loc, epoch, write, atomic| Access { inv, loc, epoch, write, atomic };
    let atomic = |w: &WriteRec| matches!(w.kind, WriteKind::Add { .. });
    for lane in &LANE {
        let l = std::mem::replace(&mut *lane.0.lock(), LaneBuf::new());
        seen.accesses.extend(l.reads.iter().map(|r| access(r.inv, r.loc, r.lo, false, false)));
        seen.accesses.extend(l.writes.iter().map(|w| access(w.inv, w.loc, w.lo, true, atomic(w))));
        seen.spawns.extend(l.spawns.iter().map(|s| {
            let &SpawnRec { parent, child, epoch, future, .. } = s;
            Spawn { parent, child, epoch, future: (future != NO_FUTURE).then_some(future) }
        }));
        seen.touches.extend(l.touches);
    }
    disarm();
    seen
}

// ----------------------------------------------------------------
// Replay hooks
// ----------------------------------------------------------------

/// The hooks a replayed body runs under, installed by [`resolve_run`]
/// for its length. A spawn is not enqueued: it was the original run's,
/// and its subtree has executed. It is recorded against that run
/// instead, and the next resolution round checks it there. `future`
/// escalates. `touch` and the location locks are the pool's.
struct ReplayHooks {
    pool: Arc<dyn RuntimeHooks>,
}

impl RuntimeHooks for ReplayHooks {
    fn enqueue(&self, _: &Interp, _site: usize, fid: FuncId, args: Vec<Value>) -> Result<()> {
        replay_spawn(fid, &args);
        Ok(())
    }

    fn future(&self, _: &Interp, _fid: FuncId, _args: Vec<Value>) -> Result<Value> {
        // The original future's value was already consumed by its
        // toucher; a replay cannot re-create it.
        ESCALATE.store(true, Ordering::SeqCst);
        Err(LispError::User("speculative replay cannot re-create a future".into()))
    }

    fn touch(&self, interp: &Interp, v: Value) -> Result<Value> {
        self.pool.touch(interp, v)
    }

    fn lock(&self, interp: &Interp, cell: Value, field: u32, exclusive: bool) -> Result<()> {
        self.pool.lock(interp, cell, field, exclusive)
    }

    fn unlock(&self, interp: &Interp, cell: Value, field: u32, exclusive: bool) -> Result<()> {
        self.pool.unlock(interp, cell, field, exclusive)
    }
}

/// A suppressed spawn of the replayed invocation. The next resolution
/// round checks it against the original run's record and refreshes the
/// segment boundary; a replayed body that diverged — different callee,
/// different arguments, an enqueue where a future was, more or fewer
/// spawns than before — escalates there.
fn replay_spawn(fid: FuncId, args: &[Value]) {
    record_spawn(curare_obs::current_invocation(), 0, fid, args, None);
}

// ----------------------------------------------------------------
// Spawn tree and sequential ranks
// ----------------------------------------------------------------

/// The spawn tree of one run with the sequential rank of every
/// segment, in flat arrays: invocations are numbered by ascending id,
/// invocation `i`'s spawns are `spawns[first[i]..first[i + 1]]`, and
/// its segments' ranks start at `ranks[first[i] + i]` (one more
/// segment than spawns).
#[derive(Default)]
pub(crate) struct SpawnTree {
    ids: Vec<u64>,
    /// The ids are consecutive (the usual case: one run minted them),
    /// so an id's number is its offset; else binary search.
    dense: bool,
    first: Vec<usize>,
    /// `(spawn epoch, child number)`, ascending per parent.
    spawns: Vec<(u64, usize)>,
    /// Sequential rank per segment; 0 where no root reaches.
    ranks: Vec<u64>,
}

impl SpawnTree {
    /// Build from `(parent, child, epoch)` edges, ascending in `child`,
    /// children unique and nonzero. An edge registers its child; when
    /// its parent is registered too it is that parent's segment
    /// boundary at `epoch`, else the child is a root (roots run in id
    /// order). Ranks come from an iterative DFS: the chains these
    /// programs build run tens of thousands of invocations deep.
    pub(crate) fn build(edges: &[(u64, u64, u64)]) -> SpawnTree {
        let n = edges.len();
        let ids: Vec<u64> = edges.iter().map(|e| e.1).collect();
        let dense = n > 0 && ids[n - 1] - ids[0] == (n - 1) as u64;
        let mut t = SpawnTree { ids, dense, first: vec![0; n + 1], ..SpawnTree::default() };
        let parents: Vec<Option<usize>> = edges.iter().map(|e| t.index(e.0)).collect();
        for &p in parents.iter().flatten() {
            t.first[p + 1] += 1;
        }
        for i in 0..n {
            t.first[i + 1] += t.first[i];
        }
        t.spawns = vec![(0, 0); t.first[n]];
        let mut next = t.first.clone();
        for (child, parent) in parents.iter().enumerate() {
            if let Some(p) = *parent {
                t.spawns[next[p]] = (edges[child].2, child);
                next[p] += 1;
            }
        }
        for i in 0..n {
            t.spawns[t.first[i]..t.first[i + 1]].sort_unstable();
        }
        t.ranks = vec![0; t.first[n] + n];
        let mut rank = 0;
        // (invocation, its next spawn to descend into)
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in (0..n).filter(|&i| parents[i].is_none()) {
            rank += 1;
            t.ranks[t.first[root] + root] = rank;
            stack.push((root, t.first[root]));
            while let Some(top) = stack.last_mut() {
                let (i, k) = *top;
                if k < t.first[i + 1] {
                    top.1 += 1;
                    let child = t.spawns[k].1;
                    rank += 1;
                    t.ranks[t.first[child] + child] = rank;
                    stack.push((child, t.first[child]));
                } else {
                    stack.pop();
                    // The parent's segment after the spawn just
                    // finished: first[p] + p + (k - first[p]).
                    if let Some(&(p, k)) = stack.last() {
                        rank += 1;
                        t.ranks[p + k] = rank;
                    }
                }
            }
        }
        t
    }

    /// The number of registered invocation `inv`.
    pub(crate) fn index(&self, inv: u64) -> Option<usize> {
        if self.dense {
            let i = inv.checked_sub(self.ids[0])? as usize;
            (i < self.ids.len()).then_some(i)
        } else {
            self.ids.binary_search(&inv).ok()
        }
    }

    /// The spawns of invocation number `i`, in spawn order.
    fn spawns_of(&self, i: usize) -> &[(u64, usize)] {
        &self.spawns[self.first[i]..self.first[i + 1]]
    }

    /// The sequential rank of what `inv` did at `epoch`.
    pub(crate) fn rank(&self, inv: u64, epoch: u64) -> Option<u64> {
        let i = self.index(inv)?;
        let segment = self.spawns_of(i).partition_point(|s| s.0 <= epoch);
        Some(self.ranks[self.first[i] + i + segment]).filter(|&r| r != 0)
    }
}

// ----------------------------------------------------------------
// Validation
// ----------------------------------------------------------------

#[derive(Clone, Copy)]
enum Class {
    Read,
    Store,
    Add,
}

#[derive(Clone, Copy)]
struct Acc {
    loc: u64,
    rank: u64,
    inv: u64,
    lo: u64,
    hi: u64,
    class: Class,
}

/// Of the brackets noted so far, the latest end, and the latest end
/// among invocations other than the one that owns it — enough to
/// answer "latest end not mine" for any invocation.
#[derive(Clone, Copy, Default)]
struct Latest {
    hi: u64,
    inv: u64,
    other_hi: u64,
}

impl Latest {
    fn note(&mut self, hi: u64, inv: u64) {
        if inv == self.inv {
            self.hi = self.hi.max(hi);
        } else if hi > self.hi {
            *self = Latest { hi, inv, other_hi: self.hi };
        } else {
            self.other_hi = self.other_hi.max(hi);
        }
    }

    fn not_by(&self, inv: u64) -> u64 {
        if self.inv == inv {
            self.other_hi
        } else {
            self.hi
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Comparisons `sweep` made on this thread (sort and pass).
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count_comparison() {
    #[cfg(test)]
    COMPARISONS.with(|c| c.set(c.get() + 1));
}

/// The invocations that must abort, mapped to the smallest sequential
/// rank at which they violated (the replay order key). Two accesses of
/// one location by different invocations conflict unless both read or
/// both are atomic RMWs, and a conflicting pair violates iff the
/// sequentially earlier bracket does not end before the later one
/// begins — so going through a location in rank order, an access
/// violates iff the latest end among the earlier accesses it conflicts
/// with, its own invocation's aside, reaches its `lo`. That aborts the
/// *later* access of every violating pair. The earlier one goes too
/// when what it computed is void once the later is undone: a read, or
/// an add (it returns the sum), that did not end before a conflicting
/// *write* of later rank began took its value from the future. Going
/// back through the location in descending rank, that is: the earliest
/// beginning among the later writes it conflicts with does not come
/// after its `hi`. O(n log n), however hot the location.
fn sweep(accs: &mut [Acc]) -> BTreeMap<u64, u64> {
    accs.sort_unstable_by(|a, b| {
        count_comparison();
        (a.loc, a.rank).cmp(&(b.loc, b.rank))
    });
    let mut aborts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut abort = |a: &Acc| {
        let rank = aborts.entry(a.inv).or_insert(a.rank);
        *rank = (*rank).min(a.rank);
    };
    for at_loc in accs.chunk_by(|a, b| a.loc == b.loc) {
        let mut seen = [Latest::default(); 3];
        for a in at_loc {
            count_comparison();
            let end = |c: Class| seen[c as usize].not_by(a.inv);
            let latest = match a.class {
                Class::Read => end(Class::Store).max(end(Class::Add)),
                Class::Store => end(Class::Read).max(end(Class::Store)).max(end(Class::Add)),
                Class::Add => end(Class::Read).max(end(Class::Store)),
            };
            if latest >= a.lo {
                abort(a);
            }
            seen[a.class as usize].note(a.hi, a.inv);
        }
        // `Latest` over complemented ticks keeps the earliest `lo`.
        let mut seen = [Latest::default(); 3];
        for a in at_loc.iter().rev() {
            count_comparison();
            let begin = |c: Class| seen[c as usize].not_by(a.inv);
            let earliest = match a.class {
                Class::Read => begin(Class::Store).max(begin(Class::Add)),
                Class::Store => 0,
                Class::Add => begin(Class::Store),
            };
            if earliest >= !a.hi {
                abort(a);
            }
            seen[a.class as usize].note(!a.lo, a.inv);
        }
    }
    aborts
}

// ----------------------------------------------------------------
// The merged journal (resolve time)
// ----------------------------------------------------------------

impl WriteKind {
    fn undo(self, val: u64) -> u64 {
        match self {
            WriteKind::Store { old, .. } => old,
            WriteKind::Add { delta } => add_bits(val, -delta),
        }
    }

    /// Reapply a surviving write over `val`. A store's `old` is
    /// re-based on what now precedes it, so a later round's rollback
    /// still walks back to the pre-run value.
    fn redo(&mut self, val: u64) -> u64 {
        match self {
            WriteKind::Store { old, new } => {
                *old = val;
                *new
            }
            WriteKind::Add { delta } => add_bits(val, *delta),
        }
    }
}

fn add_bits(bits: u64, delta: i64) -> u64 {
    match Value::from_bits(bits).as_int() {
        Some(i) => Value::int_checked(i + delta).map(|v| v.bits()).unwrap_or(bits),
        None => bits,
    }
}

impl WriteRec {
    fn cell<'a>(&'a self, heap: &'a Heap) -> &'a AtomicU64 {
        match &self.global {
            Some(cell) => cell,
            None => heap.spec_loc_cell(self.loc),
        }
    }
}

/// Everything the lanes held, merged: owned by [`resolve`] for the
/// length of one resolution.
#[derive(Default)]
struct Journal {
    /// The invocation table: registrations ascending in `child`,
    /// numbered as `tree` numbers them.
    invs: Vec<SpawnRec>,
    tree: SpawnTree,
    args: Vec<Value>,
    reads: Vec<ReadRec>,
    writes: Vec<WriteRec>,
    output: Vec<OutRec>,
    accs: Vec<Acc>,
    aborts: u64,
    replays: u64,
    /// A replayed body did not respawn what the original spawned.
    diverged: bool,
}

impl Journal {
    /// Drain every lane into the journal, settle the last round's
    /// replays against the spawn records, and rank the tree anew.
    fn absorb(&mut self) {
        let registered = self.invs.len();
        let (mut respawns, mut errors) = (Vec::new(), Vec::new());
        for lane in &LANE {
            let l = std::mem::replace(&mut *lane.0.lock(), LaneBuf::new());
            let base = self.args.len();
            self.args.extend(l.args);
            for mut s in l.spawns {
                s.args_at += base;
                if s.child == 0 { &mut respawns } else { &mut self.invs }.push(s);
            }
            self.reads.extend(l.reads);
            self.writes.extend(l.writes);
            self.output.extend(l.output);
            errors.extend(l.errors);
        }
        // Replays ran one at a time on this thread, so their spawns
        // arrive in program order: each must repeat the original's
        // next spawn, and moves that segment boundary to now.
        for r in respawns {
            let original = self.tree.index(r.parent).and_then(|p| {
                self.invs[p].respawned += 1;
                self.tree.spawns_of(p).get(self.invs[p].respawned as usize - 1).map(|s| s.1)
            });
            match original {
                Some(c) if self.same_call(&self.invs[c], &r) => self.invs[c].epoch = r.epoch,
                _ => self.diverged = true,
            }
        }
        for (i, s) in self.invs.iter_mut().enumerate().filter(|(_, s)| s.doomed) {
            s.doomed = false;
            self.diverged |= s.respawned as usize != self.tree.spawns_of(i).len();
        }
        if self.invs.len() > registered {
            // Each lane's run ascends already; the stable sort merges.
            self.invs.sort_by_key(|s| s.child);
            self.invs.dedup_by_key(|s| s.child);
        }
        let edges: Vec<_> = self.invs.iter().map(|s| (s.parent, s.child, s.epoch)).collect();
        self.tree = SpawnTree::build(&edges);
        for inv in errors {
            if let Some(i) = self.tree.index(inv) {
                self.invs[i].errored = true;
            }
        }
    }

    fn args_of(&self, s: &SpawnRec) -> &[Value] {
        &self.args[s.args_at..s.args_at + s.argc as usize]
    }

    fn same_call(&self, a: &SpawnRec, b: &SpawnRec) -> bool {
        a.fid == b.fid && a.future == b.future && self.args_of(a) == self.args_of(b)
    }

    /// Tag every access with its rank and judge them ([`sweep`]).
    /// Accesses of unregistered invocations (another pool's tasks) are
    /// no part of this run's order.
    fn validate(&mut self) -> BTreeMap<u64, u64> {
        let tree = &self.tree;
        let acc = |inv, loc, lo, hi, class| {
            Some(Acc { loc, rank: tree.rank(inv, lo)?, inv, lo, hi, class })
        };
        let reads = self.reads.iter().filter_map(|r| acc(r.inv, r.loc, r.lo, r.hi, Class::Read));
        let writes = self.writes.iter().filter_map(|w| {
            let class = match w.kind {
                WriteKind::Store { .. } => Class::Store,
                WriteKind::Add { .. } => Class::Add,
            };
            acc(w.inv, w.loc, w.lo, w.hi, class)
        });
        self.accs.clear();
        self.accs.reserve(self.reads.len() + self.writes.len());
        self.accs.extend(reads.chain(writes));
        sweep(&mut self.accs)
    }

    /// Undo the journaled effects of the doomed invocations: per
    /// location one of them wrote, walk the location's writes backwards
    /// from the current heap value to the pre-run value, then reapply
    /// only the survivors forward. Exact for any interleaving because
    /// ascending `lo` is store order (the stripes).
    fn undo(&mut self, heap: &Heap) {
        let (tree, invs) = (&self.tree, &self.invs);
        let doomed = |inv: u64| tree.index(inv).is_some_and(|i| invs[i].doomed);
        // Survivors of earlier rounds are still in order and replays
        // appended theirs: near-sorted input for the adaptive sort.
        self.writes.sort_by_key(|w| (w.loc, w.lo));
        for at_loc in self.writes.chunk_by_mut(|a, b| a.loc == b.loc) {
            if !at_loc.iter().any(|w| doomed(w.inv)) {
                continue;
            }
            let mut val = at_loc[0].cell(heap).load(Ordering::Acquire);
            for w in at_loc.iter().rev() {
                val = w.kind.undo(val);
            }
            for w in at_loc.iter_mut().filter(|w| !doomed(w.inv)) {
                val = w.kind.redo(val);
            }
            at_loc[0].cell(heap).store(val, Ordering::Release);
        }
        self.writes.retain(|w| !doomed(w.inv));
        self.reads.retain(|r| !doomed(r.inv));
        self.output.retain(|o| !doomed(o.inv));
        for s in self.invs.iter_mut().filter(|s| s.doomed) {
            s.errored = false;
            s.aborted = true;
            s.respawned = 0;
        }
    }

    /// Re-execute aborted invocation number `i` inline on this thread,
    /// bound to its id, so that its spawns record against it.
    fn replay(&mut self, i: usize, run_body: &mut dyn FnMut(FuncId, Vec<Value>) -> Result<Value>) {
        let inv = self.invs[i].child;
        self.replays += 1;
        curare_obs::record(EventKind::SpecReplay, inv);
        let prev = curare_obs::set_invocation(inv);
        let res = run_body(self.invs[i].fid, self.args_of(&self.invs[i]).to_vec());
        curare_obs::set_invocation(prev);
        self.invs[i].errored |= res.is_err();
    }

    fn commit(self) -> Resolution {
        disarm();
        let tree = &self.tree;
        let mut out: Vec<(u64, u64, String)> = self
            .output
            .into_iter()
            .map(|o| (tree.rank(o.inv, o.epoch).unwrap_or(u64::MAX), o.epoch, o.line))
            .collect();
        out.sort_by_key(|o| (o.0, o.1));
        for s in &self.invs {
            curare_obs::record(EventKind::SpecCommit, s.child);
        }
        Resolution {
            committed: self.invs.len() as u64,
            aborts: self.aborts,
            replays: self.replays,
            clean: self.invs.iter().filter(|s| !s.aborted).count() as u64,
            escalated: false,
            roots: Vec::new(),
            output: out.into_iter().map(|(_, _, l)| l).collect(),
        }
    }

    fn escalate(mut self, heap: &Heap) -> Resolution {
        self.invs.iter_mut().for_each(|s| s.doomed = true);
        self.undo(heap);
        disarm();
        let roots = self
            .invs
            .iter()
            .filter(|s| self.tree.index(s.parent).is_none())
            .map(|s| (s.fid, self.args_of(s).to_vec()))
            .collect();
        Resolution {
            committed: 0,
            aborts: self.aborts,
            replays: self.replays,
            clean: 0,
            escalated: true,
            roots,
            output: Vec::new(),
        }
    }
}

// ----------------------------------------------------------------
// Resolution
// ----------------------------------------------------------------

/// What [`resolve_run`] decided.
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

/// Validate the quiesced run of `interp`'s pool, replaying aborted
/// invocations on this thread under the replay hooks. Disarms the
/// journal before returning. Must only be called when no task is in
/// flight.
pub fn resolve_run(interp: &Interp, retry_limit: u32) -> Resolution {
    let replays = Arc::new(ReplayHooks { pool: interp.hooks() });
    interp.with_hooks(replays, || {
        resolve(interp.heap(), retry_limit, &mut |fid, args| interp.call_fid_owned(fid, args))
    })
}

/// [`resolve_run`], with each replay run by `run_body`: a function
/// body as it runs under the replay hooks.
fn resolve(
    heap: &Heap,
    retry_limit: u32,
    run_body: &mut dyn FnMut(FuncId, Vec<Value>) -> Result<Value>,
) -> Resolution {
    let mut j = Journal::default();
    let mut rounds: u32 = 0;
    loop {
        j.absorb();
        if ESCALATE.load(Ordering::SeqCst) || j.diverged {
            return j.escalate(heap);
        }
        let aborts = j.validate();
        if aborts.is_empty() {
            let errored = j.invs.iter().any(|s| s.errored);
            return if errored { j.escalate(heap) } else { j.commit() };
        }
        // A future-valued invocation's result may already have been
        // consumed by its toucher; an abort cannot retract that value,
        // so the whole run falls back to the sequential rerun.
        let future_aborted = aborts
            .keys()
            .any(|&inv| j.tree.index(inv).is_some_and(|i| j.invs[i].future != NO_FUTURE));
        if rounds >= retry_limit || future_aborted {
            return j.escalate(heap);
        }
        rounds += 1;
        j.aborts += aborts.len() as u64;
        let mut order: Vec<(u64, usize)> = Vec::with_capacity(aborts.len());
        for (&inv, &rank) in &aborts {
            curare_obs::record(EventKind::SpecAbort, inv);
            let i = j.tree.index(inv).expect("only registered invocations are ranked");
            j.invs[i].doomed = true;
            order.push((rank, i));
        }
        j.undo(heap);
        order.sort_unstable();
        for (_, i) in order {
            j.replay(i, run_body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Val;
    use std::collections::{BTreeSet, HashMap};

    // The journal is process-wide; serialize tests that arm it, and
    // start each from a disarmed one whatever the last test left.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        let g = TEST_GUARD.lock();
        disarm();
        g
    }

    fn root(inv: u64, fid: FuncId, args: &[Value]) {
        record_spawn(0, inv, fid, args, None);
    }

    #[test]
    fn clean_single_writer_run_commits() {
        let _g = guard();
        let heap = Heap::new();
        let a = heap.cons(Value::int(1), Value::NIL);
        let b = heap.cons(Value::int(2), Value::NIL);
        arm().unwrap();
        root(1, 0, &[a]);
        // inv 1 head writes a, spawns 2; inv 2 writes b. Disjoint.
        curare_obs::set_invocation(1);
        heap.set_car(a, Value::int(10)).unwrap();
        record_spawn(1, 2, 0, &[b], None);
        curare_obs::set_invocation(2);
        heap.set_car(b, Value::int(20)).unwrap();
        curare_obs::set_invocation(0);
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
        arm().unwrap();
        root(1, 0, &[]);
        // Sequential order: head(1), head+tail(2), tail(1). inv 1's
        // *tail* should see inv 2's write of x — but inv 1 reads x
        // before inv 2 writes it (stale), then copies it into dst.
        curare_obs::set_invocation(1);
        record_spawn(1, 2, 0, &[], None);
        let stale = heap.car(x).unwrap(); // tail read, epoch-early
        heap.set_car(dst, stale).unwrap();
        curare_obs::set_invocation(2);
        heap.set_car(x, Value::int(42)).unwrap();
        curare_obs::set_invocation(0);
        // Replay of inv 1 re-runs its body: spawn (suppressed and
        // matched against the record), then read x, write dst.
        let heap_ref = &heap;
        let r = resolve(heap_ref, 4, &mut |_, _| {
            replay_spawn(0, &[]);
            let v = heap_ref.car(x)?;
            heap_ref.set_car(dst, v)?;
            Ok(Value::NIL)
        });
        assert!(!r.escalated, "replay should converge");
        assert_eq!((r.aborts, r.replays, r.committed, r.clean), (1, 1, 2, 1));
        assert_eq!(heap.car(dst).unwrap(), Value::int(42), "tail must see conflictor's write");
    }

    #[test]
    fn a_read_from_the_future_aborts_with_the_write_it_read() {
        let _g = guard();
        let heap = Heap::new();
        let x = heap.cons(Value::int(1), Value::NIL);
        let y = heap.cons(Value::int(0), Value::NIL);
        let dst = heap.cons(Value::int(0), Value::NIL);
        arm().unwrap();
        // Three roots, ranked 1 < 2 < 3. Sequentially: inv 1 copies
        // x + 1 into dst (2), inv 2 sets y, inv 3 sets x to 30. In
        // this run inv 3's store reached x before inv 1 read it.
        for inv in 1..=3 {
            root(inv, inv as FuncId, &[]);
        }
        curare_obs::set_invocation(3);
        heap.set_car(x, Value::int(30)).unwrap();
        curare_obs::set_invocation(1);
        let seen = heap.car(x).unwrap().as_int().unwrap();
        heap.set_car(dst, Value::int(seen + 1)).unwrap();
        curare_obs::set_invocation(2);
        heap.set_car(y, Value::int(7)).unwrap();
        curare_obs::set_invocation(0);
        assert_eq!(heap.car(dst).unwrap(), Value::int(31), "computed from the future");
        // The later-ranked store aborts, as ever — and so must the
        // read: undoing the store voids what inv 1 made of it, and a
        // redo of inv 1's absolute store would commit it all the same.
        let heap_ref = &heap;
        let mut replayed = Vec::new();
        let r = resolve(heap_ref, 4, &mut |fid, _| {
            replayed.push(fid);
            match fid {
                1 => {
                    let seen = heap_ref.car(x)?.as_int().unwrap();
                    heap_ref.set_car(dst, Value::int(seen + 1))?;
                }
                _ => heap_ref.set_car(x, Value::int(30))?,
            }
            Ok(Value::NIL)
        });
        assert_eq!(replayed, [1, 3], "both abort; replays go by rank");
        assert_eq!((r.escalated, r.aborts, r.replays, r.committed, r.clean), (false, 2, 2, 3, 1));
        let cars = [x, y, dst].map(|c| heap.car(c).unwrap().as_int().unwrap());
        assert_eq!(cars, [30, 7, 2], "the sequential outcome");
    }

    #[test]
    fn a_replay_that_spawns_differently_escalates() {
        let _g = guard();
        let heap = Heap::new();
        let x = heap.cons(Value::int(1), Value::NIL);
        for respawn in [None, Some(7), Some(0)] {
            arm().unwrap();
            root(1, 3, &[x]);
            curare_obs::set_invocation(1);
            record_spawn(1, 2, 0, &[], None);
            heap.car(x).unwrap(); // stale, as above
            curare_obs::set_invocation(2);
            heap.set_car(x, Value::int(42)).unwrap();
            curare_obs::set_invocation(0);
            // The replayed body spawns nothing, another callee, or the
            // right one twice.
            let r = resolve(&heap, 4, &mut |_, _| {
                if let Some(fid) = respawn {
                    replay_spawn(fid, &[]);
                    replay_spawn(fid, &[]);
                }
                Ok(Value::NIL)
            });
            assert!(r.escalated, "respawn {respawn:?} must not commit");
            assert_eq!(r.roots, vec![(3, vec![x])]);
            assert_eq!(heap.car(x).unwrap(), Value::int(1), "rolled back");
        }
    }

    #[test]
    fn escalation_rolls_everything_back() {
        let _g = guard();
        let heap = Heap::new();
        let a = heap.cons(Value::int(1), Value::NIL);
        arm().unwrap();
        root(1, 7, &[a]);
        curare_obs::set_invocation(1);
        heap.set_car(a, Value::int(99)).unwrap();
        curare_obs::set_invocation(0);
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
        let x = heap.cons(Value::int(1), Value::NIL);
        arm().unwrap();
        root(1, 0, &[]);
        root(2, 0, &[]);
        // inv 2 reads x before the sequentially earlier inv 1 writes
        // it, so inv 2 aborts — after both added to c.
        curare_obs::set_invocation(2);
        heap.car(x).unwrap();
        heap.atomic_add_field(c, 0, 3).unwrap();
        curare_obs::set_invocation(1);
        heap.atomic_add_field(c, 0, 5).unwrap();
        heap.set_car(x, Value::int(42)).unwrap();
        curare_obs::set_invocation(0);
        assert_eq!(heap.car(c).unwrap(), Value::int(18));
        let heap_ref = &heap;
        let r = resolve(heap_ref, 4, &mut |_, _| {
            let seen = heap_ref.car(c)?;
            assert_eq!(seen, Value::int(15), "only inv 2's delta compensated");
            heap_ref.car(x)?;
            heap_ref.atomic_add_field(c, 0, 3)?;
            Ok(Value::NIL)
        });
        assert_eq!((r.escalated, r.aborts, r.replays), (false, 1, 1));
        assert_eq!(heap.car(c).unwrap(), Value::int(18));
    }

    #[test]
    fn output_commits_in_sequential_order() {
        let _g = guard();
        let heap = Heap::new();
        arm().unwrap();
        root(1, 0, &[]);
        // Tail prints run in unwind order: inv 2's line precedes
        // inv 1's even though inv 1 printed first by the clock.
        curare_obs::set_invocation(1);
        record_spawn(1, 2, 0, &[], None);
        assert!(divert_emit("tail-of-1"));
        curare_obs::set_invocation(2);
        assert!(divert_emit("tail-of-2"));
        curare_obs::set_invocation(0);
        let r = resolve(&heap, 4, &mut |_, _| Ok(Value::NIL));
        assert_eq!(r.output, vec!["tail-of-2".to_string(), "tail-of-1".to_string()]);
    }

    #[test]
    fn arming_an_armed_journal_is_refused_and_harmless() {
        let _g = guard();
        let heap = Heap::new();
        let a = heap.cons(Value::int(1), Value::NIL);
        arm().unwrap();
        root(1, 0, &[a]);
        curare_obs::set_invocation(1);
        heap.set_car(a, Value::int(10)).unwrap();
        curare_obs::set_invocation(0);
        // At either level: one journal, one run.
        for err in [arm().unwrap_err(), observe().unwrap_err()] {
            assert!(err.to_string().contains("a speculative run is already in flight"), "{err}");
        }
        let r = resolve(&heap, 4, &mut |_, _| Ok(Value::NIL));
        assert_eq!((r.committed, r.escalated), (1, false), "the first run kept its journal");
        observe().expect("free again once resolved");
        curare_obs::set_invocation(2);
        heap.car(a).unwrap();
        curare_obs::set_invocation(0);
        for err in [arm().unwrap_err(), observe().unwrap_err()] {
            assert!(err.to_string().contains("a sanitized run is already in flight"), "{err}");
        }
        assert_eq!(observed().accesses.len(), 1, "the observer kept its journal");
        arm().expect("free again once handed over");
        disarm();
    }

    /// A pool's hooks as a replay reaches them: they count the spawns
    /// and futures that arrive and run nothing.
    #[derive(Default)]
    struct Counting {
        spawns: AtomicU64,
        futures: AtomicU64,
    }

    impl RuntimeHooks for Counting {
        fn enqueue(&self, _: &Interp, _: usize, _: FuncId, _: Vec<Value>) -> Result<()> {
            self.spawns.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        fn future(&self, _: &Interp, _: FuncId, _: Vec<Value>) -> Result<Value> {
            self.futures.fetch_add(1, Ordering::Relaxed);
            Ok(Value::NIL)
        }

        fn touch(&self, _: &Interp, v: Value) -> Result<Value> {
            Ok(v)
        }

        fn lock(&self, _: &Interp, _: Value, _: u32, _: bool) -> Result<()> {
            Ok(())
        }

        fn unlock(&self, _: &Interp, _: Value, _: u32, _: bool) -> Result<()> {
            Ok(())
        }
    }

    /// `src` loaded under `Counting` hooks, and a journaled run of
    /// `(f x dst)` with a stale read, as in `stale_read_aborts_and_replays`:
    /// invocation 1 spawns `(g x)`, invocation 2, then copies x into dst
    /// before 2 stores 42 in x. Returns the root's recipe too.
    fn a_stale_run_of_f(src: &str) -> (Interp, Arc<Counting>, FuncId, [Value; 2]) {
        let interp = Interp::new();
        interp.load_str(src).unwrap();
        let pool = Arc::new(Counting::default());
        interp.set_hooks(pool.clone());
        let heap = interp.heap();
        let fid = |name| interp.lookup_func(heap.intern(name)).unwrap();
        let (f, g) = (fid("f"), fid("g"));
        let [x, dst] = [1, 0].map(|v| heap.cons(Value::int(v), Value::NIL));
        arm().unwrap();
        root(1, f, &[x, dst]);
        curare_obs::set_invocation(1);
        record_spawn(1, 2, g, &[x], None);
        heap.set_car(dst, heap.car(x).unwrap()).unwrap();
        curare_obs::set_invocation(2);
        heap.set_car(x, Value::int(42)).unwrap();
        curare_obs::set_invocation(0);
        (interp, pool, f, [x, dst])
    }

    fn hooks_are(interp: &Interp, pool: &Arc<Counting>) -> bool {
        Arc::as_ptr(&interp.hooks()) as *const () == Arc::as_ptr(pool) as *const ()
    }

    #[test]
    fn a_replayed_spawn_is_recorded_and_not_enqueued() {
        let _g = guard();
        let (interp, pool, _, [_, dst]) = a_stale_run_of_f(
            "(defun g (x) x)
             (defun f (x dst) (cri-enqueue 0 g x) (setf (car dst) (car x)))",
        );
        let r = resolve_run(&interp, 4);
        // The replay spawned what the original did, so the run commits.
        assert_eq!((r.escalated, r.aborts, r.replays, r.committed), (false, 1, 1, 2));
        assert_eq!(interp.heap().car(dst).unwrap(), Value::int(42));
        assert_eq!(pool.spawns.load(Ordering::Relaxed), 0, "the spawn was not enqueued");
        assert!(hooks_are(&interp, &pool), "the pool's hooks are back");
    }

    #[test]
    fn a_future_inside_a_replay_escalates() {
        let _g = guard();
        let (interp, pool, f, [x, dst]) = a_stale_run_of_f(
            "(defun g (x) x)
             (defun f (x dst) (cri-enqueue 0 g x) (setf (car dst) (car x)) (future (g x)))",
        );
        let r = resolve_run(&interp, 4);
        assert!(r.escalated, "a replay cannot re-create a future");
        assert_eq!(r.roots, vec![(f, vec![x, dst])]);
        let cars = [x, dst].map(|c| interp.heap().car(c).unwrap());
        assert_eq!(cars, [1, 0].map(Value::int), "rolled back");
        assert_eq!(pool.futures.load(Ordering::Relaxed), 0, "the future never reached the pool");
        assert!(hooks_are(&interp, &pool), "the pool's hooks are back");
    }

    #[test]
    fn observing_records_the_run_and_leaves_it_alone() {
        let _g = guard();
        let heap = Heap::new();
        let ty = heap.define_struct_type("p", &["x".into(), "y".into()]);
        let s = heap.make_struct(ty, &[Value::int(1), Value::int(2)]);
        let c = heap.cons(Value::int(1), Value::NIL);
        let Val::Cons(id) = c.decode() else { unreachable!("cons") };
        observe().unwrap();
        heap.car(c).unwrap(); // outside any invocation: no part of the run
        record_spawn(0, 1, 0, &[c], Some(7));
        curare_obs::set_invocation(1);
        heap.set_cdr(c, Value::T).unwrap();
        heap.struct_ref(s, 1).unwrap();
        heap.atomic_add_field(s, 2, 5).unwrap();
        assert!(!divert_emit("a line"), "print is not diverted");
        record_error(1);
        assert!(lane().errors.is_empty(), "errors are not parked");
        curare_obs::set_invocation(0);
        record_touch(7);
        let mut seen = observed();
        assert!(!armed(), "handing over disarms");
        assert_eq!(heap.cdr(c).unwrap(), Value::T, "nothing is undone");
        seen.accesses.sort_unstable_by_key(|a| a.epoch);
        let did: Vec<_> = seen.accesses.iter().map(|a| (a.inv, a.loc, a.write, a.atomic)).collect();
        let (y, x) = (struct_loc(1, 1), struct_loc(0, 0));
        assert_eq!(did, [(1, id << 1 | 1, true, false), (1, y, false, false), (1, x, true, true)]);
        let (spawn, touch) = (seen.spawns[0], seen.touches[0]);
        assert_eq!((spawn.parent, spawn.child, spawn.future), (0, 1, Some(7)));
        assert_eq!((touch.inv, touch.future), (0, 7));
        assert!(spawn.epoch < seen.accesses[0].epoch && seen.accesses[2].epoch < touch.epoch);
    }

    #[test]
    fn locations_pack_the_accessor_code_and_records_keep_their_size() {
        // The code rides in the location, not beside it: a record a
        // word larger costs the armed run a seventh of its speed.
        assert_eq!(std::mem::size_of::<ReadRec>(), 32);
        assert_eq!(std::mem::size_of::<WriteRec>(), 64);
        assert_eq!(std::mem::size_of::<SpawnRec>(), 56);
        for slot in [0, 1, SLOT_MASK] {
            for idx in [0, 1, FIELD_MASK as usize] {
                let loc = struct_loc(slot, idx);
                assert_eq!((struct_slot(loc), accessor_code(loc)), (slot, 2 + idx as u64));
                assert_eq!(loc & (STRUCT_LOC_BIT | GLOBAL_LOC_BIT), STRUCT_LOC_BIT, "not a global");
            }
        }
        assert_eq!((accessor_code(8 << 1), accessor_code(8 << 1 | 1)), (0, 1));
    }

    // ------------------------------------------------------------
    // The previous validator, kept as the oracle: hash-map ranks, the
    // all-pairs conflict test and the per-location-filter undo, as
    // they stood before the sweep replaced them.
    // ------------------------------------------------------------

    mod reference {
        use super::*;

        /// Segment boundaries (spawn epochs, ascending) and segment
        /// ranks per invocation.
        pub type Ranks = HashMap<u64, (Vec<u64>, Vec<u64>)>;

        pub fn compute_ranks(edges: &[(u64, u64, u64)]) -> Ranks {
            // parent and spawns (epoch, child) in spawn order
            let mut invs: BTreeMap<u64, (u64, Vec<(u64, u64)>)> = BTreeMap::new();
            for &(parent, child, _) in edges {
                invs.insert(child, (parent, Vec::new()));
            }
            for &(parent, child, epoch) in edges {
                if let Some(e) = invs.get_mut(&parent) {
                    e.1.push((epoch, child));
                }
            }
            let mut ranks: Ranks = HashMap::new();
            let mut counter = 0u64;
            let roots: Vec<u64> = invs
                .iter()
                .filter(|(_, e)| e.0 == 0 || !invs.contains_key(&e.0))
                .map(|(&inv, _)| inv)
                .collect();
            for root in roots {
                let mut stack: Vec<(u64, usize)> = Vec::new();
                let enter = |inv: u64, ranks: &mut Ranks, counter: &mut u64| {
                    *counter += 1;
                    let boundaries = invs[&inv].1.iter().map(|s| s.0).collect();
                    ranks.insert(inv, (boundaries, vec![*counter]));
                };
                enter(root, &mut ranks, &mut counter);
                stack.push((root, 0));
                while let Some(&mut (inv, ref mut idx)) = stack.last_mut() {
                    let spawns = &invs[&inv].1;
                    if *idx < spawns.len() {
                        let child = spawns[*idx].1;
                        *idx += 1;
                        enter(child, &mut ranks, &mut counter);
                        stack.push((child, 0));
                    } else {
                        stack.pop();
                        if let Some(&(parent, _)) = stack.last() {
                            counter += 1;
                            ranks.get_mut(&parent).expect("entered").1.push(counter);
                        }
                    }
                }
            }
            ranks
        }

        pub fn rank_of(ranks: &Ranks, inv: u64, epoch: u64) -> Option<u64> {
            let (boundaries, seg_ranks) = ranks.get(&inv)?;
            Some(seg_ranks[boundaries.partition_point(|&b| b <= epoch)])
        }

        pub fn validate(j: &Journal, ranks: &Ranks) -> BTreeMap<u64, u64> {
            struct Acc {
                inv: u64,
                lo: u64,
                hi: u64,
                write: bool,
                atomic: bool,
                rank: u64,
            }
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
                push(w.inv, w.loc, w.lo, w.hi, true, matches!(w.kind, WriteKind::Add { .. }));
            }
            let mut aborts: BTreeMap<u64, u64> = BTreeMap::new();
            for accs in by_loc.values() {
                for (i, a) in accs.iter().enumerate() {
                    for b in &accs[i + 1..] {
                        if a.inv == b.inv || (!a.write && !b.write) || (a.atomic && b.atomic) {
                            continue;
                        }
                        // Epoch order: strict bracket separation, else
                        // the race was too close to call.
                        let consistent = if a.hi < b.lo {
                            a.rank < b.rank
                        } else if b.hi < a.lo {
                            b.rank < a.rank
                        } else {
                            false
                        };
                        if !consistent {
                            let (earlier, later) = if a.rank > b.rank { (b, a) } else { (a, b) };
                            let mut abort = |x: &Acc| {
                                let slot = aborts.entry(x.inv).or_insert(x.rank);
                                *slot = (*slot).min(x.rank);
                            };
                            abort(later);
                            // A read, or an add (it returns the sum),
                            // took its value from a write that is now
                            // undone.
                            if later.write && (!earlier.write || earlier.atomic) {
                                abort(earlier);
                            }
                        }
                    }
                }
            }
            aborts
        }

        /// `writes` in journal append order, which was store order.
        pub fn undo_writes(writes: &mut Vec<WriteRec>, heap: &Heap, abort_set: &BTreeSet<u64>) {
            let mut locs: BTreeSet<u64> = BTreeSet::new();
            for w in writes.iter() {
                if abort_set.contains(&w.inv) {
                    locs.insert(w.loc);
                }
            }
            for loc in locs {
                let entries: Vec<&WriteRec> = writes.iter().filter(|w| w.loc == loc).collect();
                let first = entries[0];
                let mut val = first.cell(heap).load(Ordering::Acquire);
                for w in entries.iter().rev() {
                    val = w.kind.undo(val);
                }
                for w in &entries {
                    if !abort_set.contains(&w.inv) {
                        val = match w.kind {
                            WriteKind::Store { new, .. } => new,
                            WriteKind::Add { delta } => add_bits(val, delta),
                        };
                    }
                }
                first.cell(heap).store(val, Ordering::Release);
            }
            writes.retain(|w| !abort_set.contains(&w.inv));
        }
    }

    /// splitmix64
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
    }

    fn registration(parent: u64, child: u64, epoch: u64) -> SpawnRec {
        SpawnRec {
            parent,
            child,
            epoch,
            fid: 0,
            future: NO_FUTURE,
            args_at: 0,
            argc: 0,
            errored: false,
            aborted: false,
            doomed: false,
            respawned: 0,
        }
    }

    /// What an invocation does next in a generated schedule.
    #[derive(Clone, Copy)]
    enum Step {
        Spawn(usize),
        Read(u64),
        Store(u64),
        Add(u64),
    }

    /// One generated journal: the merged records of a made-up run over
    /// `cells`, the cells' values before it, and the edges of its tree.
    struct Generated {
        j: Journal,
        edges: Vec<(u64, u64, u64)>,
        pre: Vec<(u64, u64)>,
    }

    /// Invent a run: a random spawn forest (several roots, invocations
    /// with many spawns and none, chains, orphans whose parent never
    /// registered — the one-record format cannot write down the old
    /// format's unregistered *child*; this is its mirror image — and
    /// ids dense or gapped), every invocation a random program of
    /// spawns, reads, stores and atomic adds over a few cold and one or
    /// two hot cells, and a random interleaving of all of them at
    /// bracket granularity: brackets come out disjoint, overlapping and
    /// (reads) touching, except that two writes of one cell never
    /// overlap — what the stripes guarantee, and what gives the cells
    /// well-defined values for undo to restore.
    fn generate(rng: &mut Rng, heap: &Heap) -> Generated {
        let n = 1 + rng.below(40);
        let gapped = rng.chance(30);
        let mut ids = Vec::with_capacity(n);
        let mut id = 1 + rng.below(1000) as u64;
        for _ in 0..n {
            ids.push(id);
            id += if gapped { 1 + rng.below(3) as u64 } else { 1 };
        }
        let cells: Vec<u64> = (0..2 + rng.below(6))
            .map(|_| match heap.cons(Value::int(rng.below(100) as i64), Value::NIL).decode() {
                crate::value::Val::Cons(id) => id << 1,
                _ => unreachable!("cons"),
            })
            .collect();
        let hot = 1 + rng.below(2);
        let pre: Vec<(u64, u64)> =
            cells.iter().map(|&l| (l, heap.spec_loc_cell(l).load(Ordering::Acquire))).collect();
        // Parents: an earlier invocation, none (a root), or an id that
        // never registers (an orphan, which runs as a root).
        let parents: Vec<u64> = (0..n)
            .map(|i| match rng.below(10) {
                _ if i == 0 => 0,
                0 => 0,
                1 => id + 5,
                _ => ids[rng.below(i)],
            })
            .collect();
        let mut programs: Vec<Vec<Step>> = vec![Vec::new(); n];
        for (i, prog) in programs.iter_mut().enumerate() {
            for _ in 0..rng.below(7) {
                let loc = if rng.chance(60) {
                    cells[rng.below(hot)]
                } else {
                    cells[rng.below(cells.len())]
                };
                prog.push(match rng.below(10) {
                    0..=4 => Step::Read(loc),
                    5..=7 => Step::Store(loc),
                    _ => Step::Add(loc),
                });
            }
            // Its spawns go in child order, anywhere among the accesses.
            let mut at = 0;
            for c in (0..n).filter(|&c| parents[c] == ids[i]) {
                at += rng.below(prog.len() - at + 1);
                prog.insert(at, Step::Spawn(c));
                at += 1;
            }
        }
        // Interleave. `open[i]` is invocation i's bracket in progress.
        let mut j = Journal::default();
        let mut epochs = vec![0u64; n];
        let mut pc = vec![0usize; n];
        let mut open: Vec<Option<u64>> = vec![None; n];
        let mut value: HashMap<u64, u64> = pre.iter().copied().collect();
        let mut clock = 1u64;
        loop {
            let writing = |loc: u64, open: &[Option<u64>], pc: &[usize]| {
                (0..n).any(|k| {
                    open[k].is_some()
                        && matches!(programs[k][pc[k]], Step::Store(l) | Step::Add(l) if l == loc)
                })
            };
            let ready: Vec<usize> = (0..n)
                .filter(|&i| pc[i] < programs[i].len())
                .filter(|&i| match programs[i][pc[i]] {
                    Step::Store(l) | Step::Add(l) if open[i].is_none() => !writing(l, &open, &pc),
                    _ => true,
                })
                .collect();
            if ready.is_empty() {
                break;
            }
            let i = ready[rng.below(ready.len())];
            let inv = ids[i];
            let step = programs[i][pc[i]];
            // A read bracket may touch the tick before it.
            if matches!(step, Step::Read(_)) && clock > 1 && rng.chance(15) {
                clock -= 1;
            }
            let now = clock;
            clock += 1;
            match (step, open[i].take()) {
                (Step::Spawn(c), _) => epochs[c] = now,
                (_, None) => {
                    open[i] = Some(now);
                    continue;
                }
                (Step::Read(loc), Some(lo)) => j.reads.push(ReadRec { inv, loc, lo, hi: now }),
                (Step::Store(loc), Some(lo)) => {
                    let new = Value::int(rng.below(100) as i64).bits();
                    let old = value.insert(loc, new).expect("a cell");
                    let kind = WriteKind::Store { old, new };
                    j.writes.push(WriteRec { inv, loc, lo, hi: now, kind, global: None });
                }
                (Step::Add(loc), Some(lo)) => {
                    let delta = rng.below(9) as i64 - 4;
                    let v = value.get_mut(&loc).expect("a cell");
                    *v = add_bits(*v, delta);
                    let kind = WriteKind::Add { delta };
                    j.writes.push(WriteRec { inv, loc, lo, hi: now, kind, global: None });
                }
            }
            pc[i] += 1;
        }
        for (&loc, &bits) in &value {
            heap.spec_loc_cell(loc).store(bits, Ordering::Release);
        }
        let edges: Vec<(u64, u64, u64)> = (0..n).map(|c| (parents[c], ids[c], epochs[c])).collect();
        j.invs = edges.iter().map(|&(p, c, e)| registration(p, c, e)).collect();
        j.tree = SpawnTree::build(&edges);
        Generated { j, edges, pre }
    }

    /// The tree of `j` under accesses with brackets drawn at random
    /// around a few of its spawn points, mostly by the invocations on
    /// either side of them: they nest, touch, coincide and straddle
    /// segment boundaries.
    fn scramble(rng: &mut Rng, j: &Journal, edges: &[(u64, u64, u64)]) -> Journal {
        let mut out =
            Journal { invs: j.invs.clone(), tree: SpawnTree::build(edges), ..Journal::default() };
        let focus: Vec<(u64, u64, u64)> =
            (0..1 + rng.below(3)).map(|_| edges[rng.below(edges.len())]).collect();
        for _ in 0..rng.below(60) {
            let (parent, child, epoch) = focus[rng.below(focus.len())];
            let inv = [parent, child, edges[rng.below(edges.len())].1][rng.below(3)];
            let loc = 2 * rng.below(3) as u64;
            let lo = (epoch + rng.below(7) as u64).saturating_sub(3).max(1);
            let hi = lo + rng.below(6) as u64;
            let kind = match rng.below(3) {
                0 => {
                    out.reads.push(ReadRec { inv, loc, lo, hi });
                    continue;
                }
                1 => WriteKind::Store { old: 0, new: 0 },
                _ => WriteKind::Add { delta: 1 },
            };
            out.writes.push(WriteRec { inv, loc, lo, hi, kind, global: None });
        }
        out
    }

    /// What the cells must hold once `gone` are undone: the pre-run
    /// value, then the surviving writes in `lo` order.
    fn survivors_applied(
        pre: &[(u64, u64)],
        writes: &[WriteRec],
        gone: &BTreeSet<u64>,
    ) -> Vec<u64> {
        let mut sorted: Vec<&WriteRec> = writes.iter().filter(|w| !gone.contains(&w.inv)).collect();
        sorted.sort_by_key(|w| w.lo);
        pre.iter()
            .map(|&(loc, bits)| {
                sorted.iter().filter(|w| w.loc == loc).fold(bits, |val, w| match w.kind {
                    WriteKind::Store { new, .. } => new,
                    WriteKind::Add { delta } => add_bits(val, delta),
                })
            })
            .collect()
    }

    fn cell_values(heap: &Heap, pre: &[(u64, u64)]) -> Vec<u64> {
        pre.iter().map(|&(loc, _)| heap.spec_loc_cell(loc).load(Ordering::Acquire)).collect()
    }

    #[test]
    fn sweep_tree_and_undo_match_the_previous_validator_on_generated_journals() {
        let heap = Heap::new();
        let mut rng = Rng(0x5EED_0017);
        let (mut aborting, mut orphaned, mut gapped) = (0, 0, 0);
        for case in 0..600 {
            let Generated { mut j, edges, pre } = generate(&mut rng, &heap);
            let ranks = reference::compute_ranks(&edges);
            orphaned += usize::from(edges.iter().any(|e| e.0 != 0 && !ranks.contains_key(&e.0)));
            gapped += usize::from(!j.tree.dense);

            // Identical ranks at, just before and just after every
            // boundary, at both ends of time, and for strangers.
            let last = edges.iter().map(|e| e.2).max().unwrap_or(0) + 2;
            for &(_, inv, _) in &edges {
                let probes = [0, 1, last, u64::MAX].into_iter();
                let around = edges.iter().flat_map(|e| [e.2.saturating_sub(1), e.2, e.2 + 1]);
                for epoch in probes.chain(around) {
                    assert_eq!(
                        j.tree.rank(inv, epoch),
                        reference::rank_of(&ranks, inv, epoch),
                        "case {case}: rank of {inv} at {epoch}; edges {edges:?}"
                    );
                }
            }
            assert_eq!(j.tree.rank(edges[0].1 - 1, 1), None);
            assert_eq!(j.tree.rank(u64::MAX, 1), None);

            // Identical abort maps — also when nothing orders the
            // brackets: not program order within an invocation, not
            // the stripes (the pairwise rule never asked for either).
            let mut scrambled = scramble(&mut rng, &j, &edges);
            let want = reference::validate(&scrambled, &ranks);
            assert_eq!(scrambled.validate(), want, "case {case}: scrambled abort map");
            let want = reference::validate(&j, &ranks);
            let got = j.validate();
            assert_eq!(got, want, "case {case}: abort map");
            aborting += usize::from(!got.is_empty());

            // Identical cells after undoing the validator's own abort
            // set, then a random one on top (a second round: survivors
            // of the first must still roll back to the pre-run value).
            let finals = cell_values(&heap, &pre);
            let mut gone: BTreeSet<u64> = BTreeSet::new();
            let verdict: BTreeSet<u64> = got.keys().copied().collect();
            let random = edges.iter().map(|e| e.1).filter(|_| rng.chance(40)).collect();
            let mut old_writes = j.writes.clone();
            old_writes.sort_by_key(|w| w.lo);
            for (round, set) in [verdict, random].into_iter().enumerate() {
                let before = j.writes.clone();
                for &inv in &set {
                    j.invs[j.tree.index(inv).unwrap()].doomed = true;
                }
                j.undo(&heap);
                j.invs.iter_mut().for_each(|s| s.doomed = false);
                gone.extend(&set);
                let cells = cell_values(&heap, &pre);
                assert_eq!(
                    cells,
                    survivors_applied(&pre, &before, &set),
                    "case {case} round {round}: pre-run value, then the survivors"
                );
                assert!(j.writes.iter().all(|w| !gone.contains(&w.inv)));
                assert!(j.reads.iter().all(|r| !gone.contains(&r.inv)));
                if round == 0 {
                    // The previous undo, from the same final heap.
                    for (&(loc, _), &bits) in pre.iter().zip(&finals) {
                        heap.spec_loc_cell(loc).store(bits, Ordering::Release);
                    }
                    reference::undo_writes(&mut old_writes, &heap, &set);
                    assert_eq!(cell_values(&heap, &pre), cells, "case {case}: previous undo");
                    assert_eq!(old_writes.len(), j.writes.len());
                }
            }
        }
        // The battery is not vacuous.
        assert!(aborting > 200 && aborting < 600, "{aborting} of 600 journals abort something");
        assert!(orphaned > 50 && gapped > 100, "{orphaned} orphaned, {gapped} gapped");
    }

    /// 20 000 invocations hammering one word: the all-pairs test made
    /// 2·10⁸ comparisons here; the sweep must stay within c·n·log n.
    #[test]
    fn a_hot_location_resolves_in_n_log_n() {
        const N: u64 = 20_000;
        let mut rng = Rng(17);
        // Roots 1..=N rank in id order; their brackets land in a
        // shuffled order in time, pairwise disjoint.
        let mut slot: Vec<u64> = (0..N).collect();
        for i in (1..N as usize).rev() {
            slot.swap(i, rng.below(i + 1));
        }
        let edges: Vec<(u64, u64, u64)> = (1..=N).map(|inv| (0, inv, 0)).collect();
        let mut j = Journal {
            invs: edges.iter().map(|&(p, c, e)| registration(p, c, e)).collect(),
            tree: SpawnTree::build(&edges),
            ..Journal::default()
        };
        let add = |inv: u64| {
            let lo = 1 + 2 * slot[inv as usize - 1];
            let kind = WriteKind::Add { delta: 1 };
            WriteRec { inv, loc: 8, lo, hi: lo + 1, kind, global: None }
        };
        j.writes = (1..=N).map(add).collect();
        let bound = (4.0 * N as f64 * (N as f64).log2()) as u64;

        COMPARISONS.with(|c| c.set(0));
        assert!(j.validate().is_empty(), "atomic adds never conflict with each other");
        let all_adds = COMPARISONS.with(Cell::get);
        assert!(all_adds <= bound, "{all_adds} comparisons for {N} atomic adds (bound {bound})");

        // One plain store mixed in, by the middle invocation: it
        // aborts iff some earlier-ranked add had not ended when it
        // began (and so does that add, whose sum it went into), and
        // every later-ranked add it did not precede aborts.
        let mid = N / 2;
        let store = {
            let WriteRec { lo, hi, .. } = add(mid);
            let kind = WriteKind::Store { old: 0, new: 0 };
            WriteRec { inv: mid, loc: 8, lo, hi, kind, global: None }
        };
        let expect: BTreeMap<u64, u64> = (1..=N)
            .filter(|&inv| match inv.cmp(&mid) {
                std::cmp::Ordering::Less => store.lo <= add(inv).hi,
                std::cmp::Ordering::Equal => (1..mid).any(|e| add(e).hi >= store.lo),
                std::cmp::Ordering::Greater => store.hi >= add(inv).lo,
            })
            .map(|inv| (inv, inv))
            .collect();
        j.writes[mid as usize - 1] = store;
        COMPARISONS.with(|c| c.set(0));
        assert_eq!(j.validate(), expect);
        assert!(expect.len() > 1000, "the store must conflict widely: {}", expect.len());
        let with_store = COMPARISONS.with(Cell::get);
        assert!(with_store <= bound, "{with_store} comparisons with a store (bound {bound})");
    }

    /// Two threads hammer one word with plain stores and
    /// `atomic-incf-cell`, four invocations between them. Every store
    /// yields the processor inside its open section, so the other
    /// thread is invited into the bracket even on one core; only the
    /// stripe keeps it out. The journal's brackets for the word must be
    /// disjoint and, taken in `lo` order, *be* the store order — and
    /// undoing any subset must leave the pre-run value with the
    /// survivors applied in that order.
    #[test]
    fn writes_to_one_word_from_two_threads_journal_in_store_order() {
        const PER_THREAD: i64 = 3000;
        let _g = guard();
        let heap = Heap::new();
        let c = heap.cons(Value::int(7), Value::NIL);
        let crate::value::Val::Cons(id) = c.decode() else { unreachable!("cons") };
        let pre = [(id << 1, Value::int(7).bits())];
        arm().unwrap();
        for inv in 1..=4 {
            root(inv, 0, &[]);
        }
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (heap, start) = (&heap, &start);
                s.spawn(move || {
                    curare_obs::set_lane(1 + t as usize);
                    start.wait();
                    for k in 0..PER_THREAD {
                        curare_obs::set_invocation(1 + t + 2 * (k as u64 % 2));
                        if k % 3 == 0 {
                            // `Heap::set_car`, with the window held open.
                            let new = Value::int(1000 * (t as i64 + 1) + k).bits();
                            let (sec, cell) =
                                (write_section(id << 1, None), heap.spec_loc_cell(id << 1));
                            let old = cell.load(Ordering::Acquire);
                            std::thread::yield_now();
                            cell.store(new, Ordering::Release);
                            sec.expect("armed, in an invocation").store(old, new);
                        } else {
                            heap.atomic_add_field(c, 0, 1 + t as i64).unwrap();
                        }
                    }
                });
            }
        });
        let mut j = Journal::default();
        j.absorb();
        disarm();
        assert_eq!(j.writes.len(), 2 * PER_THREAD as usize);
        j.writes.sort_by_key(|w| w.lo);
        assert!(j.writes.windows(2).all(|w| w[0].hi < w[1].lo), "brackets must be disjoint");
        // In `lo` order every store's `old` is what its predecessor
        // left, and the last write left what the heap holds.
        let mut val = pre[0].1;
        for w in &j.writes {
            if let WriteKind::Store { old, .. } = w.kind {
                assert_eq!(old, val, "ascending lo is not the store order");
            }
            let mut kind = w.kind;
            val = kind.redo(val);
        }
        assert_eq!(heap.car(c).unwrap().bits(), val);
        let all = j.writes.clone();
        let mut gone = BTreeSet::new();
        for set in [vec![3], vec![2], vec![1, 4]] {
            for &inv in &set {
                j.invs[j.tree.index(inv).unwrap()].doomed = true;
            }
            j.undo(&heap);
            j.invs.iter_mut().for_each(|s| s.doomed = false);
            gone.extend(set);
            assert_eq!(cell_values(&heap, &pre), survivors_applied(&pre, &all, &gone), "{gone:?}");
        }
        assert_eq!(heap.car(c).unwrap(), Value::int(7), "everything undone: the pre-run value");
    }
}
