//! The Curare driver: analysis → device selection → CRI conversion.
//!
//! [`Curare::transform_forms`] is the one front door to a restructuring
//! and [`CurareOutput`] the one record of it. The door lowers the
//! program once ([`Lowerer::lower_program`]: struct types first),
//! prepares what its functions share once ([`Analyzer::of_program`]:
//! declarations, canonicalizer, call costs) and analyses each `defun`
//! through that; the record keeps all of it — the lowered
//! [`Program`], the [`Analyzer`], and in each [`FunctionReport`] the
//! analysis its verdict was read from and the lock placement in force —
//! so that `curare analyze`, `curare check`, the lock certifier and the
//! sanitizer read what the devices were chosen from instead of
//! deriving a program, a declaration database or a placement of their
//! own.
//!
//! For each `defun` of a program the pipeline picks the cheapest
//! correctness device the paper describes, in the §3.2 cost order
//! (locking is most general and most expensive, delays cheaper,
//! reordering cheapest):
//!
//! 1. **reorder** (§3.2.3) — declared-commutative accumulations become
//!    atomic updates before anything else runs;
//! 2. conflict analysis (§2) over the (possibly rewritten) function;
//! 3. if the function's conflicting accesses all precede its recursive
//!    calls, the sequential execution of heads already orders them —
//!    no synchronization is inserted;
//! 4. otherwise **delay** (§3.2.2) tries to move the offending
//!    statements into the head;
//! 5. otherwise **locks** (§3.2.1) are inserted;
//! 6. finally the recursive calls become queue insertions (**CRI**,
//!    §3.1/§4), ready for the server-pool runtime.
//!
//! Functions blocked because they consume recursive results go through
//! the §5 enabling transformations: destination-passing style when the
//! result is list construction, with the DPS provenance guarantee
//! letting the pipeline skip conflict synthesis on the fresh
//! destination cells.
//!
//! Lowering and preparing the program is pass 1, on the calling thread.
//! Pass 2 is one job per `defun` — reorder, the analysis, the devices
//! and CRI conversion — and a job reads only pass 1's program, analyzer
//! and heap, and writes only the forms, report and counts it returns.
//! For each `FAN_OUT_THRESHOLD` lowered nodes the defuns beside the
//! largest one hold, the calling thread takes one more of the host's
//! threads to help run the jobs. The results are put back in input
//! order and the counts summed; where a job fails or panics, the first
//! such job in input order decides, as in a loop on one thread. Either
//! path gives the same text, reports and counts (DESIGN.md,
//! "Restructuring on several threads").

use std::borrow::Cow;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use curare_analysis::{
    AnalysisStats, Analyzer, BlockReason, Cost, FunctionAnalysis, Placement, Verdict,
};
use curare_lisp::ast::{Expr, Func, Program};
use curare_lisp::lower::TopForm;
use curare_lisp::{Heap, Lowerer};
use curare_sexpr::{parse_all, pretty, Sexpr};

use crate::cri::{cri_convert, cri_convert_handoff, has_site, CriError, CriResult};
use crate::delay::{delay_transform, has_tail_statements, Probes};
use crate::dps::dps_transform;
use crate::fold::fold_to_walker;
use crate::futuresync::future_sync;
use crate::locks::{lock_rescue, LockSpec};
use crate::reorder::{reorder_transform, ReorderResult};

/// Which device(s) the pipeline applied to a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Device {
    /// Commutative updates rewritten to atomic ones (count).
    Reorder(usize),
    /// Conflicts resolved by sequential head execution; nothing added.
    HeadOrdering,
    /// Statements moved into the head (count).
    Delay(usize),
    /// Locks inserted (§3.2.1): tail statements that still conflict
    /// after delay, under a certified synthesised placement (or a
    /// declared one) and an order-insensitive tail, get lock brackets,
    /// one per run of statements with the same lock set; tried before
    /// future synchronization, which serializes the tails instead.
    Locks(Vec<LockSpec>),
    /// Post-call statements synchronized with `(touch (future …))`
    /// (count of wrapped call sites).
    FutureSync(usize),
    /// Rewritten to destination-passing style.
    Dps,
    /// Rewritten from a linear reduction to an accumulating walker
    /// (§5, Huet–Lang-style; requires a reorderable operator).
    Fold,
    /// Admitted to optimistic execution under `SpecMode`: conflicts
    /// are statically unproven (⊤-write, unsyncable tail, or
    /// alias-contingent cross-parameter accesses), so the invocations
    /// run in parallel journaled, and the runtime's commit-time
    /// validator aborts/replays any that contradict sequential order.
    Speculate,
    /// Converted to CRI enqueue form (call-site count).
    Cri(usize),
}

/// Per-function outcome.
#[derive(Debug, Clone)]
pub struct FunctionReport {
    /// Function name.
    pub name: String,
    /// Analysis verdict (after reorder rewrites).
    pub verdict: Verdict,
    /// Devices applied, in order.
    pub devices: Vec<Device>,
    /// Whether the function was converted for concurrent execution.
    pub converted: bool,
    /// What the devices add to the analysis's account of the function:
    /// the rescue that converted it, or why they stopped.
    pub note: Option<Note>,
    /// Where a converted function's spawns publish, and the cost
    /// estimate that decided it.
    pub publication: Publication,
    /// The analysis `verdict` was read from: of the defun as written,
    /// or as the reorder device left it.
    pub analysis: FunctionAnalysis,
    /// The lock placement in force — the one [`Device::Locks`]'
    /// brackets were written from, derived from the analysis of the
    /// form as it stood when they were (after delay, where delay moved
    /// statements). `None` unless the device applied.
    pub placement: Option<Placement>,
}

impl FunctionReport {
    /// §6-style feedback: the analysis's explanation of the function,
    /// then the note, one line.
    pub fn feedback(&self) -> String {
        let mut text = self.analysis.explain();
        if let Some(note) = &self.note {
            text.push_str(&format!("  {note}\n"));
        }
        text
    }
}

/// What the devices did to a function beyond its analysis, or why they
/// stopped: the line [`FunctionReport::feedback`] adds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Note {
    /// Rescued by destination-passing style (§5).
    Dps,
    /// Rescued by reduction restructuring (§5) over `operator`.
    Fold {
        /// The combining operator.
        operator: String,
    },
    /// Admitted to speculative execution: the only refusal was writes
    /// with unproven roots.
    SpeculatedUnprovenWrites,
    /// Order-sensitive post-call statements survived delay and future
    /// synchronization refused them, leaving the function unconverted
    /// (C005).
    UnsyncedTail,
    /// CRI conversion refused the form the devices left.
    CriFailed(CriError),
}

impl std::fmt::Display for Note {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Note::Dps => write!(f, "applied destination-passing style (provenance-safe)"),
            Note::Fold { operator } => {
                write!(f, "applied reduction restructuring (operator {operator})")
            }
            Note::SpeculatedUnprovenWrites => {
                write!(f, "admitted to speculative execution (unproven write roots)")
            }
            Note::UnsyncedTail => {
                write!(f, "post-call conflicting statements could not be synchronized")
            }
            Note::CriFailed(e) => write!(f, "CRI conversion failed: {e}"),
        }
    }
}

/// A tail must cost more than this many units (AST nodes, callee
/// bodies included — [`curare_analysis::HeadTail::tail_cost`]) for its
/// function's spawns to be handed off. The price being weighed is one
/// queue round trip: a published task costs the pool ≈ 1.1–1.3 µs that
/// a chained one does not (pending count, site lock, wake check, the
/// idle server's pop or steal), the VM retires an op in ≈ 11 ns, so
/// the break-even tail is ≈ 110 ops — and arithmetic, the densest code
/// there is, compiles four units to one fused op. Sparser code reaches
/// the threshold later in time, which errs towards the cheap path.
/// EXPERIMENTS.md ("E13") has the measured crossover this rounds.
pub const HANDOFF_THRESHOLD: usize = 500;

/// When the successors a converted function spawns become runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Publication {
    /// `cri-enqueue`: buffered until the spawning invocation ends,
    /// then published as one batch — or, for a lone successor, run
    /// next on the same server without touching a queue.
    Lazy,
    /// `cri-handoff`: published at the spawn, because the tail that
    /// follows costs more than a queue round trip.
    Handoff {
        /// The tail's interprocedural cost.
        tail_cost: Cost,
        /// The [`HANDOFF_THRESHOLD`] it exceeded.
        threshold: usize,
    },
}

impl std::fmt::Display for Publication {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Publication::Lazy => write!(f, "lazy"),
            Publication::Handoff { tail_cost, threshold } => {
                write!(f, "hand-off (tail cost {tail_cost} > {threshold})")
            }
        }
    }
}

/// The whole transformation's output: the restructured text, and the
/// record of what it was restructured from.
#[derive(Debug, Clone, Default)]
pub struct CurareOutput {
    /// Transformed top-level forms, in input order.
    pub forms: Vec<Sexpr>,
    /// One report per input defun, in `program.funcs` order.
    pub reports: Vec<FunctionReport>,
    /// How much analysis the whole transformation took.
    pub stats: AnalysisStats,
    /// The input program as the pipeline lowered it.
    pub program: Program,
    /// What the program's functions share, as every analysis in
    /// `reports` saw it: declarations, canonicalizer, call costs.
    pub analyzer: Analyzer,
}

impl CurareOutput {
    /// Pretty-printed transformed program.
    pub fn source(&self) -> String {
        let mut out = String::new();
        for f in &self.forms {
            out.push_str(&pretty(f));
            out.push_str("\n\n");
        }
        out
    }

    /// The report for `name`, if that function existed.
    pub fn report(&self, name: &str) -> Option<&FunctionReport> {
        self.reports.iter().find(|r| r.name == name)
    }
}

/// Pipeline errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Source did not parse.
    Parse(String),
    /// Declarations were malformed.
    Decl(String),
    /// A transform failed unexpectedly.
    Transform(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Parse(m) => write!(f, "parse error: {m}"),
            PipelineError::Decl(m) => write!(f, "declaration error: {m}"),
            PipelineError::Transform(m) => write!(f, "transform error: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The Curare transformer: the configuration of a restructuring.
#[derive(Debug, Clone, Copy, Default)]
pub struct Curare {
    speculate: bool,
}

impl Curare {
    /// The default pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admit statically unprovable functions to optimistic execution
    /// (`SpecMode`, `curare run --speculate`): instead of refusing a
    /// ⊤-write or an unsyncable tail, convert to plain CRI form and
    /// mark the function [`Device::Speculate`] — the runtime journals
    /// its heap accesses and aborts/replays conflicting invocations at
    /// commit time. Proven devices (head ordering, certified locks,
    /// future synchronization) are still preferred where they apply.
    /// Off by default.
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculate = on;
        self
    }

    /// Transform a whole program's source text.
    pub fn transform_source(&self, src: &str) -> Result<CurareOutput, PipelineError> {
        let forms = parse_all(src).map_err(|e| PipelineError::Parse(e.to_string()))?;
        self.transform_forms(&forms)
    }

    /// Transform parsed top-level forms.
    pub fn transform_forms(&self, forms: &[Sexpr]) -> Result<CurareOutput, PipelineError> {
        self.transform_scheduled(forms, |program| Schedule::of(program, host_threads()))
    }

    /// [`Curare::transform_forms`], its defuns restructured as
    /// `schedule` says from pass 1's program.
    fn transform_scheduled(
        &self,
        forms: &[Sexpr],
        schedule: impl FnOnce(&Program) -> Schedule,
    ) -> Result<CurareOutput, PipelineError> {
        // Pass 1: lower the program once, then collect what its
        // functions share.
        let heap = Heap::new();
        let program = Lowerer::new(&heap)
            .lower_program(forms)
            .map_err(|e| PipelineError::Parse(e.to_string()))?;
        let analyzer =
            Analyzer::of_program(&program).map_err(|e| PipelineError::Decl(e.to_string()))?;
        let pass = Pass { config: *self, heap: &heap, analyzer: &analyzer };

        // Pass 2: one job per defun, each reading only what pass 1 made.
        let defuns: Vec<&Sexpr> = forms.iter().filter(|f| f.is_call("defun")).collect();
        assert_eq!(defuns.len(), program.funcs.len(), "pass 1 lowers one function per defun");
        let Schedule { order, threads } = schedule(&program);
        let done = fan_out(&order, threads, |i| pass.defun(defuns[i], &program.funcs[i]))?;

        let mut done = done.into_iter();
        let mut out_forms = Vec::with_capacity(forms.len());
        let mut reports = Vec::with_capacity(defuns.len());
        let mut stats = AnalysisStats::default();
        for form in forms {
            if !form.is_call("defun") {
                out_forms.push(form.clone());
                continue;
            }
            let (produced, report, spent) = done.next().expect("one result per defun");
            out_forms.extend(produced);
            reports.push(report);
            stats += spent;
        }
        Ok(CurareOutput { forms: out_forms, reports, stats, program, analyzer })
    }
}

/// Each thread beyond the calling one is started for this many lowered
/// nodes ([`Func::size`]) of the defuns beside the largest: the work a
/// helper can take must outweigh starting it. A helper starts running
/// 50–90 µs after the spawn, and the two vCPUs of the host measured
/// share a core, so each thread runs ≈ 30 % slower while both are busy.
/// The defun loop of the benchmark's 72-defun corpus spends ≈ 0.55 µs
/// per node (4226 nodes, ≈ 3.4k beside its largest), so 1000 nodes
/// handed over are several thread starts' worth; at the cheapest rate
/// measured, ≈ 0.05 µs per node of a straight-line helper that is not
/// recursive, they are one.
const FAN_OUT_THRESHOLD: usize = 1000;

/// How pass 2 runs a program's defuns: the order jobs are claimed in,
/// and on how many threads.
struct Schedule {
    order: Vec<usize>,
    threads: usize,
}

impl Schedule {
    /// In input order, on the calling thread and one more for each
    /// [`FAN_OUT_THRESHOLD`] nodes beside the largest defun — at most
    /// the `host`'s threads, and one per defun.
    fn of(program: &Program, host: usize) -> Schedule {
        let sizes = program.funcs.iter().map(|f| f.size());
        let (total, largest) = sizes.fold((0, 0), |(t, l), n| (t + n, l.max(n)));
        let grain = 1 + (total - largest) / FAN_OUT_THRESHOLD;
        let jobs = program.funcs.len();
        Schedule { order: (0..jobs).collect(), threads: grain.min(host).min(jobs).max(1) }
    }
}

/// The threads the host gives this process (its affinity mask and CPU
/// quota), read once: reading them costs ≈ 20 µs of system calls.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Run `job(i)` for each job `i` of `order`, claimed in that order from
/// one counter by up to `threads` threads, the calling thread one of
/// them. The outcome is the sequential loop's: the results in job order,
/// whatever order they finished in, unless a job failed or panicked —
/// then the first such job in job order decides, its error returned or
/// its panic resumed, and no job after it is started once it is known.
fn fan_out<T: Send>(
    order: &[usize],
    threads: usize,
    job: impl Fn(usize) -> Result<T, PipelineError> + Sync,
) -> Result<Vec<T>, PipelineError> {
    // Relaxed: the counters hand out and skip indices and publish
    // nothing; a helper's results reach this thread through `join`.
    let next = AtomicUsize::new(0);
    let first_failed = AtomicUsize::new(usize::MAX);
    let claim = || {
        let mut finished = Vec::with_capacity(order.len());
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            if i > first_failed.load(Ordering::Relaxed) {
                continue;
            }
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| job(i)));
            if !matches!(outcome, Ok(Ok(_))) {
                first_failed.fetch_min(i, Ordering::Relaxed);
            }
            finished.push((i, outcome));
        }
        finished
    };
    let finished = std::thread::scope(|s| {
        // A helper the OS refuses is one fewer: this thread claims every
        // job no helper does.
        let helpers: Vec<_> = (1..threads)
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, claim).ok())
            .collect();
        let mut finished = claim();
        for helper in helpers {
            finished.extend(helper.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        finished
    });
    let mut slots: Vec<Option<std::thread::Result<_>>> = order.iter().map(|_| None).collect();
    for (i, outcome) in finished {
        slots[i] = Some(outcome);
    }
    // `collect` stops at the first error, and a job is skipped only
    // after one before it failed.
    slots
        .into_iter()
        .map(|slot| match slot.expect("every job up to the first failure ran") {
            Ok(result) => result,
            Err(panic) => std::panic::resume_unwind(panic),
        })
        .collect()
}

/// What one defun's job gives back: its forms, its report, and the
/// analysis work it did.
type Job = (Vec<Sexpr>, FunctionReport, AnalysisStats);

/// One run of the pipeline over one program.
struct Pass<'a> {
    config: Curare,
    /// Where pass 1 registered the program's struct types: every later
    /// lowering (a rewritten defun, a probe) resolves accessors here.
    heap: &'a Heap,
    analyzer: &'a Analyzer,
}

/// A form the devices read, with its lowering and that lowering's
/// analysis.
type Lowered<'a> = (&'a Func, &'a FunctionAnalysis);

impl Pass<'_> {
    /// The job of the defun `form`, lowered by pass 1 as `func`. It reads
    /// only the pass — the program's heap and analyzer — and writes only
    /// what it returns.
    fn defun(&self, form: &Sexpr, func: &Func) -> Result<Job, PipelineError> {
        let mut stats = AnalysisStats::default();
        // Device: reorder (cheapest, applied first). The analysis is of
        // the form it leaves: pass 1's, unless it rewrote one.
        let reordered = reorder_transform(self.heap, form, self.analyzer.decls());
        let rewritten;
        let lowered = match &reordered.form {
            Cow::Borrowed(_) => func,
            Cow::Owned(form) => {
                rewritten = self.lower(form)?;
                &rewritten
            }
        };
        let analysis = self.analyzer.analyse(lowered, &mut stats);
        let (forms, report) = self.transform_defun(reordered, lowered, analysis, &mut stats)?;
        Ok((forms, report, stats))
    }

    /// Lower one defun the devices produced.
    fn lower(&self, form: &Sexpr) -> Result<Arc<Func>, PipelineError> {
        match Lowerer::new(self.heap).lower_toplevel(form) {
            Ok(TopForm::Func(f)) => Ok(f),
            _ => Err(PipelineError::Transform(format!("not a loadable defun: {form}"))),
        }
    }

    /// Pick the devices for one defun as the reorder device left it,
    /// `lowered` being its lowering and `kept` the analysis of that; may
    /// emit several forms (DPS emits the `-d` function plus a wrapper).
    ///
    /// One analysis serves the whole function: the verdict, delay's
    /// conflicting locations, the lock synthesis and the tail cost all
    /// read it, and the devices' questions about its statements are
    /// answered from the lowering it was made from. Only a device that
    /// rewrites the form makes them stale; the form is then lowered and
    /// analysed again if a later device asks. The report keeps `kept`
    /// itself, whatever the devices did after.
    fn transform_defun(
        &self,
        reordered: ReorderResult<'_>,
        lowered: &Func,
        kept: FunctionAnalysis,
        stats: &mut AnalysisStats,
    ) -> Result<(Vec<Sexpr>, FunctionReport), PipelineError> {
        let made =
            |analysis: FunctionAnalysis, devices, converted, note, publication| FunctionReport {
                name: analysis.name.clone(),
                verdict: analysis.verdict.clone(),
                devices,
                converted,
                note,
                publication,
                analysis,
                placement: None,
            };
        let analysis = &kept;
        let name = analysis.name.as_str();
        let mut current = reordered.form;
        let mut devices = Vec::new();
        if reordered.atomic_rewrites > 0 {
            devices.push(Device::Reorder(reordered.atomic_rewrites));
        }
        let transform_err = |e: CriError| PipelineError::Transform(e.to_string());

        match &analysis.verdict {
            Verdict::NotRecursive => {
                return Ok((
                    vec![current.into_owned()],
                    made(kept, devices, false, None, Publication::Lazy),
                ));
            }
            Verdict::Blocked => {
                // §5 enabling transformation: DPS for cons-shaped
                // result users.
                if analysis.reasons.contains(&BlockReason::UsesCallResult) {
                    if let Ok(dps) = dps_transform(&current) {
                        devices.push(Device::Dps);
                        // Provenance: the destination writes are
                        // per-invocation fresh cells — skip conflict
                        // synthesis and convert directly.
                        let (cri, publication) =
                            self.convert(&dps.dps_form, None).map_err(transform_err)?;
                        devices.push(Device::Cri(cri.sites));
                        let note = Some(Note::Dps);
                        let forms = vec![cri.form, dps.wrapper];
                        return Ok((forms, made(kept, devices, true, note, publication)));
                    }
                    // §5 again: a declared-reorderable linear reduction
                    // becomes an accumulating walker, whose update the
                    // reorder pass then makes atomic.
                    if let Ok(fold) = fold_to_walker(&current, self.analyzer.decls()) {
                        devices.push(Device::Fold);
                        let walker =
                            reorder_transform(self.heap, &fold.walker, self.analyzer.decls());
                        if walker.atomic_rewrites > 0 {
                            devices.push(Device::Reorder(walker.atomic_rewrites));
                        }
                        let (cri, publication) =
                            self.convert(&walker.form, None).map_err(transform_err)?;
                        devices.push(Device::Cri(cri.sites));
                        let note = Some(Note::Fold { operator: fold.operator });
                        let forms = vec![cri.form, fold.wrapper];
                        return Ok((forms, made(kept, devices, true, note, publication)));
                    }
                }
                // SpecMode admission, case A: blocked *only* by writes
                // the analysis cannot resolve (⊤-write). The static
                // refusal is a may-conflict, not a will-conflict: run
                // the invocations optimistically and let the runtime
                // validator catch any real collision.
                if self.config.speculate
                    && !analysis.reasons.is_empty()
                    && analysis.reasons.iter().all(|r| matches!(r, BlockReason::UnknownWrite))
                {
                    let tail_cost = Some(analysis.head_tail.tail_cost);
                    if let Ok((cri, publication)) = self.convert(&current, tail_cost) {
                        devices.push(Device::Speculate);
                        devices.push(Device::Cri(cri.sites));
                        let note = Some(Note::SpeculatedUnprovenWrites);
                        return Ok((vec![cri.form], made(kept, devices, true, note, publication)));
                    }
                }
                return Ok((
                    vec![current.into_owned()],
                    made(kept, devices, false, None, Publication::Lazy),
                ));
            }
            Verdict::ConflictFree | Verdict::NeedsSynchronization { .. } => {}
        }

        // SpecMode admission, case C: a conflict-free verdict whose
        // accesses span several parameter roots rests on the
        // single-access-path premise that the roots never alias. Under
        // speculation mark such functions so the journaled run is
        // validated — under-declared aliasing then aborts and replays
        // instead of silently diverging from the sequential answer.
        if self.config.speculate && matches!(analysis.verdict, Verdict::ConflictFree) {
            let roots: std::collections::BTreeSet<usize> =
                analysis.accesses.records.iter().map(|r| r.root).collect();
            if analysis.accesses.writes().next().is_some() && roots.len() >= 2 {
                devices.push(Device::Speculate);
            }
        }

        // Synchronization device selection for real conflicts. The
        // ordering fact that drives it: in sequential recursion,
        // statements *before* the recursive call execute in invocation
        // order, while statements *after* it execute in reverse
        // (unwind) order. Head ordering and delay serve the first
        // class; future synchronization reproduces the second.
        //
        // `tail_cost` is the tail cost of `current` where it is known
        // without lowering it; only delay, locks and future sync
        // rewrite the form, and only where it has a tail.
        let mut tail_cost = Some(analysis.head_tail.tail_cost);
        let mut placement = None;
        if matches!(analysis.verdict, Verdict::NeedsSynchronization { .. }) {
            if !has_tail_statements(&current, name) {
                // All conflicting accesses precede the spawns: the
                // sequential execution of heads orders them (§3.2.2's
                // "the only inherent ordering").
                devices.push(Device::HeadOrdering);
            } else {
                // Device: delay.
                let mut probes = Probes::new(self.heap, &current, lowered);
                let delayed = delay_transform(&current, analysis, &mut probes);
                stats.probe_lowerings += probes.lowerings();
                let delayed_func;
                let delayed_analysis;
                let mut source: Option<Lowered<'_>> = Some((lowered, analysis));
                // A form delay left as it was still has the tail found
                // above; only a rewritten one is asked again.
                let tail_remains = match delayed {
                    Some(delayed) => {
                        devices.push(Device::Delay(delayed.moved));
                        current = Cow::Owned(delayed.form);
                        (tail_cost, source) = (None, None);
                        has_tail_statements(&current, name)
                    }
                    None => true,
                };
                if tail_remains {
                    if source.is_none() {
                        delayed_func = self.lower(&current).ok();
                        delayed_analysis =
                            delayed_func.as_deref().map(|f| self.analyzer.analyse(f, stats));
                        source = delayed_func.as_deref().zip(delayed_analysis.as_ref());
                        tail_cost = source.map(|(_, a)| a.head_tail.tail_cost);
                    }
                    // Device: synthesized lock placement (§3.2.1).
                    // Future sync serializes the tails completely;
                    // when the conflict report certifies a minimal
                    // rw placement AND the tails are provably
                    // order-insensitive (or the programmer declared a
                    // placement), statement-scoped lock brackets keep
                    // the tails parallel instead.
                    let locked = source.and_then(|lowered| self.lock(&current, lowered, stats));
                    if let Some((form, locks, applied, bracketed_tail)) = locked {
                        devices.push(Device::Locks(locks));
                        current = Cow::Owned(form);
                        placement = Some(applied);
                        tail_cost = bracketed_tail;
                    } else {
                        // Device: future synchronization (§3.1) — tails
                        // must run in unwind order.
                        match future_sync(&current) {
                            Some(synced) => {
                                devices.push(Device::FutureSync(synced.wrapped));
                                current = Cow::Owned(synced.form);
                                tail_cost = None;
                            }
                            None => {
                                // SpecMode admission, case B: the tail
                                // is order-sensitive and future sync
                                // refused it — run it optimistically
                                // instead of sequentially.
                                if self.config.speculate {
                                    devices.push(Device::Speculate);
                                } else {
                                    let note = Some(Note::UnsyncedTail);
                                    let refused =
                                        made(kept, devices, false, note, Publication::Lazy);
                                    return Ok((vec![current.into_owned()], refused));
                                }
                            }
                        }
                    }
                }
            }
        }

        // CRI conversion.
        let (form, report) = match self.convert(&current, tail_cost) {
            Ok((cri, publication)) => {
                devices.push(Device::Cri(cri.sites));
                (cri.form, made(kept, devices, true, None, publication))
            }
            Err(e) => {
                let note = Some(Note::CriFailed(e));
                (current.into_owned(), made(kept, devices, false, note, Publication::Lazy))
            }
        };
        Ok((vec![form], FunctionReport { placement, ..report }))
    }

    /// The lock device on `form`, whose lowering and its analysis are
    /// `lowered`: the bracketed form, its locks, the placement they
    /// were written from, and the tail cost of the bracketed form —
    /// the analysed partition with each bracket's steps on its
    /// statement's side, or `None` where a bracketed statement has no
    /// node of its own in the lowering.
    fn lock(
        &self,
        form: &Sexpr,
        (func, analysis): Lowered<'_>,
        stats: &mut AnalysisStats,
    ) -> Option<(Sexpr, Vec<LockSpec>, Placement, Option<Cost>)> {
        let mut probes = Probes::new(self.heap, form, func);
        let decls = self.analyzer.decls();
        let rescued = lock_rescue(form, analysis, decls, &mut probes);
        stats.probe_lowerings += probes.lowerings();
        let (locked, applied) = rescued?;
        let brackets: Option<Vec<(&Expr, usize)>> = locked
            .brackets
            .iter()
            .map(|&(stmt, steps)| Some((probes.lowered(stmt)?, steps)))
            .collect();
        let bracketed = brackets.map(|b| self.analyzer.head_tail_bracketed(func, &b));
        #[cfg(test)]
        tests::priced(
            &bracketed,
            self.lower(&locked.form).ok().map(|f| self.analyzer.head_tail(&f)),
        );
        Some((locked.form, locked.locks, applied, bracketed.map(|h| h.tail_cost)))
    }

    /// CRI-convert `form` (already through its synchronization
    /// devices), deciding first — from the cost of its tail — where its
    /// spawns publish: a tail longer than a queue round trip gets
    /// `cri-handoff` sites, so the successor's head overlaps it (the
    /// §3.1 overlap); a shorter one keeps `cri-enqueue`, whose
    /// successor is batched — and usually chained, queue-free — when
    /// the invocation ends. `tail_cost` is the cost of `form`'s tail
    /// where it is known; a form the devices rewrote otherwise is
    /// lowered for its partition alone.
    fn convert(
        &self,
        form: &Sexpr,
        tail_cost: Option<Cost>,
    ) -> Result<(CriResult, Publication), CriError> {
        // Interprocedural cost of the tail (§3.1 partition), callee
        // bodies taken from the input program's table. With no enqueue
        // site to publish early (every call was future-synchronized, or
        // the function is hand-written CRI) there is nothing to cost.
        let tail_cost = match tail_cost {
            _ if !has_site(form) => Cost::Bounded(0),
            Some(cost) => cost,
            None => {
                self.lower(form).map_or(Cost::Bounded(0), |f| self.analyzer.head_tail(&f).tail_cost)
            }
        };
        if tail_cost <= Cost::Bounded(HANDOFF_THRESHOLD) {
            return Ok((cri_convert(form)?, Publication::Lazy));
        }
        let publication = Publication::Handoff { tail_cost, threshold: HANDOFF_THRESHOLD };
        Ok((cri_convert_handoff(form)?, publication))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use curare_analysis::HeadTail;
    use curare_sexpr::Symbol;
    use curare_testkit::Rng;

    use super::*;

    fn run(src: &str) -> CurareOutput {
        Curare::new().transform_source(src).unwrap()
    }

    /// `curare` on `src`, its defuns' jobs claimed in `order(jobs)` by
    /// `threads` threads.
    fn scheduled(
        curare: Curare,
        src: &str,
        threads: usize,
        order: impl FnOnce(usize) -> Vec<usize>,
    ) -> Result<CurareOutput, PipelineError> {
        let forms = parse_all(src).map_err(|e| PipelineError::Parse(e.to_string()))?;
        curare.transform_scheduled(&forms, |p| Schedule { order: order(p.funcs.len()), threads })
    }

    /// What may not depend on the order the jobs ran in: the text, every
    /// field of every report (the analysis and placement included) and
    /// the stats — or the error.
    fn observed(out: &Result<CurareOutput, PipelineError>) -> String {
        match out {
            Ok(out) => format!("{}{:?}\n{:?}", out.source(), out.reports, out.stats),
            Err(e) => format!("error: {e}"),
        }
    }

    /// `0..n` in an order drawn from `rng`.
    fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        v
    }

    /// The golden file's window walker `win-k-reads`: doubles its own car
    /// after the call, then `reads` sums of sixteen loads over the cars
    /// `k` and `k + 1` ahead.
    fn window_walker(k: usize, reads: usize) -> String {
        let cdrs = |n: usize| (0..n).fold("l".to_string(), |l, _| format!("(cdr {l})"));
        let (near, far) = (cdrs(k), cdrs(k + 1));
        let sum_of = |word: &str| format!("(+{}) ", format!(" (car {word})").repeat(16));
        let mut body = String::new();
        for _ in 0..reads / 2 {
            for word in [&near, &near, &far, &far] {
                body.push_str(&sum_of(word));
            }
        }
        format!(
            "(defun win-{k}-{reads} (l)
               (when {far}
                 (win-{k}-{reads} (cdr l))
                 (setf (car l) (* (car l) 2))
                 {body}))\n"
        )
    }

    const WALKER_PAIRS: [(usize, usize); 6] = [(1, 2), (1, 4), (2, 2), (2, 4), (4, 2), (4, 4)];

    /// The golden file's six window walkers in one program.
    fn window_walkers() -> String {
        let walkers = WALKER_PAIRS.map(|(k, reads)| window_walker(k, reads)).concat();
        format!("(curare-declare (reorderable *))\n{walkers}")
    }

    /// `programs` as one: their forms one after another, the defuns of
    /// the `j`th renamed apart with the suffix `-j` wherever their names
    /// appear, a `defstruct` or declaration that repeats one before it
    /// left out.
    fn concatenated(programs: &[&str]) -> String {
        fn renamed(form: &Sexpr, names: &[Symbol], j: usize) -> Sexpr {
            match form {
                Sexpr::Sym(s) if names.contains(s) => Sexpr::sym(format!("{s}-{j}")),
                Sexpr::List(items) => {
                    Sexpr::List(items.iter().map(|f| renamed(f, names, j)).collect())
                }
                Sexpr::Dotted(items, tail) => Sexpr::Dotted(
                    items.iter().map(|f| renamed(f, names, j)).collect(),
                    Box::new(renamed(tail, names, j)),
                ),
                other => other.clone(),
            }
        }
        let mut seen = std::collections::HashSet::new();
        let mut out = String::new();
        for (j, src) in programs.iter().enumerate() {
            let forms = parse_all(src).unwrap();
            let names: Vec<Symbol> =
                forms.iter().filter_map(|f| f.call_args("defun")?.first()?.symbol()).collect();
            for form in forms.iter().map(|f| renamed(f, &names, j)) {
                let shared = form.is_call("defstruct") || form.is_call("curare-declare");
                if !shared || seen.insert(form.to_string()) {
                    out.push_str(&format!("{form}\n"));
                }
            }
        }
        out
    }

    /// The restructured text, every report and the stats are the same
    /// whatever order the defuns' jobs run in: input order, reversed,
    /// shuffled, all on this thread — and as a two-thread host runs them.
    /// Over every shipped program, the golden file's window walkers, and
    /// 300 programs of 2–6 of those that have a defun (each walker on its
    /// own), concatenated and renamed apart; plain and speculating.
    #[test]
    fn the_output_does_not_depend_on_the_order_jobs_run_in() {
        let mut pool: Vec<String> = crate::shipped_programs().into_iter().map(|(_, s)| s).collect();
        let mut programs = pool.clone();
        programs.push(window_walkers());
        pool.retain(|src| src.contains("(defun "));
        pool.extend(WALKER_PAIRS.map(|(k, reads)| {
            format!("(curare-declare (reorderable *))\n{}", window_walker(k, reads))
        }));
        let rng = &mut Rng::new(0x2929_5eed);
        for _ in 0..300 {
            let picks: Vec<&str> =
                (0..2 + rng.below(5)).map(|_| rng.pick(&pool).as_str()).collect();
            programs.push(concatenated(&picks));
        }
        let (mut restructured, mut fanned_out) = (0, 0);
        for src in &programs {
            for curare in [Curare::new(), Curare::new().with_speculation(true)] {
                let in_order = scheduled(curare, src, 1, |n| (0..n).collect());
                let want = observed(&in_order);
                let at = rng.clone();
                let mut permuted = vec![
                    ("reversed", scheduled(curare, src, 1, |n| (0..n).rev().collect())),
                    ("shuffled", scheduled(curare, src, 1, |n| shuffled(rng, n))),
                ];
                // As a two-thread host runs them, where they fan out.
                if let Ok(out) = &in_order {
                    let fanned = Schedule::of(&out.program, 2);
                    if fanned.threads > 1 {
                        let forms = parse_all(src).unwrap();
                        let out = curare.transform_scheduled(&forms, |_| fanned);
                        permuted.push(("fanned out", out));
                        fanned_out += 1;
                    }
                }
                for (how, out) in &permuted {
                    assert!(
                        observed(out) == want,
                        "{how} (shuffle from {at:?}), speculate = {}: the output moved on\n{src}",
                        curare.speculate
                    );
                }
                restructured += usize::from(in_order.is_ok_and(|o| o.reports.len() > 1));
            }
        }
        assert!(restructured >= 400, "{restructured} multi-defun restructurings");
        assert!(fanned_out >= 30, "{fanned_out} restructurings fanned out");
    }

    /// A job's analysis work is counted once, whichever job did it: three
    /// copies of a program renamed apart cost three times one copy.
    #[test]
    fn the_stats_are_the_sum_over_every_defun() {
        for (name, src) in crate::shipped_programs() {
            let Ok(alone) = Curare::new().transform_source(&src) else { continue };
            let copies = Curare::new().transform_source(&concatenated(&[&src, &src, &src]));
            let copies = copies.unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut thrice = AnalysisStats::default();
            for _ in 0..3 {
                thrice += alone.stats;
            }
            assert_eq!(copies.stats, thrice, "{name}");
            assert_eq!(copies.reports.len(), 3 * alone.reports.len(), "{name}");
        }
    }

    /// The fan-out hands results back in job order and the first error in
    /// job order, whatever order the jobs were claimed and finished in —
    /// a job after it that panics included.
    #[test]
    fn fan_out_answers_in_job_order() {
        let rng = &mut Rng::new(0x0bad_5eed);
        let fails = |i: usize| PipelineError::Transform(format!("job {i}"));
        for threads in [1, 2, 3] {
            for order in [(0..40).collect(), (0..40).rev().collect(), shuffled(rng, 40)] {
                let squares = fan_out(&order, threads, |i| Ok(i * i));
                assert_eq!(squares, Ok((0..40).map(|i| i * i).collect()), "{order:?}");
                let failed = fan_out(&order, threads, |i| match i {
                    7 | 23 | 31 => Err(fails(i)),
                    29 => panic!("job {i} panicked"),
                    _ => Ok(i),
                });
                assert_eq!(failed, Err(fails(7)), "{threads} threads, {order:?}");
            }
        }
        // Claimed in job order, no job after the failing one runs.
        let last = AtomicUsize::new(0);
        let failed = fan_out(&(0..40).collect::<Vec<_>>(), 1, |i| {
            last.fetch_max(i, Ordering::Relaxed);
            if i == 7 {
                Err(fails(i))
            } else {
                Ok(i)
            }
        });
        assert_eq!((failed, last.into_inner()), (Err(fails(7)), 7));
    }

    /// A job's panic reaches the caller with its payload, on whichever
    /// thread it ran — also where a job after it failed first in time.
    #[test]
    fn a_panicking_job_panics_the_caller() {
        for threads in [1, 2, 3] {
            for order in [(0..8).collect(), (0..8).rev().collect::<Vec<usize>>()] {
                let job = |i| match i {
                    5 => panic!("job {i} panicked"),
                    6 => Err(PipelineError::Transform(format!("job {i}"))),
                    _ => Ok(i),
                };
                let caught = std::panic::catch_unwind(|| fan_out(&order, threads, job));
                let payload = caught.expect_err("the panic propagates");
                let message = payload.downcast_ref::<String>().map(String::as_str);
                assert_eq!(message, Some("job 5 panicked"), "{threads} threads, {order:?}");
            }
        }
    }

    /// The benchmark's other workloads run programs shaped like these:
    /// their work beside the largest defun is below the threshold, so
    /// they keep to the calling thread whatever the host. The six window
    /// walkers cross it, and fan out to the host's threads.
    #[test]
    fn only_programs_past_the_threshold_fan_out() {
        let program = |src: &str| run(src).program;
        let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lisp");
        for file in ["tail_heavy.lisp", "figure5.lisp", "fixtures/scrub.lisp"] {
            let src = std::fs::read_to_string(examples.join(file)).unwrap();
            assert_eq!(Schedule::of(&program(&src), 4).threads, 1, "{file}");
        }
        // `tail_heavy`'s program: a 512-step helper is its largest defun.
        assert_eq!(Schedule::of(&program(&th_source(512)), 4).threads, 1);
        for (_, src) in crate::shipped_programs() {
            if let Ok(out) = Curare::new().transform_source(&src) {
                assert_eq!(Schedule::of(&out.program, 4).threads, 1, "{src}");
            }
        }
        // The walkers hold 2918 nodes, 2060 beside the largest: two
        // helpers' worth.
        let walkers = program(&window_walkers());
        let fanned = Schedule::of(&walkers, 2);
        assert_eq!((fanned.threads, fanned.order), (2, (0..6).collect()));
        assert_eq!(Schedule::of(&walkers, 1).threads, 1, "a host of one thread");
        assert_eq!(Schedule::of(&walkers, 64).threads, 3, "one thread per 1000 nodes beside");
        let twice = program(&concatenated(&[&window_walkers(), &window_walkers()]));
        assert_eq!(Schedule::of(&twice, 64).threads, 5, "4978 nodes beside the largest");
        let two = |reads| {
            let walker = format!("(curare-declare (reorderable *))\n{}", window_walker(4, reads));
            Schedule::of(&program(&concatenated(&[&walker, &walker])), 64).threads
        };
        assert_eq!(two(4), 1, "858 nodes beside the largest");
        assert_eq!(two(12), 2, "two jobs, however many nodes they hold");
    }

    thread_local! {
        /// Each lock-rescued form's partition as the pipeline priced it
        /// and as relowering the bracketed form gives it.
        static PRICED: RefCell<Vec<(Option<HeadTail>, Option<HeadTail>)>> = RefCell::default();
    }

    pub(super) fn priced(bracketed: &Option<HeadTail>, relowered: Option<HeadTail>) {
        PRICED.with(|p| p.borrow_mut().push((bracketed.clone(), relowered)));
    }

    /// The tail cost of a lock-bracketed function is read off the
    /// partition the pipeline already analysed, each bracket's steps on
    /// its statement's side: it must be the partition of the bracketed
    /// form, lowered — on every placement the shipped programs and the
    /// commutative tail writers get, a bracket holding one statement or
    /// a run of them.
    #[test]
    fn the_bracket_priced_partition_is_the_relowered_one() {
        let tail_rmws = "(curare-declare (reorderable *))
             (defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (car l)
                 (setf (car l) (* (car l) 2))
                 (setf (car l) (* (car l) 3))
                 (setf (cadr l) (* (cadr l) 5))))";
        // The benchmark's read-window walker at k = 1.
        let window = "(curare-declare (reorderable *))
             (defun win (l)
               (when (cdr (cdr l))
                 (win (cdr l))
                 (setf (car l) (* (car l) 2))
                 (+ (car (cdr l)) (car (cdr l)))
                 (+ (car (cdr (cdr l))) (car (cdr (cdr l))))))";
        // The walker at k = 2, its reads in runs of two, under the
        // synthesised placement and under a declared all-exclusive one:
        // brackets that hold a run of statements.
        let runs = "(defun win (l)
               (when (cdr (cdr (cdr l)))
                 (win (cdr l))
                 (setf (car l) (* (car l) 2))
                 (+ (car (cdr (cdr l))) 1)
                 (+ (car (cdr (cdr l))) 2)
                 (+ (car (cdr (cdr (cdr l)))) 3)
                 (+ (car (cdr (cdr (cdr l)))) 4)))";
        let declared = "(curare-declare (locks win (exclusive l car) (exclusive l cdr.cdr.car)
                                           (exclusive l cdr.cdr.cdr.car)))";
        let mut programs = crate::shipped_programs();
        programs.push(("tail RMWs".into(), tail_rmws.into()));
        programs.push(("window walker".into(), window.into()));
        programs.push((
            "window walker, runs".into(),
            format!("(curare-declare (reorderable *)) {runs}"),
        ));
        programs.push(("window walker, runs, declared".into(), format!("{declared} {runs}")));
        PRICED.with(|p| p.borrow_mut().clear());
        for (name, src) in &programs {
            for curare in [Curare::new(), Curare::new().with_speculation(true)] {
                // On this thread, where `PRICED` records.
                scheduled(curare, src, 1, |n| (0..n).collect())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
        let priced = PRICED.with(|p| p.take());
        let mut tail_brackets = 0;
        for (bracketed, relowered) in &priced {
            let bracketed = bracketed.as_ref().expect("every bracketed statement has a node");
            assert_eq!(Some(bracketed), relowered.as_ref());
            tail_brackets += usize::from(bracketed.tail_cost != Cost::Bounded(0));
        }
        assert!(priced.len() >= 9 && tail_brackets >= 9, "{} placements", priced.len());
    }

    #[test]
    fn figure_3_converts_without_synchronization() {
        let out = run("(defun f (l) (when l (print (car l)) (f (cdr l))))");
        let r = out.report("f").unwrap();
        assert!(r.converted);
        assert_eq!(r.verdict, Verdict::ConflictFree);
        assert!(r.devices.iter().any(|d| matches!(d, Device::Cri(1))));
        assert!(!r.devices.iter().any(|d| matches!(d, Device::Locks(_))));
        assert!(out.source().contains("cri-enqueue"));
    }

    #[test]
    fn figure_5_conflicts_resolved_by_head_ordering() {
        // The setf precedes the recursive call: head execution order
        // already serializes the conflicting accesses.
        let out = run("(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert_eq!(r.verdict, Verdict::NeedsSynchronization { min_distance: 1 });
        assert!(r.devices.contains(&Device::HeadOrdering), "{:?}", r.devices);
        assert!(!r.devices.iter().any(|d| matches!(d, Device::Locks(_))));
    }

    #[test]
    fn order_sensitive_accumulator_uses_future_sync() {
        // The stationary accumulator's post-call update conflicts at
        // every distance AND is order-sensitive (unwind order), so
        // delay must refuse and future-sync must take over.
        let out = run("(defun f (acc l)
               (when l
                 (f acc (cdr l))
                 (setf (car acc) (+ (car acc) (car l)))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert!(r.devices.iter().any(|d| matches!(d, Device::FutureSync(1))), "{:?}", r.devices);
        assert!(!r.devices.iter().any(|d| matches!(d, Device::Delay(_))), "{:?}", r.devices);
    }

    #[test]
    fn commutative_tail_rmws_get_synthesized_lock_placement() {
        // Post-call writes at depths 0 and 1 conflict across
        // invocations, but both are declared-commutative RMWs: the
        // synthesized rw placement keeps the tails parallel instead of
        // future-sync serializing them.
        let out = run("(curare-declare (reorderable *))
             (defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (setf (car l) (* (car l) 2))
                 (setf (cadr l) (* (cadr l) 3))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback());
        let locks = r.devices.iter().find_map(|d| match d {
            Device::Locks(l) => Some(l.clone()),
            _ => None,
        });
        let locks = locks.unwrap_or_else(|| panic!("expected Device::Locks: {:?}", r.devices));
        assert_eq!(locks.len(), 2, "{locks:?}");
        assert!(!r.devices.iter().any(|d| matches!(d, Device::FutureSync(_))), "{:?}", r.devices);
        assert!(out.source().contains("cri-lock"), "{}", out.source());
        assert!(out.source().contains("cri-enqueue"), "{}", out.source());
    }

    #[test]
    fn declared_lock_placement_is_applied_by_pipeline() {
        // The order-sensitive accumulator normally future-syncs; a
        // declared placement overrides that (and `curare check --locks`
        // is where the declaration gets audited).
        let out = run("(curare-declare (locks f (exclusive l car) (exclusive l cdr.car)))
             (defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (setf (cadr l) (+ (car l) (cadr l)))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert!(r.devices.iter().any(|d| matches!(d, Device::Locks(_))), "{:?}", r.devices);
        assert!(!r.devices.iter().any(|d| matches!(d, Device::FutureSync(_))), "{:?}", r.devices);
    }

    #[test]
    fn delay_moves_only_conflict_free_tail_statements() {
        // Mixed tail: a conflict-free write (car l) moves into the
        // head; the conflicting accumulator write stays and gets
        // future-synced.
        let out = run("(defun f (acc l)
               (when l
                 (f acc (cdr l))
                 (setf (car l) 0)
                 (setf (car acc) (+ (car acc) (car l)))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert!(r.devices.iter().any(|d| matches!(d, Device::Delay(1))), "{:?}", r.devices);
        assert!(r.devices.iter().any(|d| matches!(d, Device::FutureSync(1))), "{:?}", r.devices);
        let text = out.source();
        // The moved write precedes the future-wrapped call.
        let w = text.find("(setf (car l) 0)").expect("kept");
        let call = text.find("(touch (future").expect("synced");
        assert!(w < call, "{text}");
    }

    #[test]
    fn conflict_free_post_call_write_needs_nothing() {
        // Writing (car l) after recursing on (cdr l) touches a cell no
        // other invocation touches: conflict-free, no devices beyond
        // CRI conversion.
        let out = run("(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (car l) 0)))");
        let r = out.report("f").unwrap();
        assert!(r.converted);
        assert_eq!(r.verdict, Verdict::ConflictFree);
        assert_eq!(r.devices, vec![Device::Cri(1)]);
    }

    #[test]
    fn unmovable_post_call_write_gets_future_sync() {
        // The write overlaps the call argument, so delay refuses;
        // unwind order must be reproduced with future + touch.
        let out = run("(defun f (l)
               (when l
                 (f (cdr l))
                 (setf (cdr l) (car l))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert!(r.devices.iter().any(|d| matches!(d, Device::FutureSync(1))), "{:?}", r.devices);
        let text = out.source();
        assert!(text.contains("(touch (future (f (cdr l))))"), "{text}");
    }

    #[test]
    fn commutative_cell_update_becomes_atomic_and_parallel() {
        // A post-call commutative accumulation into a shared cell:
        // the declaration dissolves the conflict entirely (§3.2.3) —
        // no future-sync, full CRI concurrency.
        let out = run("(curare-declare (reorderable +))
             (defun f (acc l)
               (when l
                 (f acc (cdr l))
                 (setf (car acc) (+ (car acc) (car l)))))");
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert!(r.devices.iter().any(|d| matches!(d, Device::Reorder(1))), "{:?}", r.devices);
        assert!(
            !r.devices.iter().any(|d| matches!(d, Device::FutureSync(_))),
            "conflict should be dissolved: {:?}",
            r.devices
        );
        let text = out.source();
        assert!(text.contains("atomic-incf-cell"), "{text}");
        assert!(text.contains("cri-enqueue"), "{text}");
    }

    #[test]
    fn remq_goes_through_dps() {
        let out = run("(defun remq (obj lst)
               (cond ((null lst) nil)
                     ((eq obj (car lst)) (remq obj (cdr lst)))
                     (t (cons (car lst) (remq obj (cdr lst))))))");
        let r = out.report("remq").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert!(r.devices.contains(&Device::Dps));
        let text = out.source();
        assert!(text.contains("remq-d"), "{text}");
        assert!(text.contains("cri-enqueue"), "{text}");
        // Both the -d function and the wrapper are emitted.
        assert_eq!(out.forms.len(), 2);
    }

    #[test]
    fn sum_fold_stays_blocked_with_feedback() {
        let out = run("(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))");
        let r = out.report("sum").unwrap();
        assert!(!r.converted);
        assert_eq!(r.verdict, Verdict::Blocked);
        assert!(r.feedback().contains("verdict"), "{}", r.feedback());
        // Output is the unchanged function.
        assert!(out.source().contains("(sum (cdr l))"));
    }

    #[test]
    fn reorderable_global_sum_converts() {
        let out = run("(curare-declare (reorderable +))
             (defun walk (l)
               (when l
                 (setq *sum* (+ *sum* (car l)))
                 (walk (cdr l))))");
        let r = out.report("walk").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert!(r.devices.iter().any(|d| matches!(d, Device::Reorder(1))), "{:?}", r.devices);
        assert!(out.source().contains("atomic-incf"));
    }

    #[test]
    fn without_declaration_global_sum_blocked() {
        let out = run("(defun walk (l)
               (when l
                 (setq *sum* (+ *sum* (car l)))
                 (walk (cdr l))))");
        let r = out.report("walk").unwrap();
        assert!(!r.converted);
        assert!(r.feedback().contains("*sum*"), "{}", r.feedback());
    }

    #[test]
    fn dont_transform_respected() {
        let out = run("(curare-declare (dont-transform f))
             (defun f (l) (when l (print (car l)) (f (cdr l))))");
        let r = out.report("f").unwrap();
        assert!(!r.converted);
        assert!(!out.source().contains("cri-enqueue"));
    }

    #[test]
    fn non_defun_forms_pass_through() {
        let out = run("(defparameter *x* 5)
             (defstruct node next value)
             (curare-declare (reorderable +))
             (defun g (x) (* x x))");
        assert_eq!(out.forms.len(), 4);
        assert!(out.source().contains("defparameter"));
        assert!(out.source().contains("defstruct"));
    }

    #[test]
    fn transformed_program_runs_equivalently_sequentially() {
        // End-to-end: transform Figure 5 and run both versions under
        // sequential hooks; results must agree (sequentializability).
        let src = "(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))";
        let out = run(src);
        let orig = curare_lisp::Interp::new();
        orig.load_str(src).unwrap();
        let xformed = curare_lisp::Interp::new();
        xformed.load_str(&out.source()).unwrap();
        let driver = "(let ((d (list 1 1 1 1 1))) (f d) d)";
        let a = orig.load_str(driver).unwrap();
        let b = xformed.load_str(driver).unwrap();
        assert_eq!(orig.heap().display(a), xformed.heap().display(b));
    }

    #[test]
    fn speculation_admits_unknown_write_roots() {
        // `(car (frob l))` hides the write root behind a call: ⊤-write,
        // Blocked without speculation, plain CRI + Speculate with it.
        let src = "(defun frob (l) l)
             (defun scrub (l)
               (when (consp l)
                 (scrub (cdr l))
                 (setf (car (frob l)) 0)))";
        let plain = run(src);
        assert!(!plain.report("scrub").unwrap().converted);
        let out = Curare::new().with_speculation(true).transform_source(src).unwrap();
        let r = out.report("scrub").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert_eq!(r.verdict, Verdict::Blocked);
        assert!(r.devices.contains(&Device::Speculate), "{:?}", r.devices);
        assert!(r.devices.iter().any(|d| matches!(d, Device::Cri(1))), "{:?}", r.devices);
        assert!(out.source().contains("cri-enqueue"), "{}", out.source());
        // No synchronization device rides along: speculation runs the
        // body as-is and the runtime validator carries correctness.
        assert!(!out.source().contains("future"), "{}", out.source());
        assert!(!out.source().contains("cri-lock"), "{}", out.source());
    }

    #[test]
    fn speculation_marks_alias_contingent_conflict_free_functions() {
        // Cross-parameter write/read: conflict-free only under the
        // no-aliasing premise, so SpecMode marks it for validation.
        let src = "(defun mix (a b)
               (when (consp b)
                 (mix (cddr a) (cdr b))
                 (setf (car b) (car a))))";
        let out = Curare::new().with_speculation(true).transform_source(src).unwrap();
        let r = out.report("mix").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert_eq!(r.verdict, Verdict::ConflictFree);
        assert!(r.devices.contains(&Device::Speculate), "{:?}", r.devices);
        // Single-root conflict-free functions stay unmarked.
        let out2 = Curare::new()
            .with_speculation(true)
            .transform_source("(defun f (l) (when l (f (cdr l)) (setf (car l) 0)))")
            .unwrap();
        assert!(!out2.report("f").unwrap().devices.contains(&Device::Speculate));
    }

    #[test]
    fn speculation_leaves_blocked_value_users_alone() {
        // UsesCallResult is not a may-conflict — speculation cannot
        // run a consumer before its producer's value exists (DPS/fold
        // already serve this class), so `sum` stays blocked.
        let out = Curare::new()
            .with_speculation(true)
            .transform_source("(defun sum (l) (if (null l) 0 (+ (car l) (sum (cdr l)))))")
            .unwrap();
        let r = out.report("sum").unwrap();
        assert!(!r.devices.contains(&Device::Speculate), "{:?}", r.devices);
    }

    #[test]
    fn speculation_keeps_proven_devices() {
        // Future sync applies and is certified: speculation must not
        // displace it.
        let out = Curare::new()
            .with_speculation(true)
            .transform_source(
                "(defun f (l)
                   (when l
                     (f (cdr l))
                     (setf (cdr l) (car l))))",
            )
            .unwrap();
        let r = out.report("f").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert!(r.devices.iter().any(|d| matches!(d, Device::FutureSync(1))), "{:?}", r.devices);
    }

    /// The benchmark's `tail_heavy` program: `pad` fused steps in a
    /// helper the tail calls.
    fn th_source(pad: usize) -> String {
        format!(
            "(defun th-crunch (v) (let ((x v)) {} x))
             (defun th (l)
               (when l
                 (th (cdr l))
                 (setf (car l) (th-crunch (car l)))))",
            "(setq x (+ x 1)) ".repeat(pad)
        )
    }

    #[test]
    fn tiny_tails_stay_lazy() {
        // Figure 5 (no tail at all) and a padded head-heavy walker
        // (all its work precedes the call): a successor published
        // early would have nothing to overlap with, so both keep the
        // batch-and-chain form.
        let figure5 = run("(defun f (l)
               (cond ((null l) nil)
                     ((null (cdr l)) (f (cdr l)))
                     (t (setf (cadr l) (+ (car l) (cadr l)))
                        (f (cdr l)))))");
        let padded = run(&format!(
            "(defun padded (l)
               (when l
                 (let ((x 0)) {} x)
                 (padded (cdr l))))",
            "(setq x (1+ x)) ".repeat(64)
        ));
        // A short tail (one write) is below the price of a round trip.
        let short = run("(defun f (l) (when l (f (cdr l)) (setf (car l) 0)))");
        for (out, name) in [(&figure5, "f"), (&padded, "padded"), (&short, "f")] {
            let r = out.report(name).unwrap();
            assert!(r.converted, "{}", r.feedback());
            assert_eq!(r.publication, Publication::Lazy, "{name}");
            assert!(out.source().contains("(cri-enqueue "), "{}", out.source());
            assert!(!out.source().contains("cri-handoff"), "{}", out.source());
        }
    }

    #[test]
    fn heavy_tails_are_handed_off() {
        // 512 steps in a helper the tail calls: the interprocedural
        // cost sees through the call.
        let out = run(&th_source(512));
        let r = out.report("th").unwrap();
        assert_eq!(
            r.publication,
            Publication::Handoff { tail_cost: Cost::Bounded(2056), threshold: HANDOFF_THRESHOLD }
        );
        assert_eq!(r.devices, vec![Device::Cri(1)], "the choice is not a device");
        assert!(out.source().contains("(cri-handoff 0 th (cdr l))"), "{}", out.source());
        assert!(!out.source().contains("cri-enqueue"), "{}", out.source());
        // The same helper with 64 steps (≈ 0.8 µs) is not worth a round trip.
        assert_eq!(run(&th_source(64)).report("th").unwrap().publication, Publication::Lazy);

        // A loop in the tail, and a tail calling a recursive helper,
        // have no static bound: both count as long.
        let looping = run("(defun f (l)
               (when l
                 (f (cdr l))
                 (let ((n (car l))) (while (> n 0) (setq n (- n 1))))))");
        let recursive = run("(defun len (l) (if (null l) 0 (+ 1 (len (cdr l)))))
             (defun f (l)
               (when l
                 (f (cdr l))
                 (setf (car l) (len (car l)))))");
        for out in [&looping, &recursive] {
            let r = out.report("f").unwrap();
            assert!(r.converted, "{}", r.feedback());
            assert_eq!(
                r.publication,
                Publication::Handoff { tail_cost: Cost::Unbounded, threshold: HANDOFF_THRESHOLD }
            );
            assert!(out.source().contains("(cri-handoff 0 f (cdr l))"), "{}", out.source());
        }
    }

    #[test]
    fn every_site_of_a_handed_off_function_is_a_handoff() {
        let out = run(&format!(
            "{}
             (defun walk (tr)
               (when tr
                 (walk (car tr))
                 (walk (cdr tr))
                 (th-crunch 1)))",
            th_source(512)
        ));
        let text = out.source();
        assert!(text.contains("(cri-handoff 0 walk (car tr))"), "{text}");
        assert!(text.contains("(cri-handoff 1 walk (cdr tr))"), "{text}");
    }

    #[test]
    fn the_publication_verdict_is_a_function_of_the_text() {
        // Two transformers, same source: same text, same reports (the
        // benchmark's set-up refuses to measure otherwise).
        let src =
            format!("{}\n(defun g (l) (when l (g (cdr l)) (setf (car l) 0)))", th_source(512));
        let (a, b) = (run(&src), run(&src));
        assert_eq!(a.source(), b.source());
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra.publication, rb.publication, "{}", ra.name);
        }
        assert_eq!(Publication::Lazy.to_string(), "lazy");
        assert_eq!(
            a.report("th").unwrap().publication.to_string(),
            "hand-off (tail cost 2056 > 500)"
        );
    }

    #[test]
    fn reorder_leaves_local_accumulators_loadable() {
        // The defect the benchmark found: with `+` declared
        // reorderable, `(setq x (+ x 1))` on a *local* `x` became
        // `(atomic-incf x 1)` and the output failed to load.
        let src = "(curare-declare (reorderable +))
             (defparameter *steps* 0)
             (defun padded (l)
               (when l
                 (let ((x 0)) (setq x (+ x 1)) (setq x (+ x 1)) (setq *steps* (+ *steps* x)))
                 (padded (cdr l))))";
        let out = run(src);
        let r = out.report("padded").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert!(r.devices.contains(&Device::Reorder(1)), "only the global: {:?}", r.devices);
        let text = out.source();
        assert!(text.contains("(setq x (+ x 1))") && text.contains("(atomic-incf *steps* x)"));
        let it = curare_lisp::Interp::new();
        it.load_str(&text).expect("the restructured program loads");
        it.load_str("(padded '(1 2 3))").unwrap();
        assert_eq!(it.heap().display(it.load_str("*steps*").unwrap()), "6");
    }

    #[test]
    fn canonical_conflicts_keep_an_order_sensitive_tail_write_in_place() {
        // The write `pred.value` conflicts with the previous
        // invocation's read `value` only once succ.pred cancels. Every
        // device reads the canonical report the verdict was made from:
        // delay must not hoist the write (sequentially the tails run in
        // unwind order), and no plain-path lock placement covers the
        // pair, so the function is future-synchronised.
        let out = run("(defstruct dl succ pred value)
             (curare-declare (inverse succ pred))
             (defun back (n)
               (when n
                 (back (dl-succ n))
                 (when (dl-pred n)
                   (setf (dl-value (dl-pred n)) (dl-value n)))))");
        let r = out.report("back").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert_eq!(r.verdict, Verdict::NeedsSynchronization { min_distance: 1 });
        assert_eq!(r.devices, vec![Device::FutureSync(1), Device::Cri(0)]);
        assert!(out.source().contains("(touch (future (back (dl-succ n))))"), "{}", out.source());
    }

    #[test]
    fn struct_program_transforms() {
        let out = run("(defstruct node next value)
             (defun bump-all (n)
               (when n
                 (setf (node-value n) (1+ (node-value n)))
                 (bump-all (node-next n))))");
        let r = out.report("bump-all").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert!(out.source().contains("cri-enqueue"));
    }

    #[test]
    fn a_spawn_in_a_loop_is_never_head_ordered() {
        // The write precedes the call in the text, but the second trip's
        // write follows the first trip's spawn: head ordering (and a
        // vacuous lock gate) would let both children read the final
        // value. The unwind order needs a future.
        let out = run("(defun w (l k)
               (when l
                 (print (car l))
                 (while (> k 0)
                   (setq k (- k 1))
                   (setf (car (cdr l)) (+ (car (cdr l)) 1))
                   (w (cdr l) 0))))");
        let r = out.report("w").unwrap();
        assert!(r.converted, "{}", r.feedback());
        assert_eq!(r.devices, vec![Device::FutureSync(1), Device::Cri(0)]);
    }
}
