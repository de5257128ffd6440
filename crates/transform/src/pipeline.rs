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

use std::sync::Arc;

use curare_analysis::{
    AnalysisStats, Analyzer, BlockReason, Cost, FunctionAnalysis, Placement, Verdict,
};
use curare_lisp::ast::{Func, Program};
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
    /// Locks inserted (the standalone §3.2.1 transform; the pipeline
    /// itself prefers the order-correct devices below).
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
    /// §6-style feedback text.
    pub feedback: String,
    /// Provenance for diagnostics: true when order-sensitive post-call
    /// statements survived delay but future synchronization refused
    /// them, leaving the function unconverted (C005).
    pub unsynced_tail: bool,
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
    coalesce_locks: bool,
    speculate: bool,
}

impl Curare {
    /// The default pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge adjacent lock brackets with identical lock sets when the
    /// lock device applies (coarser critical sections, fewer
    /// acquisitions; exclusion is unchanged). Off by default.
    pub fn with_coalesced_locks(mut self, on: bool) -> Self {
        self.coalesce_locks = on;
        self
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
        // Pass 1: lower the program once, then collect what its
        // functions share.
        let heap = Heap::new();
        let program = Lowerer::new(&heap)
            .lower_program(forms)
            .map_err(|e| PipelineError::Parse(e.to_string()))?;
        let analyzer =
            Analyzer::of_program(&program).map_err(|e| PipelineError::Decl(e.to_string()))?;
        let pass = Pass { config: *self, heap: &heap, analyzer: &analyzer };

        let (mut out_forms, mut reports) = (Vec::new(), Vec::new());
        let mut stats = AnalysisStats::default();
        let mut funcs = program.funcs.iter();
        for form in forms {
            if !form.is_call("defun") {
                out_forms.push(form.clone());
                continue;
            }
            let func = funcs.next().expect("pass 1 lowered one function per defun");
            let mut probes = Probes::for_defun(&heap, form).expect("pass 1 lowered this defun");
            // Device: reorder (cheapest, applied first). The analysis
            // is of the form it leaves.
            let reordered = reorder_transform(&heap, form, analyzer.decls());
            let analysis = if reordered.atomic_rewrites > 0 {
                analyzer.analyse(&*pass.lower(&reordered.form)?, &mut stats)
            } else {
                analyzer.analyse(func, &mut stats)
            };
            let transformed = pass.transform_defun(reordered, analysis, &mut probes, &mut stats);
            stats.probe_lowerings += probes.lowerings();
            let (mut produced, report) = transformed?;
            out_forms.append(&mut produced);
            reports.push(report);
        }
        Ok(CurareOutput { forms: out_forms, reports, stats, program, analyzer })
    }
}

/// One run of the pipeline over one program.
struct Pass<'a> {
    config: Curare,
    /// Where pass 1 registered the program's struct types: every later
    /// lowering (a probe, a rewritten defun) resolves accessors here.
    heap: &'a Heap,
    analyzer: &'a Analyzer,
}

impl Pass<'_> {
    /// Lower one defun the devices produced.
    fn lower(&self, form: &Sexpr) -> Result<Arc<Func>, PipelineError> {
        match Lowerer::new(self.heap).lower_toplevel(form) {
            Ok(TopForm::Func(f)) => Ok(f),
            _ => Err(PipelineError::Transform(format!("not a loadable defun: {form}"))),
        }
    }

    /// Pick the devices for one defun as the reorder device left it,
    /// `analysis` being the analysis of that form; may emit several
    /// forms (DPS emits the `-d` function plus a wrapper).
    ///
    /// One analysis serves the whole function: the verdict, delay's
    /// conflicting locations, the lock synthesis and the tail cost all
    /// read it. Only a device that rewrites the form makes it stale;
    /// the form is then analysed again if a later device asks. The
    /// report keeps `analysis` itself, whatever the devices did after.
    fn transform_defun(
        &self,
        reordered: ReorderResult,
        kept: FunctionAnalysis,
        probes: &mut Probes<'_>,
        stats: &mut AnalysisStats,
    ) -> Result<(Vec<Sexpr>, FunctionReport), PipelineError> {
        let made = |analysis: FunctionAnalysis, devices, converted, feedback, publication| {
            FunctionReport {
                name: analysis.name.clone(),
                verdict: analysis.verdict.clone(),
                devices,
                converted,
                feedback,
                unsynced_tail: false,
                publication,
                analysis,
                placement: None,
            }
        };
        let analysis = &kept;
        let name = analysis.name.as_str();
        let mut current = reordered.form;
        let mut devices = Vec::new();
        if reordered.atomic_rewrites > 0 {
            devices.push(Device::Reorder(reordered.atomic_rewrites));
        }
        let feedback = analysis.explain();
        let transform_err = |e: CriError| PipelineError::Transform(e.to_string());

        match &analysis.verdict {
            Verdict::NotRecursive => {
                return Ok((
                    vec![current],
                    made(kept, devices, false, feedback, Publication::Lazy),
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
                        let feedback = format!(
                            "{feedback}  applied destination-passing style (provenance-safe)\n"
                        );
                        let forms = vec![cri.form, dps.wrapper];
                        return Ok((forms, made(kept, devices, true, feedback, publication)));
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
                        let feedback = format!(
                            "{feedback}  applied reduction restructuring (operator {})\n",
                            fold.operator
                        );
                        let forms = vec![cri.form, fold.wrapper];
                        return Ok((forms, made(kept, devices, true, feedback, publication)));
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
                    if let Ok((cri, publication)) = self.convert(&current, Some(analysis)) {
                        devices.push(Device::Speculate);
                        devices.push(Device::Cri(cri.sites));
                        let feedback = format!(
                            "{feedback}  admitted to speculative execution (unproven write roots)\n"
                        );
                        return Ok((
                            vec![cri.form],
                            made(kept, devices, true, feedback, publication),
                        ));
                    }
                }
                return Ok((
                    vec![current],
                    made(kept, devices, false, feedback, Publication::Lazy),
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
        // `analysed` is the analysis of `current`; only delay, locks
        // and future sync rewrite the form, and only where it has a
        // tail.
        let mut analysed = Some(analysis);
        let delayed_analysis;
        let mut placement = None;
        if matches!(analysis.verdict, Verdict::NeedsSynchronization { .. }) {
            if !has_tail_statements(&current, name) {
                // All conflicting accesses precede the spawns: the
                // sequential execution of heads orders them (§3.2.2's
                // "the only inherent ordering").
                devices.push(Device::HeadOrdering);
            } else {
                // Device: delay.
                if let Some(delayed) = delay_transform(&current, analysis, probes) {
                    devices.push(Device::Delay(delayed.moved));
                    current = delayed.form;
                    analysed = None;
                }
                if has_tail_statements(&current, name) {
                    if analysed.is_none() {
                        delayed_analysis =
                            self.lower(&current).ok().map(|f| self.analyzer.analyse(&f, stats));
                        analysed = delayed_analysis.as_ref();
                    }
                    // Device: synthesized lock placement (§3.2.1).
                    // Future sync serializes the tails completely;
                    // when the conflict report certifies a minimal
                    // rw placement AND the tails are provably
                    // order-insensitive (or the programmer declared a
                    // placement), statement-scoped lock brackets keep
                    // the tails parallel instead.
                    let decls = self.analyzer.decls();
                    let locked = analysed.and_then(|a| {
                        lock_rescue(&current, a, decls, self.config.coalesce_locks, probes)
                    });
                    if let Some((locked, applied)) = locked {
                        devices.push(Device::Locks(locked.locks));
                        current = locked.form;
                        placement = Some(applied);
                        analysed = None;
                    } else {
                        // Device: future synchronization (§3.1) — tails
                        // must run in unwind order.
                        match future_sync(&current) {
                            Some(synced) => {
                                devices.push(Device::FutureSync(synced.wrapped));
                                current = synced.form;
                                analysed = None;
                            }
                            None => {
                                // SpecMode admission, case B: the tail
                                // is order-sensitive and future sync
                                // refused it — run it optimistically
                                // instead of sequentially.
                                if self.config.speculate {
                                    devices.push(Device::Speculate);
                                } else {
                                    let feedback = format!(
                                        "{feedback}  post-call conflicting statements could not be synchronized\n"
                                    );
                                    let refused =
                                        made(kept, devices, false, feedback, Publication::Lazy);
                                    return Ok((
                                        vec![current],
                                        FunctionReport { unsynced_tail: true, ..refused },
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }

        // CRI conversion.
        let (form, report) = match self.convert(&current, analysed) {
            Ok((cri, publication)) => {
                devices.push(Device::Cri(cri.sites));
                (cri.form, made(kept, devices, true, feedback, publication))
            }
            Err(e) => {
                let feedback = format!("{feedback}  CRI conversion failed: {e}\n");
                (current, made(kept, devices, false, feedback, Publication::Lazy))
            }
        };
        Ok((vec![form], FunctionReport { placement, ..report }))
    }

    /// CRI-convert `form` (already through its synchronization
    /// devices), deciding first — from the cost of its tail — where its
    /// spawns publish: a tail longer than a queue round trip gets
    /// `cri-handoff` sites, so the successor's head overlaps it (the
    /// §3.1 overlap); a shorter one keeps `cri-enqueue`, whose
    /// successor is batched — and usually chained, queue-free — when
    /// the invocation ends. `analysed` is the analysis of `form`
    /// itself where one is still current; a form the devices rewrote
    /// is lowered for its partition alone.
    fn convert(
        &self,
        form: &Sexpr,
        analysed: Option<&FunctionAnalysis>,
    ) -> Result<(CriResult, Publication), CriError> {
        // Interprocedural cost of the tail (§3.1 partition), callee
        // bodies taken from the input program's table. With no enqueue
        // site to publish early (every call was future-synchronized, or
        // the function is hand-written CRI) there is nothing to cost.
        let tail_cost = match analysed {
            _ if !has_site(form) => Cost::Bounded(0),
            Some(a) => a.head_tail.tail_cost,
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
    use super::*;

    fn run(src: &str) -> CurareOutput {
        Curare::new().transform_source(src).unwrap()
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
    fn coalesced_locks_emit_fewer_brackets_same_placement() {
        let src = "(curare-declare (reorderable *))
             (defun f (l)
               (when (cdr l)
                 (f (cdr l))
                 (setf (car l) (* (car l) 2))
                 (setf (car l) (* (car l) 3))
                 (setf (cadr l) (* (cadr l) 5))))";
        let fine = run(src);
        let fused = Curare::new().with_coalesced_locks(true).transform_source(src).unwrap();
        for out in [&fine, &fused] {
            let r = out.report("f").unwrap();
            assert!(r.devices.iter().any(|d| matches!(d, Device::Locks(_))), "{:?}", r.devices);
        }
        let brackets = |out: &CurareOutput| out.source().matches("(cri-lock ").count();
        assert!(brackets(&fused) < brackets(&fine), "{} !< {}", brackets(&fused), brackets(&fine));
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.feedback.contains("verdict"), "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.feedback.contains("*sum*"), "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
            assert!(r.converted, "{}", r.feedback);
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
            assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
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
        assert!(r.converted, "{}", r.feedback);
        assert_eq!(r.devices, vec![Device::FutureSync(1), Device::Cri(0)]);
    }
}
