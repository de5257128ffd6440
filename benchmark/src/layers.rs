//! The front-end layers a pass cannot time from outside because
//! `Curare::transform_forms` runs them internally: lowering, the
//! analysis passes one by one, lock synthesis, and the checker. Each
//! public entry point is called on the workload's own source and timed
//! here, so `transform.transform_us` can be read against its parts.

use curare::analysis::{
    analyze_conflicts, analyze_program, collect_accesses, head_tail, synthesize,
    transfer_functions, OrderingContext, Verdict,
};
use curare::check::{check_locks_source, check_source};
use curare::lisp::{Heap, Lowerer};
use curare::sexpr::parse_all;

use crate::pass::now_ns;
use crate::workload::Workload;

/// One repetition's timings (ns) and the counts read after the calls.
#[derive(Default)]
pub struct LayerSample {
    pub lower_ns: u64,
    pub analyze_ns: u64,
    pub access_ns: u64,
    pub transfer_ns: u64,
    pub conflict_ns: u64,
    pub headtail_ns: u64,
    pub locksynth_ns: u64,
    pub check_ns: u64,
    pub check_locks_ns: u64,
    pub functions: u64,
    pub conflicts_found: u64,
    pub diagnostics: u64,
    /// |H| and |T| of the first entry's function, for the §4.1 formula.
    pub entry_head: u64,
    pub entry_tail: u64,
}

fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = now_ns();
    let v = f();
    *slot += now_ns() - t0;
    v
}

/// `lower_program` then `analyze_program` on `w`'s source: the clock
/// readings before, between and after, for the traced run's `lower`
/// and `analyse` spans.
pub fn lower_then_analyse(w: &Workload) -> Result<[u64; 3], String> {
    let forms = parse_all(&w.source).map_err(|e| e.to_string())?;
    let heap = Heap::new();
    let t0 = now_ns();
    let prog = Lowerer::new(&heap).lower_program(&forms).map_err(|e| e.to_string())?;
    let t1 = now_ns();
    analyze_program(&prog).map_err(|e| e.to_string())?;
    Ok([t0, t1, now_ns()])
}

pub fn sample(w: &Workload) -> Result<LayerSample, String> {
    let mut s = LayerSample::default();
    let forms = parse_all(&w.source).map_err(|e| e.to_string())?;
    let heap = Heap::new();
    let prog = timed(&mut s.lower_ns, || Lowerer::new(&heap).lower_program(&forms))
        .map_err(|e| e.to_string())?;
    let analyses =
        timed(&mut s.analyze_ns, || analyze_program(&prog)).map_err(|e| e.to_string())?;
    for func in &prog.funcs {
        timed(&mut s.access_ns, || collect_accesses(func));
        timed(&mut s.transfer_ns, || transfer_functions(func));
        timed(&mut s.conflict_ns, || analyze_conflicts(func));
        timed(&mut s.headtail_ns, || head_tail(func));
    }
    for (func, analysis) in prog.funcs.iter().zip(&analyses) {
        // The pipeline synthesises a placement only where conflicts
        // need synchronising.
        if matches!(analysis.verdict, Verdict::NeedsSynchronization { .. }) {
            let params: Vec<&str> = func.params.iter().map(String::as_str).collect();
            timed(&mut s.locksynth_ns, || synthesize(analysis, &params, OrderingContext::cri()));
        }
    }
    let diags = timed(&mut s.check_ns, || check_source(w.name, &w.source)).map_err(|e| e.0)?;
    timed(&mut s.check_locks_ns, || check_locks_source(w.name, &w.source)).map_err(|e| e.0)?;
    s.functions = prog.funcs.len() as u64;
    s.conflicts_found = analyses.iter().map(|a| a.conflicts.conflicts.len() as u64).sum();
    s.diagnostics = diags.diags.len() as u64;
    if let Some(a) = analyses.iter().find(|a| a.name == w.entries[0].name) {
        s.entry_head = a.head_tail.head_size as u64;
        s.entry_tail = a.head_tail.tail_size as u64;
    }
    Ok(s)
}
