//! One pass: what `curare run FILE --servers S --call …` does, in
//! process, with a clock read at every layer boundary.
//!
//! source text → `parse_all` → `Curare::transform_forms` (together:
//! `transform_source`) → `CurareOutput::source` → fresh
//! `Interp::load_str` → inputs built in the heap →
//! `CriRuntime::with_config` → `run` per entry → pool dropped. The
//! clock stops, then the result is verified against the Rust
//! reference. The same pass then runs the *untransformed* source on a
//! plain interpreter over identically built inputs: the sequential
//! baseline a user would otherwise run, held to the same reference.

use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Instant;

use curare::lisp::{vm_stats, Interp, Value, VmStats};
use curare::runtime::{CriRuntime, PoolStats, RuntimeConfig, SchedMode};
use curare::sexpr::parse_all;
use curare::transform::{Curare, CurareOutput, Device};

use crate::programs::Family;
use crate::workload::{Built, Workload};

/// Nanoseconds since the first call in this process; the time base of
/// every stage timing and span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The stages that tile the pool half of a pass, in order.
/// `restructure` is the first four; `e2e` is all eight.
pub const STAGES: [&str; 8] =
    ["parse", "transform", "print", "load", "input", "pool_create", "run", "pool_drop"];
pub const PARSE: usize = 0;
pub const TRANSFORM: usize = 1;
pub const PRINT: usize = 2;
pub const LOAD: usize = 3;
pub const INPUT: usize = 4;
pub const POOL_CREATE: usize = 5;
pub const RUN: usize = 6;
pub const POOL_DROP: usize = 7;

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[derive(Clone, Copy)]
pub struct PoolSetup {
    pub servers: usize,
    pub mode: SchedMode,
}

/// Timings and counters of the pool half of one verified pass.
pub struct PoolPass {
    /// When the pass began, on the [`now_ns`] clock.
    pub start_ns: u64,
    /// Duration of each of [`STAGES`].
    pub stage_ns: [u64; 8],
    /// The pool run of each entry (they sum to the `run` stage).
    pub entry_run_ns: Vec<u64>,
    /// Pool counters read after the last run, before the pool drops.
    pub stats: PoolStats,
    /// Cons cells reserved in the pool interpreter's heap.
    pub heap_conses: u64,
}

impl PoolPass {
    pub fn e2e_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }

    pub fn stage_ms(&self, stage: usize) -> f64 {
        ms(self.stage_ns[stage])
    }

    pub fn e2e_ms(&self) -> f64 {
        ms(self.e2e_ns())
    }

    pub fn restructure_ms(&self) -> f64 {
        ms(self.stage_ns[..=LOAD].iter().sum())
    }
}

/// The sequential baseline of one verified pass.
pub struct SeqPass {
    /// When the calls began, and how long they took (load and input
    /// building excluded, as in the pool's `run` stage).
    pub start_ns: u64,
    pub ns: u64,
    /// VM counters of the calls alone.
    pub vm: VmStats,
}

/// What restructuring decided, as counts that must repeat exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct Restructured {
    /// The transformed program text.
    pub text: String,
    pub forms: u64,
    pub recursive: u64,
    pub converted: u64,
    /// Occurrences of each device over all function reports, in the
    /// order of [`DEVICE_METRICS`].
    pub devices: [u64; 8],
    /// Σ bytecode length over the loaded program's named functions.
    pub code_ops: u64,
}

pub const DEVICE_METRICS: [&str; 8] = [
    "transform.device_count.cri",
    "transform.device_count.locks",
    "transform.device_count.delay",
    "transform.device_count.reorder",
    "transform.device_count.dps",
    "transform.device_count.fold",
    "transform.device_count.futuresync",
    "transform.device_count.speculate",
];

/// Source text to loaded transformed program, with the clock read at
/// the five boundaries.
fn restructure(w: &Workload) -> Result<(CurareOutput, String, Arc<Interp>, [u64; 5]), String> {
    let mut t = [0u64; 5];
    t[0] = now_ns();
    let forms = parse_all(&w.source).map_err(|e| format!("parse: {e}"))?;
    t[1] = now_ns();
    let out = Curare::new()
        .with_speculation(w.speculate)
        .transform_forms(&forms)
        .map_err(|e| format!("transform: {e}"))?;
    t[2] = now_ns();
    let text = out.source();
    t[3] = now_ns();
    let interp = Arc::new(Interp::new());
    interp.load_str(&text).map_err(|e| format!("load: {e}"))?;
    t[4] = now_ns();
    Ok((out, text, interp, t))
}

/// Restructure once and summarise the outcome. Set-up calls this twice
/// and refuses to measure if the two differ.
pub fn summarize(w: &Workload) -> Result<Restructured, String> {
    let (out, text, interp, _) = restructure(w)?;
    let mut devices = [0u64; 8];
    for d in out.reports.iter().flat_map(|r| &r.devices) {
        let slot = match d {
            Device::Cri(_) => 0,
            Device::Locks(_) => 1,
            Device::Delay(_) => 2,
            Device::Reorder(_) => 3,
            Device::Dps => 4,
            Device::Fold => 5,
            Device::FutureSync(_) => 6,
            Device::Speculate => 7,
            Device::HeadOrdering => continue,
        };
        devices[slot] += 1;
    }
    let code_ops = interp
        .named_funcs()
        .iter()
        .filter_map(|f| interp.lookup_func(f.name_sym))
        .filter_map(|id| interp.func_entry(id).code.as_ref().map(|c| c.ops.len() as u64))
        .sum();
    Ok(Restructured {
        forms: out.forms.len() as u64,
        recursive: out
            .reports
            .iter()
            .filter(|r| r.verdict != curare::analysis::Verdict::NotRecursive)
            .count() as u64,
        converted: out.reports.iter().filter(|r| r.converted).count() as u64,
        devices,
        code_ops,
        text,
    })
}

/// Pool tasks the reference predicts: every sequential invocation runs
/// exactly once as a task when the function was converted (or was
/// written in CRI form); an unconverted function is one task.
fn expected_tasks(w: &Workload, out: &CurareOutput) -> u64 {
    w.entries
        .iter()
        .map(|e| {
            let converted = out.report(&e.name).is_some_and(|r| r.converted);
            if converted || matches!(e.family, Family::Spreader { .. }) {
                e.expect.invocations
            } else {
                1
            }
        })
        .sum()
}

/// Verify every entry of `w` against the reference. Entries run one
/// after another, so the printed lines split by each entry's expected
/// count.
fn verify_all(
    w: &Workload,
    interp: &Interp,
    built: &[Built],
    returned: Option<&[Value]>,
) -> Result<(), String> {
    let lines = interp.take_output();
    let mut rest = lines.as_slice();
    for (i, (e, b)) in w.entries.iter().zip(built).enumerate() {
        let (mine, tail) = rest.split_at(e.expect.output.len().min(rest.len()));
        rest = tail;
        e.verify(interp, b, returned.map(|r| r[i]), mine)?;
    }
    if rest.is_empty() {
        Ok(())
    } else {
        Err(format!("{} unexpected output lines", rest.len()))
    }
}

/// The pool half of a pass. `tamper` runs after the clock stops and
/// before the result is verified; the benchmark passes a no-op, `bench
/// self-test` corrupts the heap there to prove the check is live. An
/// `Err` is a failed pass: an engine error or a result that differs
/// from the reference.
pub fn pool_pass(
    w: &Workload,
    pool: PoolSetup,
    tamper: &dyn Fn(&Interp, &[Built]),
) -> Result<PoolPass, String> {
    let (out, _text, interp, t) = restructure(w)?;
    let mut built: Vec<Built> = w.entries.iter().map(|e| e.build(&interp)).collect();
    let calls: Vec<(String, Vec<Value>)> =
        w.entries.iter().zip(&mut built).map(|(e, b)| e.pool_call(&interp, b)).collect();
    let t_input = now_ns();
    let rt = CriRuntime::with_config(
        Arc::clone(&interp),
        pool.servers,
        RuntimeConfig { mode: pool.mode, speculate: w.speculate, ..RuntimeConfig::default() },
    );
    let t_create = now_ns();
    let mut entry_run_ns = Vec::with_capacity(calls.len());
    let mut t_run = t_create;
    for (fname, args) in &calls {
        rt.run(fname, args).map_err(|e| format!("pool run of {fname}: {e}"))?;
        let t = now_ns();
        entry_run_ns.push(t - t_run);
        t_run = t;
    }
    let stats = rt.stats();
    drop(rt);
    let t_drop = now_ns();

    tamper(&interp, &built);
    verify_all(w, &interp, &built, None).map_err(|m| format!("pool: {m}"))?;
    // Exactly-once: under speculation an aborted invocation runs
    // again, so the commit count is the one that must match. A run
    // that escalated (rolled back and reran sequentially, a legitimate
    // outcome counted in `runtime.spec_escalated_share`) commits
    // nothing; the heap check above is then the whole check.
    let (ran, what) =
        if w.speculate { (stats.spec_commits, "commits") } else { (stats.tasks, "tasks") };
    let want = expected_tasks(w, &out);
    if ran != want && !stats.spec_escalated {
        return Err(format!("pool: {ran} {what}, reference says {want}"));
    }
    if stats.degraded || stats.servers_poisoned > 0 || stats.task_retries > 0 {
        return Err("pool: degraded, poisoned or retried without a fault plan".into());
    }

    Ok(PoolPass {
        start_ns: t[0],
        stage_ns: [
            t[1] - t[0],
            t[2] - t[1],
            t[3] - t[2],
            t[4] - t[3],
            t_input - t[4],
            t_create - t_input,
            t_run - t_create,
            t_drop - t_run,
        ],
        entry_run_ns,
        stats,
        heap_conses: interp.heap().stats().conses,
    })
}

/// The sequential half: the untransformed source on a plain
/// interpreter, over inputs built the same way.
pub fn seq_pass(w: &Workload) -> Result<SeqPass, String> {
    let seq = Interp::new();
    seq.load_str(&w.source).map_err(|e| format!("sequential load: {e}"))?;
    let built: Vec<Built> = w.entries.iter().map(|e| e.build(&seq)).collect();
    let vm0 = vm_stats();
    let start_ns = now_ns();
    let mut returned = Vec::with_capacity(w.entries.len());
    for (e, b) in w.entries.iter().zip(&built) {
        returned.push(
            seq.call(&e.name, &b.args).map_err(|err| format!("sequential {}: {err}", e.name))?,
        );
    }
    let ns = now_ns() - start_ns;
    let vm1 = vm_stats();
    verify_all(w, &seq, &built, Some(&returned)).map_err(|m| format!("sequential: {m}"))?;
    Ok(SeqPass {
        start_ns,
        ns,
        vm: VmStats {
            dispatched_ops: vm1.dispatched_ops - vm0.dispatched_ops,
            typed_ops: vm1.typed_ops - vm0.typed_ops,
            fused_ops: vm1.fused_ops - vm0.fused_ops,
            frames_reused: vm1.frames_reused - vm0.frames_reused,
            frames_allocated: vm1.frames_allocated - vm0.frames_allocated,
        },
    })
}
