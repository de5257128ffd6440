//! One workload, one process: set-up, the timed passes, and the metric
//! values. `--trace 0` produces the end-to-end metrics with no tracer
//! installed; `--trace 1` produces the per-layer metrics from a traced
//! run, outside-timed layer calls and the S=1 / central side runs.
//! Every time is the wall clock's; counts are as counted.

use std::sync::Arc;

use curare::obs::{self, Json, Profile, Tracer};
use curare::runtime::SchedMode;
use curare::sim::formula;

use crate::layers::{self, LayerSample};
use crate::metrics::{result_line_end_to_end, PER_LAYER};
use crate::pass::{
    self, ms, now_ns, pool_pass, seq_pass, PoolPass, PoolSetup, Restructured, SeqPass,
    DEVICE_METRICS,
};
use crate::spans::SpanLog;
use crate::stats::{median, minimum, quantile, share};
use crate::workload::Workload;

/// Passes run and verified before any timing, so caches, allocator
/// arenas and lazily mapped stacks are warm.
const WARMUP_PASSES: usize = 10;
/// Fresh processes that repeat the set-up for `setup_s`, beside this
/// process's own.
const SETUP_CHILDREN: usize = 4;
/// A time-boxed phase never stops before this many passes.
const MIN_PASSES: usize = 5;
/// Passes a whole `--quick` run makes in place of its time box.
const QUICK_PASSES: usize = 10;
/// Events per lane of the traced run's rings: a 20 000-task chain puts
/// about six events per task on one lane.
const TRACE_RING_EVENTS: usize = 1 << 18;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The smoke run: no warm-up, [`QUICK_PASSES`] passes in place of
    /// the time box. Correctness only.
    pub quick: bool,
    pub servers: usize,
    pub build_s: f64,
    /// Set up, print the step times and stop: what a `--trace 0` run
    /// starts [`SETUP_CHILDREN`] times for `setup_s`.
    pub setup_only: bool,
}

/// Metric values by name, before they are put in table order.
type Values = Vec<(&'static str, f64)>;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Pass counts and the like, for the run record.
    pub counts: Json,
}

/// Every verified pass, timed or not, counts here: `attempted` and
/// `failed` of the result line.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("bench: failed pass: {e}");
                }
                None
            }
        }
    }
}

fn no_tamper(_: &curare::lisp::Interp, _: &[crate::workload::Built]) {}

fn full_pass(w: &Workload, pool: PoolSetup) -> Result<(PoolPass, SeqPass), String> {
    Ok((pool_pass(w, pool, &no_tamper)?, seq_pass(w)?))
}

/// Run `body` until the phase's share of the time box is spent (never
/// fewer than [`MIN_PASSES`] times); under `--quick`, the same share of
/// [`QUICK_PASSES`] instead.
fn phase(opts: &Options, share_of_box: f64, mut body: impl FnMut()) {
    if opts.quick {
        let n = ((QUICK_PASSES as f64 * share_of_box) as usize).max(1);
        (0..n).for_each(|_| body());
        return;
    }
    let deadline = now_ns() + (opts.seconds * share_of_box * 1e9) as u64;
    let mut done = 0;
    while done < MIN_PASSES || now_ns() < deadline {
        body();
        done += 1;
    }
}

/// A set-up, ready to measure, and how long each of its steps took.
struct Setup {
    w: Workload,
    restructured: Restructured,
    /// Nanoseconds per step: the workload and its reference results
    /// from the seed (counted from process start), restructuring, the
    /// same again for the determinism check, then each warm-up pass.
    /// The same steps in the same order on every run of a workload.
    steps_ns: Vec<u64>,
}

/// Everything before the first timed pass. Call it first: its first
/// step counts from process start (`now_ns` does, from the top of
/// `main`).
fn setup(opts: &Options, pool: PoolSetup, tally: &mut Tally) -> Result<Setup, String> {
    let mut steps_ns = Vec::with_capacity(3 + WARMUP_PASSES);
    let mut last = 0;
    // Nanoseconds since the previous call, the first time since process
    // start.
    let mut step = || {
        let t = now_ns();
        let took = t - last;
        last = t;
        took
    };
    let w = Workload::build(&opts.workload, opts.seed)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    steps_ns.push(step());
    let restructured = pass::summarize(&w)?;
    steps_ns.push(step());
    if pass::summarize(&w)? != restructured {
        return Err("restructuring the same source twice gave different programs or counts".into());
    }
    steps_ns.push(step());
    if !opts.quick {
        for _ in 0..WARMUP_PASSES {
            tally.record(full_pass(&w, pool));
            steps_ns.push(step());
        }
    }
    Ok(Setup { w, restructured, steps_ns })
}

/// The same set-up in a fresh process; its step times, with its passes
/// added to `tally`.
fn setup_in_child(opts: &Options, tally: &mut Tally) -> Result<Vec<u64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &opts.workload, "--setup-only"])
        .args(["--seed", &opts.seed.to_string(), "--servers", &opts.servers.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("set-up child printed nothing")?;
    let doc = Json::parse(line).map_err(|e| format!("set-up child: {e}"))?;
    let count = |key: &str| doc.get(key).and_then(Json::as_u64);
    let (Some(attempted), Some(failed), Some(steps)) =
        (count("attempted"), count("failed"), doc.get("steps_ns").and_then(Json::as_arr))
    else {
        return Err(format!("set-up child: cannot read '{line}'"));
    };
    tally.attempted += attempted;
    tally.failed += failed;
    Ok(steps.iter().filter_map(Json::as_u64).collect())
}

/// `--setup-only`: one set-up, then its step times and pass counts as
/// one line for [`setup_in_child`].
pub fn setup_only(opts: &Options) -> Result<Json, String> {
    let pool = PoolSetup { servers: opts.servers, mode: SchedMode::Sharded };
    let mut tally = Tally::default();
    let steps = setup(opts, pool, &mut tally)?.steps_ns;
    Ok(Json::obj()
        .set("steps_ns", Json::Arr(steps.into_iter().map(Json::from).collect()))
        .set("attempted", tally.attempted)
        .set("failed", tally.failed))
}

/// `setup_s`: each step's fastest time over the set-ups, summed. Every
/// set-up is a whole one in a process of its own, so nothing a process
/// does once is missing from it; taking each step where the host
/// slowed it least keeps a busy neighbour out of it.
fn quiet_setup_s(setups: &[Vec<u64>]) -> Result<f64, String> {
    let steps = setups[0].len();
    if setups.iter().any(|s| s.len() != steps) {
        return Err("set-ups of one workload differ in their steps".into());
    }
    let ns: u64 = (0..steps).map(|i| setups.iter().map(|s| s[i]).min().unwrap_or(0)).sum();
    Ok(ns as f64 / 1e9)
}

fn med(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<f64>>())
}

/// `VmHWM` of this process.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let pool = PoolSetup { servers: opts.servers, mode: SchedMode::Sharded };
    let mut tally = Tally::default();
    let (values, counts) = if opts.trace {
        let ready = setup(opts, pool, &mut tally)?;
        per_layer(opts, pool, &ready, &mut tally)?
    } else {
        end_to_end(opts, pool, &mut tally)?
    };

    // Emit in table order, with the table's units; a name the run did
    // not produce is a bug in this file.
    let table: Vec<(&'static str, &'static str)> = if opts.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        result_line_end_to_end().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = table
        .into_iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            (name, value, unit)
        })
        .collect();
    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, metrics, counts })
}

/// The `--trace 0` run: this process's set-up and [`SETUP_CHILDREN`]
/// more in processes of their own, one after another, then passes
/// until the time box is spent.
fn end_to_end(
    opts: &Options,
    pool: PoolSetup,
    tally: &mut Tally,
) -> Result<(Values, Json), String> {
    let Setup { w, steps_ns, .. } = setup(opts, pool, tally)?;
    let mut setups = vec![steps_ns];
    if !opts.quick {
        for _ in 0..SETUP_CHILDREN {
            setups.push(setup_in_child(opts, tally)?);
        }
    }
    let (mut e2e, mut restructure, mut seq) = (vec![], vec![], vec![]);
    phase(opts, 1.0, || {
        if let Some((p, s)) = tally.record(full_pass(&w, pool)) {
            e2e.push(p.e2e_ms());
            restructure.push(p.restructure_ms());
            seq.push(ms(s.ns));
        }
    });
    // Why these estimators and not the median: `metrics::END_TO_END`.
    let values = vec![
        ("setup_s", quiet_setup_s(&setups)?),
        ("e2e_p10_ms", quantile(&e2e, 0.1)),
        ("restructure_min_ms", minimum(&restructure)),
        ("seq_min_ms", minimum(&seq)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let counts = Json::obj()
        .set("passes", e2e.len())
        .set("setups", setups.len())
        .set("warmup_passes", if opts.quick { 0 } else { WARMUP_PASSES });
    Ok((values, counts))
}

/// One traced pool pass: a fresh tracer sized for the run, profiling
/// armed, removed again before the rings are read.
fn traced_pool_pass(w: &Workload, pool: PoolSetup) -> (Result<PoolPass, String>, Profile) {
    let tracer = Tracer::with_capacity(pool.servers, TRACE_RING_EVENTS);
    obs::install(Some(Arc::clone(&tracer)));
    obs::set_profiling(true);
    let result = pool_pass(w, pool, &no_tamper);
    obs::set_profiling(false);
    obs::install(None);
    (result, Profile::from_trace(&tracer.snapshot()))
}

/// The `--trace 1` run: every per-layer value, the pass counts for the
/// run record, and the trace file as a side effect.
fn per_layer(
    opts: &Options,
    pool: PoolSetup,
    ready: &Setup,
    tally: &mut Tally,
) -> Result<(Values, Json), String> {
    let Setup { w, restructured, steps_ns } = ready;
    let setup_first_s = steps_ns.iter().sum::<u64>() as f64 / 1e9;
    // Layer calls timed from outside.
    let mut layer_samples: Vec<LayerSample> = Vec::new();
    let mut layer_err = None;
    phase(opts, 0.15, || match layers::sample(w) {
        Ok(s) => layer_samples.push(s),
        Err(e) => layer_err = Some(e),
    });
    if let Some(e) = layer_err {
        return Err(format!("layer calls failed: {e}"));
    }

    // Untraced and traced passes, alternating, so drift hits both.
    let mut plain: Vec<(PoolPass, SeqPass)> = Vec::new();
    let mut traced: Vec<(PoolPass, Profile)> = Vec::new();
    let mut log = SpanLog::default();
    phase(opts, 0.45, || {
        if let Some(p) = tally.record(full_pass(w, pool)) {
            plain.push(p);
        }
        let id = traced.len() as u32;
        let (result, profile) = traced_pool_pass(w, pool);
        let front = layers::lower_then_analyse(w);
        let seq = seq_pass(w);
        if let Some(((p, [t0, t1, t2]), s)) =
            tally.record(result.and_then(|p| Ok(((p, front?), seq?))))
        {
            log.push_pool_pass(id, &p);
            log.push("lower", t0, t1, None, id);
            log.push("analyse", t1, t2, None, id);
            log.push("seq_run", s.start_ns, s.start_ns + s.ns, None, id);
            traced.push((p, profile));
        }
    });

    // The same pool half at S = 1 and on the central queue.
    let mut side = |mode: SchedMode, servers: usize| {
        let mut run_ms = Vec::new();
        phase(opts, 0.2, || {
            if let Some(p) = tally.record(pool_pass(w, PoolSetup { servers, mode }, &no_tamper)) {
                run_ms.push(p.stage_ms(pass::RUN));
            }
        });
        median(&run_ms)
    };
    let par_s1 = side(SchedMode::Sharded, 1);
    let par_central = side(SchedMode::Central, pool.servers);

    if plain.is_empty() || traced.is_empty() {
        return Err("no pass succeeded; nothing to report".into());
    }

    // Medians over the untraced passes: a stage in ms, any other
    // per-pass quantity, a layer timing in µs.
    let stage_ms = |i: usize| med(plain.iter().map(|(p, _)| p.stage_ms(i)));
    let stat = |f: &dyn Fn(&PoolPass) -> f64| med(plain.iter().map(|(p, _)| f(p)));
    let layer_us =
        |f: &dyn Fn(&LayerSample) -> u64| med(layer_samples.iter().map(|s| f(s) as f64 / 1e3));
    let first_layer = &layer_samples[0];
    let par = stage_ms(pass::RUN);
    let seq = med(plain.iter().map(|(_, s)| ms(s.ns)));
    let src_bytes = w.source.len() as f64;
    let vm = &plain[0].1.vm;
    let analyze_us = layer_us(&|s| s.analyze_ns);
    let tasks = stat(&|p| p.stats.tasks as f64);
    let escalated = plain.iter().filter(|(p, _)| p.stats.spec_escalated).count();
    // The speculative workload's two pool runs: the clean scrubber,
    // then the aborting mixer.
    let entry_ms = |i: usize| if w.speculate { stat(&|p| ms(p.entry_run_ns[i])) } else { 0.0 };
    let par_samples: Vec<f64> = plain.iter().map(|(p, _)| p.stage_ms(pass::RUN)).collect();
    let scaling = share(par_s1, par);
    // The causal profile of each traced `run`.
    let prof = |f: &dyn Fn(&Profile) -> f64| med(traced.iter().map(|(_, pr)| f(pr)));
    let cp_share = |f: &dyn Fn(&Profile) -> u64| {
        prof(&|pr| share(f(pr) as f64, pr.critical_path.total_ns() as f64))
    };
    let traced_par = med(traced.iter().map(|(p, _)| p.stage_ms(pass::RUN)));
    let overhead = share(traced_par, par);
    // §4.1: T(1)/T(S) with |H|, |T| from head_tail and d = the list
    // length, against the measured S=1 / S ratio.
    let predicted = w.formula_d.map_or(0.0, |d| {
        let (h, t) = (first_layer.entry_head, first_layer.entry_tail);
        share(
            formula::total_time(d, 1, h, t) as f64,
            formula::total_time(d, pool.servers as u64, h, t) as f64,
        )
    });
    let e2e: Vec<f64> = plain.iter().map(|(p, _)| p.e2e_ms()).collect();

    let mut values: Values = vec![
        ("sexpr.parse_us", stage_ms(pass::PARSE) * 1e3),
        ("sexpr.print_us", stage_ms(pass::PRINT) * 1e3),
        ("sexpr.bytes_per_s", share(src_bytes, stage_ms(pass::PARSE) / 1e3)),
        ("sexpr.forms", restructured.forms as f64),
        ("lisp.lower_us", layer_us(&|s| s.lower_ns)),
        ("lisp.load_us", stage_ms(pass::LOAD) * 1e3),
        ("lisp.code_ops", restructured.code_ops as f64),
        ("lisp.input_build_us", stage_ms(pass::INPUT) * 1e3),
        ("lisp.vm_ops_per_pass", vm.dispatched_ops as f64),
        ("lisp.vm_typed_share", share(vm.typed_ops as f64, vm.dispatched_ops as f64)),
        ("lisp.vm_fused_share", share(vm.fused_ops as f64, vm.dispatched_ops as f64)),
        ("lisp.seq_ns_per_op", share(seq * 1e6, vm.dispatched_ops as f64)),
        ("lisp.heap_conses", stat(&|p| p.heap_conses as f64)),
        ("lisp.tlab_refills", stat(&|p| p.stats.tlab_refills as f64)),
        ("analysis.analyze_us", analyze_us),
        ("analysis.transfer_us", layer_us(&|s| s.transfer_ns)),
        ("analysis.conflict_us", layer_us(&|s| s.conflict_ns)),
        ("analysis.access_us", layer_us(&|s| s.access_ns)),
        ("analysis.headtail_us", layer_us(&|s| s.headtail_ns)),
        ("analysis.locksynth_us", layer_us(&|s| s.locksynth_ns)),
        ("analysis.functions", first_layer.functions as f64),
        ("analysis.conflicts_found", first_layer.conflicts_found as f64),
        ("analysis.us_per_source_kb", share(analyze_us, src_bytes / 1024.0)),
        ("transform.transform_us", stage_ms(pass::TRANSFORM) * 1e3),
        (
            "transform.converted_share",
            share(restructured.converted as f64, restructured.recursive as f64),
        ),
        ("transform.out_bytes", restructured.text.len() as f64),
        ("check.check_us", layer_us(&|s| s.check_ns)),
        ("check.locks_us", layer_us(&|s| s.check_locks_ns)),
        ("check.diagnostics", first_layer.diagnostics as f64),
        ("runtime.pool_create_us", stage_ms(pass::POOL_CREATE) * 1e3),
        ("runtime.pool_drop_us", stage_ms(pass::POOL_DROP) * 1e3),
        ("runtime.tasks", tasks),
        ("runtime.tasks_per_s", share(tasks, par / 1e3)),
        (
            "runtime.chained_share",
            stat(&|p| share(p.stats.chained_tasks as f64, p.stats.tasks as f64)),
        ),
        ("runtime.batched_submits", stat(&|p| p.stats.batched_submits as f64)),
        ("runtime.peak_queue", stat(&|p| p.stats.peak_queue as f64)),
        ("runtime.parks", stat(&|p| p.stats.parks as f64)),
        ("runtime.park_ms", stat(&|p| ms(p.stats.park_ns))),
        ("runtime.steal_attempts", stat(&|p| p.stats.steal_attempts as f64)),
        (
            "runtime.steal_success_share",
            stat(&|p| share(p.stats.steal_successes as f64, p.stats.steal_attempts as f64)),
        ),
        ("runtime.sites_migrated", stat(&|p| p.stats.sites_migrated as f64)),
        ("runtime.lock_acquisitions", stat(&|p| p.stats.lock_acquisitions as f64)),
        (
            "runtime.lock_shared_share",
            stat(&|p| {
                share(p.stats.lock_shared_acquisitions as f64, p.stats.lock_acquisitions as f64)
            }),
        ),
        (
            "runtime.lock_contended_share",
            stat(&|p| share(p.stats.lock_contended as f64, p.stats.lock_acquisitions as f64)),
        ),
        ("runtime.lock_wait_ms", stat(&|p| ms(p.stats.lock_wait_total_ns))),
        ("runtime.spec_commits", stat(&|p| p.stats.spec_commits as f64)),
        (
            "runtime.spec_clean_share",
            stat(&|p| share(p.stats.spec_clean as f64, p.stats.spec_commits as f64)),
        ),
        ("runtime.spec_aborts", stat(&|p| p.stats.spec_aborts as f64)),
        ("runtime.spec_replays", stat(&|p| p.stats.spec_replays as f64)),
        ("runtime.spec_escalated_share", share(escalated as f64, plain.len() as f64)),
        ("runtime.spec_clean_run_ms", entry_ms(0)),
        ("runtime.spec_abort_run_ms", entry_ms(1)),
        ("runtime.par_p10_ms", quantile(&par_samples, 0.1)),
        ("runtime.par_p50_ms", par),
        ("runtime.par_p95_ms", quantile(&par_samples, 0.95)),
        ("runtime.par_s1_p50_ms", par_s1),
        ("runtime.par_central_p50_ms", par_central),
        ("runtime.overhead_vs_seq", share(par_s1, seq)),
        ("runtime.scaling", scaling),
        ("runtime.speedup_vs_seq", share(seq, par)),
        ("obs.work_ms", prof(&|pr| ms(pr.work_ns))),
        ("obs.span_ms", prof(&|pr| ms(pr.span_ns))),
        ("obs.parallelism", prof(&|pr| pr.parallelism)),
        ("obs.makespan_ms", prof(&|pr| ms(pr.makespan_ns))),
        ("obs.cp_exec_share", cp_share(&|pr| pr.critical_path.exec_ns)),
        ("obs.cp_queue_share", cp_share(&|pr| pr.critical_path.queue_ns)),
        ("obs.cp_future_wait_share", cp_share(&|pr| pr.critical_path.future_wait_ns)),
        ("obs.cp_lock_wait_share", cp_share(&|pr| pr.critical_path.lock_wait_ns)),
        ("obs.dropped_events", prof(&|pr| pr.dropped_events as f64)),
        ("obs.trace_overhead_ratio", overhead),
        ("sim.predicted_speedup", predicted),
        ("sim.residual", share(scaling, predicted)),
        ("harness.e2e_p50_ms", median(&e2e)),
        ("harness.e2e_p95_ms", quantile(&e2e, 0.95)),
        ("harness.restructure_p50_ms", med(plain.iter().map(|(p, _)| p.restructure_ms()))),
        ("harness.seq_p50_ms", seq),
        ("harness.setup_first_s", setup_first_s),
        ("harness.passes", plain.len() as f64),
        ("harness.build_s", opts.build_s),
    ];
    values.extend(DEVICE_METRICS.iter().zip(restructured.devices).map(|(m, n)| (*m, n as f64)));

    // The trace file: every span on the wall clock, self time by name,
    // the obs split of each traced `run`, and how the traced pass
    // compares with the untraced one.
    let self_ms = log.self_ms_by_name();
    let stage_sum: f64 =
        self_ms.iter().filter(|(n, _)| pass::STAGES.contains(n)).map(|(_, v)| v).sum();
    let run_split: Vec<Json> =
        traced.iter().enumerate().map(|(id, (_, pr))| pr.to_json().set("pass", id)).collect();
    let doc = Json::obj()
        .set("schema", "curare-benchmark-trace/1")
        .set("workload", w.name)
        .set("seed", opts.seed)
        .set("servers", pool.servers)
        .set("traced_passes", traced.len())
        .set("traced_pass_p50_ms", med(traced.iter().map(|(p, _)| p.e2e_ms())))
        .set("stage_self_sum_ms", stage_sum)
        .set("untraced_e2e_p50_ms", med(plain.iter().map(|(p, _)| p.e2e_ms())))
        .set("trace_overhead_ratio", overhead)
        .set("self_ms", self_ms.iter().fold(Json::obj(), |doc, (name, v)| doc.set(name, *v)))
        .set("run_split", Json::Arr(run_split))
        .set("spans", log.to_json());
    let path = crate::write_out(&format!("trace-{}.json", w.name), &doc)?;

    let counts = Json::obj()
        .set("passes", plain.len())
        .set("traced_passes", traced.len())
        .set("layer_repeats", layer_samples.len())
        .set("warmup_passes", if opts.quick { 0 } else { WARMUP_PASSES })
        .set("trace_file", path);
    Ok((values, counts))
}
