//! Shared programs, inputs and the one experiment driver.
//!
//! `src/bin/experiments.rs` is a table of [`Experiment`]s over the
//! driver defined here: [`drive`] owns the command line (experiment
//! names, `list`, `--json`, `--quick`), runs each selected row through
//! a [`Run`] — which prints the prose table or collects the
//! `curare-bench/3` document and records every gate — and turns failed
//! gates into the exit code. Every sweep takes its programs from the
//! one [`programs`] table.
//!
//! Wall-clock claims belong to `benchmark/` (see `BENCHMARK.json`).
//! The few timings kept here are cells no benchmark workload covers;
//! they are medians of at least five repetitions, tagged `host`, and
//! mean nothing without the document's `host_threads`.

use std::fmt;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use curare::lisp::{Interp, LispError, Value};
use curare::prelude::*;
use curare::runtime::RuntimeConfig;

/// The paper's Figure 3: a simple recursive list walker.
pub const FIGURE_3: &str = "(defun f (l) (when l (print (car l)) (f (cdr l))))";

/// The paper's Figure 4: a walker with a distance-1 conflict.
pub const FIGURE_4: &str = "(defun f (l) (when l (setf (cadr l) (car l)) (f (cdr l))))";

/// The paper's Figure 5: the complex conflicting walker.
pub const FIGURE_5: &str = "(defun f (l)
  (cond ((null l) nil)
        ((null (cdr l)) (f (cdr l)))
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (f (cdr l)))))";

/// The paper's Figure 12: `remq`.
pub const FIGURE_12_REMQ: &str = "(defun remq (obj lst)
  (cond ((null lst) nil)
        ((eq obj (car lst)) (remq obj (cdr lst)))
        (t (cons (car lst) (remq obj (cdr lst))))))";

/// An effect-style walker with a declared-commutative accumulation.
pub const SUM_WALK: &str = "
(curare-declare (reorderable +))
(defun walk (l)
  (when l
    (setq *sum* (+ *sum* (car l)))
    (walk (cdr l))))";

/// A walker whose tail write conflicts at distance 1 (forces locks).
pub const ROTATE: &str = "(defun rotate (l)
  (when l
    (rotate (cdr l))
    (setf (cdr l) (car l))))";

/// Build `(defun fK (l) ...)`-style walker that writes `k` cells ahead
/// — its conflict distance is exactly `k` (E4's sweep parameter).
pub fn distance_k_writer(k: usize) -> String {
    // The write happens *after* the recursive call (so head ordering
    // cannot resolve it and Curare must lock), touches the cell `k`
    // links ahead (conflict distance k), and is guarded against the
    // list end.
    let mut place = "l".to_string();
    for _ in 0..k {
        place = format!("(cdr {place})");
    }
    format!(
        "(defun fk (l)
           (when l
             (fk (cdr l))
             (when {place}
               (setf (car {place}) (car l)))))"
    )
}

/// The dotted path string `cdr.….cdr.car` with `k` cdr links — the
/// car of the cell `k` links ahead, in `(curare-declare (locks ...))`
/// syntax.
pub fn cdr_car_path(k: usize) -> String {
    let mut s = String::new();
    for _ in 0..k {
        s.push_str("cdr.");
    }
    s.push_str("car");
    s
}

/// Terms each read statement of the window walker sums — the knob
/// that makes its lock brackets long enough to actually overlap: a
/// single `(car …)` bracket is a handful of VM ops and two
/// invocations virtually never collide inside it, so exclusive and
/// shared modes would be indistinguishable noise.
pub const WINDOW_READ_TERMS: usize = 16;

/// Build the read-window walker for the lock-synthesis sweep: each
/// invocation doubles its own car (a declared-commutative RMW, so the
/// order-insensitivity gate accepts it) and performs `reads` discarded
/// read statements over the cars `k` and `k+1` cells ahead — the very
/// words the invocations `k` and `k+1` later write. Each statement
/// sums [`WINDOW_READ_TERMS`] loads of its word, so the lock bracket
/// wrapping it is a real critical section; adjacent invocations read
/// the *same* word (invocation `i`'s far word is invocation `i+1`'s
/// near word), so under exclusive locks these brackets chain-serialize
/// across the whole list while shared locks let them overlap. The
/// minimal conflict distance is `k`, and the synthesized placement is
/// one exclusive lock on the write destination plus *shared* locks on
/// the two read-ahead words: a read-heavy program where rw modes
/// genuinely matter.
pub fn read_window_walker(k: usize, reads: usize) -> String {
    let mut near = "l".to_string();
    for _ in 0..k {
        near = format!("(cdr {near})");
    }
    let far = format!("(cdr {near})");
    let sum_of = |word: &str| {
        let mut s = String::from("(+");
        for _ in 0..WINDOW_READ_TERMS {
            s.push_str(&format!(" (car {word})"));
        }
        s.push_str(") ");
        s
    };
    // Interleave the two sides in runs of two. Emitting all near
    // reads then all far reads would phase-shift same-word brackets
    // of adjacent invocations (i's far block is its second half,
    // i+1's near block its first) so they rarely overlap in time;
    // interleaving spreads both words across the whole body. Runs of
    // two keep consecutive equal-lockset statements for the bracket
    // coalescer to merge.
    let mut body = String::new();
    for _ in 0..reads.div_ceil(2) {
        for word in [&near, &near, &far, &far] {
            body.push_str(&sum_of(word));
        }
    }
    format!(
        "(curare-declare (reorderable *))
         (defun fw (l)
           (when {far}
             (fw (cdr l))
             (setf (car l) (* (car l) 2))
             {body}))"
    )
}

/// The same walker under the naive all-pairs placement, declared
/// explicitly: every conflicting path takes an *exclusive* lock, so
/// the two readers of each cell serialize against each other — the
/// baseline the synthesized rw placement is measured against.
pub fn read_window_walker_naive_locks(k: usize, reads: usize) -> String {
    format!(
        "(curare-declare (locks fw (exclusive l car) (exclusive l {}) (exclusive l {})))
         {}",
        cdr_car_path(k),
        cdr_car_path(k + 1),
        read_window_walker(k, reads)
    )
}

/// Build the ⊤-write walker for the speculation experiments: the
/// write root passes through the identity helper `veil`, which the
/// interprocedural analysis cannot see through, so the conflict
/// report carries an unknown write (the C002/⊤ verdict) and the
/// static pipeline refuses to parallelize. At runtime every
/// invocation writes only its own cell, so a speculative run commits
/// 100% clean — the workload class SpecMode exists to reclaim. Each
/// rewrite does `pad` arithmetic steps of local busywork, so an
/// invocation is more than its own journaling.
pub fn scrub_top_write(pad: usize) -> String {
    format!(
        "(defun veil (l) l)
(defun crunch (v)
  (let ((x v)) {} x))
(defun scrub (l)
  (when (consp l)
    (scrub (cdr l))
    (setf (car (veil l)) (crunch (car l)))))",
        busywork(pad)
    )
}

/// The under-declared-aliasing workload: `mix` walks two lists the
/// analysis assumes disjoint, but callers pass the *same* list for
/// both, so parent tail reads of `a` race child tail writes through
/// `b`. A speculative run must detect the conflicts at commit time,
/// abort and replay (or escalate to the sequential rerun), and still
/// produce exactly the sequential answer. Call as `(mix l l)`.
pub const ALIASED_MIX: &str = "(defun mix (a b)
  (when (consp b)
    (mix (cddr a) (cdr b))
    (setf (car b) (car a))))";

/// `pad` arithmetic steps on the local `x`: the busywork that dials a
/// body's grain.
fn busywork(pad: usize) -> String {
    "(setq x (+ x 1)) ".repeat(pad)
}

/// Run `f` on a thread with a large native stack (deep sequential
/// recursion in the original, untransformed programs needs it).
pub fn with_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    const STACK: usize = 256 << 20;
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(STACK)
            .spawn_scoped(scope, || {
                curare::lisp::set_thread_stack_budget(STACK - (8 << 20));
                f()
            })
            .expect("spawn big-stack thread")
            .join()
            .expect("big-stack thread panicked")
    })
}

/// Build a walker with `pad` busywork operations in the head, to dial
/// the head/tail ratio in threaded experiments.
pub fn padded_walker(pad: usize) -> String {
    format!(
        "(defun padded (l)
           (when l
             (let ((x 0)) {} x)
             (padded (cdr l))))",
        busywork(pad)
    )
}

/// A fresh interpreter holding `src` as `curare` restructures it.
pub fn restructured(curare: Curare, src: &str) -> (Arc<Interp>, CurareOutput) {
    let out = curare.transform_source(src).expect("program transforms");
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).expect("transformed program loads");
    (interp, out)
}

/// [`restructured`] under the default pipeline.
pub fn transformed_interp(src: &str) -> (Arc<Interp>, CurareOutput) {
    restructured(Curare::new(), src)
}

/// The analysis of the first function of `src`, from the record of
/// its restructuring — the static prediction (§3.1 estimate, §3.2.1
/// distance) the measured rows are held against.
pub fn analyze_first(src: &str) -> FunctionAnalysis {
    let mut out = Curare::new().transform_source(src).expect("program transforms");
    out.reports.swap_remove(0).analysis
}

/// Build an integer list `n .. 1` in `interp`'s heap.
pub fn int_list(interp: &Interp, n: i64) -> Value {
    let mut l = Value::NIL;
    for i in 0..n {
        l = interp.heap().cons(Value::int(i + 1), l);
    }
    l
}

/// Build a list of `n` symbols drawn deterministically from `syms`.
pub fn sym_list(interp: &Interp, n: usize, syms: &[&str]) -> Value {
    let mut l = Value::NIL;
    for i in 0..n {
        let s = syms[i % syms.len()];
        l = interp.heap().cons(interp.heap().sym_value(s), l);
    }
    l
}

/// What a run of a [`Program`] is judged by.
#[derive(Debug, Clone, Copy)]
pub enum Observe {
    /// The first argument after the run (a walker mutates its list).
    FirstArg,
    /// The cdr of the first argument (a DPS destination cell).
    DestCdr,
    /// The value of a global.
    Global(&'static str),
    /// The entry's return value. Sequential runs only: a pool run
    /// returns nothing.
    Result,
}

/// One row of the shared program table: what every sweep needs to
/// load a program, build its input, run it and observe the outcome.
pub struct Program {
    /// Row label in every table and document.
    pub name: &'static str,
    /// The program as written.
    pub source: String,
    /// The function a run calls. For `remq-d` that is the entry the
    /// DPS transform creates; every other program is entered the way
    /// it was written.
    pub entry: &'static str,
    /// Default input size.
    pub n: i64,
    /// Build the entry's arguments on the interpreter's heap.
    pub args: fn(&Interp, i64) -> Vec<Value>,
    /// The observation two runs are compared by.
    pub observe: Observe,
    /// Forms loaded after the program, before any run (`""`: none).
    pub setup: &'static str,
}

fn list_arg(interp: &Interp, n: i64) -> Vec<Value> {
    vec![int_list(interp, n)]
}
fn list_acc_args(interp: &Interp, n: i64) -> Vec<Value> {
    vec![int_list(interp, n), Value::int(0)]
}
fn int_arg(_: &Interp, n: i64) -> Vec<Value> {
    vec![Value::int(n)]
}
fn remq_args(interp: &Interp, n: i64) -> Vec<Value> {
    vec![interp.heap().sym_value("a"), sym_list(interp, n as usize, &["a", "b", "c"])]
}
/// `remq`'s arguments behind a fresh destination cell.
fn remq_d_args(interp: &Interp, n: i64) -> Vec<Value> {
    let mut args = vec![interp.heap().cons(Value::NIL, Value::NIL)];
    args.extend(remq_args(interp, n));
    args
}
/// One list passed for both parameters: the aliasing the analysis was
/// never told about.
fn aliased_args(interp: &Interp, n: i64) -> Vec<Value> {
    let l = int_list(interp, n);
    vec![l, l]
}

/// The program table. The first six are the oracle sweeps' programs
/// (restructured, run on the pool), the next two are the ones only
/// speculation admits, the last five the tiny-grain bodies the engine
/// sweeps run as written.
pub fn programs() -> Vec<Program> {
    let walker = |name, source: &str, entry, n| Program {
        name,
        source: source.to_string(),
        entry,
        n,
        args: list_arg,
        observe: Observe::FirstArg,
        setup: "",
    };
    vec![
        walker("figure-5", FIGURE_5, "f", 512),
        walker("rotate", ROTATE, "rotate", 512),
        Program {
            observe: Observe::Global("*sum*"),
            setup: "(defparameter *sum* 0)",
            ..walker("sum-walk", SUM_WALK, "walk", 512)
        },
        walker("distance-2", &distance_k_writer(2), "fk", 512),
        Program {
            args: remq_d_args,
            observe: Observe::DestCdr,
            ..walker("remq-d", FIGURE_12_REMQ, "remq-d", 256)
        },
        // The hand-off example: its successors overlap their
        // producers' tails, which is only sound because the tails do
        // not conflict.
        walker("tail-heavy", include_str!("../../../examples/lisp/tail_heavy.lisp"), "th", 512),
        // The C002/⊤-write verdict: refused statically, 100 % clean
        // at run time.
        walker("scrub-top", &scrub_top_write(64), "scrub", 512),
        // Must abort and replay (or escalate) and still converge.
        Program { args: aliased_args, ..walker("aliased-mix", ALIASED_MIX, "mix", 192) },
        walker("bare-walk", "(defun w (l) (when l (w (cdr l))))", "w", 20_000),
        Program {
            args: list_acc_args,
            observe: Observe::Result,
            ..walker("sum", "(defun s (l acc) (if l (s (cdr l) (+ acc (car l))) acc))", "s", 20_000)
        },
        walker("padded-8", &padded_walker(8), "padded", 20_000),
        Program {
            args: int_arg,
            observe: Observe::Result,
            ..walker(
                "fib",
                "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
                "fib",
                20,
            )
        },
        Program {
            args: remq_args,
            observe: Observe::Result,
            ..walker("remq", FIGURE_12_REMQ, "remq", 2_000)
        },
    ]
}

/// The rows of [`programs`] with these names, in this order.
pub fn pick(names: &[&str]) -> Vec<Program> {
    let mut table = programs();
    names
        .iter()
        .map(|name| {
            let at = table
                .iter()
                .position(|p| p.name == *name)
                .unwrap_or_else(|| panic!("no program named {name}"));
            table.swap_remove(at)
        })
        .collect()
}

impl Program {
    /// The one row of [`programs`] called `name`.
    pub fn named(name: &str) -> Program {
        pick(&[name]).pop().expect("one name, one program")
    }

    /// Lift the recursion limit (sequential runs recurse once per
    /// cell) and load the setup forms.
    fn prepared(&self, interp: Arc<Interp>) -> Arc<Interp> {
        interp.set_recursion_limit(10_000_000);
        if !self.setup.is_empty() {
            interp.load_str(self.setup).expect("setup loads");
        }
        interp
    }

    /// A fresh interpreter holding the program as written.
    pub fn written(&self) -> Arc<Interp> {
        let interp = Arc::new(Interp::new());
        interp.load_str(&self.source).expect("program loads");
        self.prepared(interp)
    }

    /// A fresh interpreter holding the program as `curare`
    /// restructures it.
    pub fn restructured(&self, curare: Curare) -> (Arc<Interp>, CurareOutput) {
        let (interp, out) = restructured(curare, &self.source);
        (self.prepared(interp), out)
    }

    fn observation(&self, interp: &Interp, args: &[Value], result: Value) -> String {
        let heap = interp.heap();
        heap.display(match self.observe {
            Observe::FirstArg => args[0],
            Observe::DestCdr => heap.cdr(args[0]).expect("destination is a cons"),
            Observe::Global(name) => interp.load_str(name).expect("global readable"),
            Observe::Result => result,
        })
    }

    /// Call the entry on the calling side's default hooks — spawn
    /// forms run inline, so a restructured program executes in
    /// sequential order — on a big stack, and observe. This is the
    /// oracle every pool run is held to.
    pub fn sequential(&self, interp: &Interp, n: i64) -> String {
        with_big_stack(|| {
            let args = (self.args)(interp, n);
            let result = interp.call(self.entry, &args).expect("sequential run");
            self.observation(interp, &args, result)
        })
    }

    /// One run of the entry on a fresh `servers`-server pool: how the
    /// run ended, the observation, the pool's counters.
    pub fn pooled(
        &self,
        interp: &Arc<Interp>,
        n: i64,
        servers: usize,
        config: RuntimeConfig,
    ) -> (Result<(), LispError>, String, PoolStats) {
        let args = (self.args)(interp, n);
        let rt = CriRuntime::with_config(Arc::clone(interp), servers, config);
        let run = rt.run(self.entry, &args);
        let stats = rt.stats();
        drop(rt);
        (run, self.observation(interp, &args, Value::NIL), stats)
    }

    /// §3.1.1 on this program: restructure it, run it on four
    /// servers, and require the state the program as written leaves
    /// when run sequentially.
    pub fn sequentializable(&self, n: i64) -> Result<CurareOutput, String> {
        let expect = self.sequential(&self.written(), n);
        let (interp, out) = self.restructured(Curare::new());
        match self.pooled(&interp, n, 4, RuntimeConfig::default()) {
            (Err(e), ..) => Err(format!("{} (n = {n}): run failed: {e}", self.name)),
            (Ok(()), got, _) if got != expect => {
                Err(format!("{} (n = {n}): got {got}, want {expect}", self.name))
            }
            _ => Ok(out),
        }
    }
}

/// Time one closure.
pub fn time_once(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Median-of-`runs` timing.
pub fn time_median(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..runs.max(1)).map(|_| time_once(&mut f)).collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Number of hardware threads: the caveat on every `host` cell.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One cell of a row: text, a flag, or a number tagged by where it
/// comes from. The tag is the number's key in the document, so no
/// reader can take a model ratio for a measurement.
#[derive(Debug)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A verdict.
    Flag(bool),
    /// From the simulator, a closed form or the static analysis: the
    /// same on every host.
    Model(f64),
    /// Events counted in a real run (tasks, acquisitions, faults):
    /// exact, though some vary with the schedule.
    Count(u64),
    /// Derived from wall-clock time on this host; meaningless without
    /// `host_threads`.
    Host(f64),
}

/// A [`Cell::Model`].
pub fn model(x: f64) -> Cell {
    Cell::Model(x)
}

/// A [`Cell::Count`].
pub fn count<T: TryInto<u64>>(x: T) -> Cell {
    Cell::Count(x.try_into().unwrap_or_else(|_| panic!("a count is a non-negative integer")))
}

/// A [`Cell::Host`].
pub fn host(x: f64) -> Cell {
    Cell::Host(x)
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}
impl From<bool> for Cell {
    fn from(b: bool) -> Cell {
        Cell::Flag(b)
    }
}

impl Cell {
    fn json(&self) -> Json {
        match self {
            Cell::Text(s) => s.as_str().into(),
            Cell::Flag(b) => (*b).into(),
            Cell::Model(x) => Json::obj().set("model", *x),
            Cell::Count(n) => Json::obj().set("count", *n),
            Cell::Host(x) => Json::obj().set("host", *x),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.pad(s),
            Cell::Flag(b) => f.pad(&b.to_string()),
            Cell::Count(n) => f.pad(&n.to_string()),
            Cell::Model(x) | Cell::Host(x) => {
                let whole = x.fract() == 0.0 || x.abs() >= 100.0;
                let digits = if whole {
                    0
                } else if x.abs() >= 10.0 {
                    2
                } else {
                    3
                };
                f.pad(&format!("{x:.digits$}"))
            }
        }
    }
}

/// One row of the experiment table.
pub struct Experiment {
    /// The name `experiments NAME` runs it by.
    pub name: &'static str,
    /// The paper section or figure it reproduces.
    pub source: &'static str,
    /// One line: what the row shows.
    pub about: &'static str,
    /// The cells: rows and gates go to the [`Run`].
    pub run: fn(&mut Run),
}

/// The document schema [`Run::document`] emits.
pub const SCHEMA: &str = "curare-bench/3";

/// One experiment's run: the only place rows are printed, documents
/// built and gates recorded.
pub struct Run {
    /// `--quick`: the CI-sized cells.
    pub quick: bool,
    json: bool,
    experiment: &'static str,
    header: Vec<&'static str>,
    rows: Vec<Json>,
    gates: Vec<Json>,
    failed: Vec<String>,
}

impl Run {
    /// A run of `experiment`; with `json` the prose is withheld and
    /// the caller prints [`Run::document`].
    pub fn new(experiment: &'static str, quick: bool, json: bool) -> Run {
        Run { quick, json, experiment, header: vec![], rows: vec![], gates: vec![], failed: vec![] }
    }

    /// A line of prose (not part of the document).
    pub fn say(&self, text: impl fmt::Display) {
        if !self.json {
            println!("{text}");
        }
    }

    /// One row. Consecutive rows with the same keys print as one
    /// table under one header.
    pub fn row(&mut self, cells: impl IntoIterator<Item = (&'static str, Cell)>) {
        let cells: Vec<(&'static str, Cell)> = cells.into_iter().collect();
        if !self.json {
            let width = |key: &str| key.len().max(9);
            let keys: Vec<&'static str> = cells.iter().map(|c| c.0).collect();
            if keys != self.header {
                let line: Vec<String> =
                    keys.iter().map(|k| format!("{k:>w$}", w = width(k))).collect();
                println!("  {}", line.join(" "));
                self.header = keys;
            }
            let line: Vec<String> =
                cells.iter().map(|(k, c)| format!("{c:>w$}", w = width(k))).collect();
            println!("  {}", line.join(" "));
        }
        self.rows.push(Json::Obj(cells.iter().map(|(k, c)| (k.to_string(), c.json())).collect()));
    }

    /// Record a gate: an oracle, invariant or ratio this experiment
    /// is held to. A failed gate fails the process, by name.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl fmt::Display) {
        let detail = detail.to_string();
        if ok {
            self.say(format!("  gate {name}: ok"));
        } else {
            self.say(format!("  gate {name}: FAILED {detail}"));
            self.failed.push(format!("{}/{name}", self.experiment));
        }
        self.gates.push(Json::obj().set("gate", name).set("ok", ok).set("detail", detail));
    }

    /// The scheduler-mode cell loop: the paper's central queue, then
    /// the default sharded pool.
    pub fn per_mode(&mut self, mut cell: impl FnMut(&mut Run, SchedMode, &'static str)) {
        for (mode, name) in [(SchedMode::Central, "central"), (SchedMode::Sharded, "sharded")] {
            cell(self, mode, name);
        }
    }

    /// Everything this run recorded, as one `curare-bench/3` object.
    pub fn document(&self) -> Json {
        Json::obj()
            .set("schema", SCHEMA)
            .set("experiment", self.experiment)
            .set("host_threads", hardware_threads())
            .set("rows", self.rows.clone())
            .set("gates", self.gates.clone())
    }
}

/// How a [`drive`] ended.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// Every gate of every selected experiment held.
    Passed,
    /// The command line named no experiment or flag we know.
    Usage(String),
    /// These gates (`experiment/gate`) failed.
    Failed(Vec<String>),
}

impl Outcome {
    /// Report on stderr and give the process its exit code: 0 passed,
    /// 1 a gate failed, 2 bad usage.
    pub fn exit_code(&self) -> ExitCode {
        match self {
            Outcome::Passed => ExitCode::SUCCESS,
            Outcome::Usage(message) => {
                eprintln!("experiments: {message}");
                ExitCode::from(2)
            }
            Outcome::Failed(gates) => {
                eprintln!("experiments: FAILED gates: {}", gates.join(", "));
                ExitCode::FAILURE
            }
        }
    }
}

/// The driver: `[NAME...] [--json] [--quick]` runs the named rows of
/// `table` (all of them when none is named); `list` prints the table.
/// Anything else is a usage error naming the valid words.
pub fn drive(table: &'static [Experiment], args: &[String]) -> Outcome {
    let (mut json, mut quick, mut list) = (false, false, false);
    let mut selected: Vec<&Experiment> = Vec::new();
    for arg in args {
        match (arg.as_str(), table.iter().find(|e| e.name == arg)) {
            ("--json", _) => json = true,
            ("--quick", _) => quick = true,
            ("list", _) => list = true,
            (_, Some(experiment)) => selected.push(experiment),
            (unknown, None) => {
                let names: Vec<&str> = table.iter().map(|e| e.name).collect();
                return Outcome::Usage(format!(
                    "unknown experiment or flag '{unknown}'\n\
                     usage: experiments [list | NAME...] [--json] [--quick]\n\
                     names: {}",
                    names.join(" ")
                ));
            }
        }
    }
    if list {
        for e in table {
            println!("{:<13} {:<16} {}", e.name, e.source, e.about);
        }
        return Outcome::Passed;
    }
    if selected.is_empty() {
        selected = table.iter().collect();
    }
    if !json {
        println!(
            "Curare reproduction — experiments; host: {} hardware thread(s), which bounds \
             every cell tagged host.\n",
            hardware_threads()
        );
    }
    let mut failed = Vec::new();
    for e in selected {
        let mut run = Run::new(e.name, quick, json);
        run.say(format!("== {}: {}   [paper: {}]", e.name, e.about, e.source));
        (e.run)(&mut run);
        if json {
            println!("{}", run.document());
        } else {
            println!();
        }
        failed.append(&mut run.failed);
    }
    if failed.is_empty() {
        Outcome::Passed
    } else {
        Outcome::Failed(failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_programs_parse_and_transform() {
        for src in [FIGURE_3, FIGURE_4, FIGURE_5, FIGURE_12_REMQ, SUM_WALK, ROTATE] {
            let out = Curare::new().transform_source(src).expect(src);
            assert!(!out.reports.is_empty());
        }
    }

    #[test]
    fn distance_k_writer_has_distance_k() {
        for k in 1..=4 {
            let a = analyze_first(&distance_k_writer(k));
            assert_eq!(a.conflicts.min_distance, Some(k), "k = {k}");
        }
    }

    #[test]
    fn read_window_walker_locks_at_every_sweep_depth() {
        for k in [1usize, 2, 4, 8] {
            for (label, src, want_exclusive) in [
                ("rw", read_window_walker(k, 4), false),
                ("naive", read_window_walker_naive_locks(k, 4), true),
            ] {
                let out = Curare::new().transform_source(&src).expect(&src);
                let r = out.report("fw").unwrap();
                let locks = r
                    .devices
                    .iter()
                    .find_map(|d| match d {
                        Device::Locks(l) => Some(l.clone()),
                        _ => None,
                    })
                    .unwrap_or_else(|| panic!("k={k} {label}: no locks: {}", r.feedback));
                assert_eq!(locks.len(), 3, "k={k} {label}: {locks:?}");
                let shared = locks.iter().filter(|l| !l.exclusive).count();
                assert_eq!(shared, if want_exclusive { 0 } else { 2 }, "k={k} {label}: {locks:?}");
                // The conflict distance — the §3.2.1 concurrency
                // bound — is the window depth.
                assert_eq!(analyze_first(&src).conflicts.min_distance, Some(k), "k = {k} {label}");
            }
        }
    }

    #[test]
    fn read_window_walker_runs_sequentially() {
        let (interp, out) = transformed_interp(&read_window_walker(2, 3));
        assert!(out.report("fw").unwrap().converted);
        let l = int_list(&interp, 16);
        interp.call("fw", &[l]).unwrap();
        // Cells 0..13 are doubled (the guard stops the walk 3 cells
        // from the end); the list was 16..1, so the head becomes 32.
        assert_eq!(interp.heap().display(l), "(32 30 28 26 24 22 20 18 16 14 12 10 8 3 2 1)");
    }

    #[test]
    fn scrub_is_refused_statically_but_admitted_speculatively() {
        let src = scrub_top_write(4);
        let refused = Curare::new().transform_source(&src).unwrap();
        assert!(!refused.report("scrub").unwrap().converted, "⊤-write must block statically");
        let (_, out) = restructured(Curare::new().with_speculation(true), &src);
        let r = out.report("scrub").unwrap();
        assert!(r.converted, "speculation must admit the ⊤-write walker: {}", r.feedback);
        assert!(r.devices.contains(&Device::Speculate), "{:?}", r.devices);
    }

    #[test]
    fn aliased_mix_admits_speculatively() {
        let mix = Program::named("aliased-mix");
        let (interp, out) = mix.restructured(Curare::new().with_speculation(true));
        let r = out.report("mix").unwrap();
        assert!(r.converted && r.devices.contains(&Device::Speculate), "{:?}", r.devices);
        // Sequential hooks: the transformed entry still computes the
        // sequential answer on an aliased call.
        assert_eq!(mix.sequential(&interp, 8), mix.sequential(&mix.written(), 8));
    }

    #[test]
    fn int_list_builds_correctly() {
        let it = Interp::new();
        let l = int_list(&it, 5);
        assert_eq!(it.heap().display(l), "(5 4 3 2 1)");
    }

    #[test]
    fn padded_walker_transforms() {
        let (interp, out) = transformed_interp(&padded_walker(8));
        assert!(out.report("padded").unwrap().converted);
        let l = int_list(&interp, 10);
        // Sequential hooks: still runs.
        interp.call("padded", &[l]).unwrap();
    }

    #[test]
    fn program_names_are_unique_and_every_program_runs_restructured() {
        let table = programs();
        for (i, p) in table.iter().enumerate() {
            assert!(table[..i].iter().all(|q| q.name != p.name), "duplicate program {}", p.name);
            let (interp, _) = p.restructured(Curare::new().with_speculation(true));
            assert!(!p.sequential(&interp, 12).is_empty(), "{}", p.name);
        }
    }

    fn passing(r: &mut Run) {
        r.per_mode(|r, _, mode| {
            r.row([
                ("mode", mode.into()),
                ("sound", true.into()),
                ("bound", model(3.99)),
                ("tasks", count(20_001u64)),
                ("median_ms", host(4.2)),
            ]);
        });
        r.gate("holds", true, "");
    }

    fn failing(r: &mut Run) {
        r.row([("ratio", model(1.2))]);
        r.gate("ratio at least 1.5", false, "1.20 < 1.5");
    }

    fn tripwire(_: &mut Run) {
        panic!("this row must never run");
    }

    static TABLE: &[Experiment] = &[
        Experiment { name: "good", source: "§0", about: "a passing row", run: passing },
        Experiment { name: "bad", source: "§0", about: "a row whose gate fails", run: failing },
    ];

    static TRIPWIRE: &[Experiment] =
        &[Experiment { name: "e8", source: "§0", about: "panics when run", run: tripwire }];

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// The bug this driver fixes: a misspelt name or flag used to
    /// print the banner, run nothing and exit 0.
    #[test]
    fn unknown_name_or_flag_is_a_usage_error_naming_the_table() {
        for (bad, word) in [
            (&["e14"][..], "'e14'"),
            (&["shced"], "'shced'"),
            (&["e8", "--bogus"], "'--bogus'"),
            (&["e8", "--seeds", "4"], "'--seeds'"),
        ] {
            match drive(TRIPWIRE, &args(bad)) {
                Outcome::Usage(message) => {
                    assert!(message.contains(word) && message.contains("names: e8"), "{message}");
                }
                other => panic!("{bad:?} must be rejected, got {other:?}"),
            }
        }
        assert_eq!(Outcome::Usage(String::new()).exit_code(), ExitCode::from(2));
    }

    #[test]
    fn list_prints_the_table_and_runs_nothing() {
        assert_eq!(drive(TRIPWIRE, &args(&["list"])), Outcome::Passed);
        assert_eq!(drive(TRIPWIRE, &args(&["e8", "list", "--json"])), Outcome::Passed);
    }

    #[test]
    fn a_failed_gate_fails_the_drive_and_is_named() {
        assert_eq!(drive(TABLE, &args(&["good", "--quick"])), Outcome::Passed);
        for words in [&["bad"][..], &["good", "bad", "--json"], &[]] {
            assert_eq!(
                drive(TABLE, &args(words)),
                Outcome::Failed(vec!["bad/ratio at least 1.5".to_string()]),
                "{words:?}"
            );
        }
        assert_eq!(Outcome::Failed(vec![]).exit_code(), ExitCode::FAILURE);
    }

    /// Numbers outside a `model` / `count` / `host` tag, by path.
    fn untagged(doc: &Json, path: &str, tagged: bool, out: &mut Vec<String>) {
        match doc {
            Json::Num(_) if !tagged => out.push(path.to_string()),
            Json::Arr(items) => items.iter().for_each(|v| untagged(v, path, false, out)),
            Json::Obj(pairs) => {
                for (key, v) in pairs {
                    let tag = matches!(key.as_str(), "model" | "count" | "host");
                    untagged(v, &format!("{path}.{key}"), tag, out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn the_document_parses_and_every_number_carries_its_tag() {
        let mut run = Run::new("good", true, true);
        passing(&mut run);
        failing(&mut run);
        let keys = ["schema", "experiment", "host_threads", "rows", "gates"];
        let doc = curare::obs::validate_keys(&run.document().to_string(), &keys).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("good"));
        assert_eq!(doc.get("rows").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        let gates = doc.get("gates").and_then(Json::as_arr).unwrap();
        assert_eq!(gates[1].get("ok").and_then(Json::as_bool), Some(false));
        let mut loose = Vec::new();
        untagged(doc.get("rows").unwrap(), "rows", false, &mut loose);
        untagged(doc.get("gates").unwrap(), "gates", false, &mut loose);
        assert!(loose.is_empty(), "untagged numbers at {loose:?}");
        let row = &doc.get("rows").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            row.get("bound").and_then(|c| c.get("model")).and_then(Json::as_f64),
            Some(3.99)
        );
        assert_eq!(
            row.get("tasks").and_then(|c| c.get("count")).and_then(Json::as_u64),
            Some(20_001)
        );
        // The check itself must see a bare number.
        untagged(&Json::obj().set("wall_ns", 5u64), "row", false, &mut loose);
        assert_eq!(loose, ["row.wall_ns"]);
    }
}
