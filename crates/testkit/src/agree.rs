//! The one oracle: §3.1.1's sequentializability as a test. A program
//! run under any [`Config`] must leave what the sequential tree-walker
//! leaves — the root's value, the printed output, the heap its
//! arguments reach and the globals.

use std::collections::{BTreeMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

use curare_bench::Leaves;
use curare_lisp::value::Val;
use curare_lisp::{Heap, Interp, LispError, Value};
use curare_runtime::chaos::{self, ChaosProfile, FaultPlan};
use curare_runtime::{CriRuntime, PoolStats, RuntimeConfig, SchedMode};
use curare_transform::Curare;

use crate::{guard, with_big_stack};

/// The text the oracle runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// The program as written.
    Written,
    /// The text each pooled config runs (restructured, under
    /// speculation where the config speculates), run sequentially: for
    /// entries such as `remq-d` that exist only after restructuring.
    Restructured,
}

/// How printed lines are compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Output {
    /// Line for line, in order.
    InOrder,
    /// As a multiset: servers may interleave lines.
    Multiset,
}

/// Builds a run's arguments on a fresh interpreter's heap.
type Build = Arc<dyn Fn(&Interp) -> Vec<Value> + Send + Sync>;

/// A program and what a run of it is judged by.
#[derive(Clone)]
pub struct Program {
    /// Names the program in a failure: its battery, seed and case.
    pub name: String,
    /// The program as written.
    pub source: String,
    /// The function a run calls. `None`: the text is the whole
    /// program, and the value of its last form is the root's.
    pub entry: Option<String>,
    /// The entry's arguments, built on a fresh interpreter's heap.
    pub args: Build,
    /// Forms loaded after the program, before the run.
    pub setup: String,
    pub oracle: Oracle,
    pub output: Output,
    /// Whether the root's value is compared. Off only where the value
    /// rides on a tail self-call, which a pool without in-place
    /// restarts drops (ROADMAP item 1(a), open).
    pub root_value: bool,
}

impl Program {
    /// `source` as a whole program: its last form's value is the root's.
    pub fn text(name: impl Into<String>, source: &str) -> Program {
        Program {
            name: name.into(),
            source: source.to_string(),
            entry: None,
            args: Arc::new(|_| Vec::new()),
            setup: String::new(),
            oracle: Oracle::Written,
            output: Output::InOrder,
            root_value: true,
        }
    }

    /// `source` entered at `entry`, with no arguments until `args` is set.
    pub fn entered(name: impl Into<String>, source: &str, entry: &str) -> Program {
        Program { entry: Some(entry.to_string()), ..Program::text(name, source) }
    }

    /// The row of `curare-bench`'s program table called `name`, entered
    /// at size `n` and judged against its restructured text (the table's
    /// `remq-d` exists only there). A destination-passing entry's value
    /// is the tail self-call's: it is not compared.
    pub fn named(name: &str, n: i64) -> Program {
        let row = curare_bench::Program::named(name);
        let build = row.args;
        Program {
            args: Arc::new(move |interp| build(interp, n)),
            setup: row.setup.to_string(),
            oracle: Oracle::Restructured,
            root_value: !matches!(row.returns, curare_bench::Returns::DestCdr),
            ..Program::entered(format!("{name} (n = {n})"), &row.source, row.entry)
        }
    }
}

/// The engine a config's interpreter runs bodies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Tree,
    Vm,
    Unfused,
}

/// One way to run a program: one choice from each axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    pub engine: Engine,
    /// Servers. 0: no pool — the oracle's text, run sequentially.
    pub servers: usize,
    pub mode: SchedMode,
    /// A chaos plan, by profile name (a `--chaos-profile` name, or
    /// `shuffle-all`) and seed.
    pub chaos: Option<(&'static str, u64)>,
    pub speculate: bool,
}

impl Config {
    /// The oracle's text on `engine`, no pool.
    pub const fn sequential(engine: Engine) -> Config {
        Config { engine, servers: 0, mode: SchedMode::Sharded, chaos: None, speculate: false }
    }

    /// The restructured text on the VM over a pool.
    pub const fn pool(servers: usize, mode: SchedMode) -> Config {
        Config { servers, mode, ..Config::sequential(Engine::Vm) }
    }

    /// This config under the chaos plan `profile` drawn from `seed`.
    pub fn chaos(self, profile: &'static str, seed: u64) -> Config {
        Config { chaos: Some((profile, seed)), ..self }
    }

    /// This config speculating.
    pub fn speculating(self) -> Config {
        Config { speculate: true, ..self }
    }
}

/// Run `program` under every config and require each to leave what
/// the sequential tree-walker leaves; returns each config's pool
/// statistics (the default for a config with no pool). A divergence
/// or a failed run panics with the program, the config and a line
/// that reproduces it. Takes [`guard`] itself while a config arms a
/// chaos plan or speculation, so the caller must not hold it.
pub fn agree(program: &Program, configs: &[Config]) -> Vec<PoolStats> {
    let runs = || {
        panic::catch_unwind(AssertUnwindSafe(|| {
            let mut oracles: [Option<Leaves>; 2] = [None, None];
            let mut stats = Vec::with_capacity(configs.len());
            for config in configs {
                let oracle = oracles[usize::from(config.speculate)]
                    .get_or_insert_with(|| oracle(program, config.speculate));
                let (mut got, pool, call) = run(program, config);
                if !program.root_value {
                    got.value.clone_from(&oracle.value);
                }
                if &got != oracle {
                    // `curare run` prints the value and the output only.
                    let shown = got.value != oracle.value || got.output != oracle.output;
                    let what = format!("oracle {oracle:?}\n   got {got:?}");
                    fail(program, config, Some((&call, shown)), &what);
                }
                stats.push(pool);
            }
            stats
        }))
    };
    // An entered program's sequential runs recurse a frame per list
    // cell: they get a big stack (one thread for every run; a failure's
    // message is re-raised here). A whole-program text nests only as
    // deep as its forms.
    let agreed = if program.entry.is_some() { with_big_stack(runs) } else { runs() };
    agreed.unwrap_or_else(|failure| panic::resume_unwind(failure))
}

/// The text a config runs: restructured for a pool, else the oracle's.
/// Restructuring is a function of the text, so each text is
/// restructured once per process (a battery runs one program at many
/// sizes, seeds and configs).
fn text(program: &Program, config: &Config) -> String {
    static RESTRUCTURED: Mutex<BTreeMap<(String, bool), String>> = Mutex::new(BTreeMap::new());
    let restructure = config.servers > 0 || program.oracle == Oracle::Restructured;
    if !restructure {
        return program.source.clone();
    }
    let key = (program.source.clone(), config.speculate);
    if let Some(text) = RESTRUCTURED.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
        return text.clone();
    }
    let curare = Curare::new().with_speculation(config.speculate);
    let text = match curare.transform_source(&program.source) {
        Ok(out) => out.source(),
        Err(e) => fail(program, config, None, &format!("does not restructure: {e}")),
    };
    RESTRUCTURED.lock().unwrap_or_else(PoisonError::into_inner).insert(key, text.clone());
    text
}

fn oracle(program: &Program, speculate: bool) -> Leaves {
    let config = Config { speculate, ..Config::sequential(Engine::Tree) };
    run(program, &config).0
}

/// A fresh interpreter on `engine` holding `text` and the setup forms;
/// for a whole-program text, also the root's value (or error).
fn load(program: &Program, config: &Config, text: &str) -> (Interp, Option<String>) {
    let interp = if config.engine == Engine::Unfused { Interp::unfused() } else { Interp::new() };
    if config.engine == Engine::Tree {
        interp.set_engine(curare_lisp::Engine::Tree);
    }
    interp.set_recursion_limit(10_000_000);
    let loaded = interp.load_str(text);
    let value = match (&program.entry, loaded) {
        (None, Ok(v)) => Some(format!("ok: {}", interp.heap().display(v))),
        (None, Err(e)) => Some(format!("err: {e}")),
        (Some(_), Ok(_)) => None,
        (Some(_), Err(e)) => fail(program, config, None, &format!("does not load: {e}")),
    };
    if !program.setup.is_empty() {
        interp.load_str(&program.setup).expect("setup loads");
    }
    (interp, value)
}

/// One run of `program` under `config`: what it left, its pool's
/// statistics and the call it made.
fn run(program: &Program, config: &Config) -> (Leaves, PoolStats, Call) {
    let armed = config.chaos.is_some() || (config.speculate && config.servers > 0);
    let _g = armed.then(guard);
    let _plan = config
        .chaos
        .map(|(profile, seed)| Installed::plan(FaultPlan::new(seed, chaos_profile(profile))));
    let (interp, value) = load(program, config, &text(program, config));
    // The arguments are built before a pool installs its hooks: a
    // builder that calls the program runs it sequentially.
    let call = Call::build(program, &interp);
    if config.servers == 0 {
        let left = observe(program, config, &interp, value, &call, |f, a| interp.call(f, a));
        return (left, PoolStats::default(), call);
    }
    let interp = Arc::new(interp);
    let runtime = RuntimeConfig {
        mode: config.mode,
        speculate: config.speculate,
        ..RuntimeConfig::default()
    };
    let rt = CriRuntime::with_config(Arc::clone(&interp), config.servers, runtime);
    let left = observe(program, config, &interp, value, &call, |f, a| rt.run(f, a));
    (left, rt.stats(), call)
}

/// Make `call` through `enter` (for a whole-program text, `value` is
/// the root's already) and say what the run left.
fn observe(
    program: &Program,
    config: &Config,
    interp: &Interp,
    value: Option<String>,
    call: &Call,
    enter: impl FnOnce(&str, &[Value]) -> Result<Value, LispError>,
) -> Leaves {
    let value = match (value, &program.entry) {
        (Some(value), _) => value,
        (None, entry) => match enter(entry.as_deref().expect("an entered program"), &call.args) {
            Ok(v) => interp.heap().display(v),
            Err(e) => fail(program, config, Some((call, true)), &format!("run failed: {e}")),
        },
    };
    let mut left = Leaves::of(interp, &call.args, value);
    if program.output == Output::Multiset {
        left.output.sort();
    }
    left
}

/// The entry call a run makes, rendered before the run.
struct Call {
    args: Vec<Value>,
    /// `(entry 'arg …)`; empty for a whole-program text.
    text: String,
    /// Whether the quoted arguments read back as the ones built: plain
    /// data (integers, symbols, strings, conses), no cons reached twice.
    plain: bool,
}

impl Call {
    /// Build the entry's arguments on `interp` (its load's output
    /// dropped first: the run's output is the call's).
    fn build(program: &Program, interp: &Interp) -> Call {
        match &program.entry {
            Some(entry) => {
                interp.take_output();
                Call::of(interp.heap(), entry, (program.args)(interp))
            }
            None => Call { args: Vec::new(), text: String::new(), plain: true },
        }
    }

    fn of(heap: &Heap, entry: &str, args: Vec<Value>) -> Call {
        let quoted: String = args.iter().map(|&a| format!(" '{}", heap.display(a))).collect();
        let (mut seen, mut todo) = (HashSet::new(), args.clone());
        let mut plain = true;
        while let (true, Some(v)) = (plain, todo.pop()) {
            plain = match v.decode() {
                Val::Nil | Val::T | Val::Int(_) | Val::Sym(_) | Val::Str(_) => true,
                Val::Cons(id) if seen.insert(id) => {
                    todo.extend([heap.car_of(id), heap.cdr_of(id)]);
                    true
                }
                _ => false,
            };
        }
        Call { args, text: format!("({entry}{quoted})"), plain }
    }
}

/// The chaos profile `name`: one `--chaos-profile` takes, or
/// `shuffle-all` — every dequeue shuffled, one task start in five
/// delayed up to 50 µs — which only a test can arm.
fn chaos_profile(name: &'static str) -> ChaosProfile {
    match name {
        "shuffle-all" => ChaosProfile {
            shuffle_ppm: 1_000_000,
            delay_ppm: 200_000,
            delay_max_us: 50,
            ..ChaosProfile::quiet(name)
        },
        _ => ChaosProfile::named(name).expect("a named chaos profile"),
    }
}

/// A chaos plan installed until this is dropped — on an unwinding
/// assertion too, so one failure cannot leak the plan into every later
/// test.
struct Installed;

impl Installed {
    fn plan(plan: Arc<FaultPlan>) -> Installed {
        chaos::install(Some(plan));
        Installed
    }
}

impl Drop for Installed {
    fn drop(&mut self) {
        chaos::install(None);
    }
}

/// Panic with the program, the config, the call made (if one was, and
/// whether `curare run`'s printout would show the failure) and the
/// line that reproduces the run: a `curare run` command where the CLI
/// can run the config, the call and the oracle and print the
/// difference, else the `agree` call.
fn fail(program: &Program, config: &Config, call: Option<(&Call, bool)>, what: &str) -> ! {
    let cli = config.servers > 0
        && config.mode == SchedMode::Sharded
        && config.engine == Engine::Vm
        && config.chaos.is_none_or(|(profile, _)| ChaosProfile::NAMES.contains(&profile))
        && program.oracle == Oracle::Written;
    let reproduce = match call {
        Some((call, true)) if cli && call.plain => {
            let speculate = if config.speculate { " --speculate" } else { "" };
            let chaos = config
                .chaos
                .map(|(profile, seed)| format!(" --chaos-seed {seed} --chaos-profile {profile}"))
                .unwrap_or_default();
            let call = match &program.entry {
                Some(_) => format!(" --call \"{}\"", call.text),
                None => String::new(),
            };
            format!(
                "save the program as p.lisp, then\n  curare run p.lisp --servers {}{speculate}\
                 {chaos}{call}\nagainst\n  curare run p.lisp --sequential{call}",
                config.servers
            )
        }
        _ => format!("curare_testkit::agree(&program, &[{config:?}]) with `program` the one above"),
    };
    let entry = call.map_or("", |(call, _)| &call.text);
    panic!(
        "agree: {} under {config:?}: {what}\nprogram:\n{}\n{}\nentry: {entry}\nreproduce: {reproduce}",
        program.name, program.source, program.setup
    )
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::list_of;

    /// A walker over `(mk n)`, a list the program builds, one cell
    /// longer at every call of the builder: the oracle sees `(1)`, the
    /// config under test `(2 1)`. `printing`: the walker prints each
    /// cell, so the divergence shows in the output too.
    fn growing(printing: bool) -> Program {
        let calls = AtomicUsize::new(0);
        let print = if printing { "(print (car l)) " } else { "" };
        let source = format!(
            "(defun mk (n) (when (> n 0) (cons n (mk (- n 1)))))
             (defun w (l) (when l {print}(w (cdr l))))"
        );
        Program {
            args: Arc::new(move |interp| {
                let n = calls.fetch_add(1, Ordering::Relaxed) as i64 + 1;
                vec![interp.call("mk", &[Value::int(n)]).expect("mk builds")]
            }),
            ..Program::entered("growing", &source, "w")
        }
    }

    #[test]
    #[should_panic(expected = "--servers 2 --chaos-seed 5 --chaos-profile reorder \
                               --call \"(w '(2 1))\"")]
    fn a_divergence_the_cli_can_show_prints_its_curare_run_line() {
        agree(&growing(true), &[Config::pool(2, SchedMode::Sharded).chaos("reorder", 5)]);
    }

    /// `curare run` prints no heap: a divergence there alone is
    /// reproduced by the `agree` call, beside the call the run made.
    #[test]
    #[should_panic(expected = "entry: (w '(2 1))\nreproduce: curare_testkit::agree(")]
    fn a_divergence_in_the_heap_alone_prints_the_agree_call() {
        agree(&growing(false), &[Config::pool(2, SchedMode::Sharded)]);
    }

    #[test]
    #[should_panic(expected = "curare_testkit::agree(&program, &[Config { engine: Unfused")]
    fn a_divergence_the_cli_cannot_run_prints_the_agree_call() {
        agree(&growing(true), &[Config::sequential(Engine::Unfused)]);
    }

    /// Quoted, a list passed twice reads back as two lists.
    #[test]
    fn a_call_is_plain_only_without_shared_cells() {
        let interp = Interp::new();
        let l = list_of(&interp, 1..=3);
        let nested = interp.heap().cons(l, Value::NIL);
        let heap = interp.heap();
        assert!(Call::of(heap, "w", vec![l]).plain && Call::of(heap, "w", vec![nested]).plain);
        assert!(!Call::of(heap, "w", vec![l, nested]).plain, "l is reached twice");
        let aliased = Call::of(heap, "mix", vec![l, l]);
        assert_eq!(aliased.text, "(mix '(1 2 3) '(1 2 3))");
        assert!(!aliased.plain);
    }

    #[test]
    fn every_engine_and_pool_agrees_on_a_walker() {
        let walker = crate::Walker::family()[0];
        assert_eq!(crate::Walker::family().len(), 192);
        let configs = [
            Config::sequential(Engine::Vm),
            Config::sequential(Engine::Unfused),
            Config::pool(1, SchedMode::Central),
            Config { engine: Engine::Tree, ..Config::pool(2, SchedMode::Sharded) },
            Config::pool(4, SchedMode::Sharded).chaos("mixed", 1).speculating(),
        ];
        let stats = agree(&walker.program(7), &configs);
        assert_eq!(stats[0].tasks, 0, "no pool, no tasks");
        assert!(stats[2..].iter().all(|s| s.tasks > 0), "{stats:?}");
    }
}
