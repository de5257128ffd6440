//! The six workloads: which programs, which inputs, why.
//!
//! A workload is one source file plus the entries a pass runs on it.
//! Everything here is a pure function of `--seed`; the program under
//! test sees only the generated source text and the inputs built in
//! its heap.

use curare::lisp::{Heap, Interp, Val, Value};

use crate::programs::{self, Family};
use crate::reference::{Cell, Expect, Input};
use crate::rng::Rng;

/// Names and one-line reasons, in run order. `BENCHMARK.json` repeats
/// them; `bench self-test` checks the two agree.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "restructure_corpus",
        "64 small defuns, 32-cell runs: reader, analysis, transform, check and compile do the work, the pool almost none",
    ),
    (
        "tiny_grain",
        "Figure 5 over 20000 cells: a handful of VM ops per task, so spawn path, chaining and queues dominate",
    ),
    (
        "tail_heavy",
        "conflict-free 512-step tails over 1000 cells: VM execution is the critical path and parallel speed-up must show",
    ),
    (
        "locked_window",
        "k=4 read-window walker over 2000 cells under synthesised rw locks: the lock table carries the run",
    ),
    (
        "skewed_sites",
        "8-site cri-enqueue spreader, 4000 leaves split 90/10: every task goes through the site queues, stealing and parking",
    ),
    (
        "speculative",
        "speculation on: a clean 4000-cell scrubber, then an aliased mixer that aborts and replays",
    ),
];

/// One function a pass runs: its program family, unique name, input
/// and reference result.
pub struct Entry {
    pub family: Family,
    pub name: String,
    pub input: Input,
    pub expect: Expect,
}

pub struct Workload {
    pub name: &'static str,
    /// The untransformed program text.
    pub source: String,
    /// Transform with `with_speculation(true)` and run the pool with
    /// `speculate: true`.
    pub speculate: bool,
    pub entries: Vec<Entry>,
    /// List length `d` for the §4.1 `T(S)` prediction, where a pass is
    /// one pool run of one recursive walker.
    pub formula_d: Option<u64>,
}

fn entry(family: Family, name: &str, rng: &mut Rng, n: usize) -> Entry {
    let input = family.draw_input(rng, n);
    let expect = family.expect(&input);
    Entry { family, name: name.to_string(), input, expect }
}

fn single(name: &'static str, family: Family, fname: &str, rng: &mut Rng, n: usize) -> Workload {
    let e = entry(family, fname, rng, n);
    Workload {
        name,
        source: programs::file(&[(family, fname.to_string())]),
        speculate: false,
        entries: vec![e],
        formula_d: None,
    }
}

/// The corpus families. Each appears once, then the fifteen that are
/// not window walkers again in this order until there are 64 defuns;
/// the seed decides the order (so which name is which program) and
/// every input. The mix is the same for every seed because the
/// families' restructuring costs differ by three orders of magnitude
/// (0.04 ms for Figure 3, 13 ms for the k=4 four-read window walker):
/// a seed-drawn mix would measure the draw. The six window walkers
/// appear once because they are 35 ms of the 45 ms a pass spends
/// restructuring: a pass three times as long was never free of a slow
/// stretch of this host (README.md, "The estimators, and this host").
const CORPUS_FAMILIES: [Family; 21] = [
    Family::Figure3,
    Family::Figure4,
    Family::Figure5,
    Family::Figure12,
    Family::SumWalk,
    Family::Rotate,
    Family::DistanceK(1),
    Family::DistanceK(2),
    Family::DistanceK(3),
    Family::DistanceK(4),
    Family::Window { k: 1, reads: 2 },
    Family::Window { k: 1, reads: 4 },
    Family::Window { k: 2, reads: 2 },
    Family::Window { k: 2, reads: 4 },
    Family::Window { k: 4, reads: 2 },
    Family::Window { k: 4, reads: 4 },
    Family::Padded(4),
    Family::Padded(16),
    Family::Scrub(8),
    Family::Mix,
    Family::DlBackward,
];
const CORPUS_SIZE: usize = 64;
const CORPUS_CELLS: usize = 32;

impl Workload {
    /// Build workload `name` from `seed`; `None` for an unknown name.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let name = WORKLOADS.iter().find(|(n, _)| *n == name)?.0;
        let rng = &mut Rng::new(seed);
        Some(match name {
            "restructure_corpus" => {
                let again = CORPUS_FAMILIES.iter().filter(|f| !matches!(f, Family::Window { .. }));
                let mut picks: Vec<Family> =
                    CORPUS_FAMILIES.iter().chain(again.cycle()).take(CORPUS_SIZE).copied().collect();
                rng.shuffle(&mut picks);
                let entries: Vec<Entry> = picks
                    .into_iter()
                    .enumerate()
                    .map(|(i, family)| entry(family, &format!("fn{i:02}"), rng, CORPUS_CELLS))
                    .collect();
                let defs: Vec<_> = entries.iter().map(|e| (e.family, e.name.clone())).collect();
                Workload {
                    name,
                    source: programs::file(&defs),
                    speculate: false,
                    entries,
                    formula_d: None,
                }
            }
            "tiny_grain" => Workload {
                formula_d: Some(20_000),
                ..single(name, Family::Figure5, "f", rng, 20_000)
            },
            "tail_heavy" => Workload {
                formula_d: Some(1000),
                ..single(name, Family::TailHeavy(512), "th", rng, 1000)
            },
            "locked_window" => Workload {
                formula_d: Some(2000),
                ..single(name, Family::Window { k: 4, reads: 4 }, "fw", rng, 2000)
            },
            "skewed_sites" => {
                single(name, Family::Spreader { sites: 8, pad: 64 }, "spread", rng, 4000)
            }
            "speculative" => {
                let scrub = entry(Family::Scrub(64), "scrub", rng, 4000);
                let input = Input::Aliased(rng.ints(2000, 1000));
                let expect = Family::Mix.expect(&input);
                let mix = Entry { family: Family::Mix, name: "mix".into(), input, expect };
                Workload {
                    name,
                    source: programs::file(&[
                        (Family::Scrub(64), "scrub".into()),
                        (Family::Mix, "mix".into()),
                    ]),
                    speculate: true,
                    entries: vec![scrub, mix],
                    formula_d: None,
                }
            }
            _ => unreachable!("every name in WORKLOADS has an arm"),
        })
    }
}

/// An entry's input as built in one interpreter's heap: the call
/// arguments plus a handle on every original cell, so the final heap
/// contents can be read back however the program relinked them.
pub struct Built {
    pub args: Vec<Value>,
    pub cells: Vec<Vec<Value>>,
    /// The destination cell of a destination-passing pool call.
    pub dest: Option<Value>,
}

fn int_list(heap: &Heap, values: &[i64]) -> (Value, Vec<Value>) {
    let mut cells = vec![Value::NIL; values.len()];
    let mut tail = Value::NIL;
    for (i, &v) in values.iter().enumerate().rev() {
        tail = heap.cons(Value::int(v), tail);
        cells[i] = tail;
    }
    (tail, cells)
}

impl Entry {
    /// Build the input in `interp`'s heap.
    pub fn build(&self, interp: &Interp) -> Built {
        let heap = interp.heap();
        match &self.input {
            Input::List(l) => {
                let (head, cells) = int_list(heap, l);
                Built { args: vec![head], cells: vec![cells], dest: None }
            }
            Input::TwoLists(a, b) => {
                let (ha, ca) = int_list(heap, a);
                let (hb, cb) = int_list(heap, b);
                Built { args: vec![ha, hb], cells: vec![ca, cb], dest: None }
            }
            Input::Aliased(l) => {
                let (head, cells) = int_list(heap, l);
                Built { args: vec![head, head], cells: vec![cells], dest: None }
            }
            Input::Keyed { key, list } => {
                let (head, cells) = int_list(heap, list);
                Built { args: vec![Value::int(*key), head], cells: vec![cells], dest: None }
            }
            Input::Dl(values) => {
                let ty = heap.find_struct_type("dl").expect("the file defines (defstruct dl ...)");
                let nodes: Vec<Value> = values
                    .iter()
                    .map(|&v| heap.make_struct(ty, &[Value::NIL, Value::NIL, Value::int(v)]))
                    .collect();
                for pair in nodes.windows(2) {
                    heap.struct_set(pair[0], 0, pair[1]).expect("succ slot");
                    heap.struct_set(pair[1], 1, pair[0]).expect("pred slot");
                }
                Built {
                    args: vec![nodes.first().copied().unwrap_or(Value::NIL)],
                    cells: vec![nodes],
                    dest: None,
                }
            }
        }
    }

    /// Function and arguments for the pool run of the transformed
    /// program. `remq` is driven through its destination-passing entry
    /// `<name>-d` (the pool returns no value) with a fresh destination
    /// cell prepended, kept in `built.dest` for `verify`.
    pub fn pool_call(&self, interp: &Interp, built: &mut Built) -> (String, Vec<Value>) {
        if self.family == Family::Figure12 {
            let dest = interp.heap().cons(Value::NIL, Value::NIL);
            built.dest = Some(dest);
            let mut args = vec![dest];
            args.extend(&built.args);
            (format!("{}-d", self.name), args)
        } else {
            (self.name.clone(), built.args.clone())
        }
    }

    /// Check the state a run left behind against the reference.
    /// `returned` is the call's value where the engine gives one (the
    /// sequential run); `output` the lines the run printed.
    pub fn verify(
        &self,
        interp: &Interp,
        built: &Built,
        returned: Option<Value>,
        output: &[String],
    ) -> Result<(), String> {
        let heap = interp.heap();
        let fail = |what: String| Err(format!("{}: {what}", self.name));
        for (want, cells) in self.expect.cells.iter().zip(&built.cells) {
            for (i, (w, &cell)) in want.iter().zip(cells).enumerate() {
                let got = match cell.decode() {
                    Val::Cons(_) => heap.car(cell),
                    _ => heap.struct_ref(cell, 2),
                }
                .map_err(|e| format!("{}: cell {i}: {e}", self.name))?;
                if decode_cell(got) != Ok(*w) {
                    return fail(format!("cell {i} holds {}, want {w:?}", heap.display(got)));
                }
                if self.expect.cdr_is_car && heap.cdr(cell).ok() != Some(got) {
                    return fail(format!("cell {i}: cdr differs from car"));
                }
            }
        }
        if let Some(want) = self.expect.global {
            let sym = heap.intern(&format!("*{}*", self.name));
            match interp.get_global(sym) {
                Ok(v) if v == Value::int(want) => {}
                other => return fail(format!("global is {other:?}, want {want}")),
            }
        }
        if output != self.expect.output.as_slice() {
            return fail(format!("printed {} lines that differ from the reference", output.len()));
        }
        if let Some(want) = &self.expect.result {
            let list = match (returned, built.dest) {
                (Some(v), _) => v,
                (None, Some(dest)) => heap.cdr(dest).map_err(|e| e.to_string())?,
                (None, None) => return fail("no result to check".into()),
            };
            let got = heap.list_to_vec(list).map_err(|e| e.to_string())?;
            let want: Vec<Value> = want.iter().map(|&v| Value::int(v)).collect();
            if got != want {
                return fail(format!("returned {}", heap.display(list)));
            }
        }
        Ok(())
    }
}

fn decode_cell(v: Value) -> Result<Cell, ()> {
    match v.decode() {
        Val::Nil => Ok(None),
        Val::Int(i) => Ok(Some(i)),
        _ => Err(()),
    }
}
