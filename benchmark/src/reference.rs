//! Reference results, computed in Rust from the generated inputs.
//!
//! The expected value of every run comes from here, never from an
//! engine of this repository: the pool run *and* the sequential
//! interpreter run are both held to it. Each function below states
//! the sequential semantics of one program family in index arithmetic
//! over the input vectors.

use crate::programs::Family;
use crate::rng::Rng;

/// A list cell's car: an integer, or `None` for nil.
pub type Cell = Option<i64>;

/// The argument shape a family's entry function takes.
#[derive(Debug, Clone)]
pub enum Input {
    /// `(f l)`.
    List(Vec<i64>),
    /// `(f a b)` on two disjoint lists.
    TwoLists(Vec<i64>, Vec<i64>),
    /// `(f l l)`: the same list passed twice.
    Aliased(Vec<i64>),
    /// `(f key l)`.
    Keyed { key: i64, list: Vec<i64> },
    /// `(f n)` on the first node of a doubly linked chain.
    Dl(Vec<i64>),
}

/// Everything a run is checked against.
#[derive(Debug, Clone, Default)]
pub struct Expect {
    /// Final car (or node value) of every original cell, one vector
    /// per distinct input structure.
    pub cells: Vec<Vec<Cell>>,
    /// Every original cell's cdr must equal its car (`rotate`).
    pub cdr_is_car: bool,
    /// Final value of the entry's global `*name*`.
    pub global: Option<i64>,
    /// Lines printed, in order.
    pub output: Vec<String>,
    /// The list the function returns (`remq`).
    pub result: Option<Vec<i64>>,
    /// Calls of the recursive function (leaf calls included) the
    /// sequential execution makes: the pool must run exactly this many
    /// tasks when the function is converted, and exactly one when it
    /// is not.
    pub invocations: u64,
}

fn some(v: &[i64]) -> Vec<Cell> {
    v.iter().copied().map(Some).collect()
}

impl Family {
    /// Draw an input of `n` cells. Values are small so that running
    /// sums and doublings stay far from overflow.
    pub fn draw_input(self, rng: &mut Rng, n: usize) -> Input {
        match self {
            Family::Mix => Input::TwoLists(rng.ints(2 * n, 1000), rng.ints(n, 1000)),
            Family::Figure12 => Input::Keyed { key: 0, list: rng.ints(n, 4) },
            Family::DlBackward => Input::Dl(rng.ints(n, 1000)),
            Family::Spreader { sites, .. } => {
                // 90 % of the leaves on the first site, the rest spread
                // evenly over the others, order shuffled by the seed.
                let hot = n * 9 / 10;
                let mut vals: Vec<i64> = vec![0; hot];
                vals.extend((0..n - hot).map(|i| (1 + i % (sites - 1)) as i64));
                rng.shuffle(&mut vals);
                Input::List(vals)
            }
            _ => Input::List(rng.ints(n, 100)),
        }
    }

    /// The sequential result of this family's entry on `input`.
    pub fn expect(self, input: &Input) -> Expect {
        match (self, input) {
            (Family::Figure3, Input::List(l)) => Expect {
                cells: vec![some(l)],
                output: l.iter().map(i64::to_string).collect(),
                invocations: l.len() as u64 + 1,
                ..Expect::default()
            },
            (Family::Figure4, Input::List(l)) => Expect {
                // Each cell copies its (already overwritten) car one
                // ahead: the first value floods the list.
                cells: vec![vec![l.first().copied(); l.len()]],
                invocations: l.len().max(1) as u64,
                ..Expect::default()
            },
            (Family::Figure5, Input::List(l)) => {
                let mut acc = 0;
                let sums = l
                    .iter()
                    .map(|v| {
                        acc += v;
                        Some(acc)
                    })
                    .collect();
                Expect { cells: vec![sums], invocations: l.len() as u64 + 1, ..Expect::default() }
            }
            (Family::Figure12, Input::Keyed { key, list }) => Expect {
                cells: vec![some(list)],
                result: Some(list.iter().copied().filter(|v| v != key).collect()),
                invocations: list.len() as u64 + 1,
                ..Expect::default()
            },
            (Family::SumWalk, Input::List(l)) => Expect {
                cells: vec![some(l)],
                global: Some(l.iter().sum()),
                invocations: l.len() as u64 + 1,
                ..Expect::default()
            },
            (Family::Rotate, Input::List(l)) => Expect {
                cells: vec![some(l)],
                cdr_is_car: true,
                invocations: l.len() as u64 + 1,
                ..Expect::default()
            },
            (Family::DistanceK(k), Input::List(l)) => {
                // Tails run in unwind order (last cell first), so cell
                // i's car is still the original when it is copied to
                // cell i+k.
                let cells =
                    (0..l.len()).map(|j| Some(if j >= k { l[j - k] } else { l[j] })).collect();
                Expect { cells: vec![cells], invocations: l.len() as u64 + 1, ..Expect::default() }
            }
            (Family::Window { k, .. }, Input::List(l)) => {
                // The guard needs k+1 cells ahead, so the walk stops
                // k+1 cells from the end; every visited cell doubles.
                let visited = l.len().saturating_sub(k + 1);
                let cells =
                    l.iter().enumerate().map(|(i, v)| Some(if i < visited { v * 2 } else { *v }));
                Expect {
                    cells: vec![cells.collect()],
                    invocations: visited as u64 + 1,
                    ..Expect::default()
                }
            }
            (Family::Padded(_), Input::List(l)) => Expect {
                cells: vec![some(l)],
                invocations: l.len() as u64 + 1,
                ..Expect::default()
            },
            (Family::Scrub(pad) | Family::TailHeavy(pad), Input::List(l)) => Expect {
                cells: vec![l.iter().map(|v| Some(v + pad as i64)).collect()],
                invocations: l.len() as u64 + 1,
                ..Expect::default()
            },
            (Family::Mix, Input::TwoLists(a, b)) => Expect {
                cells: vec![some(a), (0..b.len()).map(|i| a.get(2 * i).copied()).collect()],
                invocations: b.len() as u64 + 1,
                ..Expect::default()
            },
            (Family::Mix, Input::Aliased(l)) => {
                // Invocation i holds a = cell 2i and b = cell i of the
                // same list; the writes happen in unwind order, so a
                // read of cell 2i sees what invocation 2i already
                // wrote there. Simulate it.
                let mut cells = some(l);
                for i in (0..l.len()).rev() {
                    cells[i] = cells.get(2 * i).copied().flatten();
                }
                Expect { cells: vec![cells], invocations: l.len() as u64 + 1, ..Expect::default() }
            }
            (Family::DlBackward, Input::Dl(v)) => {
                // Node i (i ≥ 1) copies its value into node i-1 before
                // node i+1 overwrites it: a left shift.
                let cells = (0..v.len()).map(|i| Some(*v.get(i + 1).unwrap_or(&v[i]))).collect();
                Expect { cells: vec![cells], invocations: v.len() as u64 + 1, ..Expect::default() }
            }
            (Family::Spreader { .. }, Input::List(l)) => Expect {
                cells: vec![some(l)],
                global: Some(l.iter().map(|v| v + 1).sum()),
                invocations: 2 * l.len() as u64 + 1,
                ..Expect::default()
            },
            (family, input) => panic!("{family:?} does not take {input:?}"),
        }
    }
}
