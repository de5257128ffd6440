//! `bench self-test`: the benchmark's checks, checked.
//!
//! - the committed `BENCHMARK.json` is what the metric tables print;
//! - every workload's pass verifies against the Rust reference on both
//!   engines;
//! - a corrupted heap, after the clock stops, turns the pass into a
//!   counted failure, so `failed` and `failed_share` are live;
//! - the reference functions agree with hand-worked cases.

use std::process::ExitCode;

use curare::lisp::{Interp, Val, Value};
use curare::runtime::SchedMode;

use crate::default_servers;
use crate::measure::Tally;
use crate::metrics::manifest_text;
use crate::pass::{pool_pass, seq_pass, PoolSetup};
use crate::programs::Family;
use crate::reference::Input;
use crate::workload::{Built, Workload, WORKLOADS};

/// Overwrite the first original cell of the first entry.
fn corrupt(interp: &Interp, built: &[Built]) {
    let cell = built[0].cells[0][0];
    let bogus = Value::int(-77);
    match cell.decode() {
        Val::Cons(_) => interp.heap().set_car(cell, bogus).expect("a cons cell"),
        _ => interp.heap().struct_set(cell, 2, bogus).expect("a dl node"),
    }
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    println!("{} {what}", if ok { "ok  " } else { "FAIL" });
    if ok {
        Ok(())
    } else {
        Err(format!("self-test failed: {what}"))
    }
}

pub fn run() -> Result<ExitCode, String> {
    let committed = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    check(committed.trim_end() == manifest_text(), "BENCHMARK.json matches `bench manifest`")?;
    check(
        WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')),
        "every workload's reason is one line of at most 200 characters",
    )?;

    // Hand-worked reference cases.
    let cells = |f: Family, i: &Input| f.expect(i).cells;
    let list = |v: &[i64]| Input::List(v.to_vec());
    check(
        cells(Family::Figure5, &list(&[1, 2, 3, 4]))[0] == [Some(1), Some(3), Some(6), Some(10)],
        "reference: Figure 5 is a running sum",
    )?;
    check(
        cells(Family::DistanceK(2), &list(&[1, 2, 3, 4]))[0]
            == [Some(1), Some(2), Some(1), Some(2)],
        "reference: distance-2 writer copies originals two ahead",
    )?;
    check(
        cells(Family::Window { k: 1, reads: 2 }, &list(&[1, 2, 3, 4]))[0]
            == [Some(2), Some(4), Some(3), Some(4)],
        "reference: k=1 window walker doubles all but the last two",
    )?;
    check(
        cells(Family::Mix, &Input::Aliased(vec![5, 6, 7, 8]))[0] == [Some(5), None, None, None],
        "reference: (mix l l) floods nil back through the unwind",
    )?;
    check(
        cells(Family::DlBackward, &Input::Dl(vec![1, 2, 3]))[0] == [Some(2), Some(3), Some(3)],
        "reference: backward writer shifts values left",
    )?;

    let pool = PoolSetup { servers: default_servers(), mode: SchedMode::Sharded };
    for (name, _) in WORKLOADS {
        let w = Workload::build(name, 1).expect("a listed workload");
        let mut tally = Tally::default();
        let clean = tally.record(pool_pass(&w, pool, &|_, _| {})).is_some()
            && tally.record(seq_pass(&w)).is_some();
        check(clean && tally.failed == 0, &format!("{name}: pool and sequential runs verify"))?;
        let caught = tally.record(pool_pass(&w, pool, &corrupt)).is_none();
        check(
            caught && tally.failed == 1 && tally.attempted == 3,
            &format!("{name}: a corrupted cell is counted as a failed pass"),
        )?;
    }
    println!("self-test passed");
    Ok(ExitCode::SUCCESS)
}
