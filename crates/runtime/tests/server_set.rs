//! The process-wide server set: a runtime borrows its servers at
//! construction and returns them, parked, before its `Drop` returns.
//! Runtimes created and dropped over and over, from many threads at
//! once, run correctly on the threads the set already has: the process
//! never holds more server threads than were ever borrowed at once, and
//! an idle set costs no CPU.
//!
//! Both tests read the set's threads (named `cri-server`) and their CPU
//! time, so they hold this file's guard: neither runs beside the other.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use curare_lisp::{Interp, Value};
use curare_runtime::CriRuntime;
use curare_transform::Curare;

static GUARD: Mutex<()> = Mutex::new(());

const FIGURE_5: &str = "(defun f5 (l)
                          (cond ((null l) nil)
                                ((null (cdr l)) (f5 (cdr l)))
                                (t (setf (cadr l) (+ (car l) (cadr l)))
                                   (f5 (cdr l)))))";
const CELLS: i64 = 50;

fn load() -> Arc<Interp> {
    let out = Curare::new().transform_source(FIGURE_5).expect("transforms");
    let interp = Arc::new(Interp::new());
    interp.load_str(&out.source()).expect("loads");
    interp
}

/// One create → run → drop cycle of an `servers`-server runtime over a
/// fresh list of ones, checked against Figure 5's sequential answer
/// (the prefix sums), returning the set's thread count while the
/// runtime was alive.
fn cycle(interp: &Arc<Interp>, servers: usize) -> usize {
    let l = (0..CELLS).fold(Value::NIL, |l, _| interp.heap().cons(Value::int(1), l));
    let rt = CriRuntime::new(Arc::clone(interp), servers);
    let threads = server_tasks().len();
    rt.run("f5", &[l]).expect("runs");
    assert_eq!(rt.stats().tasks, CELLS as u64 + 1);
    drop(rt);
    let want = (1..=CELLS).map(|i| i.to_string()).collect::<Vec<_>>().join(" ");
    assert_eq!(interp.heap().display(l), format!("({want})"));
    threads
}

/// The `/proc/self/task` directory of each of the process's server-set
/// threads (named `cri-server`; none where there is no `/proc`). A
/// caller thread the test has joined may stay listed there until the
/// kernel reaps it, so the set is counted by name, not by the
/// process's thread total.
fn server_tasks() -> Vec<PathBuf> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            (name.trim() == "cri-server").then_some(dir)
        })
        .collect()
}

#[test]
fn runtimes_from_eight_threads_reuse_the_set() {
    let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    let (callers, cycles) = (8, 100);
    for servers in [1, 2, 4] {
        // Peak demand: every caller holds an S-server runtime at once.
        let bound = callers * servers;
        let peak = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..callers)
                .map(|_| {
                    scope.spawn(move || {
                        let interp = load();
                        (0..cycles).map(|_| cycle(&interp, servers)).max().unwrap_or(0)
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().expect("every run is correct")).max()
        });
        let peak = peak.unwrap_or(0);
        assert!(peak <= bound, "S = {servers}: {peak} server threads, more than {bound}");
        // The servers are back in the set, and it holds no more than
        // peak demand.
        let after = server_tasks().len();
        assert!(after <= bound, "S = {servers}: {after} server threads, more than {bound}");
    }
}

/// The number of server-set threads and their CPU time in ns, from
/// each thread's `schedstat`. (`/proc/self/stat` counts in 10 ms clock
/// ticks, too coarse to tell 1 ms from none.)
#[cfg(target_os = "linux")]
fn set_cpu_ns() -> (usize, u64) {
    let ns: Vec<u64> = server_tasks()
        .into_iter()
        .filter_map(|dir| {
            let stat = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .collect();
    (ns.len(), ns.iter().sum())
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_set_costs_no_cpu() {
    let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    let interp = load();
    cycle(&interp, 4);
    // Let the returned servers reach their mailboxes.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let (servers, before) = set_cpu_ns();
    assert!(servers >= 4, "the set holds the four servers it lent: {servers}");
    std::thread::sleep(std::time::Duration::from_millis(200));
    let spent = set_cpu_ns().1 - before;
    assert!(spent <= 1_000_000, "the idle set used {spent} ns of CPU in 200 ms");
}
