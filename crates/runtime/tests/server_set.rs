//! The process-wide server set: a runtime borrows its servers at
//! construction and returns them, parked, before its `Drop` returns.
//! Runtimes created and dropped over and over, from many threads at
//! once, run correctly on the threads the set already has: the process
//! never holds more server threads than were ever borrowed at once, and
//! an idle set costs no CPU.
//!
//! Both tests read process-wide counts (threads, CPU time), so they
//! hold this file's guard: neither runs beside the other.

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
/// (the prefix sums), returning the process's thread count while the
/// runtime was alive.
fn cycle(interp: &Arc<Interp>, servers: usize) -> usize {
    let l = (0..CELLS).fold(Value::NIL, |l, _| interp.heap().cons(Value::int(1), l));
    let rt = CriRuntime::new(Arc::clone(interp), servers);
    let threads = process_threads();
    rt.run("f5", &[l]).expect("runs");
    assert_eq!(rt.stats().tasks, CELLS as u64 + 1);
    drop(rt);
    let want = (1..=CELLS).map(|i| i.to_string()).collect::<Vec<_>>().join(" ");
    assert_eq!(interp.heap().display(l), format!("({want})"));
    threads
}

/// The `Threads:` line of `/proc/self/status` (0 where there is none).
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn runtimes_from_eight_threads_reuse_the_set() {
    let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    let (callers, cycles) = (8, 100);
    let start = process_threads();
    for servers in [1, 2, 4] {
        // Peak demand: every caller holds an S-server runtime at once.
        let bound = start + callers + callers * servers;
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
        assert!(peak <= bound, "S = {servers}: {peak} threads, more than {bound}");
        // The servers are back in the set: the callers are gone, and the
        // set holds no more than peak demand.
        assert!(process_threads() <= start + callers * servers, "S = {servers}");
    }
}

/// The process's server-set threads (named `cri-server`) and their
/// CPU time in ns, from each thread's `schedstat`. (`/proc/self/stat`
/// counts in 10 ms clock ticks, too coarse to tell 1 ms from none.)
#[cfg(target_os = "linux")]
fn set_cpu_ns() -> (usize, u64) {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    let ns: Vec<u64> = tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            if name.trim() != "cri-server" {
                return None;
            }
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
