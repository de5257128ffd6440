//! Golden test: what the restructurer emits is a function of the
//! program text alone, and an optimisation of the analysis must not
//! move a byte of it. `golden/restructured.txt` holds the transformed
//! text and every `FunctionReport` for the shipped examples and
//! fixtures (plain and under `--speculate`) and for one generated
//! window walker per `(k, reads)`. The walkers are checked a second
//! time under an `inverse` declaration (the benchmark's corpus is such
//! a file), which must change nothing for list walkers: no inverse pair
//! can rewrite their paths, so none of their pairs reaches the
//! canonical conflict test.
//!
//! The strings were recorded from the commit before the shared
//! conflict engine (PR 13), with one exception: `inverse-tail.lisp`,
//! which that commit miscompiled, is recorded from the fix. The §6
//! feedback of refused functions has since gained a line per refusal
//! reason (`UsesCallResult`, `DeclaredOff`), and the generated walkers
//! were recorded again when the lock device came to write one bracket
//! per run of statements with the same lock set (fewer bracket steps,
//! so `win-1-4`'s tail cost fell below the hand-off threshold).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use curare_analysis::{AnalysisStats, Verdict};
use curare_transform::{Curare, Device, Note, Publication};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `.lisp` files of `dir`, sorted by name.
fn lisp_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "lisp"))
        .collect();
    files.sort();
    files
}

/// The benchmark's read-window walker: doubles its own car after the
/// call, then `reads` statements of sixteen loads over the cars `k`
/// and `k + 1` ahead.
fn window_walker(k: usize, reads: usize) -> String {
    let cdrs = |n: usize| (0..n).fold("l".to_string(), |place, _| format!("(cdr {place})"));
    let (near, far) = (cdrs(k), cdrs(k + 1));
    let sum_of = |word: &str| format!("(+{}) ", format!(" (car {word})").repeat(16));
    let mut body = String::new();
    for _ in 0..reads.div_ceil(2) {
        for word in [&near, &near, &far, &far] {
            body.push_str(&sum_of(word));
        }
    }
    format!(
        "(defun win-{k}-{reads} (l)
  (when {far}
    (win-{k}-{reads} (cdr l))
    (setf (car l) (* (car l) 2))
    {body}))\n"
    )
}

fn walkers(prelude: &str) -> String {
    let mut src = format!("{prelude}(curare-declare (reorderable *))\n");
    for k in [1, 2, 4] {
        for reads in [2, 4] {
            src.push_str(&window_walker(k, reads));
        }
    }
    src
}

const INVERSE_PRELUDE: &str =
    "(defstruct dl succ pred value)\n\n(curare-declare (inverse succ pred))\n\n";

/// What the golden file records of a report: the outcome, not the
/// analysis and placement the record carries beside it.
#[derive(Debug)]
#[allow(dead_code)] // read by `Debug`
struct FunctionReport<'a> {
    name: &'a str,
    verdict: &'a Verdict,
    devices: &'a [Device],
    converted: bool,
    feedback: String,
    unsynced_tail: bool,
    publication: Publication,
}

/// The transformed text of `src` and the report of each function.
fn restructured(src: &str, speculate: bool) -> String {
    match Curare::new().with_speculation(speculate).transform_source(src) {
        Ok(out) => {
            let mut text = out.source();
            for r in &out.reports {
                let r = FunctionReport {
                    name: &r.name,
                    verdict: &r.verdict,
                    devices: &r.devices,
                    converted: r.converted,
                    feedback: r.feedback(),
                    unsynced_tail: r.note == Some(Note::UnsyncedTail),
                    publication: r.publication,
                };
                writeln!(text, "--- {r:?}").unwrap();
            }
            text
        }
        Err(e) => format!("error: {e}\n"),
    }
}

fn render() -> String {
    let examples = repo_root().join("examples/lisp");
    let mut text = String::new();
    for file in lisp_files(&examples).into_iter().chain(lisp_files(&examples.join("fixtures"))) {
        let src = std::fs::read_to_string(&file).unwrap();
        let name = file.strip_prefix(&examples).unwrap().display();
        write!(text, "=== {name}\n{}", restructured(&src, false)).unwrap();
        write!(text, "=== {name} --speculate\n{}", restructured(&src, true)).unwrap();
    }
    write!(text, "=== generated window walkers\n{}", restructured(&walkers(""), false)).unwrap();
    text
}

#[test]
fn restructured_text_and_reports_match_the_recorded_strings() {
    let golden = repo_root().join("crates/transform/tests/golden/restructured.txt");
    let recorded =
        std::fs::read_to_string(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
    let now = render();
    if now != recorded {
        let line = now.lines().zip(recorded.lines()).position(|(a, b)| a != b);
        let line = line.unwrap_or_else(|| now.lines().count().min(recorded.lines().count()));
        panic!(
            "restructurer output moved at line {} of {}:\n  recorded: {:?}\n  now:      {:?}",
            line + 1,
            golden.display(),
            recorded.lines().nth(line),
            now.lines().nth(line)
        );
    }
}

#[test]
fn an_unrelated_inverse_declaration_changes_no_list_walker() {
    let plain = restructured(&walkers(""), false);
    let canonical = restructured(&walkers(INVERSE_PRELUDE), false);
    assert_eq!(canonical, format!("{INVERSE_PRELUDE}{plain}"));
    // No path of a list walker holds a paired letter, so none of its
    // pairs is put to the canonical test.
    let out = Curare::new().transform_source(&walkers(INVERSE_PRELUDE)).unwrap();
    assert!(out.stats.pair_tests > 0);
    assert_eq!(out.stats.alias_tests, 0);
}

/// The work behind the `(4, 4)` walker, pinned as counts so that
/// re-analysing a form, testing per record or probing per device shows
/// here rather than as a slower benchmark: its 132 access records are
/// six path classes, one of them a write; one analysis serves the
/// verdict, delay, the lock synthesis and the tail cost; τ = `cdr` is
/// compiled once per distance up to the longest pair's bound; and the
/// statements the devices ask about (the write, the two read sums, the
/// guard and the call) are answered from pass 1's lowering, none of
/// them lowered again.
#[test]
fn the_window_walker_is_analysed_once() {
    let src = format!("(curare-declare (reorderable *))\n{}", window_walker(4, 4));
    let out = Curare::new().transform_source(&src).unwrap();
    let report = out.report("win-4-4").unwrap();
    assert!(report.devices.iter().any(|d| matches!(d, Device::Locks(_))), "{:?}", report.devices);
    let accesses = &report.analysis.accesses;
    assert_eq!(accesses.records.len(), 132);
    assert!(out.stats.pair_tests <= accesses.writes().count() * out.stats.path_classes);
    assert_eq!(
        out.stats,
        AnalysisStats {
            functions_analysed: 1,
            path_classes: 6,
            pair_tests: 6,
            alias_tests: 0,
            automata_built: 10,
            probe_lowerings: 0,
        }
    );
}
