//! One restructuring, one record: whoever looks at a program — the
//! restructurer, `analyze_program` (the benchmark's and `curare
//! analyze`'s view), `curare check`, the interpreter loading the text
//! as written or as restructured — lowers it one way and judges it by
//! one analysis. Each test here failed when the doors were copies:
//! `analyze_program` passed no canonicalizer, and only the pipeline
//! lowered struct types first.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use curare::lisp::Lowerer;
use curare::prelude::*;

/// Every shipped `.lisp` file (examples, then fixtures) and every
/// program of the experiments table, as `(label, source)`.
fn shipped_programs() -> Vec<(String, String)> {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lisp");
    let mut files: Vec<PathBuf> = [examples.clone(), examples.join("fixtures")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("an examples directory").flatten())
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|x| x == "lisp"))
        .collect();
    files.sort();
    assert!(files.len() >= 12, "found only {} shipped files", files.len());
    let read = |p: &PathBuf| (p.display().to_string(), std::fs::read_to_string(p).unwrap());
    let table = curare_bench::programs().into_iter().map(|p| (p.name.to_string(), p.source));
    files.iter().map(read).chain(table).collect()
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lisp/fixtures");
    std::fs::read_to_string(path.join(name)).unwrap()
}

/// `analyze_program` on a program lowered by the caller — what the
/// benchmark times and what `curare analyze` printed — against the
/// analyses in the restructuring's record.
#[test]
fn analyze_program_gives_the_pipelines_answer() {
    let mut compared = 0;
    for (label, src) in shipped_programs() {
        let forms = parse_all(&src).unwrap();
        let heap = Heap::new();
        let prog =
            Lowerer::new(&heap).lower_program(&forms).unwrap_or_else(|e| panic!("{label}: {e}"));
        let analyses = analyze_program(&prog).unwrap();
        let out = Curare::new().transform_forms(&forms).unwrap();
        assert_eq!(analyses.len(), out.reports.len(), "{label}");
        for (alone, report) in analyses.iter().zip(&out.reports) {
            // The record holds the analysis of what the reorder device
            // left, where it rewrote the function.
            if matches!(report.devices.first(), Some(Device::Reorder(_))) {
                continue;
            }
            let name = &report.name;
            assert_eq!(alone.verdict, report.verdict, "{label}: {name}");
            assert_eq!(alone.verdict, report.analysis.verdict, "{label}: {name}");
            assert_eq!(
                alone.conflicts.conflicts, report.analysis.conflicts.conflicts,
                "{label}: {name}"
            );
            assert_eq!(alone.head_tail.tail_cost, report.analysis.head_tail.tail_cost, "{name}");
            compared += 1;
        }
    }
    assert!(compared >= 30, "compared only {compared} functions");
}

/// The §6 tool names the conflict the restructurer synchronises:
/// `back`'s write of `pred.value` is the previous invocation's read of
/// `value` once `succ.pred` cancels.
#[test]
fn analyze_names_the_conflict_back_is_future_synchronised_for() {
    let forms = parse_all(&fixture("inverse-tail.lisp")).unwrap();
    let heap = Heap::new();
    let prog = Lowerer::new(&heap).lower_program(&forms).unwrap();
    let analyses = analyze_program(&prog).unwrap();
    let out = Curare::new().transform_forms(&forms).unwrap();
    let report = out.report("back").unwrap();
    assert_eq!(report.devices, [Device::FutureSync(1), Device::Cri(0)]);
    for back in [&analyses[0], &report.analysis] {
        assert_eq!(back.name, "back");
        assert_eq!(back.verdict, Verdict::NeedsSynchronization { min_distance: 1 });
        let text = back.explain();
        assert!(text.contains("conflict: write f0.1.f0.2 ⊙ f0.2 at distance 1"), "{text}");
    }
}

/// What the restructurer accepts it emits loadable: the text of every
/// shipped program loads in a fresh interpreter.
#[test]
fn every_accepted_programs_restructured_text_loads() {
    for (label, src) in shipped_programs() {
        for speculate in [false, true] {
            let Ok(out) = Curare::new().with_speculation(speculate).transform_source(&src) else {
                continue;
            };
            if let Err(e) = Interp::new().load_str(&out.source()) {
                panic!("{label} (speculate = {speculate}): {e}\n{}", out.source());
            }
        }
    }
}

/// `late-struct.lisp` — a walker above its `defstruct` — gets one
/// answer from every door: it lowers for `analyze_program`, checks
/// clean (no C006 for a struct accessor), is converted, and prints the
/// same line run as written and run restructured on two servers.
#[test]
fn a_defun_above_its_defstruct_gets_one_answer_from_every_door() {
    let src = fixture("late-struct.lisp");
    let forms = parse_all(&src).unwrap();
    let heap = Heap::new();
    let prog = Lowerer::new(&heap).lower_program(&forms).expect("lowers for analyze");
    assert_eq!(analyze_program(&prog).unwrap()[0].verdict, Verdict::ConflictFree);
    let diags = check_source("late-struct.lisp", &src).expect("checks");
    assert!(diags.is_clean(), "{}", diags.render());

    let out = Curare::new().transform_forms(&forms).unwrap();
    assert!(out.report("bump").unwrap().converted);
    let printed = |text: &str, servers: usize| {
        let interp = Arc::new(Interp::new());
        interp.load_str(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let chain = interp.load_str("*chain*").unwrap();
        let ran = match servers {
            0 => interp.call("bump", &[chain]),
            n => CriRuntime::new(Arc::clone(&interp), n).run("bump", &[chain]),
        };
        ran.unwrap();
        interp.take_output()
    };
    assert_eq!(printed(&src, 0), ["(2 4 6)"]);
    assert_eq!(printed(&out.source(), 2), ["(2 4 6)"]);
}
