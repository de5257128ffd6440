//! The engines make the same heap accesses. Figure 5 and the window
//! walker, restructured, run on a one-server pool under the journal's
//! observe level on the tree-walker, the fused VM and the unfused VM;
//! each invocation must read and write the same words in the same
//! order on all three. A fast path that skipped the journal (a `car`
//! that loaded its word without `speclog::load`) shows here as an
//! invocation with fewer reads than the tree-walker's.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use curare::lisp::speclog::{self, STRUCT_LOC_BIT};
use curare::lisp::{Engine, Interp, Val};
use curare::prelude::*;
use curare::runtime::RuntimeConfig;
use curare_bench::{read_window_walker, Program};

/// One access of an invocation: the input list's cell, car (`false`)
/// or cdr (`true`), and whether it was a write.
type Did = (usize, bool, bool);

/// What each invocation of one observed run did, in its order; the
/// invocations in the order their ids were drawn.
fn observed_run(program: &Program, source: &str, interp: Interp, n: i64) -> Vec<Vec<Did>> {
    let interp = Arc::new(interp);
    interp.set_recursion_limit(10_000_000);
    interp.load_str(source).expect("restructured program loads");
    let args = (program.args)(&interp, n);
    // The input list's cells by cons id: a location reads the same on
    // every engine whatever ids the heap handed out.
    let heap = interp.heap();
    let mut cell_of = HashMap::new();
    let mut l = args[0];
    while let Val::Cons(id) = l.decode() {
        cell_of.insert(id, cell_of.len());
        l = heap.cdr(l).unwrap();
    }
    speclog::observe().expect("a free journal");
    let rt = CriRuntime::with_config(Arc::clone(&interp), 1, RuntimeConfig::default());
    let run = rt.run(program.entry, &args);
    drop(rt);
    let seen = speclog::observed();
    run.expect("the run succeeds");
    let mut by_inv: BTreeMap<u64, Vec<(u64, Did)>> = BTreeMap::new();
    for a in &seen.accesses {
        assert_eq!(a.loc & STRUCT_LOC_BIT, 0, "a list walker touches no struct");
        let cell = *cell_of.get(&(a.loc >> 1)).unwrap_or_else(|| panic!("{a:?} off the list"));
        by_inv.entry(a.inv).or_default().push((a.epoch, (cell, a.loc & 1 == 1, a.write)));
    }
    by_inv
        .into_values()
        .map(|mut did| {
            did.sort_by_key(|&(epoch, _)| epoch);
            did.into_iter().map(|(_, d)| d).collect()
        })
        .collect()
}

#[test]
fn every_engine_journals_the_same_accesses_per_invocation() {
    let walker =
        Program { source: read_window_walker(4, 8), entry: "fw", ..Program::named("figure-5") };
    for (program, n) in [(Program::named("figure-5"), 64), (walker, 64)] {
        let source = Curare::new().transform_source(&program.source).unwrap().source();
        let tree = Interp::new();
        tree.set_engine(Engine::Tree);
        let tree = observed_run(&program, &source, tree, n);
        let reads: usize = tree.iter().flatten().filter(|d| !d.2).count();
        assert!(tree.len() as i64 >= n - 8 && reads > 0, "{}: {tree:?}", program.name);
        for (engine, interp) in [("fused VM", Interp::new()), ("unfused VM", Interp::unfused())] {
            let vm = observed_run(&program, &source, interp, n);
            assert_eq!(vm.len(), tree.len(), "{} on the {engine}: invocations", program.name);
            for (i, (v, t)) in vm.iter().zip(&tree).enumerate() {
                assert_eq!(v, t, "{} on the {engine}: invocation {i}", program.name);
            }
        }
    }
}
