//! Randomized speculation battery.
//!
//! Walkers drawn from the kit's speculation shapes — provably
//! independent own-cell writers, distance-`k` conflicting writers, and
//! ⊤-write walkers the static analysis must refuse — with random
//! operators, write positions, conflict distances, and input sizes,
//! each run speculatively and held by `agree` to the *tree-walker*
//! running the same restructured text sequentially (the speculative
//! pool runs the VM, so the sweep is also an engine differential).
//! Independent programs must additionally show a 100% commit-clean
//! ratio: speculation may never abort an invocation the static
//! analysis could have proven safe.

use std::sync::Arc;

use curare_runtime::SchedMode;
use curare_testkit::{agree, list_of, speculation_walker, Config, Oracle, Program, Rng};

#[test]
fn generated_walkers_match_the_tree_walker_oracle() {
    let mut rng = Rng::new(0x5EED_0D15_7A4C_E000);
    let mut clean_independent = 0u64;
    for case in 0..48 {
        let (source, independent) = speculation_walker(&mut rng);
        let n = 16 + rng.below(64);
        let input_seed = rng.next() | 1;
        let program = Program {
            args: Arc::new(move |interp| {
                let mut values = Rng::new(input_seed);
                let cells: Vec<i64> = (0..n).map(|_| values.below(100) as i64).collect();
                vec![list_of(interp, &cells)]
            }),
            oracle: Oracle::Restructured,
            ..Program::entered(format!("speculation case {case}"), &source, "walk")
        };
        let mode = [SchedMode::Central, SchedMode::Sharded][case % 2];
        let stats = agree(&program, &[Config::pool(4, mode).speculating()])[0];
        if independent {
            let what = format!("case {case}: independent program\n{source}\n{stats:?}");
            assert!(!stats.spec_escalated, "{what} escalated");
            assert_eq!(stats.spec_aborts, 0, "{what}: speculation aborted it");
            assert_eq!(stats.spec_clean, stats.spec_commits, "{what}: commits not all clean");
            clean_independent += 1;
        }
    }
    assert!(
        clean_independent >= 8,
        "the generator must actually have produced independent programs ({clean_independent})"
    );
}
