//! Schedule-permutation differential battery (chaos harness).
//!
//! Every seeded fault plan is a legal adversary: it perturbs *when*
//! things happen (delays, stalls, cross-site dequeue choice), never
//! *what* the program means. So for every program the paper's claim
//! must hold verbatim — the chaos run leaves what the sequential
//! oracle leaves, for every seed, under both schedulers.
//!
//! The programs are `curare-bench`'s table's; the oracle is the
//! *restructured* text run sequentially on the tree-walker (spawn
//! forms run inline), which uniformly handles the DPS entry points.

use curare_runtime::chaos::ChaosProfile;
use curare_runtime::SchedMode;
use curare_testkit::{agree, distance_writer, Config, Program, Rng};
use curare_transform::Curare;

/// The five experiment programs.
const PROGRAMS: [&str; 5] = ["figure-5", "rotate", "sum-walk", "distance-2", "remq-d"];

fn sweep(mode: SchedMode, programs: &[&str]) {
    let mut injected_somewhere = 0u64;
    for name in programs {
        for seed in 0..32u64 {
            let program = Program::named(name, 32 + (seed as i64 % 17));
            let stats = agree(&program, &[Config::pool(4, mode).chaos("mixed", seed)]);
            injected_somewhere += stats[0].faults_injected;
        }
    }
    assert!(injected_somewhere > 0, "the sweep must actually have exercised fault injection");
}

#[test]
fn five_programs_match_oracle_across_32_seeds_central() {
    sweep(SchedMode::Central, &PROGRAMS);
}

#[test]
fn five_programs_match_oracle_across_32_seeds_sharded() {
    sweep(SchedMode::Sharded, &PROGRAMS);
}

/// The hand-off path under the same adversary: successors published
/// at the spawn, task starts delayed, dequeues shuffled.
#[test]
fn handed_off_tail_heavy_matches_oracle_across_32_seeds_both_schedulers() {
    let out = Curare::new().transform_source(&Program::named("tail-heavy", 0).source).unwrap();
    assert!(out.source().contains("(cri-handoff 0 th (cdr l))"), "{}", out.source());
    sweep(SchedMode::Central, &["tail-heavy"]);
    sweep(SchedMode::Sharded, &["tail-heavy"]);
}

/// Per-profile sanity on one representative program each: every named
/// profile (not just `mixed`) preserves the oracle.
#[test]
fn every_named_profile_preserves_the_oracle() {
    let configs =
        ChaosProfile::NAMES.map(|name| Config::pool(4, SchedMode::Sharded).chaos(name, 7));
    for name in ["figure-5", "sum-walk"] {
        agree(&Program::named(name, 40), &configs);
    }
}

/// A plan perturbs only the schedule, so a chaos run takes the path an
/// unarmed one takes: under every named profile, a lazy pool of 2 or 4
/// servers restarts the tail-spawn walkers' links in place — the path
/// the benchmark's tiny-grain walk runs — and matches the oracle.
#[test]
fn every_named_profile_restarts_tail_spawns_in_place() {
    let configs: Vec<Config> = ChaosProfile::NAMES
        .iter()
        .flat_map(|&name| [2, 4].map(|s| Config::pool(s, SchedMode::Sharded).chaos(name, 3)))
        .collect();
    for name in ["figure-5", "sum-walk"] {
        let stats = agree(&Program::named(name, 240), &configs);
        for (config, stats) in configs.iter().zip(stats) {
            assert!(stats.in_place_tasks > 0, "{name} under {config:?}: {stats:?}");
        }
    }
}

/// Random-program battery: the table's walkers and distance-k writers
/// × random sizes × random seeds × alternating modes.
#[test]
fn random_program_battery_matches_oracle() {
    let mut rng = Rng::new(0x5EED_CAFE_F00D_0001);
    for case in 0..24 {
        let pick = rng.below(5);
        let k = if pick == 3 { 1 + rng.below(3) } else { 0 };
        let n = 16 + rng.below(48) as i64;
        let program = match pick {
            3 => distance_writer(k, n),
            _ => Program::named(["figure-5", "rotate", "sum-walk", "", "remq-d"][pick], n),
        };
        let (seed, mode) = (rng.next(), [SchedMode::Central, SchedMode::Sharded][case % 2]);
        agree(&program, &[Config::pool(4, mode).chaos("mixed", seed)]);
    }
}
