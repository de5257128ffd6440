//! A deterministic discrete-time simulator of CRI execution.
//!
//! Models the paper's execution shape exactly (Figures 6, 7, 10):
//! invocation *i* runs `h` head steps, spawning invocation *i+1* when
//! its head completes, then `t` tail steps. A pool of `S` servers runs
//! invocations greedily (earliest-free server). Optional constraints:
//!
//! - **conflict distance** `d_c`: invocation *i* cannot start before
//!   invocation *i − d_c* finishes (the §3.2.1 lock discipline:
//!   acquire at head start, release at termination);
//! - **spawn overhead** `q`: extra steps per enqueue, modelling the
//!   central queue of §4.1;
//! - **spawn batch** `b`: the queue cost is paid once every `b`
//!   spawns, modelling batched submission (and, at the limit, task
//!   chaining) in the runtime's low-contention scheduler.

/// Parameters of one simulated recursion.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of invocations (recursion depth).
    pub depth: u64,
    /// Number of servers.
    pub servers: u64,
    /// Head steps per invocation.
    pub head: u64,
    /// Tail steps per invocation.
    pub tail: u64,
    /// Minimum conflict distance; `None` = conflict-free.
    pub conflict_distance: Option<u64>,
    /// Extra steps charged to the head per spawn (queue cost, §4.1).
    pub spawn_overhead: u64,
    /// Spawns per queue publication: the overhead is charged on one
    /// spawn in every `spawn_batch` (amortized batched submit).
    pub spawn_batch: u64,
}

impl SimConfig {
    /// A conflict-free configuration with no queue overhead.
    pub fn new(depth: u64, servers: u64, head: u64, tail: u64) -> Self {
        SimConfig {
            depth,
            servers,
            head,
            tail,
            conflict_distance: None,
            spawn_overhead: 0,
            spawn_batch: 1,
        }
    }

    /// Set the conflict distance.
    pub fn with_conflict_distance(mut self, d: u64) -> Self {
        self.conflict_distance = Some(d);
        self
    }

    /// Set the spawn overhead.
    pub fn with_spawn_overhead(mut self, q: u64) -> Self {
        self.spawn_overhead = q;
        self
    }

    /// Set the spawn batch size (`b ≥ 1`): the spawn overhead is paid
    /// on one spawn in every `b`, as under batched submission.
    pub fn with_spawn_batch(mut self, b: u64) -> Self {
        assert!(b >= 1, "spawn batch must be at least 1");
        self.spawn_batch = b;
        self
    }
}

/// The outcome of one simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Completion time of the last invocation.
    pub total_time: u64,
    /// Sum of all per-invocation work — the sequential execution time.
    pub sequential_time: u64,
    /// Sequential / parallel.
    pub speedup: f64,
    /// Mean number of simultaneously busy servers.
    pub achieved_concurrency: f64,
    /// Start time of every invocation.
    pub starts: Vec<u64>,
    /// Finish time of every invocation.
    pub finishes: Vec<u64>,
}

/// Run the simulation.
pub fn simulate(cfg: &SimConfig) -> SimResult {
    assert!(cfg.servers >= 1, "at least one server");
    assert!(cfg.spawn_batch >= 1, "spawn batch must be at least 1");
    let d = cfg.depth as usize;

    let mut starts = vec![0u64; d];
    let mut finishes = vec![0u64; d];
    // Earliest-free times of the servers (kept sorted ascending).
    let mut servers = vec![0u64; cfg.servers as usize];

    let mut busy = 0u64;
    let mut spawn_time = 0u64; // when invocation i becomes ready
    for i in 0..d {
        // Batched submit: one spawn in every `spawn_batch` pays the
        // queue publication cost; the rest ride in the same batch.
        let step = if (i as u64).is_multiple_of(cfg.spawn_batch) {
            cfg.head + cfg.spawn_overhead
        } else {
            cfg.head
        };
        let work = step + cfg.tail;
        let mut ready = spawn_time;
        if let Some(dc) = cfg.conflict_distance {
            if let Some(pred) = i.checked_sub(dc as usize) {
                // Locks: the i-th invocation blocks at its head until
                // invocation i − d_c releases at termination.
                ready = ready.max(finishes[pred]);
            }
        }
        // Greedy: the earliest-free server runs it.
        let start = ready.max(servers[0]);
        let finish = start + work;
        starts[i] = start;
        finishes[i] = finish;
        servers[0] = finish;
        servers.sort_unstable();
        busy += work;
        // The next invocation spawns when this head completes.
        spawn_time = start + step;
    }

    let total_time = finishes.last().copied().unwrap_or(0);
    let sequential_time = busy;
    SimResult {
        total_time,
        sequential_time,
        speedup: if total_time == 0 { 1.0 } else { sequential_time as f64 / total_time as f64 },
        achieved_concurrency: if total_time == 0 { 0.0 } else { busy as f64 / total_time as f64 },
        starts,
        finishes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula;

    #[test]
    fn one_server_is_sequential() {
        let r = simulate(&SimConfig::new(10, 1, 2, 3));
        assert_eq!(r.total_time, 10 * 5);
        assert!((r.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unlimited_servers_reach_pipeline_depth() {
        // Total = d·h + t.
        let r = simulate(&SimConfig::new(10, 10, 2, 3));
        assert_eq!(r.total_time, 10 * 2 + 3);
    }

    /// The §4.1 expression assumes `S ≤ c_f = (h+t)/h` (the paper caps
    /// the server count by the concurrency bound separately); past
    /// that regime the spawn chain binds and the formula
    /// underestimates.
    fn in_formula_regime(s: u64, h: u64, t: u64) -> bool {
        (s * h) <= h + t
    }

    #[test]
    fn engine_matches_formula_when_servers_divide_depth() {
        for &(d, s, h, t) in
            &[(4u64, 2u64, 1u64, 3u64), (6, 2, 1, 3), (12, 3, 2, 6), (64, 8, 1, 7), (100, 2, 5, 5)]
        {
            assert!(in_formula_regime(s, h, t), "test case outside regime");
            let engine = simulate(&SimConfig::new(d, s, h, t)).total_time;
            let formula = formula::total_time(d, s, h, t);
            assert_eq!(engine, formula, "d={d} S={s} h={h} t={t}");
        }
    }

    #[test]
    fn engine_never_exceeds_formula_within_regime() {
        for d in [5u64, 7, 13, 100] {
            for s in [2u64, 3, 4, 8] {
                for (h, t) in [(1u64, 3u64), (2, 8), (5, 1)] {
                    if !in_formula_regime(s, h, t) {
                        continue;
                    }
                    let engine = simulate(&SimConfig::new(d, s, h, t)).total_time;
                    let formula = formula::total_time(d, s, h, t);
                    assert!(engine <= formula, "d={d} S={s} h={h} t={t}: {engine} > {formula}");
                }
            }
        }
    }

    #[test]
    fn outside_the_regime_the_spawn_chain_binds() {
        // S > c_f: the engine floors at the pipeline depth d·h + t,
        // which exceeds the formula's optimistic estimate — the reason
        // the paper caps S at c_f.
        let (d, s, h, t) = (100u64, 10u64, 5u64, 5u64);
        let engine = simulate(&SimConfig::new(d, s, h, t)).total_time;
        assert_eq!(engine, d * h + t);
        assert!(engine > formula::total_time(d, s, h, t));
    }

    #[test]
    fn concurrency_approaches_h_plus_t_over_h() {
        // With ample servers and deep recursion, achieved concurrency
        // approaches the §3.1 bound (h+t)/h.
        let (h, t) = (1u64, 9u64);
        let r = simulate(&SimConfig::new(10_000, 64, h, t));
        let bound = formula::concurrency(h as f64, t as f64);
        assert!(
            (r.achieved_concurrency - bound).abs() / bound < 0.02,
            "achieved {} vs bound {}",
            r.achieved_concurrency,
            bound
        );
    }

    #[test]
    fn conflict_distance_one_serializes() {
        let free = simulate(&SimConfig::new(100, 8, 1, 9));
        let locked = simulate(&SimConfig::new(100, 8, 1, 9).with_conflict_distance(1));
        assert_eq!(locked.total_time, locked.sequential_time);
        assert!(free.total_time < locked.total_time);
        assert!((locked.achieved_concurrency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conflict_distance_caps_concurrency() {
        // §3.2.1: max concurrency ≤ min distance.
        for dc in [2u64, 4, 8] {
            let r = simulate(&SimConfig::new(5_000, 64, 1, 63).with_conflict_distance(dc));
            assert!(
                r.achieved_concurrency <= dc as f64 + 1e-9,
                "distance {dc}: concurrency {}",
                r.achieved_concurrency
            );
            // And the bound is nearly achieved for deep recursions.
            assert!(
                r.achieved_concurrency >= 0.9 * dc as f64,
                "distance {dc}: concurrency {}",
                r.achieved_concurrency
            );
        }
    }

    #[test]
    fn larger_distance_is_never_slower() {
        let times: Vec<u64> = [1u64, 2, 4, 8, 16]
            .iter()
            .map(|&dc| {
                simulate(&SimConfig::new(1000, 32, 1, 15).with_conflict_distance(dc)).total_time
            })
            .collect();
        for pair in times.windows(2) {
            assert!(pair[1] <= pair[0], "{times:?}");
        }
    }

    #[test]
    fn spawn_overhead_slows_execution() {
        let clean = simulate(&SimConfig::new(1000, 16, 1, 15));
        let loaded = simulate(&SimConfig::new(1000, 16, 1, 15).with_spawn_overhead(4));
        assert!(loaded.total_time > clean.total_time);
    }

    #[test]
    fn spawn_batch_one_matches_unbatched_overhead() {
        let base = SimConfig::new(1000, 16, 1, 15).with_spawn_overhead(4);
        let unbatched = simulate(&base);
        let batched = simulate(&base.clone().with_spawn_batch(1));
        assert_eq!(unbatched.total_time, batched.total_time);
        assert_eq!(unbatched.finishes, batched.finishes);
    }

    #[test]
    fn spawn_batching_amortizes_overhead() {
        // Larger batches charge the queue cost less often, so total
        // time falls monotonically toward the overhead-free time.
        let cfg = |b: u64| SimConfig::new(2000, 8, 1, 7).with_spawn_overhead(6).with_spawn_batch(b);
        let clean = simulate(&SimConfig::new(2000, 8, 1, 7)).total_time;
        let times: Vec<u64> =
            [1u64, 2, 4, 16, 64, 4096].iter().map(|&b| simulate(&cfg(b)).total_time).collect();
        for pair in times.windows(2) {
            assert!(pair[1] <= pair[0], "{times:?}");
        }
        assert!(times[0] > clean, "batch=1 must pay the full overhead");
        // With one publication per 4096 spawns the overhead is all but
        // gone: within 1% of the clean schedule.
        let last = *times.last().unwrap();
        assert!(last >= clean);
        assert!((last - clean) as f64 / (clean as f64) < 0.01, "last {last} vs clean {clean}");
    }

    #[test]
    fn spawn_batch_charges_every_bth_spawn() {
        // One server, batch 2: invocations 0, 2, 4 pay the overhead.
        let r = simulate(&SimConfig::new(5, 1, 2, 3).with_spawn_overhead(4).with_spawn_batch(2));
        // Work per invocation: 9, 5, 9, 5, 9 (sequential on 1 server).
        assert_eq!(r.total_time, 9 + 5 + 9 + 5 + 9);
        assert_eq!(r.sequential_time, r.total_time);
    }

    #[test]
    fn starts_are_monotone_in_invocation_order() {
        let r = simulate(&SimConfig::new(100, 4, 2, 5).with_conflict_distance(3));
        for pair in r.starts.windows(2) {
            assert!(pair[0] <= pair[1], "{:?}", &r.starts[..10]);
        }
    }

    #[test]
    fn optimal_server_count_beats_neighbors() {
        // The §4.1 optimum: simulate a sweep and check the time curve
        // is minimized near S*.
        let (d, h, t) = (256u64, 1u64, 15u64);
        let s_star = formula::optimal_servers(d, h, t).round() as u64;
        let at = |s: u64| simulate(&SimConfig::new(d, s, h, t)).total_time;
        let t_star = at(s_star);
        assert!(t_star <= at(s_star / 2));
        assert!(t_star <= at(1));
        // Very large pools do not beat S* by much (diminishing
        // returns); allow the pipeline-depth floor.
        assert!(at(d) as f64 >= t_star as f64 * 0.5);
    }

    #[test]
    fn zero_depth_is_empty() {
        let r = simulate(&SimConfig::new(0, 4, 1, 1));
        assert_eq!(r.total_time, 0);
        assert!(r.starts.is_empty());
    }
}
