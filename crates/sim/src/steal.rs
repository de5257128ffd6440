//! Deterministic model of the sharded scheduler under site skew, with
//! and without work stealing.
//!
//! The engine in [`crate::engine`] models a *recursive* spawn chain —
//! the paper's Figure 3/4 shape. This module models the other axis the
//! PR 9 scheduler work cares about: a fixed population of independent
//! tasks pre-queued across `K` call sites whose ownership is
//! statically partitioned over `S` servers (site `k` homed on server
//! `k mod S`). Skewed site distributions strand work on one owner's
//! sites while the other servers idle; stealing redistributes it.
//!
//! The model mirrors the runtime protocol exactly:
//!
//! - a server drains its own sites lowest-index-first, FIFO within a
//!   site;
//! - an idle server (with `steal` on) picks the victim with the most
//!   queued work; if the victim owns ≥ 2 non-empty sites, the
//!   highest-indexed half *migrate* (ownership flips, queues stay
//!   intact); if the victim has one non-empty site, the thief
//!   steal-pops a single task from its front;
//! - each steal acquisition costs `steal_cost` model ticks;
//! - without `steal`, a drained server simply parks.
//!
//! The output is an ordinary [`SimResult`], so
//! [`crate::timeline::concurrency_timeline`] renders these runs too.

use crate::engine::SimResult;

/// One stealing-model scenario.
#[derive(Debug, Clone)]
pub struct StealSimConfig {
    /// Tasks pre-queued per call site (`site_tasks[k]` on site `k`).
    pub site_tasks: Vec<u64>,
    /// Service time of one task, model ticks.
    pub grain: u64,
    /// Server count (sites homed on `site % servers`).
    pub servers: usize,
    /// Whether idle servers steal.
    pub steal: bool,
    /// Ticks one steal acquisition costs the thief.
    pub steal_cost: u64,
}

impl StealSimConfig {
    /// A scenario over `site_tasks` with unit grain, four servers,
    /// stealing on, and a small steal cost.
    pub fn new(site_tasks: Vec<u64>) -> Self {
        StealSimConfig { site_tasks, grain: 100, servers: 4, steal: true, steal_cost: 25 }
    }

    /// Set the per-task service time.
    pub fn grain(mut self, g: u64) -> Self {
        self.grain = g.max(1);
        self
    }

    /// Set the server count.
    pub fn servers(mut self, s: usize) -> Self {
        self.servers = s.max(1);
        self
    }

    /// Enable or disable stealing.
    pub fn steal(mut self, on: bool) -> Self {
        self.steal = on;
        self
    }

    /// Set the steal acquisition cost.
    pub fn steal_cost(mut self, c: u64) -> Self {
        self.steal_cost = c;
        self
    }
}

/// Run the stealing model to completion.
pub fn simulate_steal(cfg: &StealSimConfig) -> SimResult {
    let k = cfg.site_tasks.len();
    let s = cfg.servers;
    let total: u64 = cfg.site_tasks.iter().sum();
    // Per-site FIFO queues of task ids.
    let mut queues: Vec<std::collections::VecDeque<usize>> = Vec::with_capacity(k);
    let mut id = 0usize;
    for &n in &cfg.site_tasks {
        let mut q = std::collections::VecDeque::with_capacity(n as usize);
        for _ in 0..n {
            q.push_back(id);
            id += 1;
        }
        queues.push(q);
    }
    let mut owner: Vec<usize> = (0..k).map(|site| site % s).collect();
    let mut free_at = vec![0u64; s];
    let mut starts = vec![0u64; id];
    let mut finishes = vec![0u64; id];
    let mut done = 0u64;

    while done < total {
        // The next server to act is the earliest-free one (ties to the
        // lowest index, keeping the model deterministic).
        let me = (0..s).min_by_key(|&i| (free_at[i], i)).expect("at least one server");
        let now = free_at[me];

        // Own sites first: lowest-indexed non-empty owned site.
        if let Some(site) = (0..k).find(|&site| owner[site] == me && !queues[site].is_empty()) {
            let t = queues[site].pop_front().expect("non-empty");
            starts[t] = now;
            finishes[t] = now + cfg.grain;
            free_at[me] = now + cfg.grain;
            done += 1;
            continue;
        }
        if !cfg.steal {
            // Parked forever: nothing left on owned sites and no way
            // to acquire more. Skip this server past the horizon.
            free_at[me] = u64::MAX;
            if (0..s).all(|i| free_at[i] == u64::MAX) {
                break;
            }
            continue;
        }
        // Steal: victim with the most queued work.
        let victim = (0..s)
            .filter(|&v| v != me)
            .max_by_key(|&v| {
                let load: u64 =
                    (0..k).filter(|&st| owner[st] == v).map(|st| queues[st].len() as u64).sum();
                (load, s - v) // deterministic tie-break: lowest index
            })
            .filter(|&v| (0..k).any(|st| owner[st] == v && !queues[st].is_empty()));
        let Some(victim) = victim else {
            // No queued work anywhere; this server is done (all
            // remaining work is already executing on other servers).
            free_at[me] = u64::MAX;
            if (0..s).all(|i| free_at[i] == u64::MAX) {
                break;
            }
            continue;
        };
        let nonempty: Vec<usize> =
            (0..k).filter(|&st| owner[st] == victim && !queues[st].is_empty()).collect();
        if nonempty.len() >= 2 {
            // Steal-half: the highest-indexed half migrates.
            let take = nonempty.len() / 2;
            for &st in nonempty.iter().rev().take(take) {
                owner[st] = me;
            }
            free_at[me] = now + cfg.steal_cost;
        } else {
            // Steal-pop one task from the single hot site's front.
            let st = nonempty[0];
            let t = queues[st].pop_front().expect("non-empty");
            let start = now + cfg.steal_cost;
            starts[t] = start;
            finishes[t] = start + cfg.grain;
            free_at[me] = start + cfg.grain;
            done += 1;
        }
    }

    let total_time = finishes.iter().copied().max().unwrap_or(0);
    let sequential_time = total * cfg.grain;
    let busy: u64 = finishes.iter().zip(&starts).map(|(f, st)| f - st).sum();
    SimResult {
        total_time,
        sequential_time,
        speedup: if total_time == 0 { 1.0 } else { sequential_time as f64 / total_time as f64 },
        achieved_concurrency: if total_time == 0 { 0.0 } else { busy as f64 / total_time as f64 },
        starts,
        finishes,
    }
}

/// Split `total` tasks across `k` sites with a 90/10-style split: the
/// first site takes `hot_pct`% of the work, the rest divide the
/// remainder evenly.
pub fn hot_split(total: u64, k: usize, hot_pct: u64) -> Vec<u64> {
    assert!(k >= 1 && hot_pct <= 100);
    let hot = total * hot_pct / 100;
    let mut out = vec![0u64; k];
    out[0] = hot;
    let rest = total - hot;
    for (i, slot) in out.iter_mut().enumerate().skip(1) {
        let m = (k - 1) as u64;
        *slot = rest / m + u64::from((i as u64 - 1) < rest % m);
    }
    out
}

/// Split `total` tasks across `k` sites with Zipf(1) weights
/// (site `i` proportional to `1/(i+1)`), largest share on site 0.
pub fn zipf_split(total: u64, k: usize) -> Vec<u64> {
    assert!(k >= 1);
    let weights: Vec<f64> = (0..k).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let sum: f64 = weights.iter().sum();
    let mut out: Vec<u64> =
        weights.iter().map(|w| ((w / sum) * total as f64).floor() as u64).collect();
    let mut assigned: u64 = out.iter().sum();
    let mut i = 0;
    while assigned < total {
        out[i % k] += 1;
        assigned += 1;
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_load_needs_no_stealing() {
        let sites = vec![100u64; 8];
        let steal = simulate_steal(&StealSimConfig::new(sites.clone()).servers(4));
        let nosteal = simulate_steal(&StealSimConfig::new(sites).servers(4).steal(false));
        assert_eq!(nosteal.total_time, steal.total_time, "balanced work: identical makespan");
        assert!((steal.speedup - 4.0).abs() < 0.05, "{}", steal.speedup);
    }

    #[test]
    fn ninety_ten_split_steals_to_balance() {
        let sites = hot_split(4000, 2, 90);
        assert_eq!(sites, vec![3600, 400]);
        let steal = simulate_steal(&StealSimConfig::new(sites.clone()).servers(4));
        let nosteal = simulate_steal(&StealSimConfig::new(sites).servers(4).steal(false));
        let ratio = nosteal.total_time as f64 / steal.total_time as f64;
        assert!(
            ratio >= 1.5,
            "steal must beat static sharding ≥1.5x on 90/10 skew, got {ratio:.2}"
        );
    }

    #[test]
    fn zipf_split_steals_to_balance() {
        let sites = zipf_split(4000, 8);
        assert_eq!(sites.iter().sum::<u64>(), 4000);
        assert!(sites[0] > sites[7] * 4, "site 0 is the heavy head: {sites:?}");
        let steal = simulate_steal(&StealSimConfig::new(sites.clone()).servers(4));
        let nosteal = simulate_steal(&StealSimConfig::new(sites).servers(4).steal(false));
        let ratio = nosteal.total_time as f64 / steal.total_time as f64;
        assert!(ratio >= 1.5, "steal must beat static sharding ≥1.5x on Zipf skew, got {ratio:.2}");
    }

    #[test]
    fn steal_cost_bounds_the_win() {
        // With an absurd steal cost, stealing degenerates gracefully:
        // never slower than 20% under the static makespan... in
        // fact it must never beat the work/span bound either.
        let sites = hot_split(1000, 2, 90);
        let cfg = StealSimConfig::new(sites).servers(4).steal_cost(10_000);
        let r = simulate_steal(&cfg);
        let seq = r.sequential_time;
        assert!(r.total_time >= seq / 4, "cannot beat perfect speedup");
    }

    #[test]
    fn makespan_respects_work_and_span_bounds() {
        for (sites, servers) in
            [(hot_split(500, 4, 70), 2usize), (zipf_split(1000, 6), 4), (vec![10, 0, 0, 900], 8)]
        {
            let total: u64 = sites.iter().sum();
            let cfg = StealSimConfig::new(sites).servers(servers).grain(100);
            let r = simulate_steal(&cfg);
            assert!(r.total_time >= total * 100 / servers as u64, "work bound");
            assert!(r.total_time >= 100, "span bound");
            assert_eq!(r.finishes.len(), total as usize, "every task finishes");
            assert!(r.finishes.iter().all(|&f| f > 0));
        }
    }

    #[test]
    fn per_site_fifo_is_preserved_in_the_model() {
        // Task ids are assigned per site in FIFO order; within a site
        // starts must be non-decreasing in id.
        let sites = hot_split(600, 3, 80);
        let cfg = StealSimConfig::new(sites.clone()).servers(4);
        let r = simulate_steal(&cfg);
        let mut base = 0usize;
        for &n in &sites {
            let span = &r.starts[base..base + n as usize];
            assert!(span.windows(2).all(|w| w[0] <= w[1]), "FIFO within site");
            base += n as usize;
        }
    }

    #[test]
    fn timeline_renders_steal_results() {
        let r = simulate_steal(&StealSimConfig::new(hot_split(200, 2, 90)));
        let tl = crate::timeline::concurrency_timeline(&r);
        assert!(!tl.points.is_empty());
    }

    #[test]
    fn model_is_deterministic() {
        let cfg = StealSimConfig::new(zipf_split(800, 5)).servers(3);
        let a = simulate_steal(&cfg);
        let b = simulate_steal(&cfg);
        assert_eq!(a.starts, b.starts);
        assert_eq!(a.total_time, b.total_time);
    }
}
