//! Stochastic adversary search: how bad can Greedy get?
//!
//! Theorem 4.7 hand-crafts a stream with opt/greedy → 2; Theorem 4.1
//! caps the ratio at 4 (unit slices). This module searches the gap
//! empirically: random restarts plus mutation hill-climbing over small
//! weighted unit-slice streams, scoring each candidate with the exact
//! flow optimum against the real greedy server. The search is fully
//! deterministic given its seed.
//!
//! Finding ratios near 2 quickly (and never above it, let alone 4, on
//! any instance the search visits) is empirical support for the
//! conjecture implicit in the paper that Greedy's true competitive
//! ratio is 2 rather than 4.

use rts_core::policy::GreedyByteValue;
use rts_offline::optimal_unit_benefit;
use rts_sim::run_server_only;
use rts_stream::rng::SplitMix64;
use rts_stream::{Bytes, FrameKind, InputStream, SliceSpec, Weight};

/// Search-space limits and effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Time steps per candidate stream.
    pub steps: usize,
    /// Maximum arrivals per step.
    pub max_per_step: usize,
    /// Maximum slice weight.
    pub max_weight: Weight,
    /// Buffer size of the attacked server.
    pub buffer: Bytes,
    /// Link rate of the attacked server.
    pub rate: Bytes,
    /// Total candidates examined.
    pub iterations: usize,
    /// Candidates per restart before re-randomizing.
    pub restart_every: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            steps: 12,
            max_per_step: 6,
            max_weight: 64,
            buffer: 4,
            rate: 1,
            iterations: 2_000,
            restart_every: 250,
        }
    }
}

/// The worst instance the search found.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Achieved opt/greedy ratio.
    pub ratio: f64,
    /// Greedy's benefit on the instance.
    pub greedy: Weight,
    /// The optimal benefit.
    pub optimal: Weight,
    /// The instance itself.
    pub stream: InputStream,
}

/// Genotype: per-step weight lists (unit slices).
type Genome = Vec<Vec<Weight>>;

fn random_genome(rng: &mut SplitMix64, cfg: &SearchConfig) -> Genome {
    (0..cfg.steps)
        .map(|_| {
            let n = rng.range_u64(0, cfg.max_per_step as u64) as usize;
            (0..n).map(|_| rng.range_u64(1, cfg.max_weight)).collect()
        })
        .collect()
}

fn mutate(rng: &mut SplitMix64, genome: &mut Genome, cfg: &SearchConfig) {
    let step = rng.range_u64(0, genome.len() as u64 - 1) as usize;
    let frame = &mut genome[step];
    match rng.range_u64(0, 3) {
        0 if frame.len() < cfg.max_per_step => {
            frame.push(rng.range_u64(1, cfg.max_weight));
        }
        1 if !frame.is_empty() => {
            let i = rng.range_u64(0, frame.len() as u64 - 1) as usize;
            frame.swap_remove(i);
        }
        _ if !frame.is_empty() => {
            let i = rng.range_u64(0, frame.len() as u64 - 1) as usize;
            frame[i] = rng.range_u64(1, cfg.max_weight);
        }
        _ => {
            frame.push(rng.range_u64(1, cfg.max_weight));
        }
    }
}

fn express(genome: &Genome) -> InputStream {
    InputStream::from_frames(genome.iter().map(|ws| {
        ws.iter()
            .map(|&w| SliceSpec::new(1, w, FrameKind::Generic))
            .collect::<Vec<_>>()
    }))
}

fn score(stream: &InputStream, cfg: &SearchConfig) -> (f64, Weight, Weight) {
    let greedy = run_server_only(stream, cfg.buffer, cfg.rate, GreedyByteValue::new()).benefit;
    let opt = optimal_unit_benefit(stream, cfg.buffer, cfg.rate).expect("unit slices");
    if greedy == 0 {
        // Both zero (empty stream) scores 1; opt > 0 with greedy = 0 is
        // impossible (greedy always sends *something* when data exists).
        (if opt == 0 { 1.0 } else { f64::INFINITY }, greedy, opt)
    } else {
        (opt as f64 / greedy as f64, greedy, opt)
    }
}

/// Runs the search and returns the worst instance found.
///
/// # Panics
///
/// Panics if `cfg.steps == 0`, `cfg.iterations == 0`, or `cfg.rate == 0`.
pub fn search_worst_greedy_ratio(cfg: &SearchConfig, seed: u64) -> SearchResult {
    assert!(cfg.steps > 0 && cfg.iterations > 0, "empty search space");
    assert!(cfg.rate > 0, "link rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut best = SearchResult {
        ratio: 1.0,
        greedy: 0,
        optimal: 0,
        stream: InputStream::default(),
    };
    let mut current = random_genome(&mut rng, cfg);
    let mut current_ratio = {
        let (r, _, _) = score(&express(&current), cfg);
        r
    };
    for it in 0..cfg.iterations {
        if it % cfg.restart_every == 0 && it > 0 {
            current = random_genome(&mut rng, cfg);
            current_ratio = score(&express(&current), cfg).0;
        }
        let mut cand = current.clone();
        mutate(&mut rng, &mut cand, cfg);
        let stream = express(&cand);
        let (ratio, greedy, opt) = score(&stream, cfg);
        if ratio >= current_ratio {
            current = cand;
            current_ratio = ratio;
        }
        if ratio > best.ratio {
            best = SearchResult {
                ratio,
                greedy,
                optimal: opt,
                stream,
            };
        }
    }
    best
}

/// The Theorem 4.8 adversary, run *interactively* against an arbitrary
/// deterministic policy: feed `B + 1` light slices, then heavy singles,
/// observe the last step `t1` at which the policy transmits a light
/// slice, and evaluate both endings at that `t1` (each against the
/// exact offline optimum). Returns the worse (larger) ratio — which the
/// theorem guarantees is at least ≈1.2287 for `α = 2` and large `B`,
/// for every deterministic policy.
///
/// `make_policy` must construct a fresh, deterministic policy instance
/// each call (the adversary replays the prefix).
pub fn interactive_adversary<P, F>(make_policy: F, b: u64, w_low: Weight, w_high: Weight) -> f64
where
    P: rts_core::DropPolicy,
    F: Fn() -> P,
{
    use rts_stream::gen::{two_scenario_adversary, Scenario};

    // Probe run: a long heavy tail; record the last light transmission.
    // Any deterministic policy behaves identically on the common prefix,
    // so the probe reveals its t1.
    let probe_len = 4 * b + 8;
    let probe = two_scenario_adversary(b, probe_len, w_low, w_high, Scenario::EndAtT1);
    let mut server = rts_core::Server::new(b, 1, make_policy());
    let mut t1 = 0u64;
    let mut frames = probe.frames().peekable();
    let mut t = 0u64;
    loop {
        let arrivals: &[_] = match frames.peek() {
            Some(f) if f.time == t => frames.next().expect("peeked").slices,
            _ => &[],
        };
        let step = server.step(t, arrivals);
        if step
            .sent
            .iter()
            .any(|c| c.completed && c.slice.weight == w_low)
        {
            t1 = t;
        }
        if frames.peek().is_none() && server.is_drained() {
            break;
        }
        t += 1;
    }

    // The adversary inflicts whichever ending is worse at that t1.
    let mut worst: f64 = 1.0;
    for scenario in [Scenario::EndAtT1, Scenario::BurstAfterT1] {
        let stream = two_scenario_adversary(b, t1.max(1), w_low, w_high, scenario);
        let online = run_server_only(&stream, b, 1, make_policy()).benefit;
        let opt = optimal_unit_benefit(&stream, b, 1).expect("unit slices");
        if online > 0 {
            worst = worst.max(opt as f64 / online as f64);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_core::bounds;
    use rts_core::policy::{GreedyByteValue, HeadDrop, TailDrop};

    #[test]
    fn interactive_adversary_beats_every_deterministic_policy() {
        let b = 200;
        let bound = bounds::deterministic_lower_bound(2.0); // ~1.2287
                                                            // Finite-B slack: the analytic bound is asymptotic.
        let slack = 0.05;
        let greedy = interactive_adversary(GreedyByteValue::new, b, 1, 2);
        let tail = interactive_adversary(TailDrop::new, b, 1, 2);
        let head = interactive_adversary(HeadDrop::new, b, 1, 2);
        for (name, r) in [("greedy", greedy), ("tail", tail), ("head", head)] {
            assert!(
                r >= bound - slack,
                "{name}: adversary extracted only {r} (bound {bound})"
            );
            assert!(r <= 4.0 + 1e-9, "{name}: beyond the Theorem 4.1 ceiling");
        }
    }

    #[test]
    fn interactive_adversary_is_deterministic() {
        let a = interactive_adversary(GreedyByteValue::new, 60, 1, 2);
        let b = interactive_adversary(GreedyByteValue::new, 60, 1, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn search_is_deterministic() {
        let cfg = SearchConfig {
            iterations: 150,
            ..SearchConfig::default()
        };
        let a = search_worst_greedy_ratio(&cfg, 5);
        let b = search_worst_greedy_ratio(&cfg, 5);
        assert_eq!(a.ratio, b.ratio);
        assert_eq!(a.stream, b.stream);
    }

    #[test]
    fn search_finds_nontrivial_adversaries() {
        let cfg = SearchConfig {
            iterations: 800,
            ..SearchConfig::default()
        };
        let r = search_worst_greedy_ratio(&cfg, 1);
        assert!(r.ratio > 1.15, "found only {}", r.ratio);
        assert!(r.ratio <= 4.0, "beyond the Theorem 4.1 bound: {}", r.ratio);
        // The witness instance reproduces its score.
        let (again, _, _) = score(&r.stream, &cfg);
        assert!((again - r.ratio).abs() < 1e-12);
    }

    #[test]
    fn found_ratio_never_exceeds_theorem_4_1() {
        for seed in 0..4 {
            let cfg = SearchConfig {
                iterations: 200,
                buffer: 3,
                ..SearchConfig::default()
            };
            let r = search_worst_greedy_ratio(&cfg, seed);
            assert!(r.ratio <= 4.0 + 1e-9);
        }
    }
}
