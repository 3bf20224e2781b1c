//! The property-checking engine: deterministic case generation,
//! counterexample shrinking, and seed-replay bookkeeping.
//!
//! The engine is deliberately tiny and fully deterministic: a root seed
//! spawns one [`rts_stream::rng::SplitMix64`] per case, so
//! any failing case is pinned by a single `u64` — the `CHECK_SEED`
//! printed in the failure report. Replaying that seed regenerates the
//! exact failing input; the shrinker is pure, so the replay also
//! re-derives the exact minimal counterexample.
//!
//! A property whose code under test panics fails its case like any
//! other: every evaluation, shrink candidates included, turns a panic
//! into [`Verdict::Fail`] carrying the panic message, so the case still
//! shrinks and reports its `CHECK_SEED`.

use std::panic::{self, AssertUnwindSafe};

use rts_stream::rng::SplitMix64;

/// The outcome of evaluating a property on one generated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The input satisfies the property.
    Pass,
    /// The input violates the property; the message says how.
    Fail(String),
    /// The input is outside the property's precondition (e.g. a bound
    /// that is undefined for the drawn parameters); it counts as a
    /// discard, not a pass.
    Discard,
}

impl Verdict {
    /// Builds a failing verdict from anything displayable.
    pub fn fail(msg: impl Into<String>) -> Verdict {
        Verdict::Fail(msg.into())
    }

    /// `Pass` when `ok`, otherwise `Fail` with the (lazily built)
    /// message.
    pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Verdict {
        if ok {
            Verdict::Pass
        } else {
            Verdict::Fail(msg())
        }
    }
}

/// How a check runs: how many cases, from which root seed, and how hard
/// to shrink a counterexample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Number of generated cases per property.
    pub cases: u64,
    /// Root seed; case `i` draws its own seed from a master generator
    /// seeded with this.
    pub seed: u64,
    /// Replay mode: run exactly one case whose generator is seeded with
    /// this value (the `CHECK_SEED` of a previous failure). Overrides
    /// `cases`/`seed`.
    pub case_seed: Option<u64>,
    /// Budget for shrink candidate evaluations (each candidate re-runs
    /// the property once).
    pub max_shrink_steps: u64,
}

impl CheckConfig {
    /// A config with the given case count and root seed, default shrink
    /// budget, and no replay seed.
    pub fn new(cases: u64, seed: u64) -> Self {
        CheckConfig {
            cases,
            seed,
            case_seed: None,
            max_shrink_steps: 4000,
        }
    }

    /// Returns the config in replay mode for one `CHECK_SEED`.
    pub fn with_case_seed(mut self, case_seed: u64) -> Self {
        self.case_seed = Some(case_seed);
        self
    }
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig::new(100, 1)
    }
}

/// A shrunk, replayable counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Index of the failing case in the run (0 in replay mode).
    pub case_index: u64,
    /// The per-case generator seed: replaying with this as `CHECK_SEED`
    /// regenerates the failing input exactly.
    pub case_seed: u64,
    /// The property's failure message on the *minimal* input.
    pub message: String,
    /// Human-readable form of the original failing input.
    pub original: String,
    /// Human-readable form of the minimal failing input after
    /// shrinking.
    pub minimal: String,
    /// Number of successful shrink steps applied (0 means the original
    /// was already minimal or shrinking found nothing smaller).
    pub shrink_steps: u64,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "case {} failed (seed {:#018x}, {} shrink steps)",
            self.case_index, self.case_seed, self.shrink_steps
        )?;
        writeln!(f, "error: {}", self.message)?;
        writeln!(f, "minimal reproducer:")?;
        for line in self.minimal.lines() {
            writeln!(f, "  {line}")?;
        }
        write!(
            f,
            "replay: CHECK_SEED={:#018x} smoothctl check --filter <name>",
            self.case_seed
        )
    }
}

/// Statistics of a passing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckStats {
    /// Cases that evaluated to [`Verdict::Pass`].
    pub passed: u64,
    /// Cases discarded by the property's precondition.
    pub discarded: u64,
}

/// Runs one property over `cfg.cases` generated inputs.
///
/// * `gen` draws an input from a per-case [`SplitMix64`];
/// * `shrink` proposes strictly "smaller" variants of an input (the
///   engine keeps any variant that still fails, looping to a fixpoint
///   within the shrink budget);
/// * `describe` renders an input for the failure report;
/// * `prop` evaluates the property.
///
/// All four closures must be pure for replay to be exact.
///
/// # Errors
///
/// Returns the shrunk [`Failure`] for the first failing case.
pub fn run_property<T, G, S, D, P>(
    cfg: &CheckConfig,
    gen: G,
    shrink: S,
    describe: D,
    prop: P,
) -> Result<CheckStats, Box<Failure>>
where
    T: Clone,
    G: Fn(&mut SplitMix64) -> T,
    S: Fn(&T) -> Vec<T>,
    D: Fn(&T) -> String,
    P: Fn(&T) -> Verdict,
{
    let mut stats = CheckStats::default();
    let mut master = SplitMix64::new(cfg.seed);
    let cases = if cfg.case_seed.is_some() { 1 } else { cfg.cases };
    for case_index in 0..cases {
        let case_seed = match cfg.case_seed {
            Some(s) => s,
            None => master.next_u64(),
        };
        let input = gen(&mut SplitMix64::new(case_seed));
        match evaluate(&prop, &input) {
            Verdict::Pass => stats.passed += 1,
            Verdict::Discard => stats.discarded += 1,
            Verdict::Fail(message) => {
                let original = describe(&input);
                let (minimal, message, shrink_steps) =
                    shrink_to_minimal(input, message, cfg.max_shrink_steps, &shrink, &prop);
                return Err(Box::new(Failure {
                    case_index,
                    case_seed,
                    message,
                    original,
                    minimal: describe(&minimal),
                    shrink_steps,
                }));
            }
        }
    }
    Ok(stats)
}

/// Greedy first-improvement shrinking: repeatedly take the first
/// proposed candidate that still fails, until no candidate fails or the
/// budget runs out. Deterministic because `shrink` and `prop` are pure.
fn shrink_to_minimal<T: Clone>(
    mut current: T,
    mut message: String,
    budget: u64,
    shrink: &impl Fn(&T) -> Vec<T>,
    prop: &impl Fn(&T) -> Verdict,
) -> (T, String, u64) {
    let mut evals = 0u64;
    let mut improvements = 0u64;
    'outer: loop {
        for candidate in shrink(&current) {
            if evals >= budget {
                break 'outer;
            }
            evals += 1;
            if let Verdict::Fail(msg) = evaluate(prop, &candidate) {
                current = candidate;
                message = msg;
                improvements += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, message, improvements)
}

/// Evaluates `prop` on `input`; a panic becomes a [`Verdict::Fail`]
/// carrying the panic message. The default panic hook still prints the
/// panic to stderr (swapping the process-wide hook would race with
/// parallel tests); the stdout report is unaffected.
fn evaluate<T>(prop: &impl Fn(&T) -> Verdict, input: &T) -> Verdict {
    panic::catch_unwind(AssertUnwindSafe(|| prop(input))).unwrap_or_else(|payload| {
        let why = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Verdict::Fail(format!("panicked: {why}"))
    })
}

/// Shrink candidates for an integer, pulling toward `floor`: the floor
/// itself, then `v - d` for halving deltas `d` (so the list sweeps from
/// the midpoint up to the predecessor). Greedy first-improvement over
/// this ladder is a binary search: `O(log²)` improvements to reach the
/// smallest value that still fails.
pub fn shrink_u64(v: u64, floor: u64) -> Vec<u64> {
    if v <= floor {
        return Vec::new();
    }
    let mut out = vec![floor];
    let mut delta = (v - floor) / 2;
    while delta >= 1 {
        let cand = v - delta;
        if cand != floor && out.last() != Some(&cand) {
            out.push(cand);
        }
        delta /= 2;
    }
    out
}

/// Shrink candidates for a sequence: remove chunks of halving size
/// (delta-debugging style, so a mostly-irrelevant suffix disappears in
/// `O(log n)` improvements), then shrink each element in place via
/// `shrink_item`.
pub fn shrink_vec<T: Clone>(items: &[T], shrink_item: impl Fn(&T) -> Vec<T>) -> Vec<Vec<T>> {
    let n = items.len();
    let mut out = Vec::new();
    // Chunk removals: halves first, then quarters, ..., then singletons
    // (for n = 1 the "half" is the single element itself).
    let mut chunk = (n / 2).max(usize::from(n == 1));
    while chunk >= 1 {
        let mut start = 0;
        while start + chunk <= n {
            let mut cand = Vec::with_capacity(n - chunk);
            cand.extend_from_slice(&items[..start]);
            cand.extend_from_slice(&items[start + chunk..]);
            out.push(cand);
            start += chunk;
        }
        chunk /= 2;
    }
    // In-place element shrinks.
    for (i, item) in items.iter().enumerate() {
        for smaller in shrink_item(item) {
            let mut cand = items.to_vec();
            cand[i] = smaller;
            out.push(cand);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_vec(rng: &mut SplitMix64) -> Vec<u64> {
        let n = rng.range_u64(0, 20);
        (0..n).map(|_| rng.range_u64(0, 100)).collect()
    }

    #[allow(clippy::ptr_arg)] // must match run_property's Fn(&T) with T = Vec<u64>
    fn shrink(v: &Vec<u64>) -> Vec<Vec<u64>> {
        shrink_vec(v, |&x| shrink_u64(x, 0))
    }

    fn describe(v: &Vec<u64>) -> String {
        format!("{v:?}")
    }

    #[test]
    fn passing_property_reports_stats() {
        let cfg = CheckConfig::new(50, 7);
        let stats = run_property(&cfg, gen_vec, shrink, describe, |_| Verdict::Pass).unwrap();
        assert_eq!(stats.passed, 50);
        assert_eq!(stats.discarded, 0);
    }

    #[test]
    fn discards_are_counted_separately() {
        let cfg = CheckConfig::new(40, 3);
        let stats = run_property(&cfg, gen_vec, shrink, describe, |v: &Vec<u64>| {
            if v.len().is_multiple_of(2) {
                Verdict::Discard
            } else {
                Verdict::Pass
            }
        })
        .unwrap();
        assert_eq!(stats.passed + stats.discarded, 40);
        assert!(stats.discarded > 0);
    }

    #[test]
    fn failure_shrinks_to_the_minimal_counterexample() {
        // Property: no element is >= 50. The minimal counterexample is
        // the single-element vector [50].
        let cfg = CheckConfig::new(200, 11);
        let fail = run_property(&cfg, gen_vec, shrink, describe, |v: &Vec<u64>| {
            match v.iter().find(|&&x| x >= 50) {
                Some(x) => Verdict::fail(format!("element {x} >= 50")),
                None => Verdict::Pass,
            }
        })
        .unwrap_err();
        assert_eq!(fail.minimal, "[50]", "shrinker must reach the minimum");
        assert!(fail.shrink_steps > 0);
        assert!(fail.message.contains("50"));
    }

    #[test]
    fn replaying_the_case_seed_reproduces_the_failure() {
        let prop = |v: &Vec<u64>| {
            Verdict::ensure(v.iter().all(|&x| x < 90), || "big element".to_string())
        };
        let cfg = CheckConfig::new(300, 5);
        let fail = run_property(&cfg, gen_vec, shrink, describe, prop).unwrap_err();
        let replay_cfg = CheckConfig::new(300, 999).with_case_seed(fail.case_seed);
        let replayed = run_property(&replay_cfg, gen_vec, shrink, describe, prop).unwrap_err();
        assert_eq!(replayed.case_index, 0);
        assert_eq!(replayed.original, fail.original);
        assert_eq!(replayed.minimal, fail.minimal, "replay must re-shrink identically");
    }

    #[test]
    fn runs_are_deterministic_in_the_root_seed() {
        let prop = |v: &Vec<u64>| {
            Verdict::ensure(v.len() < 18, || format!("len {}", v.len()))
        };
        let cfg = CheckConfig::new(500, 42);
        let a = run_property(&cfg, gen_vec, shrink, describe, prop);
        let b = run_property(&cfg, gen_vec, shrink, describe, prop);
        assert_eq!(a, b);
    }

    #[test]
    fn a_panicking_property_fails_and_shrinks() {
        // The code under test panics on inputs of 3 or more elements:
        // the case fails with the panic message and shrinks to the
        // smallest such input.
        let cfg = CheckConfig::new(200, 11);
        let fail = run_property(&cfg, gen_vec, shrink, describe, |v: &Vec<u64>| {
            assert!(v.len() < 3, "too long: {}", v.len());
            Verdict::Pass
        })
        .unwrap_err();
        assert_eq!(fail.minimal, "[0, 0, 0]");
        assert_eq!(fail.message, "panicked: too long: 3");
        assert!(fail.shrink_steps > 0);
    }

    #[test]
    fn shrink_u64_converges_via_binary_search() {
        let mut v = 1_000_000u64;
        let mut steps = 0;
        // Simulate a property failing only at >= 617: greedy shrinking
        // must land exactly on 617 in logarithmically many steps.
        while let Some(c) = shrink_u64(v, 0).into_iter().find(|&c| c >= 617) {
            v = c;
            steps += 1;
        }
        assert_eq!(v, 617);
        assert!(steps <= 64, "took {steps} steps");
    }

    #[test]
    fn shrink_vec_proposes_strictly_smaller_or_elementwise_smaller() {
        let v = vec![4u64, 7, 9];
        for cand in shrink_vec(&v, |&x| shrink_u64(x, 0)) {
            let smaller_len = cand.len() < v.len();
            let elementwise = cand.len() == v.len()
                && cand.iter().zip(&v).all(|(a, b)| a <= b)
                && cand.iter().zip(&v).any(|(a, b)| a < b);
            assert!(smaller_len || elementwise, "{cand:?} does not shrink {v:?}");
        }
    }

    #[test]
    fn shrink_budget_is_respected() {
        let cfg = CheckConfig {
            max_shrink_steps: 0,
            ..CheckConfig::new(100, 2)
        };
        let fail = run_property(&cfg, gen_vec, shrink, describe, |v: &Vec<u64>| {
            Verdict::ensure(v.len() < 5, || "long".to_string())
        })
        .unwrap_err();
        assert_eq!(fail.shrink_steps, 0);
        assert_eq!(fail.original, fail.minimal);
    }
}
