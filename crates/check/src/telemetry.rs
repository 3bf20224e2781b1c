//! Property checks for the rts-telemetry plane.
//!
//! | check | binds |
//! |---|---|
//! | `hist-merge-oracle` | `LogHistogram::merge` is associative and commutative, and an [`AtomicHistogram`] snapshot under interleaved record/merge equals the plain histogram fed the same data |
//!
//! The merged histogram is what every scrape and stats frame reports
//! (per-stage timers merge across shards), so merge order must not be
//! observable and the lock-free snapshot must agree field-for-field
//! with the single-threaded reference.

use rts_obs::LogHistogram;
use rts_telemetry::AtomicHistogram;
use rts_stream::rng::SplitMix64;

use crate::engine::{run_property, shrink_u64, shrink_vec, CheckConfig, CheckStats, Failure, Verdict};
use crate::{Check, CheckKind};

type CheckResult = Result<CheckStats, Box<Failure>>;

/// Three independent observation streams plus an interleaving script.
#[derive(Debug, Clone)]
struct MergeCase {
    streams: [Vec<u64>; 3],
}

fn gen_values(rng: &mut SplitMix64) -> Vec<u64> {
    // Values stay below 2^32: AtomicHistogram carries its running sum
    // in a u64 (nanosecond scale), so the snapshot-equals-live leg of
    // the oracle must not wrap it where the plain u128 sum would not.
    let n = rng.range_u64(0, 24); // 0 exercises empty-histogram merges
    (0..n)
        .map(|_| match rng.range_u64(0, 3) {
            0 => rng.range_u64(0, 16),      // dense low buckets
            1 => rng.range_u64(0, 1 << 20), // mid range
            _ => rng.next_u64() >> rng.range_u64(32, 60), // heavy tail
        })
        .collect()
}

fn gen_merge_case(rng: &mut SplitMix64) -> MergeCase {
    MergeCase {
        streams: [gen_values(rng), gen_values(rng), gen_values(rng)],
    }
}

fn shrink_merge_case(case: &MergeCase) -> Vec<MergeCase> {
    let mut out = Vec::new();
    for i in 0..3 {
        for shrunk in shrink_vec(&case.streams[i], |&v| shrink_u64(v, 0)) {
            let mut streams = case.streams.clone();
            streams[i] = shrunk;
            out.push(MergeCase { streams });
        }
    }
    out
}

fn describe_merge_case(case: &MergeCase) -> String {
    format!(
        "a = {:?}\nb = {:?}\nc = {:?}",
        case.streams[0], case.streams[1], case.streams[2]
    )
}

fn hist_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn same(a: &LogHistogram, b: &LogHistogram) -> bool {
    a == b
        && a.count() == b.count()
        && a.sum() == b.sum()
        && a.buckets() == b.buckets()
}

fn run_merge_case(case: &MergeCase) -> Verdict {
    let [ref av, ref bv, ref cv] = case.streams;
    let (a, b, c) = (hist_of(av), hist_of(bv), hist_of(cv));

    // Commutativity: a ∪ b = b ∪ a.
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    if !same(&ab, &ba) {
        return Verdict::fail(format!(
            "merge not commutative: a∪b = {} vs b∪a = {}",
            ab.brief(),
            ba.brief()
        ));
    }

    // Associativity: (a ∪ b) ∪ c = a ∪ (b ∪ c).
    let mut abc_left = ab.clone();
    abc_left.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut abc_right = a.clone();
    abc_right.merge(&bc);
    if !same(&abc_left, &abc_right) {
        return Verdict::fail(format!(
            "merge not associative: (a∪b)∪c = {} vs a∪(b∪c) = {}",
            abc_left.brief(),
            abc_right.brief()
        ));
    }

    // Identity: merging an empty histogram changes nothing.
    let mut a_id = a.clone();
    a_id.merge(&LogHistogram::new());
    if !same(&a_id, &a) {
        return Verdict::fail("merge with empty histogram is not the identity");
    }

    // Snapshot-equals-live: interleave record() and merge() into the
    // lock-free histogram exactly as the daemon does (shard workers
    // record, the registry merges), then compare against the plain
    // reference built from the union of the same observations.
    let atomic = AtomicHistogram::new();
    for &v in av {
        atomic.record(v);
    }
    atomic.merge(&b);
    for &v in cv {
        atomic.record(v);
    }
    let snap = atomic.snapshot();
    if !same(&snap, &abc_left) {
        return Verdict::fail(format!(
            "atomic snapshot {} != reference {}",
            snap.brief(),
            abc_left.brief()
        ));
    }
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        if snap.quantile(q) != abc_left.quantile(q) {
            return Verdict::fail(format!(
                "q{q}: snapshot {} != reference {}",
                snap.quantile(q),
                abc_left.quantile(q)
            ));
        }
    }
    Verdict::Pass
}

fn hist_merge_oracle(cfg: &CheckConfig) -> CheckResult {
    run_property(
        cfg,
        gen_merge_case,
        shrink_merge_case,
        describe_merge_case,
        run_merge_case,
    )
}

/// The telemetry checks, in catalog order.
pub fn checks() -> Vec<Check> {
    vec![Check {
        name: "hist-merge-oracle",
        binds: "LogHistogram merge is associative/commutative and atomic snapshots equal the plain reference",
        kind: CheckKind::Oracle,
        run: hist_merge_oracle,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_checks_pass_on_a_quick_run() {
        let cfg = CheckConfig::new(60, 0x5eed);
        for check in checks() {
            let stats = (check.run)(&cfg).unwrap_or_else(|f| panic!("{}: {f}", check.name));
            assert!(stats.passed > 0, "{} ran no cases", check.name);
        }
    }
}
