//! Checks binding the fast offline-optimal paths to their references:
//! the dense chain solver vs the generic min-cost flow, warm-started
//! sweeps vs cold re-solves, the canonical plan tie-break, and the
//! windowed estimator's certified gap bound.
//!
//! | check | binds |
//! |---|---|
//! | `unit-chain-vs-flow` | chain solver == generic flow (benefit + optimal plans) |
//! | `unit-plan-canonical` | plan accepts lowest ids per `(time, weight)` class |
//! | `sweep-warm-vs-cold` | warm `OptimalSweep` == cold solves over a `(B, R)` grid |
//! | `windowed-gap` | `exact ≤ windowed ≤ exact + seams·B·w_max`, exact at `B = 0` |

use std::collections::HashMap;
use std::collections::HashSet;

use rts_offline::{
    feasible::is_feasible_subset, optimal_unit_benefit, optimal_unit_benefit_flow,
    optimal_unit_plan, optimal_unit_plan_flow, optimal_unit_throughput, optimal_unit_windowed,
    OptimalSweep,
};
use rts_stream::{InputStream, SliceId, Time, Weight};

use crate::engine::{run_property, CheckConfig, CheckStats, Failure, Verdict};
use crate::gen::{GenProfile, SimCase};
use crate::{Check, CheckKind};

type CheckResult = Result<CheckStats, Box<Failure>>;

fn gen_unit(rng: &mut rts_stream::rng::SplitMix64) -> SimCase {
    SimCase::gen_any(rng, &GenProfile::unit())
}

/// Sum of accepted weights plus leaky-bucket feasibility of a plan.
fn audit_plan(
    stream: &InputStream,
    rejected: &HashSet<SliceId>,
    benefit: Weight,
    b: u64,
    r: u64,
    what: &str,
) -> Verdict {
    let kept: Weight = stream
        .slices()
        .iter()
        .filter(|s| !rejected.contains(&s.id))
        .map(|s| s.weight)
        .sum();
    if kept != benefit {
        return Verdict::fail(format!(
            "{what}: accepted weight {kept} != reported benefit {benefit}"
        ));
    }
    let accepted: HashSet<SliceId> = stream
        .slices()
        .iter()
        .map(|s| s.id)
        .filter(|id| !rejected.contains(id))
        .collect();
    Verdict::ensure(is_feasible_subset(stream, &accepted, b, r), || {
        format!("{what}: accepted set is not (σ=B, ρ=R) feasible")
    })
}

fn unit_chain_vs_flow(cfg: &CheckConfig) -> CheckResult {
    run_property(cfg, gen_unit, SimCase::shrink, SimCase::describe, |case| {
        let stream = case.stream.stream();
        let (b, r) = (case.params.buffer, case.params.rate);
        let chain = optimal_unit_benefit(&stream, b, r).expect("unit stream");
        let flow = optimal_unit_benefit_flow(&stream, b, r).expect("unit stream");
        if chain != flow {
            return Verdict::fail(format!(
                "chain solver computed {chain} but the flow reference finds {flow}"
            ));
        }
        // Both plans must be real optimal schedules: the flow plan may
        // legitimately pick a different equal-weight class than the
        // canonical chain plan, but both must reach the same benefit
        // with a feasible accepted set.
        let (cb, crej) = optimal_unit_plan(&stream, b, r).expect("unit stream");
        let (fb, frej) = optimal_unit_plan_flow(&stream, b, r).expect("unit stream");
        if cb != chain || fb != chain {
            return Verdict::fail(format!(
                "plan benefits (chain {cb}, flow {fb}) diverge from the optimum {chain}"
            ));
        }
        match audit_plan(&stream, &crej, chain, b, r, "chain plan") {
            Verdict::Pass => {}
            v => return v,
        }
        audit_plan(&stream, &frej, chain, b, r, "flow plan")
    })
}

fn unit_plan_canonical(cfg: &CheckConfig) -> CheckResult {
    run_property(cfg, gen_unit, SimCase::shrink, SimCase::describe, |case| {
        let stream = case.stream.stream();
        let (b, r) = (case.params.buffer, case.params.rate);
        let (_, rejected) = optimal_unit_plan(&stream, b, r).expect("unit stream");
        // Within each (time, weight) class the accepted slices must be
        // exactly the lowest ids; weight-0 slices are always rejected.
        let mut classes: HashMap<(Time, Weight), Vec<SliceId>> = HashMap::new();
        for frame in stream.frames() {
            for s in frame.slices {
                if s.weight == 0 {
                    if !rejected.contains(&s.id) {
                        return Verdict::fail(format!(
                            "zero-weight slice {:?} was not rejected",
                            s.id
                        ));
                    }
                } else {
                    classes.entry((frame.time, s.weight)).or_default().push(s.id);
                }
            }
        }
        for ((t, w), mut ids) in classes {
            ids.sort_unstable();
            let accepted = ids.iter().filter(|id| !rejected.contains(id)).count();
            for (i, id) in ids.iter().enumerate() {
                let should_accept = i < accepted;
                if rejected.contains(id) == should_accept {
                    return Verdict::fail(format!(
                        "class (t={t}, w={w}) accepts {accepted} of {} but slice #{i} \
                         ({id:?}) breaks the lowest-ids tie-break",
                        ids.len()
                    ));
                }
            }
        }
        Verdict::Pass
    })
}

fn sweep_warm_vs_cold(cfg: &CheckConfig) -> CheckResult {
    run_property(cfg, gen_unit, SimCase::shrink, SimCase::describe, |case| {
        let stream = case.stream.stream();
        let levels = OptimalSweep::new(&stream).expect("unit stream");
        let pushout = OptimalSweep::with_level_cap(&stream, 0).expect("unit stream");
        for b in [0, 1, 2, case.params.buffer, case.params.buffer + 7] {
            for r in [1, 2, case.params.rate] {
                let cold = optimal_unit_benefit(&stream, b, r).expect("unit stream");
                let warm_l = levels.benefit(b, r);
                let warm_p = pushout.benefit(b, r);
                if warm_l != cold || warm_p != cold {
                    return Verdict::fail(format!(
                        "warm sweep diverges from cold solve at B={b} R={r}: \
                         levels {warm_l}, push-out {warm_p}, cold {cold}"
                    ));
                }
                let cold_tp = optimal_unit_throughput(&stream, b, r).expect("unit stream");
                if levels.throughput(b, r) != cold_tp {
                    return Verdict::fail(format!(
                        "warm throughput {} != cold throughput {cold_tp} at B={b} R={r}",
                        levels.throughput(b, r)
                    ));
                }
            }
        }
        Verdict::Pass
    })
}

fn windowed_gap(cfg: &CheckConfig) -> CheckResult {
    run_property(cfg, gen_unit, SimCase::shrink, SimCase::describe, |case| {
        let stream = case.stream.stream();
        let (b, r) = (case.params.buffer, case.params.rate);
        let window = case.params.delay + 1; // 1..=5 window lengths
        let exact = optimal_unit_benefit(&stream, b, r).expect("unit stream");
        let w = optimal_unit_windowed(&stream, b, r, window).expect("unit stream");
        if w.benefit < exact || w.benefit > exact + w.gap_bound {
            return Verdict::fail(format!(
                "windowed estimate {} outside [{exact}, {exact} + {}] (window {window})",
                w.benefit, w.gap_bound
            ));
        }
        // B = 0 decouples the windows: the estimate must be exact.
        let z = optimal_unit_windowed(&stream, 0, r, window).expect("unit stream");
        let z_exact = optimal_unit_benefit(&stream, 0, r).expect("unit stream");
        if z.benefit != z_exact {
            return Verdict::fail(format!(
                "B=0 windowed estimate {} != exact {z_exact} (window {window})",
                z.benefit
            ));
        }
        // One window covering the horizon is the exact solver.
        let horizon = stream.horizon().max(1);
        let one = optimal_unit_windowed(&stream, b, r, horizon).expect("unit stream");
        Verdict::ensure(one.benefit == exact && one.gap_bound == 0, || {
            format!(
                "single-window solve {} (bound {}) != exact {exact}",
                one.benefit, one.gap_bound
            )
        })
    })
}

/// The offline fast-path checks, in catalog order.
pub fn checks() -> Vec<Check> {
    vec![
        Check {
            name: "unit-chain-vs-flow",
            binds: "dense chain solver == generic min-cost flow (benefit + optimal plans)",
            kind: CheckKind::Oracle,
            run: unit_chain_vs_flow,
        },
        Check {
            name: "unit-plan-canonical",
            binds: "optimal plan accepts lowest ids per (time, weight) class, rejects weight 0",
            kind: CheckKind::Invariant,
            run: unit_plan_canonical,
        },
        Check {
            name: "sweep-warm-vs-cold",
            binds: "warm OptimalSweep == cold re-solves over a (B, R) grid, both warm paths",
            kind: CheckKind::Oracle,
            run: sweep_warm_vs_cold,
        },
        Check {
            name: "windowed-gap",
            binds: "exact ≤ windowed ≤ exact + seams·B·w_max; exact at B=0 and one window",
            kind: CheckKind::Invariant,
            run: windowed_gap,
        },
    ]
}
