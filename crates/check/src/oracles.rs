//! The differential-oracle layer: the same generated instance pushed
//! through paired implementations that must agree exactly.
//!
//! Unlike the invariants (which bound behaviour against the paper),
//! these checks bind implementations against *each other* — the fast
//! path against the reference path, the composed system against its
//! parts, the clever algorithm against exhaustive enumeration:
//!
//! | check | pair |
//! |---|---|
//! | `ring-vs-map` | ring-backed product server vs the map-backed reference server, every slot |
//! | `probed-vs-unprobed` | probe-instrumented engine vs the plain one |
//! | `faults-empty-vs-plain` | fault pipeline with an empty plan vs no pipeline |
//! | `mux-single-vs-sim` | one-session multiplexer vs the plain simulator |
//! | `client-step-vs-into` | `Client::step` vs the scratch-reusing `step_into` |
//! | `client-timer-vs-known` | timer-anchored playout vs known-link-delay playout |
//! | `client-queue-vs-reference` | FIFO deadline-queue client vs the map-based reference |
//! | `greedy-index-vs-rescan` | per-byte-value index Greedy vs the O(n) rescan reference, every slot |
//! | `flow-vs-brute` | min-cost-flow unit reference vs 2^n enumeration |
//! | `framedp-vs-brute` | whole-frame DP optimum vs 2^n enumeration |
//! | `mixed-vs-brute` | general mixed optimum vs 2^n enumeration |
//! | `sim-vs-server-only` | full pipeline benefit vs server-only (balanced) |
//! | `textio-roundtrip` | write→parse identity, plus BOM/CRLF mangling |

use rts_core::policy::{GreedyByteValue, GreedyRescan};
use rts_core::{Client, ClientStep, SentChunk, Server};
use rts_faults::{simulate_faulted, FaultPlan};
use rts_mux::{Mux, RoundRobin, SessionSpec};
use rts_obs::VecProbe;
use rts_sim::{run_server_only, simulate, simulate_probed, SimConfig, SimReport};
use rts_stream::{textio, InputStream, Time};

use crate::engine::{run_property, CheckConfig, CheckStats, Failure, Verdict};
use crate::gen::{ClientCase, GenProfile, SimCase, StreamCase};
use crate::reference_client::ReferenceClient;
use crate::reference_server::{first_divergence, Lockstep, ReferencePolicy, ReferenceServer};
use crate::{Check, CheckKind};

type CheckResult = Result<CheckStats, Box<Failure>>;

/// Hard cap on brute-force instances: 2^12 subsets stays fast even with
/// hundreds of cases per run.
const BRUTE_CAP: u64 = 12;

fn reports_equal(a: &SimReport, b: &SimReport, what: &str) -> Verdict {
    if a.metrics != b.metrics {
        return Verdict::fail(format!(
            "{what}: metrics diverge\n  left:  {:?}\n  right: {:?}",
            a.metrics, b.metrics
        ));
    }
    if !a.record.slices().eq(b.record.slices()) {
        let i = a
            .record
            .slices()
            .zip(b.record.slices())
            .position(|(x, y)| x != y)
            .map_or(usize::MAX, |i| i);
        return Verdict::fail(format!("{what}: slice records diverge first at index {i}"));
    }
    if a.record.steps() != b.record.steps() {
        return Verdict::fail(format!("{what}: step samples diverge"));
    }
    Verdict::Pass
}

/// Steps two servers over the case's stream side by side and requires
/// identical [`ServerStep`](rts_core::ServerStep)s every slot. A server
/// that panics (a policy with no victim, a bad victim, a broken index)
/// fails the case through the engine's panic catch, so it shrinks too.
fn servers_agree(
    case: &SimCase,
    left: &mut impl Lockstep,
    right: &mut impl Lockstep,
    what: &str,
) -> Verdict {
    match first_divergence(&case.stream.stream(), left, right) {
        None => Verdict::Pass,
        Some(why) => Verdict::fail(format!("{what}: {why}")),
    }
}

fn ring_vs_map(cfg: &CheckConfig) -> CheckResult {
    run_property(
        cfg,
        |rng| SimCase::gen_any(rng, &GenProfile::small()),
        SimCase::shrink,
        SimCase::describe,
        |case| {
            let (b, r) = (case.params.buffer, case.params.rate);
            servers_agree(
                case,
                &mut Server::new(b, r, case.policy.build()),
                &mut ReferenceServer::new(b, r, ReferencePolicy::new(case.policy)),
                "ring server vs map reference",
            )
        },
    )
}

fn probed_vs_unprobed(cfg: &CheckConfig) -> CheckResult {
    run_property(
        cfg,
        |rng| SimCase::gen_any(rng, &GenProfile::small()),
        SimCase::shrink,
        SimCase::describe,
        |case| {
            let stream = case.stream.stream();
            let plain = simulate(&stream, SimConfig::new(case.params), case.policy.build());
            let mut probe = VecProbe::new();
            let probed = simulate_probed(
                &stream,
                SimConfig::new(case.params),
                case.policy.build(),
                &mut probe,
            );
            if probe.events.is_empty() && stream.frame_count() > 0 {
                return Verdict::fail("probe observed no events on a non-empty run".to_string());
            }
            reports_equal(&plain, &probed, "probed vs unprobed")
        },
    )
}

fn faults_empty_vs_plain(cfg: &CheckConfig) -> CheckResult {
    run_property(
        cfg,
        |rng| SimCase::gen_any(rng, &GenProfile::small()),
        SimCase::shrink,
        SimCase::describe,
        |case| {
            let stream = case.stream.stream();
            let plain = simulate(&stream, SimConfig::new(case.params), case.policy.build());
            let faulted = simulate_faulted(
                &stream,
                SimConfig::new(case.params),
                FaultPlan::new(0),
                case.policy.build(),
            );
            reports_equal(&plain, &faulted, "empty fault plan vs plain engine")
        },
    )
}

fn mux_single_vs_sim(cfg: &CheckConfig) -> CheckResult {
    run_property(
        cfg,
        |rng| SimCase::gen_balanced(rng, &GenProfile::small()),
        SimCase::shrink,
        SimCase::describe,
        |case| {
            // The mux serves sessions over a shared zero-latency link, so
            // pin the sim's link delay to 0 for the comparison.
            let mut params = case.params;
            params.link_delay = 0;
            let stream = case.stream.stream();
            let m = simulate(&stream, SimConfig::new(params), case.policy.build()).metrics;
            let mut mux = Mux::new(params.rate, RoundRobin::new());
            if mux
                .admit(SessionSpec::new(stream, params, case.policy.build()))
                .is_err()
            {
                return Verdict::Discard;
            }
            let report = mux.run();
            let s = &report.sessions[0];
            let pairs = [
                ("benefit", s.delivered_weight, m.benefit),
                ("played bytes", s.delivered_bytes, m.played_bytes),
                ("played slices", s.played_slices, m.played_slices),
                ("server drops", s.server_dropped_slices, m.server_dropped_slices),
                ("client drops", s.client_dropped_slices, m.client_dropped_slices),
            ];
            for (what, mux_v, sim_v) in pairs {
                if mux_v != sim_v {
                    return Verdict::fail(format!(
                        "single-session mux disagrees with sim on {what}: mux {mux_v} vs sim {sim_v}"
                    ));
                }
            }
            Verdict::Pass
        },
    )
}

/// Drives a standalone server over the stream and returns the per-slot
/// chunk schedule (slots 0.. until drained).
fn chunk_schedule(case: &SimCase) -> Vec<Vec<SentChunk>> {
    let stream = case.stream.stream();
    let mut server = Server::new(case.params.buffer, case.params.rate, case.policy.build());
    let horizon = stream.last_arrival().unwrap_or(0);
    let mut slots = Vec::new();
    let mut t: Time = 0;
    loop {
        let arrivals: &[_] = stream
            .frames()
            .find(|f| f.time == t)
            .map_or(&[], |f| f.slices);
        let step = server.step(t, arrivals);
        slots.push(step.sent);
        if t >= horizon && server.is_drained() {
            return slots;
        }
        t += 1;
    }
}

/// Steps `client` over the chunk schedule (delivery at the send slot,
/// i.e. true link delay 0) plus `flush` empty slots, collecting every
/// [`ClientStep`](rts_core::ClientStep) via `observe`.
fn drive_client(
    client: &mut Client,
    slots: &[Vec<SentChunk>],
    flush: Time,
    mut observe: impl FnMut(Time, rts_core::ClientStep),
) {
    for (t, chunks) in slots.iter().enumerate() {
        observe(t as Time, client.step(t as Time, chunks));
    }
    for t in slots.len() as Time..slots.len() as Time + flush {
        observe(t, client.step(t, &[]));
    }
}

fn client_step_vs_into(cfg: &CheckConfig) -> CheckResult {
    run_property(
        cfg,
        |rng| SimCase::gen_any(rng, &GenProfile::small()),
        SimCase::shrink,
        SimCase::describe,
        |case| {
            let slots = chunk_schedule(case);
            let flush = case.params.delay + 2;
            let cap = case.params.buffer.max(1);
            let mut fresh = Client::new(cap, case.params.delay, 0);
            let mut scratch_client = Client::new(cap, case.params.delay, 0);
            let mut scratch = rts_core::ClientStep::default();
            let mut verdict = Verdict::Pass;
            drive_client(&mut fresh, &slots, flush, |t, step| {
                let chunks = slots.get(t as usize).map_or(&[][..], |c| &c[..]);
                scratch_client.step_into(t, chunks, &mut scratch);
                if scratch != step && matches!(verdict, Verdict::Pass) {
                    verdict = Verdict::fail(format!(
                        "step and step_into diverge at t={t}:\n  step:      {step:?}\n  step_into: {scratch:?}"
                    ));
                }
            });
            verdict
        },
    )
}

fn client_timer_vs_known(cfg: &CheckConfig) -> CheckResult {
    run_property(
        cfg,
        |rng| SimCase::gen_any(rng, &GenProfile::small()),
        SimCase::shrink,
        SimCase::describe,
        |case| {
            let slots = chunk_schedule(case);
            let flush = case.params.delay + 2;
            let cap = case.params.buffer.max(1);
            let mut known = Client::new(cap, case.params.delay, 0);
            let mut timer = Client::with_timer(cap, case.params.delay);
            let mut verdict = Verdict::Pass;
            drive_client(&mut known, &slots, flush, |t, step| {
                let chunks = slots.get(t as usize).map_or(&[][..], |c| &c[..]);
                let tstep = timer.step(t, chunks);
                if tstep != step && matches!(verdict, Verdict::Pass) {
                    verdict = Verdict::fail(format!(
                        "timer client diverges from known-delay client at t={t}:\n  known: {step:?}\n  timer: {tstep:?}"
                    ));
                }
            });
            verdict
        },
    )
}

fn client_queue_vs_reference(cfg: &CheckConfig) -> CheckResult {
    run_property(
        cfg,
        |rng| ClientCase::gen(rng, &GenProfile::small()),
        ClientCase::shrink,
        ClientCase::describe,
        |case| {
            let params = case.sim.params;
            // Chunks sent at slot t are delivered at t + P.
            let link_delay = params.link_delay as usize;
            let mut deliveries = vec![Vec::new(); link_delay];
            deliveries.extend(chunk_schedule(&case.sim));

            let (mut queue, mut reference) = if case.timer {
                (
                    Client::with_timer(case.capacity, params.delay),
                    ReferenceClient::with_timer(case.capacity, params.delay),
                )
            } else {
                (
                    Client::new(case.capacity, params.delay, params.link_delay),
                    ReferenceClient::new(case.capacity, params.delay, params.link_delay),
                )
            };
            if let Some(policy) = case.resync_policy() {
                queue = queue.with_resync(policy);
                reference = reference.with_resync(policy);
            }
            if let Some(drift) = case.clock_drift() {
                queue = queue.with_drift(drift);
                reference = reference.with_drift(drift);
            }

            // Step both every `stride` slots with everything delivered
            // since their last step, until the deliveries run out and
            // both buffers are empty.
            const FLUSH_CAP: Time = 1_000;
            let end = deliveries.len() as Time;
            let mut batch = Vec::new();
            let (mut qstep, mut rstep) = (ClientStep::default(), ClientStep::default());
            for t in 0..end + FLUSH_CAP {
                if let Some(chunks) = deliveries.get(t as usize) {
                    batch.extend_from_slice(chunks);
                }
                if t % case.stride != 0 {
                    continue;
                }
                queue.step_into(t, &batch, &mut qstep);
                reference.step_into(t, &batch, &mut rstep);
                batch.clear();
                if qstep != rstep {
                    return Verdict::fail(format!(
                        "queue client diverges from the reference at t={t}:\n  queue:     {qstep:?}\n  reference: {rstep:?}"
                    ));
                }
                let state = (queue.occupancy(), queue.resync_offset());
                let expected = (reference.occupancy(), reference.resync_offset());
                if state != expected {
                    return Verdict::fail(format!(
                        "after t={t} (occupancy, resync offset) is {state:?}, reference {expected:?}"
                    ));
                }
                if t >= end && state.0 == 0 {
                    return Verdict::Pass;
                }
            }
            Verdict::fail(format!(
                "clients still hold data {FLUSH_CAP} slots after the last delivery"
            ))
        },
    )
}

fn greedy_index_vs_rescan(cfg: &CheckConfig) -> CheckResult {
    run_property(
        cfg,
        |rng| {
            // Half the cases draw from a few byte-value classes, so
            // variable-size slices with equal byte values meet often.
            let mut case = SimCase::gen_any(rng, &GenProfile::small());
            if rng.range_u64(0, 1) == 0 {
                case.stream = StreamCase::gen_value_classes(rng, &GenProfile::small());
            }
            case
        },
        SimCase::shrink,
        SimCase::describe,
        |case| {
            let (b, r) = (case.params.buffer, case.params.rate);
            servers_agree(
                case,
                &mut Server::new(b, r, GreedyByteValue::new()),
                &mut Server::new(b, r, GreedyRescan::new()),
                "index Greedy vs rescan Greedy",
            )
        },
    )
}

/// One generated (stream, B, R) instance for the offline oracles.
fn gen_offline(rng: &mut rts_stream::rng::SplitMix64, profile: &GenProfile) -> SimCase {
    let mut case = SimCase::gen_any(rng, profile);
    case.stream = StreamCase::gen_capped(rng, profile, BRUTE_CAP);
    case
}

fn against_brute(
    cfg: &CheckConfig,
    profile: GenProfile,
    name: &'static str,
    clever: fn(&InputStream, u64, u64) -> Option<u64>,
) -> CheckResult {
    run_property(
        cfg,
        move |rng| gen_offline(rng, &profile),
        SimCase::shrink,
        SimCase::describe,
        move |case| {
            let stream = case.stream.stream();
            let (b, r) = (case.params.buffer, case.params.rate);
            let Some(fast) = clever(&stream, b, r) else {
                return Verdict::Discard; // outside the algorithm's domain
            };
            let brute = match rts_offline::try_optimal_brute_force(&stream, b, r) {
                Ok(w) => w,
                Err(e) => return Verdict::fail(format!("brute oracle refused: {e}")),
            };
            Verdict::ensure(fast == brute, || {
                format!("{name} computed {fast} but exhaustive enumeration finds {brute}")
            })
        },
    )
}

fn flow_vs_brute(cfg: &CheckConfig) -> CheckResult {
    let unit_tiny = GenProfile {
        max_size: 1,
        ..GenProfile::tiny()
    };
    against_brute(cfg, unit_tiny, "min-cost-flow", |s, b, r| {
        rts_offline::optimal_unit_benefit_flow(s, b, r).ok()
    })
}

fn framedp_vs_brute(cfg: &CheckConfig) -> CheckResult {
    against_brute(cfg, GenProfile::whole_frame(), "frame DP", |s, b, r| {
        rts_offline::optimal_frame_benefit(s, b, r).ok()
    })
}

fn mixed_vs_brute(cfg: &CheckConfig) -> CheckResult {
    against_brute(cfg, GenProfile::tiny(), "mixed optimum", |s, b, r| {
        Some(rts_offline::optimal_mixed_benefit(s, b, r))
    })
}

fn sim_vs_server_only(cfg: &CheckConfig) -> CheckResult {
    run_property(
        cfg,
        |rng| SimCase::gen_balanced(rng, &GenProfile::small()),
        SimCase::shrink,
        SimCase::describe,
        |case| {
            let stream = case.stream.stream();
            let sim = simulate(&stream, SimConfig::new(case.params), case.policy.build());
            let server = run_server_only(
                &stream,
                case.params.buffer,
                case.params.rate,
                case.policy.build(),
            );
            // On the balanced manifold the client drops nothing, so the
            // full pipeline's benefit is exactly what the server sends.
            Verdict::ensure(
                sim.metrics.benefit == server.benefit
                    && sim.metrics.played_bytes == server.throughput,
                || {
                    format!(
                        "full pipeline (benefit {}, bytes {}) diverges from server-only \
                         (benefit {}, bytes {}) on a balanced config",
                        sim.metrics.benefit,
                        sim.metrics.played_bytes,
                        server.benefit,
                        server.throughput
                    )
                },
            )
        },
    )
}

fn textio_roundtrip(cfg: &CheckConfig) -> CheckResult {
    run_property(
        cfg,
        |rng| StreamCase::gen(rng, &GenProfile::small()),
        StreamCase::shrink,
        StreamCase::describe,
        |case| {
            let stream = case.stream();
            let text = textio::write_stream(&stream);
            let parsed = match textio::parse_stream(&text) {
                Ok(s) => s,
                Err(e) => return Verdict::fail(format!("writer output rejected: {e}")),
            };
            if parsed != stream {
                return Verdict::fail("write -> parse is not the identity".to_string());
            }
            // The parser must also absorb editor mangling: a UTF-8 BOM
            // and CRLF line endings.
            let mangled = format!("\u{feff}{}", text.replace('\n', "\r\n"));
            match textio::parse_stream(&mangled) {
                Ok(s) if s == stream => Verdict::Pass,
                Ok(_) => Verdict::fail("BOM/CRLF mangling changed the parse".to_string()),
                Err(e) => Verdict::fail(format!("BOM/CRLF mangling broke the parse: {e}")),
            }
        },
    )
}

/// The differential-oracle checks, in catalog order.
pub fn checks() -> Vec<Check> {
    vec![
        Check {
            name: "ring-vs-map",
            binds: "ring-backed Server == map-backed reference server, every slot's step",
            kind: CheckKind::Oracle,
            run: ring_vs_map,
        },
        Check {
            name: "probed-vs-unprobed",
            binds: "probe instrumentation never changes the schedule",
            kind: CheckKind::Oracle,
            run: probed_vs_unprobed,
        },
        Check {
            name: "faults-empty-vs-plain",
            binds: "the fault pipeline with an empty plan == the plain engine",
            kind: CheckKind::Oracle,
            run: faults_empty_vs_plain,
        },
        Check {
            name: "mux-single-vs-sim",
            binds: "a one-session mux == the plain simulator (balanced, link delay 0)",
            kind: CheckKind::Oracle,
            run: mux_single_vs_sim,
        },
        Check {
            name: "client-step-vs-into",
            binds: "Client::step == Client::step_into with a reused scratch",
            kind: CheckKind::Oracle,
            run: client_step_vs_into,
        },
        Check {
            name: "client-timer-vs-known",
            binds: "timer-anchored playout == known-link-delay playout (Section 3.1.2)",
            kind: CheckKind::Oracle,
            run: client_timer_vs_known,
        },
        Check {
            name: "client-queue-vs-reference",
            binds: "FIFO deadline-queue Client == order-agnostic map-based reference client",
            kind: CheckKind::Oracle,
            run: client_queue_vs_reference,
        },
        Check {
            name: "greedy-index-vs-rescan",
            binds: "per-byte-value index GreedyByteValue == O(n) GreedyRescan, every slot's step",
            kind: CheckKind::Oracle,
            run: greedy_index_vs_rescan,
        },
        Check {
            name: "flow-vs-brute",
            binds: "min-cost-flow unit optimum == 2^n subset enumeration",
            kind: CheckKind::Oracle,
            run: flow_vs_brute,
        },
        Check {
            name: "framedp-vs-brute",
            binds: "whole-frame DP optimum == 2^n subset enumeration",
            kind: CheckKind::Oracle,
            run: framedp_vs_brute,
        },
        Check {
            name: "mixed-vs-brute",
            binds: "general mixed optimum == 2^n subset enumeration",
            kind: CheckKind::Oracle,
            run: mixed_vs_brute,
        },
        Check {
            name: "sim-vs-server-only",
            binds: "balanced pipeline benefit == server-only benefit (client lossless)",
            kind: CheckKind::Oracle,
            run: sim_vs_server_only,
        },
        Check {
            name: "textio-roundtrip",
            binds: "write_stream -> parse_stream identity, BOM/CRLF tolerated",
            kind: CheckKind::Oracle,
            run: textio_roundtrip,
        },
    ]
}
