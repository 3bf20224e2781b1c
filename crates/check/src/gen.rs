//! Deterministic generators and structural shrinkers for the harness's
//! input universe: streams, smoothing configurations, drop policies,
//! and fault plans.
//!
//! Every case type is a plain value that (a) can be materialized into
//! the real domain object, (b) renders itself as a reproducer via
//! `describe`, and (c) proposes strictly smaller variants via `shrink`.
//! Generation draws only from the per-case
//! [`rts_stream::rng::SplitMix64`], so a case is a pure
//! function of its `CHECK_SEED`.

use rts_core::policy::{GreedyByteValue, HeadDrop, RandomDrop, TailDrop};
use rts_core::tradeoff::SmoothingParams;
use rts_core::{ClockDrift, DropPolicy, ResyncPolicy};
use rts_faults::FaultPlan;
use rts_stream::rng::SplitMix64;
use rts_stream::{textio, Bytes, FrameKind, InputStream, SliceSpec, Time};

use crate::engine::{shrink_u64, shrink_vec};

/// Bounds for stream generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenProfile {
    /// Maximum number of frames (≥ 1).
    pub max_frames: u64,
    /// Maximum slices per frame (0 allows empty frames only).
    pub max_per_frame: u64,
    /// Maximum slice size; 1 generates unit-slice streams.
    pub max_size: Bytes,
    /// Maximum slice weight (weights are drawn in `0..=max_weight`
    /// unless the profile picks a structured weight assignment).
    pub max_weight: u64,
}

impl GenProfile {
    /// The default mixed profile: short bursty streams with variable
    /// slice sizes — large enough to exercise overflow, drain, and
    /// multi-step transmission, small enough to shrink fast.
    pub fn small() -> Self {
        GenProfile {
            max_frames: 12,
            max_per_frame: 4,
            max_size: 3,
            max_weight: 12,
        }
    }

    /// Unit-size slices only (the Theorem 3.5 / min-cost-flow domain).
    pub fn unit() -> Self {
        GenProfile {
            max_size: 1,
            ..GenProfile::small()
        }
    }

    /// Instances small enough for the exponential brute-force oracle:
    /// at most [`rts_offline::MAX_BRUTE_SLICES`] slices in expectation
    /// (the generator additionally hard-caps the count).
    pub fn tiny() -> Self {
        GenProfile {
            max_frames: 5,
            max_per_frame: 3,
            max_size: 3,
            max_weight: 9,
        }
    }

    /// At most one slice per frame (the frame-DP domain).
    pub fn whole_frame() -> Self {
        GenProfile {
            max_frames: 8,
            max_per_frame: 1,
            max_size: 4,
            max_weight: 12,
        }
    }
}

fn gen_kind(rng: &mut SplitMix64) -> FrameKind {
    match rng.range_u64(0, 3) {
        0 => FrameKind::I,
        1 => FrameKind::P,
        2 => FrameKind::B,
        _ => FrameKind::Generic,
    }
}

/// The weight assignment a generated stream uses. Structured profiles
/// mirror the experiment harness (MPEG 12:8:1, weight-equals-size);
/// `Free` draws independent weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightProfile {
    /// Independent uniform weights in `0..=max_weight`.
    Free,
    /// Every slice weight 1.
    Uniform,
    /// The paper's Section 5 video weighting: I=12, P=8, B=1 (Generic=1).
    Mpeg,
    /// Weight equals size (benefit = throughput).
    BySize,
}

impl WeightProfile {
    fn draw(rng: &mut SplitMix64) -> WeightProfile {
        match rng.range_u64(0, 3) {
            0 => WeightProfile::Free,
            1 => WeightProfile::Uniform,
            2 => WeightProfile::Mpeg,
            _ => WeightProfile::BySize,
        }
    }

    fn weight(self, rng: &mut SplitMix64, size: Bytes, kind: FrameKind, max_weight: u64) -> u64 {
        match self {
            WeightProfile::Free => rng.range_u64(0, max_weight),
            WeightProfile::Uniform => 1,
            WeightProfile::Mpeg => match kind {
                FrameKind::I => 12,
                FrameKind::P => 8,
                FrameKind::B | FrameKind::Generic => 1,
            },
            WeightProfile::BySize => size,
        }
    }
}

/// A generated input stream, held structurally so it can shrink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCase {
    /// Per-frame slice specs; frame `i` arrives at time `i`.
    pub frames: Vec<Vec<SliceSpec>>,
}

impl StreamCase {
    /// Draws a stream within the profile's bounds.
    pub fn gen(rng: &mut SplitMix64, profile: &GenProfile) -> StreamCase {
        Self::gen_capped(rng, profile, u64::MAX)
    }

    /// [`gen`](Self::gen) with a hard cap on the total slice count
    /// (for the brute-force oracle's exponential domain).
    pub fn gen_capped(rng: &mut SplitMix64, profile: &GenProfile, max_slices: u64) -> StreamCase {
        let weights = WeightProfile::draw(rng);
        let steps = rng.range_u64(1, profile.max_frames);
        let mut budget = max_slices;
        let frames = (0..steps)
            .map(|_| {
                let n = rng.range_u64(0, profile.max_per_frame).min(budget);
                budget -= n;
                (0..n)
                    .map(|_| {
                        let size = rng.range_u64(1, profile.max_size);
                        let kind = gen_kind(rng);
                        let weight = weights.weight(rng, size, kind, profile.max_weight);
                        SliceSpec::new(size, weight, kind)
                    })
                    .collect()
            })
            .collect();
        StreamCase { frames }
    }

    /// Draws a stream whose slices fall into a few byte-value classes:
    /// each slice weighs its size times a per-byte value drawn from
    /// `{0, 1, 8, 12}`, so equal byte values recur across different
    /// slice sizes (2/2 and 1/1, 24/2 and 12/1, every weight-0 slice).
    pub fn gen_value_classes(rng: &mut SplitMix64, profile: &GenProfile) -> StreamCase {
        const PER_BYTE: [u64; 4] = [0, 1, 8, 12];
        let steps = rng.range_u64(1, profile.max_frames);
        let frames = (0..steps)
            .map(|_| {
                (0..rng.range_u64(0, profile.max_per_frame))
                    .map(|_| {
                        let size = rng.range_u64(1, profile.max_size);
                        let value = PER_BYTE[rng.range_u64(0, 3) as usize];
                        SliceSpec::new(size, value * size, gen_kind(rng))
                    })
                    .collect()
            })
            .collect();
        StreamCase { frames }
    }

    /// Materializes the real stream (frame `i` at time `i`).
    pub fn stream(&self) -> InputStream {
        InputStream::from_frames(self.frames.clone())
    }

    /// Total number of slices.
    pub fn slice_count(&self) -> usize {
        self.frames.iter().map(Vec::len).sum()
    }

    /// Largest slice size (`Lmax`), 0 for an all-empty stream.
    pub fn lmax(&self) -> Bytes {
        self.frames
            .iter()
            .flatten()
            .map(|s| s.size)
            .max()
            .unwrap_or(0)
    }

    /// The trace-format text of the stream (a valid `smoothctl` input).
    pub fn describe(&self) -> String {
        textio::write_stream(&self.stream())
    }

    /// Structural shrinks: drop frame chunks, drop slices within a
    /// frame, shrink slice sizes toward 1 and weights toward 0.
    pub fn shrink(&self) -> Vec<StreamCase> {
        shrink_vec(&self.frames, |frame: &Vec<SliceSpec>| {
            shrink_vec(frame, |s: &SliceSpec| {
                let mut out = Vec::new();
                for size in shrink_u64(s.size, 1) {
                    out.push(SliceSpec::new(size, s.weight, s.kind));
                }
                for weight in shrink_u64(s.weight, 0) {
                    out.push(SliceSpec::new(s.size, weight, s.kind));
                }
                out
            })
        })
        .into_iter()
        .map(|frames| StreamCase { frames })
        .collect()
    }
}

/// A drop-policy choice, ordered so that shrinking moves toward the
/// simplest policy (Tail-Drop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyCase {
    /// [`TailDrop`].
    Tail,
    /// [`HeadDrop`].
    Head,
    /// [`GreedyByteValue`].
    Greedy,
    /// [`RandomDrop`] with the given seed.
    Random(u64),
}

impl PolicyCase {
    /// Draws a policy (uniformly over the four families).
    pub fn gen(rng: &mut SplitMix64) -> PolicyCase {
        match rng.range_u64(0, 3) {
            0 => PolicyCase::Tail,
            1 => PolicyCase::Head,
            2 => PolicyCase::Greedy,
            _ => PolicyCase::Random(rng.next_u64()),
        }
    }

    /// Builds the boxed policy.
    pub fn build(&self) -> Box<dyn DropPolicy> {
        match *self {
            PolicyCase::Tail => Box::new(TailDrop::new()),
            PolicyCase::Head => Box::new(HeadDrop::new()),
            PolicyCase::Greedy => Box::new(GreedyByteValue::new()),
            PolicyCase::Random(seed) => Box::new(RandomDrop::new(seed)),
        }
    }

    /// Display name for reproducers.
    pub fn name(&self) -> String {
        match self {
            PolicyCase::Tail => "tail".to_string(),
            PolicyCase::Head => "head".to_string(),
            PolicyCase::Greedy => "greedy".to_string(),
            PolicyCase::Random(seed) => format!("random({seed:#x})"),
        }
    }

    /// Shrinks toward simpler policies.
    pub fn shrink(&self) -> Vec<PolicyCase> {
        match self {
            PolicyCase::Tail => vec![],
            PolicyCase::Head => vec![PolicyCase::Tail],
            PolicyCase::Greedy => vec![PolicyCase::Tail, PolicyCase::Head],
            PolicyCase::Random(_) => {
                vec![PolicyCase::Tail, PolicyCase::Head, PolicyCase::Greedy]
            }
        }
    }
}

/// A full simulation instance: a stream, smoothing parameters, and a
/// drop policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimCase {
    /// The input stream.
    pub stream: StreamCase,
    /// Buffer/rate/delay/link-delay parameters.
    pub params: SmoothingParams,
    /// Whether the parameters are pinned to the balanced manifold
    /// `B = R·D` (shrinks then preserve the identity).
    pub balanced: bool,
    /// The drop policy.
    pub policy: PolicyCase,
}

impl SimCase {
    /// Draws an instance with arbitrary (possibly wasteful) parameters.
    pub fn gen_any(rng: &mut SplitMix64, profile: &GenProfile) -> SimCase {
        let stream = StreamCase::gen(rng, profile);
        let params = SmoothingParams {
            buffer: rng.range_u64(0, 11),
            rate: rng.range_u64(1, 4),
            delay: rng.range_u64(0, 5),
            link_delay: rng.range_u64(0, 3),
        };
        let policy = PolicyCase::gen(rng);
        SimCase {
            stream,
            params,
            balanced: false,
            policy,
        }
    }

    /// Draws an instance in Theorem 4.1's stress regime: a unit-rate
    /// link, a burst of weight-1 junk that fills the buffer, then a
    /// spike of high-weight unit slices contending for the same space
    /// (the shape of the Section 4 lower-bound constructions). Here the
    /// `4B/B` bound (`Lmax = 1`) is nearly tight, so a Greedy that
    /// picks victims in the wrong order actually violates it —
    /// uniform-random streams sit too deep inside the bound to notice.
    pub fn gen_greedy_stress(rng: &mut SplitMix64) -> SimCase {
        let buffer = rng.range_u64(4, 8);
        let mut frames: Vec<Vec<SliceSpec>> = Vec::new();
        for _ in 0..rng.range_u64(1, 2) {
            frames.push(
                (0..buffer)
                    .map(|_| SliceSpec::new(1, 1, FrameKind::B))
                    .collect(),
            );
        }
        for _ in 0..rng.range_u64(1, 3) {
            let n = rng.range_u64(3, buffer + 2);
            frames.push(
                (0..n)
                    .map(|_| SliceSpec::new(1, rng.range_u64(8, 12), FrameKind::I))
                    .collect(),
            );
        }
        let params = SmoothingParams {
            buffer,
            rate: 1,
            delay: rng.range_u64(0, 3),
            link_delay: 0,
        };
        SimCase {
            stream: StreamCase { frames },
            params,
            balanced: false,
            policy: PolicyCase::Greedy,
        }
    }

    /// Draws an instance on the balanced manifold `B = R·D`.
    pub fn gen_balanced(rng: &mut SplitMix64, profile: &GenProfile) -> SimCase {
        let stream = StreamCase::gen(rng, profile);
        let params = SmoothingParams::balanced_from_rate_delay(
            rng.range_u64(1, 4),
            rng.range_u64(1, 5),
            rng.range_u64(0, 2),
        );
        let policy = PolicyCase::gen(rng);
        SimCase {
            stream,
            params,
            balanced: true,
            policy,
        }
    }

    /// Reproducer text: one parameter line, then the trace.
    pub fn describe(&self) -> String {
        format!(
            "# params: buffer={} rate={} delay={} link-delay={} policy={}\n{}",
            self.params.buffer,
            self.params.rate,
            self.params.delay,
            self.params.link_delay,
            self.policy.name(),
            self.stream.describe()
        )
    }

    /// Shrinks the stream, the parameters (preserving balance when
    /// pinned), and the policy.
    pub fn shrink(&self) -> Vec<SimCase> {
        let mut out: Vec<SimCase> = Vec::new();
        for stream in self.stream.shrink() {
            out.push(SimCase {
                stream,
                ..self.clone()
            });
        }
        if self.balanced {
            for rate in shrink_u64(self.params.rate, 1) {
                out.push(self.with_params(SmoothingParams::balanced_from_rate_delay(
                    rate,
                    self.params.delay,
                    self.params.link_delay,
                )));
            }
            for delay in shrink_u64(self.params.delay, 0) {
                out.push(self.with_params(SmoothingParams::balanced_from_rate_delay(
                    self.params.rate,
                    delay,
                    self.params.link_delay,
                )));
            }
        } else {
            for buffer in shrink_u64(self.params.buffer, 0) {
                out.push(self.with_params(SmoothingParams {
                    buffer,
                    ..self.params
                }));
            }
            for rate in shrink_u64(self.params.rate, 1) {
                out.push(self.with_params(SmoothingParams {
                    rate,
                    ..self.params
                }));
            }
            for delay in shrink_u64(self.params.delay, 0) {
                out.push(self.with_params(SmoothingParams {
                    delay,
                    ..self.params
                }));
            }
        }
        for link_delay in shrink_u64(self.params.link_delay, 0) {
            out.push(self.with_params(SmoothingParams {
                link_delay,
                ..self.params
            }));
        }
        for policy in self.policy.shrink() {
            out.push(SimCase {
                policy,
                ..self.clone()
            });
        }
        out
    }

    fn with_params(&self, params: SmoothingParams) -> SimCase {
        SimCase {
            params,
            ..self.clone()
        }
    }
}

/// A client-differential instance: the chunk schedule of a simulation
/// instance delivered over a constant-delay link to a client with its
/// own capacity, clock, resync policy, drift and stepping stride.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientCase {
    /// The instance whose server produces the chunk schedule.
    pub sim: SimCase,
    /// Client capacity `Bc`, drawn from `1..=B` so overflow can strike
    /// while the newest slice is still partly received.
    pub capacity: Bytes,
    /// Timer-anchored playout (`Client::with_timer`) instead of the
    /// known link delay (`Client::new`).
    pub timer: bool,
    /// Resync policy `(max_skew, catchup)`, if any.
    pub resync: Option<(Time, Time)>,
    /// Client clock drift `(start, period, slow)`, if any.
    pub drift: Option<(Time, Time, bool)>,
    /// The client is stepped every `stride` slots (1 = every slot),
    /// receiving everything delivered since its last step.
    pub stride: Time,
}

impl ClientCase {
    /// Draws an instance. Half the draws pin `D < ⌈B/R⌉`, so bytes miss
    /// their deadlines (Late and Incomplete drops).
    pub fn gen(rng: &mut SplitMix64, profile: &GenProfile) -> ClientCase {
        let mut sim = SimCase::gen_any(rng, profile);
        sim.params.buffer = sim.params.buffer.max(1);
        let drain = sim.params.buffer.div_ceil(sim.params.rate);
        if rng.chance(0.5) {
            sim.params.delay = rng.range_u64(0, drain - 1);
        }
        let capacity = rng.range_u64(1, sim.params.buffer);
        let timer = rng.chance(0.5);
        let resync = rng
            .chance(0.3)
            .then(|| (rng.range_u64(1, 6), rng.range_u64(0, 2)));
        let horizon = sim.stream.frames.len() as Time + 4;
        let drift = rng.chance(0.3).then(|| {
            (
                rng.range_u64(0, horizon),
                rng.range_u64(2, 6),
                rng.chance(0.5),
            )
        });
        let stride = if rng.chance(0.5) {
            rng.range_u64(2, 4)
        } else {
            1
        };
        ClientCase {
            sim,
            capacity,
            timer,
            resync,
            drift,
            stride,
        }
    }

    /// The resync policy, if any.
    pub fn resync_policy(&self) -> Option<ResyncPolicy> {
        self.resync
            .map(|(max_skew, catchup)| ResyncPolicy::new(max_skew, catchup))
    }

    /// The clock drift, if any.
    pub fn clock_drift(&self) -> Option<ClockDrift> {
        self.drift
            .map(|(start, period, slow)| ClockDrift::new(start, period, slow))
    }

    /// Reproducer text: the client line, then the instance.
    pub fn describe(&self) -> String {
        let resync = self
            .resync
            .map_or("none".to_string(), |(m, c)| format!("{m}/{c}"));
        let drift = self
            .drift
            .map_or("none".to_string(), |(start, period, slow)| {
                let sign = if slow { '-' } else { '+' };
                format!("{start}{sign}1/{period}")
            });
        format!(
            "# client: capacity={} clock={} resync={resync} drift={drift} stride={}\n{}",
            self.capacity,
            if self.timer { "timer" } else { "known" },
            self.stride,
            self.sim.describe()
        )
    }

    /// Shrinks the client knobs towards the plain known-delay client
    /// stepped every slot, then the underlying instance.
    pub fn shrink(&self) -> Vec<ClientCase> {
        let mut out = Vec::new();
        if self.timer {
            out.push(ClientCase {
                timer: false,
                ..self.clone()
            });
        }
        if self.resync.is_some() {
            out.push(ClientCase {
                resync: None,
                ..self.clone()
            });
        }
        if self.drift.is_some() {
            out.push(ClientCase {
                drift: None,
                ..self.clone()
            });
        }
        for stride in shrink_u64(self.stride, 1) {
            out.push(ClientCase {
                stride,
                ..self.clone()
            });
        }
        for capacity in shrink_u64(self.capacity, 1) {
            out.push(ClientCase {
                capacity,
                ..self.clone()
            });
        }
        for sim in self.sim.shrink() {
            out.push(ClientCase {
                sim,
                ..self.clone()
            });
        }
        out
    }
}

/// A fault-injection instance: a balanced simulation plus a fault plan,
/// a resync policy, and optionally a deterministic clock drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCase {
    /// The underlying simulation instance (balanced, so losses are
    /// attributable to the injected faults).
    pub sim: SimCase,
    /// Outage window `[from, from + len)`, if any.
    pub outage: Option<(Time, Time)>,
    /// Rate-dip window `(from, len, capacity)`, if any.
    pub dip: Option<(Time, Time, Bytes)>,
    /// Jitter-burst window `(from, len, jmax)`, if any.
    pub jitter: Option<(Time, Time, Time)>,
    /// Client clock drift `(start, period, slow)`, if any.
    pub drift: Option<(Time, Time, bool)>,
    /// Resync policy `(max_skew, catchup)`; `catchup ≥ 1`.
    pub resync: (Time, Time),
}

impl FaultCase {
    /// Draws a faulted instance. Windows land within (roughly) the
    /// stream's active period so faults actually bite.
    pub fn gen(rng: &mut SplitMix64, profile: &GenProfile) -> FaultCase {
        let sim = SimCase::gen_balanced(rng, profile);
        let horizon = (sim.stream.frames.len() as Time + 4) * 2;
        fn window(rng: &mut SplitMix64, horizon: Time, max_len: Time) -> (Time, Time) {
            let from = rng.range_u64(0, horizon);
            let len = rng.range_u64(1, max_len);
            (from, len)
        }
        let outage = if rng.chance(0.6) {
            Some(window(rng, horizon, 6))
        } else {
            None
        };
        let dip = if rng.chance(0.4) {
            let (from, len) = window(rng, horizon, 6);
            Some((from, len, rng.range_u64(1, 3)))
        } else {
            None
        };
        let jitter = if rng.chance(0.4) {
            let (from, len) = window(rng, horizon, 6);
            Some((from, len, rng.range_u64(1, 4)))
        } else {
            None
        };
        let drift = if rng.chance(0.5) {
            Some((
                rng.range_u64(0, horizon),
                rng.range_u64(2, 8),
                rng.chance(0.5),
            ))
        } else {
            None
        };
        let resync = (rng.range_u64(1, 24), rng.range_u64(1, 3));
        FaultCase {
            sim,
            outage,
            dip,
            jitter,
            drift,
            resync,
        }
    }

    /// Builds the [`FaultPlan`] (drift included, as `--faults drift@…`
    /// would).
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(0);
        if let Some((from, len)) = self.outage {
            plan = plan.outage(from, from + len);
        }
        if let Some((from, len, cap)) = self.dip {
            plan = plan.rate_dip(from, from + len, cap);
        }
        if let Some((from, len, jmax)) = self.jitter {
            plan = plan.jitter_burst(from, from + len, jmax);
        }
        if let Some((start, period, slow)) = self.drift {
            plan = plan.clock_drift(ClockDrift::new(start, period, slow));
        }
        plan
    }

    /// The resync policy.
    pub fn resync_policy(&self) -> ResyncPolicy {
        ResyncPolicy::new(self.resync.0, self.resync.1)
    }

    /// Reproducer text: fault clauses plus the underlying instance.
    pub fn describe(&self) -> String {
        let mut clauses = Vec::new();
        if let Some((from, len)) = self.outage {
            clauses.push(format!("outage@{from}..{}", from + len));
        }
        if let Some((from, len, cap)) = self.dip {
            clauses.push(format!("dip@{from}..{}={cap}", from + len));
        }
        if let Some((from, len, jmax)) = self.jitter {
            clauses.push(format!("jitter@{from}..{}+{jmax}", from + len));
        }
        if let Some((start, period, slow)) = self.drift {
            let sign = if slow { '-' } else { '+' };
            clauses.push(format!("drift@{start}{sign}1/{period}"));
        }
        format!(
            "# faults: {} resync: {}/{}\n{}",
            if clauses.is_empty() {
                "(none)".to_string()
            } else {
                clauses.join(",")
            },
            self.resync.0,
            self.resync.1,
            self.sim.describe()
        )
    }

    /// Shrinks by removing faults entirely, shortening windows, and
    /// shrinking the underlying instance.
    pub fn shrink(&self) -> Vec<FaultCase> {
        let mut out = Vec::new();
        if self.outage.is_some() {
            out.push(FaultCase {
                outage: None,
                ..self.clone()
            });
        }
        if self.dip.is_some() {
            out.push(FaultCase {
                dip: None,
                ..self.clone()
            });
        }
        if self.jitter.is_some() {
            out.push(FaultCase {
                jitter: None,
                ..self.clone()
            });
        }
        if self.drift.is_some() {
            out.push(FaultCase {
                drift: None,
                ..self.clone()
            });
        }
        if let Some((from, len)) = self.outage {
            for l in shrink_u64(len, 1) {
                out.push(FaultCase {
                    outage: Some((from, l)),
                    ..self.clone()
                });
            }
            for f in shrink_u64(from, 0) {
                out.push(FaultCase {
                    outage: Some((f, len)),
                    ..self.clone()
                });
            }
        }
        if let Some((from, len, jmax)) = self.jitter {
            for j in shrink_u64(jmax, 1) {
                out.push(FaultCase {
                    jitter: Some((from, len, j)),
                    ..self.clone()
                });
            }
            for l in shrink_u64(len, 1) {
                out.push(FaultCase {
                    jitter: Some((from, l, jmax)),
                    ..self.clone()
                });
            }
        }
        for sim in self.sim.shrink() {
            out.push(FaultCase {
                sim,
                ..self.clone()
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_generation_is_deterministic_and_in_bounds() {
        let profile = GenProfile::small();
        let a = StreamCase::gen(&mut SplitMix64::new(9), &profile);
        let b = StreamCase::gen(&mut SplitMix64::new(9), &profile);
        assert_eq!(a, b);
        assert!(a.frames.len() <= profile.max_frames as usize);
        for frame in &a.frames {
            assert!(frame.len() <= profile.max_per_frame as usize);
            for s in frame {
                assert!((1..=profile.max_size).contains(&s.size));
            }
        }
    }

    #[test]
    fn unit_profile_generates_only_unit_slices() {
        for seed in 0..20 {
            let c = StreamCase::gen(&mut SplitMix64::new(seed), &GenProfile::unit());
            assert!(c.frames.iter().flatten().all(|s| s.size == 1));
        }
    }

    #[test]
    fn capped_generation_respects_the_slice_budget() {
        for seed in 0..50 {
            let c = StreamCase::gen_capped(&mut SplitMix64::new(seed), &GenProfile::small(), 7);
            assert!(c.slice_count() <= 7, "seed {seed}: {}", c.slice_count());
        }
    }

    #[test]
    fn stream_describe_is_a_parsable_trace() {
        let c = StreamCase::gen(&mut SplitMix64::new(4), &GenProfile::small());
        let parsed = textio::parse_stream(&c.describe()).unwrap();
        assert_eq!(parsed, c.stream());
    }

    #[test]
    fn balanced_shrinks_stay_balanced() {
        let case = SimCase::gen_balanced(&mut SplitMix64::new(17), &GenProfile::small());
        assert!(case.params.is_balanced());
        for cand in case.shrink() {
            assert!(
                cand.params.is_balanced(),
                "shrink broke balance: {:?}",
                cand.params
            );
        }
    }

    #[test]
    fn fault_case_plan_round_trips_through_the_parser() {
        // The describe() fault clause line must be accepted by the
        // --faults mini-parser (modulo the leading comment marker).
        for seed in 0..20 {
            let case = FaultCase::gen(&mut SplitMix64::new(seed), &GenProfile::small());
            let text = case.describe();
            let clause_line = text.lines().next().unwrap();
            let spec = clause_line
                .trim_start_matches("# faults: ")
                .split(" resync:")
                .next()
                .unwrap();
            if spec != "(none)" {
                FaultPlan::parse(spec, 0).unwrap_or_else(|e| {
                    panic!("seed {seed}: clause {spec:?} failed to parse: {e}")
                });
            }
        }
    }

    #[test]
    fn shrinking_terminates_at_a_fixpoint() {
        // Follow first-candidate shrinks to exhaustion: must terminate
        // (no cycles) and end at an empty-ish case.
        let mut case = StreamCase::gen(&mut SplitMix64::new(23), &GenProfile::small());
        let mut steps = 0;
        while let Some(next) = case.shrink().into_iter().next() {
            case = next;
            steps += 1;
            assert!(steps < 10_000, "shrink did not terminate");
        }
        assert!(case.frames.is_empty() || case.slice_count() == 0);
    }
}
