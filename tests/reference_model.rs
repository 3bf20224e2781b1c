//! Differential testing against an independent reference model.
//!
//! This file contains a second, deliberately naive implementation of
//! the whole pipeline that follows the paper's equations *byte by
//! byte*: every byte is a token in a `VecDeque`, drops scan the buffer
//! linearly, the link is a list of (delivery-time, byte) pairs. It
//! shares no code with the engine (different data structures, different
//! event bookkeeping), so agreement between the two on random inputs is
//! strong evidence that both implement the model of Section 2.

use std::collections::{HashMap, VecDeque};

use realtime_smoothing::{
    simulate, GreedyByteValue, HeadDrop, InputStream, SimConfig, SliceSpec, SmoothingParams,
    TailDrop,
};
use rts_stream::rng::SplitMix64;
use rts_stream::{Bytes, FrameKind, Slice, SliceId, Time};

/// Which drop rule the reference model applies.
#[derive(Clone, Copy, PartialEq)]
enum RefPolicy {
    Tail,
    Head,
    Greedy,
}

/// Outcome of a reference run.
#[derive(Debug, PartialEq, Eq)]
struct RefOutcome {
    played: Vec<(SliceId, Time)>,
    benefit: u64,
    played_bytes: Bytes,
    server_drops: usize,
    client_drops: usize,
}

/// A byte in the reference server buffer.
#[derive(Clone, Copy)]
struct ByteTok {
    slice: SliceId,
}

fn reference_run(
    stream: &InputStream,
    params: SmoothingParams,
    client_capacity: Bytes,
    policy: RefPolicy,
) -> RefOutcome {
    let slices: HashMap<SliceId, Slice> = stream.slices().iter().map(|s| (s.id, *s)).collect();
    let mut server: VecDeque<ByteTok> = VecDeque::new();
    let mut sent_of: HashMap<SliceId, Bytes> = HashMap::new(); // bytes already on the link
    let mut link: VecDeque<(Time, SliceId)> = VecDeque::new();
    let mut client_recv: HashMap<SliceId, Bytes> = HashMap::new();
    let mut client_dead: Vec<SliceId> = Vec::new(); // discarded at client
    let mut out = RefOutcome {
        played: Vec::new(),
        benefit: 0,
        played_bytes: 0,
        server_drops: 0,
        client_drops: 0,
    };

    let last = stream.last_arrival().unwrap_or(0);
    let horizon = last + params.link_delay + params.delay + stream.total_bytes() + 8;
    let mut frames = stream.frames().peekable();

    for t in 0..=horizon {
        // --- server: arrivals ---
        if let Some(f) = frames.peek() {
            if f.time == t {
                for s in frames.next().expect("peeked").slices {
                    for _ in 0..s.size {
                        server.push_back(ByteTok { slice: s.id });
                    }
                }
            }
        }
        // --- server: whole-slice drops until occupancy fits B + R ---
        while server.len() as Bytes > params.buffer + params.rate {
            // Distinct slices present, in FIFO order of their first byte.
            let mut order: Vec<SliceId> = Vec::new();
            for b in &server {
                if !order.contains(&b.slice) {
                    order.push(b.slice);
                }
            }
            let transmitting = |id: SliceId| sent_of.get(&id).copied().unwrap_or(0) > 0;
            let victim = match policy {
                RefPolicy::Tail => order.iter().rev().copied().find(|&id| !transmitting(id)),
                RefPolicy::Head => order.iter().copied().find(|&id| !transmitting(id)),
                RefPolicy::Greedy => order
                    .iter()
                    .copied()
                    .filter(|&id| !transmitting(id))
                    .min_by(|&a, &b| {
                        let (sa, sb) = (&slices[&a], &slices[&b]);
                        (sa.weight as u128 * sb.size as u128)
                            .cmp(&(sb.weight as u128 * sa.size as u128))
                            .then(b.cmp(&a)) // ties: newest (larger id ~ newer seq)
                    }),
            }
            .expect("some droppable slice exists during overflow");
            server.retain(|b| b.slice != victim);
            out.server_drops += 1;
        }
        // --- server: send R bytes FIFO ---
        for _ in 0..params.rate {
            let Some(b) = server.pop_front() else { break };
            *sent_of.entry(b.slice).or_default() += 1;
            link.push_back((t + params.link_delay, b.slice));
        }
        // --- link: deliveries ---
        while let Some(&(due, id)) = link.front() {
            if due > t {
                break;
            }
            link.pop_front();
            let deadline = slices[&id].arrival + params.link_delay + params.delay;
            if client_dead.contains(&id) {
                continue;
            }
            if t > deadline {
                client_dead.push(id);
                out.client_drops += 1;
                client_recv.remove(&id);
                continue;
            }
            *client_recv.entry(id).or_default() += 1;
        }
        // --- client: playout of frame t - P - D ---
        let play_arrival = t.checked_sub(params.link_delay + params.delay);
        if let Some(at) = play_arrival {
            let due: Vec<SliceId> = client_recv
                .keys()
                .copied()
                .filter(|id| slices[id].arrival == at)
                .collect();
            for id in due {
                let got = client_recv.remove(&id).expect("key present");
                if got == slices[&id].size {
                    out.played.push((id, t));
                    out.benefit += slices[&id].weight;
                    out.played_bytes += got;
                } else {
                    client_dead.push(id);
                    out.client_drops += 1;
                }
            }
        }
        // --- client: end-of-step capacity (drop newest deadlines) ---
        loop {
            let occupancy: Bytes = client_recv.values().sum();
            if occupancy <= client_capacity {
                break;
            }
            let victim = client_recv
                .keys()
                .copied()
                .max_by_key(|id| {
                    let s = &slices[id];
                    (s.arrival + params.link_delay + params.delay, s.id)
                })
                .expect("occupancy positive implies stored slices");
            client_recv.remove(&victim);
            client_dead.push(victim);
            out.client_drops += 1;
        }
    }
    out.played.sort();
    out
}

fn engine_outcome<P: realtime_smoothing::DropPolicy>(
    stream: &InputStream,
    params: SmoothingParams,
    client_capacity: Bytes,
    policy: P,
) -> RefOutcome {
    let config = SimConfig {
        client_capacity: Some(client_capacity),
        ..SimConfig::new(params)
    };
    let report = simulate(stream, config, policy);
    let mut played: Vec<(SliceId, Time)> = report
        .record
        .played()
        .map(|(r, t)| (r.slice.id, t))
        .collect();
    played.sort();
    RefOutcome {
        played,
        benefit: report.metrics.benefit,
        played_bytes: report.metrics.played_bytes,
        server_drops: report.metrics.server_dropped_slices as usize,
        client_drops: report.metrics.client_dropped_slices as usize,
    }
}

fn random_stream(rng: &mut SplitMix64, steps: usize, lmax: u64) -> InputStream {
    InputStream::from_frames((0..steps).map(|_| {
        let n = rng.range_u64(0, 4) as usize;
        (0..n)
            .map(|_| {
                SliceSpec::new(
                    rng.range_u64(1, lmax),
                    rng.range_u64(1, 25),
                    FrameKind::Generic,
                )
            })
            .collect::<Vec<_>>()
    }))
}

fn random_params(rng: &mut SplitMix64) -> (SmoothingParams, Bytes) {
    let params = SmoothingParams {
        buffer: rng.range_u64(0, 10),
        rate: rng.range_u64(1, 4),
        delay: rng.range_u64(0, 5),
        link_delay: rng.range_u64(0, 3),
    };
    let bc = rng.range_u64(0, 12);
    (params, bc)
}

#[test]
fn engine_matches_reference_tail_drop() {
    let mut rng = SplitMix64::new(4000);
    for trial in 0..120 {
        let stream = random_stream(&mut rng, 14, 3);
        let (params, bc) = random_params(&mut rng);
        let a = engine_outcome(&stream, params, bc, TailDrop::new());
        let b = reference_run(&stream, params, bc, RefPolicy::Tail);
        assert_eq!(a, b, "trial {trial}, params {params:?}, bc {bc}");
    }
}

#[test]
fn engine_matches_reference_head_drop() {
    let mut rng = SplitMix64::new(4001);
    for trial in 0..120 {
        let stream = random_stream(&mut rng, 14, 3);
        let (params, bc) = random_params(&mut rng);
        let a = engine_outcome(&stream, params, bc, HeadDrop::new());
        let b = reference_run(&stream, params, bc, RefPolicy::Head);
        assert_eq!(a, b, "trial {trial}, params {params:?}, bc {bc}");
    }
}

#[test]
fn engine_matches_reference_greedy() {
    let mut rng = SplitMix64::new(4002);
    for trial in 0..120 {
        let stream = random_stream(&mut rng, 14, 3);
        let (params, bc) = random_params(&mut rng);
        let a = engine_outcome(&stream, params, bc, GreedyByteValue::new());
        let b = reference_run(&stream, params, bc, RefPolicy::Greedy);
        assert_eq!(a, b, "trial {trial}, params {params:?}, bc {bc}");
    }
}

#[test]
fn engine_matches_reference_on_unit_bursts() {
    // Degenerate shapes: all-at-once bursts, long silences, zero buffer.
    let mut rng = SplitMix64::new(4003);
    for trial in 0..60 {
        let burst = rng.range_u64(1, 20) as usize;
        let silence = rng.range_u64(0, 10) as usize;
        let mut frames = vec![vec![SliceSpec::unit(); burst]];
        frames.extend(std::iter::repeat_n(vec![], silence));
        let stream = InputStream::from_frames(frames);
        let (params, bc) = random_params(&mut rng);
        let a = engine_outcome(&stream, params, bc, TailDrop::new());
        let b = reference_run(&stream, params, bc, RefPolicy::Tail);
        assert_eq!(a, b, "trial {trial}");
    }
}
