//! The hot-path throughput suite behind `BENCH_hotpath.json`.
//!
//! Measures end-to-end slices/second on the canonical Section-5 MPEG
//! workload for the three pipelines the repo exercises most — the
//! single-session engine ([`rts_sim::simulate`]), the shared-link
//! multiplexer, and the offline-optimal DPs — plus a ring-vs-map
//! server ablation: the product server ([`run_server_only`]) against
//! the map-backed reference server of `rts-check`. Timings are
//! median-of-N whole-run measurements, deliberately coarse: the suite
//! exists to catch order-of-magnitude regressions and to pin the
//! ring-buffer speedup, not to do criterion-grade statistics.
//!
//! The emitted JSON is flat and hand-rolled (the workspace has no
//! external dependencies); [`extract_medians`] and [`extract_ratio`]
//! parse back exactly what [`Suite::to_json`] writes, which is all the
//! regression gate needs.

use std::hint::black_box;
use std::time::Instant;

use rts_check::reference_server::{Lockstep, ReferencePolicy, ReferenceServer};
use rts_core::policy::{GreedyByteValue, TailDrop};
use rts_core::tradeoff::SmoothingParams;
use rts_core::{DropPolicy, ServerStep};
use rts_mux::{Mux, SessionSpec, WeightedFair};
use rts_sim::{run_server_only, simulate, SimConfig};
use rts_smoothd::{AdmitRequest, Shard, WirePolicy};
use rts_telemetry::ShardTelemetry;
use rts_stream::slicing::Slicing;
use rts_stream::weight::WeightAssignment;
use rts_stream::{Bytes, InputStream};

use crate::workload;

/// One benchmark's timing summary.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Benchmark name (`pipeline/variant`).
    pub name: String,
    /// Number of timed runs (the median is over these).
    pub runs: usize,
    /// Median whole-run wall time in nanoseconds.
    pub median_ns: u64,
    /// Fastest run in nanoseconds.
    pub best_ns: u64,
    /// Slices processed per run.
    pub slices: u64,
    /// Throughput at the median: `slices / median`.
    pub slices_per_sec: f64,
}

/// The whole suite's results, ready for JSON serialization.
#[derive(Debug, Clone)]
pub struct Suite {
    /// `"full"` or `"smoke"`.
    pub mode: &'static str,
    /// Workload seed (the Section-5 trace seed).
    pub seed: u64,
    /// Trace length in frames.
    pub frames: usize,
    /// Per-benchmark timings, in execution order.
    pub timings: Vec<Timing>,
    /// Server ablation: the map-backed reference server's median over
    /// the product ring server's median (>1 means the ring is faster).
    pub ratio_server_ring_vs_map: f64,
    /// Daemon-shard ablation: telemetry-instrumented median over the
    /// bare slot loop (1.0 = free; the gate caps how far above 1 the
    /// lock-free instrumentation may drift).
    pub ratio_smoothd_telemetry_on_vs_off: f64,
    /// Offline-optimal ablation: generic min-cost-flow median over the
    /// dense chain solver median on the same trace (>1 means the chain
    /// solver is faster; the gate keeps the speedup from regressing).
    pub ratio_offline_chain_vs_generic: f64,
    /// Sweep ablation: cold per-point re-solves median over the
    /// warm-started [`OptimalSweep`](rts_offline::OptimalSweep) median
    /// on the same buffer grid.
    pub ratio_offline_warm_vs_cold: f64,
}

/// Times `runs` executions of `f` and summarizes them.
fn time_runs<R, F: FnMut() -> R>(name: &str, slices: u64, runs: usize, mut f: F) -> Timing {
    assert!(runs >= 1);
    let mut samples: Vec<u64> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    let median_ns = samples[samples.len() / 2];
    Timing {
        name: name.to_string(),
        runs,
        median_ns,
        best_ns: samples[0],
        slices,
        slices_per_sec: slices as f64 / (median_ns as f64 / 1e9),
    }
}

fn simulate_bench<P: DropPolicy, F: Fn() -> P>(
    name: &str,
    stream: &InputStream,
    params: SmoothingParams,
    runs: usize,
    make_policy: F,
) -> Timing {
    time_runs(name, stream.slice_count() as u64, runs, || {
        simulate(stream, SimConfig::new(params), make_policy())
    })
}

/// Drives the map-backed Tail-Drop reference server over `stream` until
/// it drains, as [`run_server_only`] drives the product server, and
/// returns the bytes it sent.
fn reference_server_run(stream: &InputStream, buffer: Bytes, rate: Bytes) -> Bytes {
    let mut server = ReferenceServer::new(buffer, rate, ReferencePolicy::Tail);
    let mut step = ServerStep::default();
    let mut frames = stream.frames().peekable();
    let mut sent = 0;
    for t in 0.. {
        let arrivals: &[_] = match frames.next_if(|f| f.time == t) {
            Some(f) => f.slices,
            None => &[],
        };
        let drained = server.step_slot(t, arrivals, &mut step);
        sent += step.sent_bytes();
        if drained && frames.peek().is_none() {
            break;
        }
    }
    sent
}

/// One smoothd shard run: 32 CBR sessions stepped to retirement.
/// With `telemetry`, every slot is mirrored into the lock-free
/// instruments exactly as the daemon worker does (timing, delta
/// counters, session gauge), so the on/off pair isolates the cost of
/// the telemetry plane itself.
fn smoothd_shard_run(lifetime: u64, telemetry: Option<&ShardTelemetry>) -> u64 {
    let mut shard = Shard::new(0, 128, (1, 1));
    let req = AdmitRequest {
        rate: 4,
        delay: 4,
        link_delay: 1,
        buffer: 0, // balanced B = R·D
        weight: 1,
        policy: WirePolicy::Tail,
        per_slot: 4,
        slice_size: 1,
        lifetime,
    };
    for id in 0..32u64 {
        shard.admit(id, &req).expect("32 x rate 4 fits a 128-byte link");
    }
    // Playback lags the offer by the smoothing delay, so step until
    // every session retires (bounded: the tail drains within the
    // delay + link pipeline after the lifetime ends).
    let cap = lifetime + 64;
    match telemetry {
        None => {
            for _ in 0..cap {
                shard.process_slot();
                if shard.sessions() == 0 {
                    break;
                }
            }
        }
        Some(t) => {
            let (mut prev_played, mut prev_sent, mut prev_slots) = (0u64, 0u64, 0u64);
            for _ in 0..cap {
                let t0 = Instant::now();
                shard.process_slot();
                t.process.record(t0.elapsed().as_nanos() as u64);
                let stats = shard.stats();
                t.slots.add(stats.slots - prev_slots);
                prev_slots = stats.slots;
                t.played_slices.add(stats.played_slices - prev_played);
                prev_played = stats.played_slices;
                t.sent_bytes.add(stats.sent_bytes - prev_sent);
                prev_sent = stats.sent_bytes;
                t.sessions.set(shard.sessions() as u64);
                if shard.sessions() == 0 {
                    break;
                }
            }
        }
    }
    shard.stats().played_slices
}

/// Runs the full suite. Smoke mode shrinks the workload and the run
/// count so CI can execute it in seconds; its numbers are for parse
/// checks only, never for regression comparison.
pub fn run(smoke: bool) -> Suite {
    let (frames, runs) = if smoke { (300, 3) } else { (workload::FRAMES, 9) };
    let trace = rts_stream::gen::MpegSource::new(
        rts_stream::gen::MpegConfig::cnn_like(),
        workload::SEED,
    )
    .frames(frames);
    let by_byte = trace.materialize(Slicing::PerByte, WeightAssignment::MPEG_12_8_1);
    let by_frame = trace.materialize(Slicing::WholeFrame, WeightAssignment::MPEG_12_8_1);
    // Slightly under-provisioned so the drop machinery (the pushout
    // path the ring buffer optimizes) sees real traffic every run.
    let rate = workload::rate_at(&trace, 0.95);
    let params = SmoothingParams::balanced_from_rate_delay(rate, 6, 2);

    let mut timings = Vec::new();

    // Server ablation: the product ring server vs the map-backed
    // reference server on the same stream and parameters (Tail-Drop
    // keeps the victim rule trivial, so the difference is the store and
    // the step around it).
    let slices = by_byte.slice_count() as u64;
    let ring = time_runs("server/ring", slices, runs, || {
        run_server_only(&by_byte, params.buffer, params.rate, TailDrop::new())
    });
    let map = time_runs("server/map-reference", slices, runs, || {
        reference_server_run(&by_byte, params.buffer, params.rate)
    });
    let ratio = map.median_ns as f64 / ring.median_ns as f64;
    timings.push(ring);
    timings.push(map);

    // Simulate pipeline on Tail-Drop and the paper's Greedy policy.
    timings.push(simulate_bench(
        "simulate/ring",
        &by_byte,
        params,
        runs,
        TailDrop::new,
    ));
    timings.push(simulate_bench(
        "simulate/greedy-ring",
        &by_byte,
        params,
        runs,
        GreedyByteValue::new,
    ));
    timings.push(simulate_bench(
        "simulate/frame-ring",
        &by_frame,
        params,
        runs,
        TailDrop::new,
    ));

    // Mux pipeline: four whole-frame sessions sharing one link under
    // weighted-fair scheduling.
    let session_rate = workload::rate_at(&trace, 1.0);
    let session_params = SmoothingParams::balanced_from_rate_delay(session_rate, 6, 2);
    let link_rate = session_rate * 4;
    timings.push(time_runs(
        "mux/wfq-4",
        4 * by_frame.slice_count() as u64,
        runs,
        || {
            let mut mux = Mux::new(link_rate, WeightedFair::new());
            for w in 1..=4u64 {
                mux.admit(
                    SessionSpec::new(
                        by_frame.clone(),
                        session_params,
                        Box::new(TailDrop::new()),
                    )
                    .with_weight(w),
                )
                .expect("session admits at nominal capacity");
            }
            mux.run()
        },
    ));

    // Offline optima on the per-byte stream: the generic min-cost-flow
    // reference (the historical `unit-dp` entry, kept on the flow path
    // so the committed baseline stays comparable) vs the dense chain
    // solver, plus the warm-started sweep against cold re-solves and
    // the windowed streaming estimator.
    let generic = time_runs(
        "offline/unit-dp",
        by_byte.slice_count() as u64,
        runs,
        || {
            rts_offline::optimal_unit_benefit_flow(&by_byte, params.buffer, params.rate)
                .expect("per-byte stream has unit slices")
        },
    );
    let chain = time_runs(
        "offline/unit-chain",
        by_byte.slice_count() as u64,
        runs,
        || {
            rts_offline::optimal_unit_benefit(&by_byte, params.buffer, params.rate)
                .expect("per-byte stream has unit slices")
        },
    );
    let chain_ratio = generic.median_ns as f64 / chain.median_ns as f64;
    timings.push(generic);
    timings.push(chain);

    // A regret-curve-shaped buffer grid: 32 points at fixed rate.
    let grid: Vec<u64> = (0..32).map(|i| params.buffer * i / 8 + 1).collect();
    let grid_slices = by_byte.slice_count() as u64 * grid.len() as u64;
    let cold = time_runs("offline/sweep-cold", grid_slices, runs, || {
        grid.iter()
            .map(|&b| {
                rts_offline::optimal_unit_benefit(&by_byte, b, params.rate)
                    .expect("per-byte stream has unit slices")
            })
            .sum::<u64>()
    });
    let warm = time_runs("offline/sweep-warm", grid_slices, runs, || {
        let sweep =
            rts_offline::OptimalSweep::new(&by_byte).expect("per-byte stream has unit slices");
        sweep.sweep_buffers(params.rate, &grid).iter().sum::<u64>()
    });
    let warm_ratio = cold.median_ns as f64 / warm.median_ns as f64;
    timings.push(cold);
    timings.push(warm);

    timings.push(time_runs(
        "offline/windowed",
        by_byte.slice_count() as u64,
        runs,
        || {
            rts_offline::optimal_unit_windowed(&by_byte, params.buffer, params.rate, 64)
                .expect("per-byte stream has unit slices")
        },
    ));

    timings.push(time_runs(
        "offline/frame-dp",
        by_frame.slice_count() as u64,
        runs,
        || {
            rts_offline::optimal_frame_benefit(&by_frame, params.buffer, params.rate)
                .expect("whole-frame stream is frame-aligned")
        },
    ));

    // Daemon shard: the worker slot loop bare vs mirrored into the
    // rts-telemetry instruments (the overhead the regression gate caps).
    let shard_slots: u64 = if smoke { 200 } else { 2_000 };
    let shard_slices = 32 * 4 * shard_slots;
    let off = time_runs("smoothd/telemetry-off", shard_slices, runs, || {
        smoothd_shard_run(shard_slots, None)
    });
    let shard_telemetry = ShardTelemetry::default();
    let on = time_runs("smoothd/telemetry-on", shard_slices, runs, || {
        smoothd_shard_run(shard_slots, Some(&shard_telemetry))
    });
    let telemetry_ratio = on.median_ns as f64 / off.median_ns as f64;
    timings.push(off);
    timings.push(on);

    Suite {
        mode: if smoke { "smoke" } else { "full" },
        seed: workload::SEED,
        frames,
        timings,
        ratio_server_ring_vs_map: ratio,
        ratio_smoothd_telemetry_on_vs_off: telemetry_ratio,
        ratio_offline_chain_vs_generic: chain_ratio,
        ratio_offline_warm_vs_cold: warm_ratio,
    }
}

impl Suite {
    /// Serializes the suite as pretty-printed JSON (hand-rolled; the
    /// flat shape is what [`extract_medians`] parses back).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"suite\": \"hotpath\",\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"frames\": {},\n", self.frames));
        s.push_str(&format!(
            "  \"ratio_server_ring_vs_map\": {:.4},\n",
            self.ratio_server_ring_vs_map
        ));
        s.push_str(&format!(
            "  \"ratio_smoothd_telemetry_on_vs_off\": {:.4},\n",
            self.ratio_smoothd_telemetry_on_vs_off
        ));
        s.push_str(&format!(
            "  \"ratio_offline_chain_vs_generic\": {:.4},\n",
            self.ratio_offline_chain_vs_generic
        ));
        s.push_str(&format!(
            "  \"ratio_offline_warm_vs_cold\": {:.4},\n",
            self.ratio_offline_warm_vs_cold
        ));
        s.push_str("  \"benchmarks\": [\n");
        for (i, t) in self.timings.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"runs\": {}, \"median_ns\": {}, \"best_ns\": {}, \"slices\": {}, \"slices_per_sec\": {:.1}}}{}\n",
                t.name,
                t.runs,
                t.median_ns,
                t.best_ns,
                t.slices,
                t.slices_per_sec,
                if i + 1 < self.timings.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Extracts `(name, median_ns)` pairs from a suite JSON produced by
/// [`Suite::to_json`]. Returns `None` on any shape it does not
/// recognize — the caller treats that as a corrupt baseline.
pub fn extract_medians(json: &str) -> Option<Vec<(String, u64)>> {
    if !json.contains("\"suite\": \"hotpath\"") {
        return None;
    }
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"name\": \"") {
            continue;
        }
        let name = line.strip_prefix("{\"name\": \"")?.split('"').next()?;
        let median = line
            .split("\"median_ns\": ")
            .nth(1)?
            .split([',', '}'])
            .next()?
            .trim()
            .parse()
            .ok()?;
        out.push((name.to_string(), median));
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

fn extract_named_ratio(json: &str, key: &str) -> Option<f64> {
    json.lines()
        .find(|l| l.trim_start().starts_with(&format!("\"{key}\"")))?
        .split(": ")
        .nth(1)?
        .trim_end_matches(',')
        .trim()
        .parse()
        .ok()
}

/// Extracts the recorded server ring-vs-map ratio from a suite JSON.
pub fn extract_ratio(json: &str) -> Option<f64> {
    extract_named_ratio(json, "ratio_server_ring_vs_map")
}

/// Extracts the recorded telemetry on-vs-off overhead ratio from a
/// suite JSON (`None` for baselines that predate the telemetry pair).
pub fn extract_telemetry_ratio(json: &str) -> Option<f64> {
    extract_named_ratio(json, "ratio_smoothd_telemetry_on_vs_off")
}

/// Extracts the recorded chain-vs-generic offline speedup ratio from a
/// suite JSON (`None` for baselines that predate the chain solver).
pub fn extract_offline_chain_ratio(json: &str) -> Option<f64> {
    extract_named_ratio(json, "ratio_offline_chain_vs_generic")
}

/// Extracts the recorded warm-vs-cold sweep speedup ratio from a suite
/// JSON (`None` for baselines that predate `OptimalSweep`).
pub fn extract_offline_warm_ratio(json: &str) -> Option<f64> {
    extract_named_ratio(json, "ratio_offline_warm_vs_cold")
}

/// Extracts the recorded mode (`"full"` / `"smoke"`) from a suite JSON.
pub fn extract_mode(json: &str) -> Option<String> {
    let line = json
        .lines()
        .find(|l| l.trim_start().starts_with("\"mode\""))?;
    Some(line.split('"').nth(3)?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_suite() -> Suite {
        Suite {
            mode: "full",
            seed: 1,
            frames: 2,
            timings: vec![
                Timing {
                    name: "server/ring".into(),
                    runs: 3,
                    median_ns: 1_000,
                    best_ns: 900,
                    slices: 50,
                    slices_per_sec: 5.0e7,
                },
                Timing {
                    name: "server/map-reference".into(),
                    runs: 3,
                    median_ns: 1_700,
                    best_ns: 1_600,
                    slices: 50,
                    slices_per_sec: 2.9e7,
                },
            ],
            ratio_server_ring_vs_map: 1.7,
            ratio_smoothd_telemetry_on_vs_off: 1.05,
            ratio_offline_chain_vs_generic: 25.0,
            ratio_offline_warm_vs_cold: 18.5,
        }
    }

    #[test]
    fn json_roundtrips_through_the_extractors() {
        let json = sample_suite().to_json();
        let medians = extract_medians(&json).expect("parses");
        assert_eq!(
            medians,
            vec![
                ("server/ring".to_string(), 1_000),
                ("server/map-reference".to_string(), 1_700),
            ]
        );
        assert_eq!(extract_ratio(&json), Some(1.7));
        assert_eq!(extract_telemetry_ratio(&json), Some(1.05));
        assert_eq!(extract_offline_chain_ratio(&json), Some(25.0));
        assert_eq!(extract_offline_warm_ratio(&json), Some(18.5));
        assert_eq!(extract_mode(&json).as_deref(), Some("full"));
    }

    #[test]
    fn extractors_reject_garbage() {
        assert_eq!(extract_medians("not json"), None);
        assert_eq!(extract_medians("{\"suite\": \"hotpath\"}"), None);
        assert_eq!(extract_ratio(""), None);
        assert_eq!(extract_telemetry_ratio(""), None);
        assert_eq!(extract_offline_chain_ratio(""), None);
        assert_eq!(extract_offline_warm_ratio(""), None);
        assert_eq!(extract_mode(""), None);
    }

    #[test]
    fn time_runs_reports_a_median() {
        let t = time_runs("demo", 10, 5, std::thread::yield_now);
        assert_eq!(t.runs, 5);
        assert!(t.best_ns <= t.median_ns);
        assert!(t.slices_per_sec > 0.0);
    }

    #[test]
    fn smoke_suite_produces_every_benchmark() {
        let _serial = crate::serial();
        let suite = run(true);
        assert_eq!(suite.mode, "smoke");
        let names: Vec<&str> = suite.timings.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "server/ring",
                "server/map-reference",
                "simulate/ring",
                "simulate/greedy-ring",
                "simulate/frame-ring",
                "mux/wfq-4",
                "offline/unit-dp",
                "offline/unit-chain",
                "offline/sweep-cold",
                "offline/sweep-warm",
                "offline/windowed",
                "offline/frame-dp",
                "smoothd/telemetry-off",
                "smoothd/telemetry-on",
            ]
        );
        assert!(suite.ratio_server_ring_vs_map > 0.0);
        assert!(suite.ratio_smoothd_telemetry_on_vs_off > 0.0);
        assert!(suite.ratio_offline_chain_vs_generic > 0.0);
        assert!(suite.ratio_offline_warm_vs_cold > 0.0);
        let json = suite.to_json();
        assert_eq!(extract_medians(&json).map(|m| m.len()), Some(14));
    }

    #[test]
    fn shard_run_plays_the_full_cbr_offer() {
        // 32 sessions x 4 slices/slot x lifetime, instrumented or not.
        assert_eq!(smoothd_shard_run(8, None), 32 * 4 * 8);
        let t = ShardTelemetry::default();
        assert_eq!(smoothd_shard_run(8, Some(&t)), 32 * 4 * 8);
        assert_eq!(t.played_slices.get(), 32 * 4 * 8);
        assert!(t.slots.get() >= 8, "ran at least the lifetime");
        assert_eq!(t.process.count(), t.slots.get());
    }
}
