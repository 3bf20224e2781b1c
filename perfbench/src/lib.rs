//! The repository benchmark: three workloads against the public APIs of
//! `rts-smoothd`, `rts-core`, `rts-sim`, `rts-offline` and `rts-stream`,
//! measured end to end and layer by layer. See `README.md` next to this
//! crate for the workloads, the metric table and how to run it.
//!
//! Layers are measured only from outside: timed public calls, diffs of
//! the daemon's public telemetry registry, and the OS's per-thread CPU
//! accounting of the daemon's named threads.

#![forbid(unsafe_code)]

pub mod host;
pub mod report;
pub mod resident;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod wire;

use std::sync::OnceLock;
use std::time::Instant;

use report::{metric_table, result_json, Outcome};
use trace::Tracer;

/// Reads the traced binary's allocation counters: (allocations, bytes).
pub type AllocCounter = fn() -> (u64, u64);

/// The workloads, in the order the traced run visits them.
pub const WORKLOADS: [&str; 3] = ["resident", "wire", "sweep"];

/// End-to-end metrics every untraced run reports. Their meaning per
/// workload is tabulated in `README.md`.
pub const END_TO_END: [&str; 4] = ["setup_s", "throughput_per_s", "p50_us", "rss_mib"];

/// Per-layer metrics every traced run reports.
pub const PER_LAYER: [&str; 54] = [
    "daemon.admit_batch_ms",
    "daemon.materialize_ms",
    "daemon.try_admit_us",
    "daemon.inject_us",
    "daemon.drain_us",
    "snapshot.encode_ms",
    "snapshot.decode_ms",
    "snapshot.bytes_per_session",
    "daemon.restore_ms",
    "daemon.rematerialize_ms",
    "shard.process_slot_us",
    "shard.single_thread_slices_per_s",
    "shard.overhead_ns",
    "shard.allocs_per_slot",
    "session.begin_slot_ns",
    "session.demand_ns",
    "session.step_ns",
    "session.retire_check_ns",
    "session.alloc_bytes",
    "shard.busy_pct",
    "shard.apply_us",
    "shard.sparse_process_slot_us",
    "shard.deadline_miss_ratio",
    "shard.lateness_p50_us",
    "frame.encode_ns",
    "frame.decode_ns",
    "frame.bytes",
    "ingest.busy_pct",
    "ingest.accept_busy_pct",
    "ingest.wait_us",
    "ingest.rejects.capacity",
    "ingest.rejects.infeasible",
    "ingest.rejects.zero_rate",
    "ingest.rejects.backpressure",
    "ingest.rejects.unknown_session",
    "ingest.rejects.protocol",
    "wire.unoffered_bytes",
    "gen.lag_p50_us",
    "gen.lag_max_us",
    "stream.materialize_ms",
    "offline.analyze_ms",
    "offline.query_us",
    "core.server_tail_ms",
    "core.server_greedy_ms",
    "core.dropped_slices",
    "sim.simulate_tail_ms",
    "sim.simulate_greedy_ms",
    "host.sleep_lag_p50_us",
    "host.sleep_lag_p99_us",
    "host.spin_ms",
    "host.steal_pct",
    "host.yardstick_scattered_us",
    "host.yardstick_streamed_us",
    "trace.overhead_pct",
];

/// Sleeps in the host calibration.
const CALIBRATION_SAMPLES: usize = 1000;
/// Window of the workloads the traced run visits besides the selected
/// one, seconds.
const SHORT_SECONDS: f64 = 3.0;
/// Share of `--seconds` the traced run's untraced reference pass takes.
const REFERENCE_SHARE: f64 = 0.5;
/// Slots the dense-shard and session probes time.
const PROBE_SLOTS: usize = 60;

/// Common time origin for every span of a run.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
}

/// Usage text. The binary decides between the end-to-end and the
/// traced run: `perfbench` is untraced, `perfbench-traced` traced.
pub const USAGE: &str = "usage: perfbench --workload resident|wire|sweep [--seed N] [--seconds S]";

/// Parses `--workload W --seed N --seconds S`.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: sweep::CANONICAL_SEED,
        seconds: 10.0,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    Ok(parsed)
}

fn run_workload(name: &str, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    match name {
        "resident" => resident::run(seed, seconds, tr),
        "wire" => wire::run(seed, seconds, tr),
        _ => sweep::run(seed, seconds, tr),
    }
}

/// The metric a workload's tracing overhead is judged on, and whether
/// higher is better.
fn primary(name: &str) -> (&'static str, bool) {
    match name {
        "wire" => ("p50_us", false),
        _ => ("throughput_per_s", true),
    }
}

/// The traced run: the other workloads traced over a short window, the
/// layer probes, then the selected workload untraced (the reference
/// for tracing overhead) and traced, back to back so both see the same
/// process state.
fn traced(args: &Args, alloc: AllocCounter) -> Outcome {
    let mut all = Outcome::default();
    let mut tracer = Tracer::new(true, epoch());
    for name in WORKLOADS.into_iter().filter(|&w| w != args.workload) {
        let span = tracer.enter("workload", 0);
        let mut o = run_workload(name, args.seed, SHORT_SECONDS, &mut tracer);
        tracer.exit(span);
        o.notes = o
            .notes
            .into_iter()
            .map(|n| format!("[{name}] {n}"))
            .collect();
        o.metrics.retain(|m| PER_LAYER.contains(&m.name.as_str()));
        all.absorb(o);
    }
    all.absorb(resident::probe_layers(
        args.seed,
        PROBE_SLOTS,
        &mut tracer,
        alloc,
    ));
    let reference = run_workload(
        &args.workload,
        args.seed,
        args.seconds * REFERENCE_SHARE,
        &mut Tracer::new(false, epoch()),
    );
    let span = tracer.enter("workload", 0);
    let mut selected = run_workload(&args.workload, args.seed, args.seconds, &mut tracer);
    tracer.exit(span);
    let name = &args.workload;
    selected.notes = selected
        .notes
        .into_iter()
        .map(|n| format!("[{name}] {n}"))
        .collect();
    let (metric, higher) = primary(&args.workload);
    let overhead = match (reference.get(metric), selected.get(metric)) {
        (Some(untraced), Some(traced)) if untraced > 0.0 && traced > 0.0 => {
            let o = if higher {
                untraced / traced - 1.0
            } else {
                traced / untraced - 1.0
            };
            o * 100.0
        }
        _ => 0.0,
    };
    all.put("trace.overhead_pct", overhead, "%");
    all.note(format!(
        "tracing overhead: {overhead:+.2}% on {metric} ({} untraced over {:.1} s vs {} traced over {:.1} s)",
        reference.get(metric).unwrap_or(0.0),
        args.seconds * REFERENCE_SHARE,
        selected.get(metric).unwrap_or(0.0),
        args.seconds
    ));
    all.violations.extend(reference.violations);
    all.absorb(selected);
    let top: Vec<String> = tracer
        .self_time_by_name()
        .into_iter()
        .take(12)
        .map(|(n, ns, c)| format!("{n} {:.3} s/{c}", ns as f64 / 1e9))
        .collect();
    all.note(format!(
        "span self time (name total/count): {}",
        top.join(", ")
    ));
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let path = std::path::Path::new(&dir).join(format!(
        "perfbench-spans-{}-{}.jsonl",
        args.workload, args.seed
    ));
    match std::fs::write(&path, tracer.to_jsonl()) {
        Ok(()) => all.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => all.note(format!("spans not written to {}: {e}", path.display())),
    }
    all
}

/// Runs the benchmark as the command line asks and returns the exit
/// code: 0 when every check passed, 1 when one failed, 2 on usage
/// errors. The run is traced exactly when the binary passes its
/// allocation counter. The last line on standard output is the JSON
/// result.
pub fn main_with(alloc: Option<AllocCounter>) -> i32 {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let trace = alloc.is_some();
    epoch();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, trace as u8
    );
    println!("machine: {}", host::machine_shape());
    let cal = host::calibrate(CALIBRATION_SAMPLES);
    println!(
        "host: sleep_lag_p50_us={:.1} sleep_lag_p99_us={:.1} (n={}) spin_ms={:.2}",
        cal.sleep_lag_p50_us, cal.sleep_lag_p99_us, cal.samples, cal.spin_ms
    );
    let ticks = host::cpu_ticks();
    let mut outcome = match alloc {
        None => run_workload(
            &args.workload,
            args.seed,
            args.seconds,
            &mut Tracer::new(false, epoch()),
        ),
        Some(a) => traced(&args, a),
    };
    outcome.put("host.sleep_lag_p50_us", cal.sleep_lag_p50_us, "us");
    outcome.put("host.sleep_lag_p99_us", cal.sleep_lag_p99_us, "us");
    outcome.put("host.spin_ms", cal.spin_ms, "ms");
    let steal = host::steal_pct(ticks, host::cpu_ticks());
    outcome.put("host.steal_pct", steal, "%");
    println!("host: steal_pct={steal:.2} (CPU time the hypervisor took during the workload)");
    for n in &outcome.notes {
        println!("{n}");
    }
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| outcome.get(n).is_none())
        .collect();
    if !missing.is_empty() {
        outcome.check(
            false,
            format!("metrics not measured: {}", missing.join(", ")),
        );
    }
    print!("metrics:\n{}", metric_table(&outcome.metrics));
    println!(
        "failed_ratio = {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for v in &outcome.violations {
        println!("CHECK FAILED: {v}");
    }
    println!(
        "checks: {}",
        if outcome.violations.is_empty() {
            "all passed"
        } else {
            "FAILED"
        }
    );
    println!("{}", result_json(&outcome, names));
    if outcome.violations.is_empty() {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload wire --seed 7 --seconds 10").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "wire".into(),
                seed: 7,
                seconds: 10.0,
            }
        );
        assert_eq!(
            args("--workload sweep").unwrap().seed,
            sweep::CANONICAL_SEED
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload wire --trace 1").is_err());
        assert!(args("--workload wire --seconds").is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (i, n) in all.iter().enumerate() {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(!all[..i].contains(n), "{n} listed twice");
        }
    }
}
