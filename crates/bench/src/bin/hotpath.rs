//! Hot-path throughput suite: measures slices/sec on the Section-5
//! MPEG workload and writes `BENCH_hotpath.json` for the regression
//! gate (`scripts/bench_check.sh`).
//!
//! Usage:
//!
//! ```text
//! hotpath [--smoke] [--out PATH]        run the suite, write the JSON
//! hotpath --validate [PATH]             assert an existing JSON parses
//! hotpath --check [BASELINE]            run full suite, compare medians
//!                                       against the committed baseline
//!                                       (tolerance: slower by more than
//!                                       TOLERANCE x fails; default 1.6)
//! ```
//!
//! `--check` also enforces the ablation ratios: the committed baseline
//! must record the server ring-vs-map ratio (the map-backed reference
//! server of `rts-check` over the product server) >= 1.5 and the fresh
//! run >= 1.3 (the looser live bound absorbs machine noise; the ratios
//! are relative, so they are stable across machine speeds). It caps the smoothd
//! telemetry-on/off overhead ratio at 1.5x (the lock-free instruments
//! must stay close to free on the slot hot path), and it keeps the
//! offline fast paths fast: chain-vs-generic >= 5x in the baseline /
//! 4x live, and warm-vs-cold sweeps >= 10x in the baseline / 8x live.

use std::process::ExitCode;

use rts_bench::hotpath::{
    self, extract_medians, extract_mode, extract_offline_chain_ratio, extract_offline_warm_ratio,
    extract_ratio,
};

const DEFAULT_OUT: &str = "BENCH_hotpath.json";
const BASELINE_RATIO_FLOOR: f64 = 1.5;
const LIVE_RATIO_FLOOR: f64 = 1.3;
const TELEMETRY_OVERHEAD_CEILING: f64 = 1.5;
const CHAIN_BASELINE_FLOOR: f64 = 5.0;
const CHAIN_LIVE_FLOOR: f64 = 4.0;
const WARM_BASELINE_FLOOR: f64 = 10.0;
const WARM_LIVE_FLOOR: f64 = 8.0;
const DEFAULT_TOLERANCE: f64 = 1.6;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = DEFAULT_OUT.to_string();
    let mut validate: Option<String> = None;
    let mut check: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out needs a path").clone();
            }
            "--validate" => {
                let next = args.get(i + 1).filter(|a| !a.starts_with("--"));
                validate = Some(next.cloned().unwrap_or_else(|| DEFAULT_OUT.into()));
                i += usize::from(next.is_some());
            }
            "--check" => {
                let next = args.get(i + 1).filter(|a| !a.starts_with("--"));
                check = Some(next.cloned().unwrap_or_else(|| DEFAULT_OUT.into()));
                i += usize::from(next.is_some());
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if let Some(path) = validate {
        return run_validate(&path);
    }
    if let Some(baseline) = check {
        return run_check(&baseline);
    }

    let suite = hotpath::run(smoke);
    report(&suite);
    std::fs::write(&out, suite.to_json()).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
    ExitCode::SUCCESS
}

fn report(suite: &hotpath::Suite) {
    println!("hotpath suite ({} mode, {} frames):", suite.mode, suite.frames);
    for t in &suite.timings {
        println!(
            "  {:<22} median {:>10.3} ms  ({:>12.0} slices/s, {} runs)",
            t.name,
            t.median_ns as f64 / 1e6,
            t.slices_per_sec,
            t.runs
        );
    }
    println!(
        "  server ring-vs-map ratio: {:.2}x",
        suite.ratio_server_ring_vs_map
    );
    println!(
        "  smoothd telemetry on-vs-off ratio: {:.2}x",
        suite.ratio_smoothd_telemetry_on_vs_off
    );
    println!(
        "  offline chain-vs-generic ratio: {:.2}x",
        suite.ratio_offline_chain_vs_generic
    );
    println!(
        "  offline warm-vs-cold sweep ratio: {:.2}x",
        suite.ratio_offline_warm_vs_cold
    );
}

fn run_validate(path: &str) -> ExitCode {
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("validate: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match (extract_medians(&json), extract_ratio(&json), extract_mode(&json)) {
        (Some(medians), Some(ratio), Some(mode)) => {
            println!(
                "validate: {path} ok ({} benchmarks, mode {mode}, ratio {ratio:.2}x)",
                medians.len()
            );
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("validate: {path} is not a hotpath suite JSON");
            ExitCode::FAILURE
        }
    }
}

fn run_check(baseline_path: &str) -> ExitCode {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("check: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (Some(base_medians), Some(base_ratio), Some(base_mode)) = (
        extract_medians(&baseline),
        extract_ratio(&baseline),
        extract_mode(&baseline),
    ) else {
        eprintln!("check: baseline {baseline_path} is corrupt");
        return ExitCode::FAILURE;
    };
    if base_mode != "full" {
        eprintln!("check: baseline {baseline_path} is a {base_mode} run; commit a full run");
        return ExitCode::FAILURE;
    }
    if base_ratio < BASELINE_RATIO_FLOOR {
        eprintln!(
            "check: baseline server ring-vs-map ratio {base_ratio:.2}x < required {BASELINE_RATIO_FLOOR}x"
        );
        return ExitCode::FAILURE;
    }
    match extract_offline_chain_ratio(&baseline) {
        Some(r) if r >= CHAIN_BASELINE_FLOOR => {}
        Some(r) => {
            eprintln!(
                "check: baseline chain-vs-generic ratio {r:.2}x < required {CHAIN_BASELINE_FLOOR}x"
            );
            return ExitCode::FAILURE;
        }
        None => {
            eprintln!("check: baseline {baseline_path} predates the offline chain benchmarks");
            return ExitCode::FAILURE;
        }
    }
    match extract_offline_warm_ratio(&baseline) {
        Some(r) if r >= WARM_BASELINE_FLOOR => {}
        Some(r) => {
            eprintln!(
                "check: baseline warm-vs-cold ratio {r:.2}x < required {WARM_BASELINE_FLOOR}x"
            );
            return ExitCode::FAILURE;
        }
        None => {
            eprintln!("check: baseline {baseline_path} predates the offline sweep benchmarks");
            return ExitCode::FAILURE;
        }
    }

    let tolerance: f64 = std::env::var("BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TOLERANCE);
    let suite = hotpath::run(false);
    report(&suite);

    let mut failed = false;
    for t in &suite.timings {
        let Some(&(_, base_ns)) = base_medians.iter().find(|(n, _)| *n == t.name) else {
            println!("  {}: new benchmark (no baseline entry), skipped", t.name);
            continue;
        };
        // Absolute medians differ across machines; the gate only fires
        // on large relative regressions.
        let factor = t.median_ns as f64 / base_ns as f64;
        if factor > tolerance {
            eprintln!(
                "  REGRESSION {}: {:.3} ms vs baseline {:.3} ms ({factor:.2}x > {tolerance:.2}x)",
                t.name,
                t.median_ns as f64 / 1e6,
                base_ns as f64 / 1e6
            );
            failed = true;
        }
    }
    if suite.ratio_server_ring_vs_map < LIVE_RATIO_FLOOR {
        eprintln!(
            "  REGRESSION server ring-vs-map ratio {:.2}x < floor {LIVE_RATIO_FLOOR}x",
            suite.ratio_server_ring_vs_map
        );
        failed = true;
    }
    // The overhead ratio is relative (on/off on the same machine, same
    // run), so it needs no baseline entry to be meaningful.
    if suite.ratio_smoothd_telemetry_on_vs_off > TELEMETRY_OVERHEAD_CEILING {
        eprintln!(
            "  REGRESSION telemetry overhead {:.2}x > ceiling {TELEMETRY_OVERHEAD_CEILING}x",
            suite.ratio_smoothd_telemetry_on_vs_off
        );
        failed = true;
    }
    if suite.ratio_offline_chain_vs_generic < CHAIN_LIVE_FLOOR {
        eprintln!(
            "  REGRESSION chain-vs-generic ratio {:.2}x < floor {CHAIN_LIVE_FLOOR}x",
            suite.ratio_offline_chain_vs_generic
        );
        failed = true;
    }
    if suite.ratio_offline_warm_vs_cold < WARM_LIVE_FLOOR {
        eprintln!(
            "  REGRESSION warm-vs-cold sweep ratio {:.2}x < floor {WARM_LIVE_FLOOR}x",
            suite.ratio_offline_warm_vs_cold
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("check: within tolerance ({tolerance:.2}x) of {baseline_path}");
        ExitCode::SUCCESS
    }
}
