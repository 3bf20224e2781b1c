//! `sweep`: the paper's Figures 2–3 computation on one thread.
//!
//! On a seeded byte-sliced MPEG trace, each of the 26 buffer sizes
//! (k × the canonical largest frame) at R = 1.1× and 0.9× the average
//! rate runs Tail-Drop
//! and Greedy through `run_server_only` (the figures' path) and through
//! the full `simulate` pipeline, with Optimal from one warm
//! `OptimalSweep`. This research path shares `rts-core` with the daemon
//! but none of the daemon itself, and sheds load at every point.

use std::time::Instant;

use rts_core::tradeoff::SmoothingParams;
use rts_core::{GreedyByteValue, TailDrop};
use rts_offline::OptimalSweep;
use rts_sim::{run_server_only, simulate, SimConfig};
use rts_stream::gen::{MpegConfig, MpegSource};
use rts_stream::slicing::{FrameSizeTrace, Slicing};
use rts_stream::weight::WeightAssignment;
use rts_stream::InputStream;

use crate::host;
use crate::report::Outcome;
use crate::stats::{describe_samples, median, median_u64, sample_quantile};
use crate::trace::Tracer;

/// The Section 5 trace seed; the golden file holds its results.
pub const CANONICAL_SEED: u64 = 20_000_716;
/// Trace length in frames at the canonical seed.
pub const FRAMES: usize = 1800;
/// Bytes of the canonical trace. Every seed's trace is cut at the first
/// frame that reaches this total, so each seed does the same amount of
/// byte-sliced work (the canonical seed keeps exactly its 1,800 frames).
pub const TRACE_BYTES: u64 = 66_602;
/// Buffer sizes are multiples of the canonical trace's largest frame,
/// for every seed, so each seed sweeps the same buffers.
pub const BUFFER_UNIT: u64 = 120;
/// Link rates as multiples of the average rate (Figures 2 and 3).
pub const FACTORS: [f64; 2] = [1.1, 0.9];
/// Buffer sizes in multiples of the largest frame.
pub const KS: std::ops::RangeInclusive<u64> = 1..=26;
/// Committed Figure 2 regret table (R = 1.1×, canonical seed).
pub const GOLDEN: &str = "results/regret_sweep.csv";
/// Materializations per run; `setup_s` is their median. One takes
/// about 2 ms, so 400 spread the median over most of a second instead
/// of one short host episode.
const MATERIALIZES: usize = 400;
/// Fewest grids per run: two give 104 point times, enough for a p90
/// with ten samples beyond it.
const MIN_GRIDS: usize = 2;

/// One grid point's results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Point {
    /// Rate factor index into [`FACTORS`].
    pub factor: usize,
    /// Buffer size in max frames.
    pub k: u64,
    /// Server buffer `B`.
    pub buffer: u64,
    /// Link rate `R`.
    pub rate: u64,
    /// Optimal benefit at `(B, R)`.
    pub opt: u64,
    /// Tail-Drop and Greedy benefit, server only.
    pub server: [u64; 2],
    /// `simulate`'s balanced buffer `R·⌈B/R⌉`.
    pub sim_buffer: u64,
    /// Optimal benefit at `(R·⌈B/R⌉, R)`.
    pub sim_opt: u64,
    /// Tail-Drop and Greedy benefit through `simulate`.
    pub sim: [u64; 2],
    /// Slices the server-only runs dropped.
    pub dropped: u64,
}

/// The seeded trace.
pub fn trace(seed: u64) -> FrameSizeTrace {
    let long = MpegSource::new(MpegConfig::cnn_like(), seed).frames(2 * FRAMES);
    let mut total = 0;
    let frames: Vec<_> = long
        .frames()
        .iter()
        .take_while(|&&(_, size)| {
            let before = total;
            total += size;
            before < TRACE_BYTES
        })
        .copied()
        .collect();
    FrameSizeTrace::new(frames)
}

fn materialize(trace: &FrameSizeTrace) -> InputStream {
    trace.materialize(Slicing::PerByte, WeightAssignment::MPEG_12_8_1)
}

fn rate_at(trace: &FrameSizeTrace, factor: f64) -> u64 {
    (trace.average_rate() * factor).round().max(1.0) as u64
}

/// One whole grid: the warm analysis, then every point with both
/// pipelines. Pushes the analysis time and then each point's wall time
/// into `ns`, and calls `between` after each point, outside its time.
pub fn grid(
    stream: &InputStream,
    trace: &FrameSizeTrace,
    tr: &mut Tracer,
    ns: &mut Vec<u64>,
    mut between: impl FnMut(),
) -> Vec<Point> {
    let s = tr.enter("offline.analyze", 0);
    let t = Instant::now();
    let warm = OptimalSweep::new(stream).expect("a byte-sliced stream has unit slices");
    ns.push(t.elapsed().as_nanos() as u64);
    tr.exit(s);
    let mut points = Vec::new();
    for (fi, &factor) in FACTORS.iter().enumerate() {
        let rate = rate_at(trace, factor);
        for k in KS {
            let buffer = k * BUFFER_UNIT;
            let req = points.len() as u64 + 1;
            let p = tr.enter("sweep.point", req);
            let t = Instant::now();
            let s = tr.enter("core.server_tail", req);
            let tail = run_server_only(stream, buffer, rate, TailDrop::new());
            tr.exit(s);
            let s = tr.enter("core.server_greedy", req);
            let greedy = run_server_only(stream, buffer, rate, GreedyByteValue::new());
            tr.exit(s);
            let delay = buffer.div_ceil(rate);
            let cfg = SimConfig::new(SmoothingParams::balanced_from_rate_delay(rate, delay, 1));
            let s = tr.enter("sim.simulate_tail", req);
            let sim_tail = simulate(stream, cfg, TailDrop::new());
            tr.exit(s);
            let s = tr.enter("sim.simulate_greedy", req);
            let sim_greedy = simulate(stream, cfg, GreedyByteValue::new());
            tr.exit(s);
            let sim_buffer = rate * delay;
            let s = tr.enter("offline.query", req);
            let opt = warm.benefit(buffer, rate);
            tr.exit(s);
            let s = tr.enter("offline.query", req);
            let sim_opt = warm.benefit(sim_buffer, rate);
            tr.exit(s);
            ns.push(t.elapsed().as_nanos() as u64);
            tr.exit(p);
            between();
            points.push(Point {
                factor: fi,
                k,
                buffer,
                rate,
                opt,
                server: [tail.benefit, greedy.benefit],
                sim_buffer,
                sim_opt,
                sim: [sim_tail.metrics.benefit, sim_greedy.metrics.benefit],
                dropped: tail.dropped_slices + greedy.dropped_slices,
            });
        }
    }
    points
}

/// The `sweep` checks: Optimal bounds both online policies at every
/// point on both pipelines (`simulate` at its own balanced buffer), and
/// at the canonical seed the R = 1.1× server-only and Optimal columns
/// equal the committed golden table.
pub fn check(points: &[Point], golden: Option<&str>) -> Vec<String> {
    let mut bad = Vec::new();
    for p in points {
        for (name, b) in ["tail", "greedy"].iter().zip(p.server) {
            if p.opt < b {
                bad.push(format!(
                    "R={} B={}: OPT {} < server-only {name} {b}",
                    p.rate, p.buffer, p.opt
                ));
            }
        }
        for (name, b) in ["tail", "greedy"].iter().zip(p.sim) {
            if p.sim_opt < b {
                bad.push(format!(
                    "R={} B={}: OPT {} < simulate {name} {b}",
                    p.rate, p.sim_buffer, p.sim_opt
                ));
            }
        }
    }
    if let Some(csv) = golden {
        let rows: Vec<Vec<u64>> = csv
            .lines()
            .skip(1)
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                l.split(',')
                    .take(5)
                    .map(|f| f.trim().parse().unwrap_or(u64::MAX))
                    .collect()
            })
            .collect();
        let ours: Vec<Vec<u64>> = points
            .iter()
            .filter(|p| p.factor == 0)
            .map(|p| vec![p.k, p.buffer, p.opt, p.server[0], p.server[1]])
            .collect();
        if rows.len() != ours.len() {
            bad.push(format!(
                "golden table has {} rows, the grid {} at R = 1.1x",
                rows.len(),
                ours.len()
            ));
        }
        for (g, o) in rows.iter().zip(&ours) {
            if g != o {
                bad.push(format!(
                    "golden row k={} differs: file {g:?}, measured {o:?} (k, B, OPT, tail, greedy)",
                    o[0]
                ));
            }
        }
    }
    bad
}

/// Runs whole grids until `seconds` have passed (at least one).
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let trace = trace(seed);
    let mut setups = Vec::new();
    let mut stream = None;
    let mut stick = host::Yardstick::new(host::Access::Scattered);
    let mut setup_yard = Vec::new();
    for _ in 0..MATERIALIZES {
        let s = tr.enter("stream.materialize", 0);
        let t = Instant::now();
        let st = materialize(&trace);
        setups.push(t.elapsed().as_secs_f64());
        tr.exit(s);
        stream = Some(st);
        setup_yard.push(stick.sample());
    }
    let mut stream = stream.expect("materialized at least once");
    // `setup_s` is host-normalized like the grid figures: over fourteen
    // processes the median set-up followed the median of the yardstick
    // samples taken between the set-ups with a correlation of 0.90.
    let setup_yard = median_u64(&setup_yard);
    out.put(
        "setup_s",
        median(&setups) * stick.reference_ns() / setup_yard,
        "s",
    );
    out.put("stream.materialize_ms", median(&setups) * 1e3, "ms");
    out.note(format!(
        "set-up (materialize; median of {MATERIALIZES}): {:.1} us as measured, {:.1} us host-normalized by {} us / the median yardstick sample between set-ups, {:.1} us",
        median(&setups) * 1e6,
        median(&setups) * 1e6 * stick.reference_ns() / setup_yard,
        stick.reference_ns() / 1e3,
        setup_yard / 1e3
    ));

    let mut parts: Vec<Vec<u64>> = Vec::new();
    let mut yards = Vec::new();
    let mut shares = Vec::new();
    let mut grids = Vec::new();
    let mut grid_cpu = Vec::new();
    let mut first: Option<Vec<Point>> = None;
    let cpu0 = host::cpu_ns(&[]);
    let t0 = Instant::now();
    while grids.len() < MIN_GRIDS || t0.elapsed().as_secs_f64() < seconds {
        let s = tr.enter("sweep.grid", 0);
        let c = host::cpu_ns(&[]);
        let t = Instant::now();
        let mut ns = Vec::new();
        let mut yard = Vec::new();
        let points = grid(&stream, &trace, tr, &mut ns, || yard.push(stick.sample()));
        let wall = t.elapsed().as_secs_f64();
        let cpu = (host::cpu_ns(&[]) - c) as f64;
        // The next grid runs on a fresh copy, allocated while this one
        // is still live so it lands on other pages: where the stream
        // lies in physical memory moved one process's grid times by
        // several percent against another's, and a copy per grid turns
        // that into grid-to-grid noise the medians remove. The
        // yardstick's table gets the same treatment.
        stream = materialize(&trace);
        stick = host::Yardstick::new(host::Access::Scattered);
        grids.push(wall);
        grid_cpu.push(cpu / points.len() as f64);
        shares.push(cpu / 1e9 / wall);
        yards.push(median_u64(&yard));
        parts.push(ns);
        tr.exit(s);
        out.attempted += 4 * points.len() as u64;
        match &first {
            None => first = Some(points),
            Some(f) => out.check(*f == points, "sweep: grids disagree across repeats"),
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = (host::cpu_ns(&[]) - cpu0) as f64 / 1e9;
    let points = first.expect("at least one grid");
    // Each part (the analysis, then every point) timed as its median
    // over the grids, so a host stall during one grid does not count.
    // The gated figures first scale each grid's wall times by the
    // grid's CPU share (time the hypervisor or another thread took does
    // not count) and to the reference speed by the median of the
    // yardstick samples taken after each of its points.
    let part_ms = |scale: &dyn Fn(usize) -> f64| -> Vec<f64> {
        (0..parts[0].len())
            .map(|k| {
                let v: Vec<f64> = parts
                    .iter()
                    .enumerate()
                    .map(|(g, p)| p[k] as f64 * scale(g))
                    .collect();
                median(&v) / 1e6
            })
            .collect()
    };
    let raw_ms = part_ms(&|_| 1.0);
    let norm_ms = part_ms(&|g| shares[g] * stick.reference_ns() / yards[g]);
    let sweep_s = raw_ms.iter().sum::<f64>() / 1e3;
    let norm_s = norm_ms.iter().sum::<f64>() / 1e3;
    out.put("sweep_s", sweep_s, "s");
    out.put("throughput_per_s", points.len() as f64 / norm_s, "1/s");
    out.put("p50_us", median(&norm_ms[1..]) * 1e3, "us");
    out.put("host.yardstick_scattered_us", median(&yards) / 1e3, "us");
    let mut point_ns: Vec<u64> = parts.iter().flat_map(|g| g[1..].iter().copied()).collect();
    point_ns.sort_unstable();
    match sample_quantile(&point_ns, 0.9) {
        Some(p90) => out.put("p90_us", p90 as f64 / 1e3, "us"),
        None => out.check(false, "sweep: too few points for p90"),
    }
    out.put("cpu_ns_per_op", median(&grid_cpu), "ns");
    out.put("rss_mib", host::peak_rss_mib(), "MiB");
    out.put(
        "core.dropped_slices",
        points.iter().map(|p| p.dropped).sum::<u64>() as f64,
        "count",
    );
    out.note(describe_samples("grid point", &point_ns, 1e3, "us"));
    out.note(format!(
        "host-normalized (each grid scaled by its CPU share {:?} and by {} us / its yardstick reading {:?} us): sweep_s = {norm_s:.4} s, {:.3} points/s, point p50 {:.1} us; as measured: {:.3} points/s, point p50 {:.1} us",
        shares.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        stick.reference_ns() / 1e3,
        yards.iter().map(|y| (y / 1e2).round() / 10.0).collect::<Vec<_>>(),
        points.len() as f64 / norm_s,
        median(&norm_ms[1..]) * 1e3,
        points.len() as f64 / sweep_s,
        median(&raw_ms[1..]) * 1e3,
    ));
    out.note(format!(
        "sweep_s = {sweep_s:.4} s per grid ({} points x 2 pipelines x 2 policies + OPT; each part's median over {} grids; whole grids took {:?} s)",
        points.len(),
        grids.len(),
        grids.iter().map(|g| (g * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    out.note(format!(
        "process CPU: {:.0} ns per grid point (median over grids), {:.1}% of a core over the grids",
        median(&grid_cpu),
        cpu / wall * 100.0
    ));

    let golden = if seed == CANONICAL_SEED {
        match std::fs::read_to_string(GOLDEN) {
            Ok(text) => Some(text),
            Err(e) => {
                out.check(false, format!("sweep: cannot read {GOLDEN}: {e}"));
                None
            }
        }
    } else {
        out.note(format!(
            "golden check skipped: seed {seed} is not {CANONICAL_SEED}"
        ));
        None
    };
    for v in check(&points, golden.as_deref()) {
        out.check(false, format!("sweep: {v}"));
    }
    if tr.on() {
        let ms = |name: &str| median_u64(&tr.durations(name)) / 1e6;
        out.put("offline.analyze_ms", ms("offline.analyze"), "ms");
        out.put("offline.query_us", ms("offline.query") * 1e3, "us");
        out.put("core.server_tail_ms", ms("core.server_tail"), "ms");
        out.put("core.server_greedy_ms", ms("core.server_greedy"), "ms");
        out.put("sim.simulate_tail_ms", ms("sim.simulate_tail"), "ms");
        out.put("sim.simulate_greedy_ms", ms("sim.simulate_greedy"), "ms");
        let n = grids.len() as f64;
        let total = |name: &str| tr.total(name) as f64 / n / 1e9;
        let server = total("core.server_tail") + total("core.server_greedy");
        let sim = total("sim.simulate_tail") + total("sim.simulate_greedy");
        let offline = total("offline.analyze") + total("offline.query");
        let whole = grids.iter().sum::<f64>() / n;
        let rest = whole - server - sim - offline;
        out.note(format!(
            "additivity (sweep, per grid): server-only {server:.4} s + simulate {sim:.4} s (of which {:.4} s link+client+record excess over server-only) + offline {offline:.4} s = {:.4} s vs sweep {whole:.4} s; shares {:.1}% / {:.1}% / {:.2}%, unattributed {:.2}%",
            sim - server,
            server + sim + offline,
            server / whole * 100.0,
            sim / whole * 100.0,
            offline / whole * 100.0,
            rest / whole * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> Point {
        Point {
            factor: 0,
            k: 1,
            buffer: 120,
            rate: 41,
            opt: 100,
            server: [90, 99],
            sim_buffer: 123,
            sim_opt: 101,
            sim: [91, 101],
            dropped: 3,
        }
    }

    const CSV: &str = "k_max_frames,buffer,optimal,tail_drop,greedy,regret_tail,regret_greedy\n1,120,100,90,99,1.1,1.0\n";

    #[test]
    fn checks_accept_a_clean_result() {
        assert_eq!(check(&[point()], Some(CSV)), Vec::<String>::new());
    }

    #[test]
    fn checks_reject_corrupted_results() {
        let mut p = point();
        p.server[1] = 101;
        assert!(check(&[p], None)
            .iter()
            .any(|v| v.contains("server-only greedy")));

        let mut p = point();
        p.sim[0] = 102;
        assert!(check(&[p], None)
            .iter()
            .any(|v| v.contains("simulate tail")));

        let mut p = point();
        p.opt = 99;
        p.server = [90, 98];
        assert!(check(&[p], Some(CSV))
            .iter()
            .any(|v| v.contains("golden row")));

        let two_rows = format!("{CSV}2,240,1,1,1,1.0,1.0\n");
        assert!(check(&[point()], Some(&two_rows))
            .iter()
            .any(|v| v.contains("golden table has 2 rows")));
    }

    #[test]
    fn traces_carry_the_canonical_byte_total() {
        let canonical = trace(CANONICAL_SEED);
        assert_eq!(
            canonical,
            MpegSource::new(MpegConfig::cnn_like(), CANONICAL_SEED).frames(FRAMES)
        );
        assert_eq!(canonical.total_bytes(), TRACE_BYTES);
        assert_eq!(canonical.max_frame_bytes(), BUFFER_UNIT);
        for seed in [1, 2, 3] {
            let t = trace(seed);
            assert!(t.total_bytes() >= TRACE_BYTES);
            assert!(t.total_bytes() < TRACE_BYTES + t.max_frame_bytes());
        }
    }

    #[test]
    fn simulate_is_compared_at_its_balanced_buffer() {
        // At B, simulate's buffer R·⌈B/R⌉ can exceed B, so OPT(B) may
        // fall below what simulate delivers: the comparison must use
        // OPT at simulate's own buffer.
        let trace = trace(CANONICAL_SEED);
        let stream = materialize(&trace);
        let mut ns = Vec::new();
        let mut tr = Tracer::new(false, Instant::now());
        let mut between = 0;
        let points = grid(&stream, &trace, &mut tr, &mut ns, || between += 1);
        assert_eq!(points.len(), 52);
        assert_eq!(between, 52);
        assert_eq!(ns.len(), 53);
        assert!(
            points.iter().any(|p| p.sim.iter().any(|&b| b > p.opt)),
            "the naive comparison against OPT(B) would fail somewhere"
        );
        assert!(points.iter().all(|p| p.sim_buffer >= p.buffer));
        assert_eq!(check(&points, None), Vec::<String>::new());
    }
}
