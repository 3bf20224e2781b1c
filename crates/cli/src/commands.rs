//! The `smoothctl` subcommands as pure, testable functions.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};

use rts_core::policy::{DropPolicy, GreedyByteValue, HeadDrop, RandomDrop, TailDrop};
use rts_core::tradeoff::{SmoothingParams, TradeoffClass};
use rts_core::ResyncPolicy;
use rts_faults::{simulate_faulted_probed, FaultPlan};
use rts_mux::{
    GreedyAcrossSessions, LinkScheduler, Mux, MuxReport, RoundRobin, SessionSpec, WeightedFair,
};
use rts_obs::{Collector, CsvTimeSeries, Event, JsonlWriter, NoopProbe, Probe};
use rts_offline::{min_lossless_delay, min_lossless_rate, peak_rate};
use rts_sim::{simulate, simulate_probed, SimConfig, SimReport};
use rts_stream::gen::{cbr, markov_onoff, MarkovOnOffConfig, MpegConfig, MpegSource};
use rts_stream::slicing::Slicing;
use rts_stream::weight::WeightAssignment;
use rts_stream::{textio, InputStream};

use crate::{Args, CliError, USAGE};

/// Executes a parsed command line against the filesystem and returns
/// the text to print.
///
/// # Errors
///
/// Returns [`CliError`] for usage problems, unreadable files, or
/// malformed traces.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.command() {
        "generate" => generate(args),
        "convert" => convert(args),
        "merge" => merge_cmd(args),
        "stats" => stats(args),
        "plan" => plan(args),
        "simulate" => simulate_cmd(args),
        "mux" => mux_cmd(args),
        "obs" => obs_cmd(args),
        "frontier" => frontier(args),
        "optimal" => optimal_cmd(args),
        "check" => check_cmd(args),
        "serve" => crate::serve::serve_cmd(args),
        "top" => crate::top::top_cmd(args),
        "snapshot" => crate::snapshot::snapshot_cmd(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::usage(format!(
            "unknown subcommand '{other}' (try 'smoothctl help')"
        ))),
    }
}

fn load(path: &str) -> Result<InputStream, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    Ok(textio::parse_stream(&text)?)
}

/// The optional observability sinks behind `--trace-out` (JSONL event
/// trace) and `--metrics-out` (per-slot CSV time series). Relative
/// paths land under `$RESULTS_DIR` when that is set.
struct OutProbe {
    trace: Option<(String, JsonlWriter<BufWriter<File>>)>,
    series: Option<(String, CsvTimeSeries<BufWriter<File>>)>,
}

impl OutProbe {
    fn from_args(args: &Args) -> Result<OutProbe, CliError> {
        let open = |path: &str| -> Result<(String, BufWriter<File>), CliError> {
            let resolved = rts_obs::resolve_out_path(std::path::Path::new(path))
                .display()
                .to_string();
            let sink = rts_obs::create_sink(std::path::Path::new(path))
                .map_err(|e| CliError::io(&resolved, e))?;
            Ok((resolved, sink))
        };
        let trace = match args.opt("trace-out") {
            Some(p) => {
                let (resolved, sink) = open(p)?;
                Some((resolved, JsonlWriter::new(sink)))
            }
            None => None,
        };
        let series = match args.opt("metrics-out") {
            Some(p) => {
                let (resolved, sink) = open(p)?;
                Some((resolved, CsvTimeSeries::new(sink)))
            }
            None => None,
        };
        Ok(OutProbe { trace, series })
    }

    /// Flushes both sinks, surfacing any write error latched during the
    /// run, and appends a "wrote ..." line per sink to `out`.
    fn finish(self, out: &mut String) -> Result<(), CliError> {
        if let Some((path, writer)) = self.trace {
            let events = writer.lines();
            writer
                .finish()
                .and_then(|mut w| w.flush())
                .map_err(|e| CliError::io(&path, e))?;
            let _ = writeln!(out, "trace:         wrote {path} ({events} events)");
        }
        if let Some((path, writer)) = self.series {
            let rows = writer.rows();
            writer
                .finish()
                .and_then(|mut w| w.flush())
                .map_err(|e| CliError::io(&path, e))?;
            let _ = writeln!(out, "metrics:       wrote {path} ({rows} slots)");
        }
        Ok(())
    }
}

impl Probe for OutProbe {
    fn enabled(&self) -> bool {
        self.trace.is_some() || self.series.is_some()
    }

    fn on_event(&mut self, event: &Event) {
        if let Some((_, w)) = &mut self.trace {
            w.on_event(event);
        }
        if let Some((_, w)) = &mut self.series {
            w.on_event(event);
        }
    }
}

fn obs_cmd(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "event-trace file (JSONL)")?;
    let file = File::open(path).map_err(|e| CliError::io(path, e))?;
    let mut collector = Collector::new();
    let events = rts_obs::replay(std::io::BufReader::new(file), &mut collector)
        .map_err(|e| CliError::events(path, e))?;
    let mut out = format!("replayed {path}: {events} events\n");
    out.push_str(&collector.summary());
    Ok(out)
}

fn parse_slicing(spec: &str) -> Result<Slicing, CliError> {
    match spec {
        "byte" => Ok(Slicing::PerByte),
        "frame" => Ok(Slicing::WholeFrame),
        other => match other.strip_prefix("chunk:") {
            Some(n) => {
                let n: u64 = n
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad chunk size in {other:?}")))?;
                if n == 0 {
                    return Err(CliError::usage("chunk size must be positive"));
                }
                Ok(Slicing::Chunks(n))
            }
            None => Err(CliError::usage(format!(
                "unknown slicing {other:?} (byte|frame|chunk:N)"
            ))),
        },
    }
}

fn parse_weights(spec: &str) -> Result<WeightAssignment, CliError> {
    match spec {
        "mpeg" => Ok(WeightAssignment::MPEG_12_8_1),
        "uniform" => Ok(WeightAssignment::Uniform(1)),
        "size" => Ok(WeightAssignment::BySize),
        other => Err(CliError::usage(format!(
            "unknown weights {other:?} (mpeg|uniform|size)"
        ))),
    }
}

fn generate(args: &Args) -> Result<String, CliError> {
    let out = args
        .opt("out")
        .ok_or_else(|| CliError::usage("generate needs --out FILE"))?;
    let frames: usize = args.opt_or("frames", 600)?;
    let seed: u64 = args.opt_or("seed", 1)?;
    let slicing = parse_slicing(args.opt("slicing").unwrap_or("frame"))?;
    let weights = parse_weights(args.opt("weights").unwrap_or("mpeg"))?;
    let trace = match args.opt("kind").unwrap_or("mpeg") {
        "mpeg" => MpegSource::new(MpegConfig::cnn_like(), seed).frames(frames),
        "markov" => markov_onoff(
            MarkovOnOffConfig {
                on_size: args.opt_or("on-size", 80)?,
                off_size: args.opt_or("off-size", 10)?,
                p_on_to_off: 0.05,
                p_off_to_on: 0.02,
            },
            frames,
            seed,
        ),
        "cbr" => cbr(frames, args.opt_or("size", 38)?),
        other => {
            return Err(CliError::usage(format!(
                "unknown kind {other:?} (mpeg|markov|cbr)"
            )))
        }
    };
    let stream = trace.materialize(slicing, weights);
    std::fs::write(out, textio::write_stream(&stream)).map_err(|e| CliError::io(out, e))?;
    Ok(format!(
        "wrote {out}: {} frames, {} slices, {} bytes, weight {}\n",
        stream.frame_count(),
        stream.slice_count(),
        stream.total_bytes(),
        stream.total_weight()
    ))
}

fn convert(args: &Args) -> Result<String, CliError> {
    let input = args.positional(0, "frame-size file")?;
    let out = args
        .opt("out")
        .ok_or_else(|| CliError::usage("convert needs --out FILE"))?;
    let slicing = parse_slicing(args.opt("slicing").unwrap_or("frame"))?;
    let weights = parse_weights(args.opt("weights").unwrap_or("mpeg"))?;
    let text = std::fs::read_to_string(input).map_err(|e| CliError::io(input, e))?;
    let trace = textio::parse_frame_sizes(&text)?;
    let stream = trace.materialize(slicing, weights);
    std::fs::write(out, textio::write_stream(&stream)).map_err(|e| CliError::io(out, e))?;
    Ok(format!(
        "converted {input} -> {out}: {} frames, {} slices, {} bytes\n",
        stream.frame_count(),
        stream.slice_count(),
        stream.total_bytes()
    ))
}

fn merge_cmd(args: &Args) -> Result<String, CliError> {
    let out = args
        .opt("out")
        .ok_or_else(|| CliError::usage("merge needs --out FILE"))?;
    let mut inputs = Vec::new();
    let mut i = 0;
    while let Ok(path) = args.positional(i, "input trace") {
        inputs.push(load(path)?);
        i += 1;
    }
    if inputs.len() < 2 {
        return Err(CliError::usage("merge needs at least two input traces"));
    }
    let merged = rts_stream::merge(&inputs);
    std::fs::write(out, textio::write_stream(&merged.stream)).map_err(|e| CliError::io(out, e))?;
    Ok(format!(
        "merged {} traces -> {out}: {} frames, {} slices, {} bytes\n",
        inputs.len(),
        merged.stream.frame_count(),
        merged.stream.slice_count(),
        merged.stream.total_bytes()
    ))
}

fn stats(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "trace file")?;
    let stream = load(path)?;
    let st = stream.stats();
    let mut out = String::new();
    let _ = writeln!(out, "trace: {path}");
    let _ = writeln!(out, "frames:        {}", st.frame_count);
    let _ = writeln!(out, "slices:        {}", st.slice_count);
    let _ = writeln!(out, "bytes:         {}", st.total_bytes);
    let _ = writeln!(out, "weight:        {}", st.total_weight);
    let _ = writeln!(out, "avg rate:      {:.2} bytes/step", st.average_rate);
    let _ = writeln!(out, "max frame:     {} bytes", st.max_frame_bytes);
    let _ = writeln!(out, "max slice:     {} bytes (Lmax)", st.max_slice_bytes);
    if st.average_rate > 0.0 {
        let _ = writeln!(
            out,
            "peak/mean:     {:.2}",
            st.max_frame_bytes as f64 / st.average_rate
        );
    }
    for kind in rts_stream::FrameKind::MPEG {
        let frac = st.frame_fraction(kind);
        if frac > 0.0 {
            let _ = writeln!(out, "{kind} frames:      {:.1}%", frac * 100.0);
        }
    }
    Ok(out)
}

fn plan(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "trace file")?;
    let stream = load(path)?;
    let link_delay: u64 = args.opt_or("link-delay", 0)?;
    let params = match (
        args.opt_parse::<u64>("delay")?,
        args.opt_parse::<u64>("rate")?,
    ) {
        (Some(d), None) => {
            let rate = min_lossless_rate(&stream, d);
            SmoothingParams::balanced_from_rate_delay(rate.max(1), d, link_delay)
        }
        (None, Some(r)) => {
            let d = min_lossless_delay(&stream, r)
                .ok_or_else(|| CliError::usage("rate below the stream's long-run need"))?;
            SmoothingParams::balanced_from_rate_delay(r, d, link_delay)
        }
        _ => {
            return Err(CliError::usage(
                "plan needs exactly one of --delay D or --rate R",
            ))
        }
    };
    let mut out = String::new();
    let st = stream.stats();
    let _ = writeln!(
        out,
        "trace: {path} (avg {:.1}, peak frame {})",
        st.average_rate,
        peak_rate(&stream)
    );
    let _ = writeln!(out, "lossless plan (B = R*D, Theorem 3.5):");
    let _ = writeln!(out, "  link rate R:       {} bytes/step", params.rate);
    let _ = writeln!(out, "  smoothing delay D: {} steps", params.delay);
    let _ = writeln!(
        out,
        "  buffers B:         {} bytes at server AND client",
        params.buffer
    );
    let _ = writeln!(
        out,
        "  playout latency:   {} steps (P + D)",
        params.playout_latency()
    );
    let class = match params.classify() {
        TradeoffClass::Balanced => "balanced".to_string(),
        TradeoffClass::ExcessDelay { reducible_to } => {
            format!("delay reducible to {reducible_to}")
        }
        TradeoffClass::ExcessBuffer { reducible_to } => {
            format!("buffer reducible to {reducible_to}")
        }
    };
    let _ = writeln!(out, "  classification:    {class}");
    Ok(out)
}

fn report_text(report: &SimReport) -> String {
    let m = &report.metrics;
    let mut out = String::new();
    let _ = writeln!(out, "policy:        {}", report.policy);
    let _ = writeln!(
        out,
        "played:        {} / {} bytes ({} / {} slices)",
        m.played_bytes,
        m.offered_bytes,
        m.played_slices,
        m.played_slices + m.server_dropped_slices + m.client_dropped_slices
    );
    let _ = writeln!(
        out,
        "benefit:       {} / {} (weighted loss {:.2}%)",
        m.benefit,
        m.offered_weight,
        m.weighted_loss() * 100.0
    );
    let _ = writeln!(out, "server drops:  {} slices", m.server_dropped_slices);
    let _ = writeln!(
        out,
        "client drops:  {} slices {:?}",
        m.client_dropped_slices, m.client_drop_reasons
    );
    let server = report.record.server_occupancy_summary();
    let client = report.record.client_occupancy_summary();
    let _ = writeln!(
        out,
        "server occ:    p50 {} / p99 {} / max {}",
        server.p50, server.p99, server.max
    );
    let _ = writeln!(
        out,
        "client occ:    p50 {} / p99 {} / max {}",
        client.p50, client.p99, client.max
    );
    out
}

fn simulate_cmd(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "trace file")?;
    let stream = load(path)?;
    let params = SmoothingParams {
        buffer: args.require("buffer")?,
        rate: args.require("rate")?,
        delay: args.require("delay")?,
        link_delay: args.opt_or("link-delay", 0)?,
    };
    if params.rate == 0 {
        return Err(CliError::usage("--rate must be positive"));
    }
    let seed: u64 = args.opt_or("seed", 0)?;
    let mut config = SimConfig {
        client_capacity: args.opt_parse("client-buffer")?,
        ..SimConfig::new(params)
    };
    if let Some(spec) = args.opt("resync") {
        config = config.with_resync(parse_resync(spec)?);
    }
    let policy = parse_policy_box(args.opt("policy").unwrap_or("greedy"), seed)?;
    let mut probe = OutProbe::from_args(args)?;
    let report = match args.opt("faults") {
        Some(spec) => {
            let plan = FaultPlan::parse(spec, seed).map_err(|e| CliError::usage(e.to_string()))?;
            simulate_faulted_probed(&stream, config, plan, policy, &mut probe)
        }
        None => simulate_probed(&stream, config, policy, &mut probe),
    };
    let mut out = report_text(&report);
    probe.finish(&mut out)?;
    if let Some(path) = args.opt("timeline") {
        let mut csv =
            String::from("time,server_occupancy,client_occupancy,sent_bytes,link_in_flight\n");
        for s in report.record.steps() {
            csv.push_str(&format!(
                "{},{},{},{},{}\n",
                s.time, s.server_occupancy, s.client_occupancy, s.sent_bytes, s.link_in_flight
            ));
        }
        std::fs::write(path, csv).map_err(|e| CliError::io(path, e))?;
        out.push_str(&format!("timeline:      wrote {path}\n"));
    }
    Ok(out)
}

fn parse_policy_box(name: &str, seed: u64) -> Result<Box<dyn DropPolicy>, CliError> {
    match name {
        "greedy" => Ok(Box::new(GreedyByteValue::new())),
        "tail" => Ok(Box::new(TailDrop::new())),
        "head" => Ok(Box::new(HeadDrop::new())),
        "random" => Ok(Box::new(RandomDrop::new(seed))),
        other => Err(CliError::usage(format!(
            "unknown policy {other:?} (greedy|tail|head|random)"
        ))),
    }
}

fn parse_scheduler(name: &str) -> Result<Box<dyn LinkScheduler>, CliError> {
    match name {
        "rr" | "round-robin" => Ok(Box::new(RoundRobin::new())),
        "wfq" | "weighted-fair" => Ok(Box::new(WeightedFair::new())),
        "greedy" => Ok(Box::new(GreedyAcrossSessions::new())),
        other => Err(CliError::usage(format!(
            "unknown scheduler {other:?} (rr|wfq|greedy)"
        ))),
    }
}

fn parse_resync(spec: &str) -> Result<ResyncPolicy, CliError> {
    let bad = || CliError::usage(format!("bad --resync {spec:?} (want SKEW/CATCHUP, e.g. 8/1)"));
    let (skew, catchup) = spec.split_once(['/', ':']).ok_or_else(bad)?;
    let skew: u64 = skew.trim().parse().map_err(|_| bad())?;
    let catchup: u64 = catchup.trim().parse().map_err(|_| bad())?;
    Ok(ResyncPolicy::new(skew, catchup))
}

fn parse_overbook(spec: &str) -> Result<(u64, u64), CliError> {
    let bad = || CliError::usage(format!("bad --overbook {spec:?} (want NUM/DEN, e.g. 5/4)"));
    let (num, den) = spec.split_once(['/', ':']).ok_or_else(bad)?;
    let num: u64 = num.trim().parse().map_err(|_| bad())?;
    let den: u64 = den.trim().parse().map_err(|_| bad())?;
    if den == 0 {
        return Err(CliError::usage("--overbook denominator must be positive"));
    }
    Ok((num, den))
}

fn mux_cmd(args: &Args) -> Result<String, CliError> {
    // Sessions come from trace files, or a generated MPEG-like demo set.
    let mut streams: Vec<(String, InputStream)> = Vec::new();
    let mut i = 0;
    while let Ok(path) = args.positional(i, "input trace") {
        streams.push((path.to_string(), load(path)?));
        i += 1;
    }
    let seed: u64 = args.opt_or("seed", 1)?;
    if streams.is_empty() {
        let k: usize = args.opt_or("sessions", 3)?;
        if k == 0 {
            return Err(CliError::usage("--sessions must be positive"));
        }
        let frames: usize = args.opt_or("frames", 300)?;
        for j in 0..k {
            let stream = MpegSource::new(MpegConfig::cnn_like(), seed + j as u64)
                .frames(frames)
                .materialize(Slicing::PerByte, WeightAssignment::MPEG_12_8_1);
            streams.push((format!("mpeg-{j}"), stream));
        }
    }
    let factor: f64 = args.opt_or("factor", 0.9)?;
    if factor <= 0.0 {
        return Err(CliError::usage("--factor must be positive"));
    }
    let delay: u64 = args.opt_or("delay", 8)?;
    let link_delay: u64 = args.opt_or("link-delay", 0)?;
    let rates: Vec<u64> = streams
        .iter()
        .map(|(_, s)| s.stats().rate_at(factor).max(1))
        .collect();
    let link_rate: u64 = args.opt_or("link-rate", rates.iter().sum())?;
    let (num, den) = parse_overbook(args.opt("overbook").unwrap_or("1/1"))?;
    let total_offered: u64 = streams.iter().map(|(_, s)| s.total_weight()).sum();
    if total_offered == 0 {
        return Err(CliError::usage("all input traces are empty"));
    }
    let faults: Option<FaultPlan> = match args.opt("faults") {
        Some(spec) => {
            Some(FaultPlan::parse(spec, seed).map_err(|e| CliError::usage(e.to_string()))?)
        }
        None => None,
    };
    let resync: Option<ResyncPolicy> = match args.opt("resync") {
        Some(spec) => Some(parse_resync(spec)?),
        None => None,
    };

    // One shared-link run: admit every session, then step to completion.
    let shared = |scheduler: Box<dyn LinkScheduler>,
                  policy_name: &str,
                  probe: &mut dyn Probe|
     -> Result<MuxReport, CliError> {
        let mut mux = Mux::with_overbooking(link_rate, scheduler, num, den);
        for (idx, ((label, s), &r)) in streams.iter().zip(&rates).enumerate() {
            let params = SmoothingParams::balanced_from_rate_delay(r, delay, link_delay);
            let mut spec = SessionSpec::new(s.clone(), params, parse_policy_box(policy_name, seed)?)
                .with_weight(r)
                .with_label(label.clone());
            if let Some(plan) = &faults {
                // Each session gets its own deterministic jitter stream.
                spec = spec.with_faults(plan.clone().with_seed(seed.wrapping_add(idx as u64)));
            }
            if let Some(policy) = resync {
                spec = spec.with_resync(policy);
            }
            mux.admit(spec).map_err(|e| {
                CliError::usage(format!(
                    "session '{label}' rejected: {e} (raise --link-rate or --overbook)"
                ))
            })?;
        }
        Ok(mux.run_probed(&mut &mut *probe))
    };
    // Dedicated baseline: each session alone on a link of its nominal rate.
    let dedicated = |policy_name: &str| -> Result<f64, CliError> {
        let mut delivered = 0u64;
        for ((_, s), &r) in streams.iter().zip(&rates) {
            let params = SmoothingParams::balanced_from_rate_delay(r, delay, link_delay);
            delivered += simulate(s, SimConfig::new(params), parse_policy_box(policy_name, seed)?)
                .metrics
                .benefit;
        }
        Ok(1.0 - delivered as f64 / total_offered as f64)
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "mux: {} sessions, shared link C = {link_rate} (nominal rates {:?}), D = {delay}, \
         admission x{num}/{den}",
        streams.len(),
        rates
    );
    if args.opt("scheduler").is_some() || args.opt("policy").is_some() {
        // Detailed single run.
        let mut probe = OutProbe::from_args(args)?;
        let sched = parse_scheduler(args.opt("scheduler").unwrap_or("rr"))?;
        let policy = args.opt("policy").unwrap_or("greedy");
        let report = shared(sched, policy, &mut probe)?;
        probe.finish(&mut out)?;
        let _ = writeln!(out, "scheduler:     {}", report.scheduler);
        let _ = writeln!(
            out,
            "{:>12} {:>6} {:>8} {:>12} {:>12} {:>8} {:>10} {:>9}",
            "session", "rate", "B", "offered_w", "played_w", "loss%", "drops", "occ/B"
        );
        for (m, &r) in report.sessions.iter().zip(&rates) {
            let _ = writeln!(
                out,
                "{:>12} {:>6} {:>8} {:>12} {:>12} {:>8.2} {:>10} {:>4}/{}",
                m.label,
                r,
                m.buffer_capacity,
                m.offered_weight,
                m.delivered_weight,
                m.weighted_loss() * 100.0,
                m.server_dropped_slices + m.client_dropped_slices,
                m.server_occupancy_max,
                m.buffer_capacity
            );
        }
        let _ = writeln!(
            out,
            "aggregate:     weighted loss {:.2}%, link util {:.4}, peak slot {} / {link_rate}",
            report.weighted_loss() * 100.0,
            report.utilization(),
            report.max_slot_sent()
        );
    } else {
        // Comparison: every scheduler x {tail, greedy} vs dedicated links.
        if args.opt("trace-out").is_some() || args.opt("metrics-out").is_some() {
            return Err(CliError::usage(
                "--trace-out/--metrics-out need a single run: add --scheduler and/or --policy",
            ));
        }
        let policies = ["tail", "greedy"];
        let mut ded = Vec::new();
        for p in policies {
            ded.push((p, dedicated(p)?));
        }
        let _ = writeln!(
            out,
            "{:>22} {:>8} {:>15} {:>12} {:>10}",
            "scheduler", "policy", "dedicated_loss%", "shared_loss%", "link_util"
        );
        for sched_key in ["rr", "wfq", "greedy"] {
            for p in policies {
                let report = shared(parse_scheduler(sched_key)?, p, &mut NoopProbe)?;
                let ded_loss = ded.iter().find(|(q, _)| *q == p).map_or(0.0, |(_, l)| *l);
                let _ = writeln!(
                    out,
                    "{:>22} {:>8} {:>15.2} {:>12.2} {:>10.4}",
                    report.scheduler,
                    p,
                    ded_loss * 100.0,
                    report.weighted_loss() * 100.0,
                    report.utilization()
                );
            }
        }
    }
    Ok(out)
}

fn frontier(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "trace file")?;
    let stream = load(path)?;
    let delays: Vec<u64> = match args.opt("delays") {
        Some(spec) => spec
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse::<u64>()
                    .map_err(|_| CliError::usage(format!("bad delay {tok:?} in --delays")))
            })
            .collect::<Result<_, _>>()?,
        None => vec![0, 1, 2, 4, 8, 16, 32, 64],
    };
    let mut out = String::new();
    let avg = stream.stats().average_rate;
    let _ = writeln!(out, "lossless frontier of {path} (avg rate {avg:.1}):");
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>10}",
        "delay", "min rate", "rate/avg", "B = R*D"
    );
    for d in delays {
        let r = min_lossless_rate(&stream, d);
        let _ = writeln!(
            out,
            "{d:>8} {r:>10} {:>12.3} {:>10}",
            if avg > 0.0 { r as f64 / avg } else { 0.0 },
            r * d
        );
    }
    Ok(out)
}

/// Parses a comma-separated `u64` list option (`--buffers 0,8,64`).
fn parse_u64_list(what: &str, spec: &str) -> Result<Vec<u64>, CliError> {
    spec.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<u64>()
                .map_err(|_| CliError::usage(format!("bad value {tok:?} in --{what}")))
        })
        .collect()
}

fn optimal_cmd(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "trace file")?;
    let stream = load(path)?;
    let sweep = rts_offline::OptimalSweep::new(&stream)
        .map_err(|e| CliError::usage(format!("{path}: {e} ('optimal' needs unit slices; regenerate with --slicing byte)")))?;
    let total = stream.total_weight();
    let offered = stream.slice_count() as u64;

    // One warm sweep answers every point: --buffers at a fixed --rate
    // (the default axis), or --rates at a fixed --buffer.
    let rate_axis = args.opt("rates");
    let (points, axis): (Vec<(u64, u64)>, &str) = match rate_axis {
        Some(spec) => {
            let buffer: u64 = args.require("buffer")?;
            let rates = parse_u64_list("rates", spec)?;
            if rates.contains(&0) {
                return Err(CliError::usage("--rates entries must be positive"));
            }
            (rates.into_iter().map(|r| (buffer, r)).collect(), "rate")
        }
        None => {
            let rate: u64 = args.require("rate")?;
            if rate == 0 {
                return Err(CliError::usage("--rate must be positive"));
            }
            let buffers = match args.opt("buffers") {
                Some(spec) => parse_u64_list("buffers", spec)?,
                None => vec![0, 1, 2, 4, 8, 16, 32, 64, 128, 256],
            };
            (buffers.into_iter().map(|b| (b, rate)).collect(), "buffer")
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "offline optimum of {path} ({offered} unit slices, total weight {total}):"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>6} {:>12} {:>9} {:>12} {:>9}",
        "buffer", "rate", "benefit", "benefit%", "throughput", "loss%"
    );
    for (b, r) in points {
        let benefit = sweep.benefit(b, r);
        let tp = sweep.throughput(b, r);
        let kept = if total > 0 {
            benefit as f64 / total as f64
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "{b:>8} {r:>6} {benefit:>12} {:>8.2}% {tp:>12} {:>8.2}%",
            100.0 * kept,
            100.0 * (1.0 - kept)
        );
    }
    let _ = writeln!(
        out,
        "(exact optima via the dense chain solver, warm-started across the {axis} sweep)"
    );
    Ok(out)
}

/// Parses a seed that may be decimal or `0x`-prefixed hex (the form the
/// failure reports print).
fn parse_seed(what: &str, v: &str) -> Result<u64, CliError> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse::<u64>(),
    };
    parsed.map_err(|_| CliError::usage(format!("{what}: cannot parse seed {v:?}")))
}

fn check_cmd(args: &Args) -> Result<String, CliError> {
    if args.positional(0, "").map(|p| p == "list").unwrap_or(false) {
        return Ok(rts_check::list_checks());
    }
    let cases: u64 = args.opt_or("cases", 100)?;
    let seed: u64 = args.opt_or("seed", 1)?;
    let filter = args.opt("filter");
    // Replay mode: --case-seed wins, else the CHECK_SEED environment
    // variable (the exact form a failure report prints).
    let case_seed = match args.opt("case-seed") {
        Some(v) => Some(parse_seed("--case-seed", v)?),
        None => match std::env::var("CHECK_SEED") {
            Ok(v) => Some(parse_seed("CHECK_SEED", &v)?),
            Err(_) => None,
        },
    };
    if case_seed.is_some() && filter.is_none() {
        return Err(CliError::usage(
            "replaying a CHECK_SEED needs --filter NAME (the failing check)",
        ));
    }
    let mut cfg = rts_check::CheckConfig::new(cases, seed);
    if let Some(s) = case_seed {
        cfg = cfg.with_case_seed(s);
    }
    let report = rts_check::run_checks(&cfg, filter);
    if report.ok() {
        Ok(report.text)
    } else {
        Err(CliError::Check {
            failed: report.failed.len(),
            report: report.text,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("smoothctl_test_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn run_line(line: &[&str]) -> Result<String, CliError> {
        run(&Args::parse(line.iter().copied()).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let out = run_line(&["help"]).unwrap();
        assert!(out.contains("smoothctl"));
        assert!(out.contains("frontier"));
    }

    #[test]
    fn unknown_subcommand() {
        let e = run_line(&["bogus"]).unwrap_err();
        assert!(e.to_string().contains("unknown subcommand 'bogus'"));
    }

    #[test]
    fn generate_stats_plan_simulate_frontier_roundtrip() {
        let file = tmp("roundtrip");
        let out = run_line(&[
            "generate",
            "--out",
            &file,
            "--kind",
            "mpeg",
            "--frames",
            "120",
            "--seed",
            "9",
            "--slicing",
            "frame",
        ])
        .unwrap();
        assert!(out.contains("120 frames"));

        let out = run_line(&["stats", &file]).unwrap();
        assert!(out.contains("avg rate"));
        assert!(out.contains("I frames"));

        let out = run_line(&["plan", &file, "--delay", "8"]).unwrap();
        assert!(out.contains("lossless plan"));
        assert!(out.contains("balanced"));

        let out = run_line(&[
            "simulate", &file, "--buffer", "400", "--rate", "40", "--delay", "10", "--policy",
            "greedy",
        ])
        .unwrap();
        assert!(out.contains("policy:        Greedy"));
        assert!(out.contains("weighted loss"));

        let out = run_line(&["frontier", &file, "--delays", "0,4,16"]).unwrap();
        assert_eq!(out.lines().count(), 2 + 3);

        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn optimal_sweeps_buffers_and_rates() {
        let file = tmp("optimal");
        run_line(&[
            "generate", "--out", &file, "--frames", "60", "--seed", "3", "--slicing", "byte",
        ])
        .unwrap();
        let out = run_line(&["optimal", &file, "--rate", "40", "--buffers", "0,8,64"]).unwrap();
        assert_eq!(out.lines().count(), 2 + 3 + 1, "{out}");
        assert!(out.contains("warm-started"));
        // A generous rate sweep ends lossless: the last row reads 0.00%.
        let out = run_line(&["optimal", &file, "--buffer", "4096", "--rates", "1,200"]).unwrap();
        assert_eq!(out.lines().count(), 2 + 2 + 1, "{out}");
        let last_row = out.lines().nth(3).unwrap();
        assert!(last_row.trim_end().ends_with("0.00%"), "{last_row}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn optimal_rejects_bad_inputs() {
        let file = tmp("optimal_bad");
        run_line(&[
            "generate", "--out", &file, "--frames", "30", "--slicing", "frame",
        ])
        .unwrap();
        // Whole-frame slices are not unit slices.
        let e = run_line(&["optimal", &file, "--rate", "40"]).unwrap_err();
        assert!(e.to_string().contains("unit slices"), "{e}");
        let _ = std::fs::remove_file(&file);

        let file = tmp("optimal_bad2");
        run_line(&[
            "generate", "--out", &file, "--frames", "30", "--slicing", "byte",
        ])
        .unwrap();
        assert!(run_line(&["optimal", &file]).is_err()); // no axis at all
        assert!(run_line(&["optimal", &file, "--rate", "0"]).is_err());
        assert!(run_line(&["optimal", &file, "--rates", "10,0", "--buffer", "8"]).is_err());
        assert!(run_line(&["optimal", &file, "--rates", "10"]).is_err()); // missing --buffer
        assert!(run_line(&["optimal", &file, "--rate", "9", "--buffers", "1,x"]).is_err());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn generate_markov_and_cbr() {
        let file = tmp("kinds");
        for kind in ["markov", "cbr"] {
            let out = run_line(&[
                "generate",
                "--out",
                &file,
                "--kind",
                kind,
                "--frames",
                "50",
                "--slicing",
                "chunk:8",
                "--weights",
                "size",
            ])
            .unwrap();
            assert!(out.contains("50 frames"), "{kind}: {out}");
        }
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn generate_rejects_bad_inputs() {
        assert!(run_line(&["generate"]).is_err()); // missing --out
        assert!(run_line(&["generate", "--out", "x", "--kind", "avi"]).is_err());
        assert!(run_line(&["generate", "--out", "x", "--slicing", "chunk:0"]).is_err());
        assert!(run_line(&["generate", "--out", "x", "--weights", "gold"]).is_err());
    }

    #[test]
    fn plan_needs_exactly_one_of_rate_delay() {
        let file = tmp("plan");
        run_line(&["generate", "--out", &file, "--frames", "30"]).unwrap();
        assert!(run_line(&["plan", &file]).is_err());
        assert!(run_line(&["plan", &file, "--delay", "2", "--rate", "9"]).is_err());
        let by_rate = run_line(&["plan", &file, "--rate", "200"]).unwrap();
        assert!(by_rate.contains("link rate R:       200"));
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn simulate_rejects_bad_policy_and_zero_rate() {
        let file = tmp("sim");
        run_line(&["generate", "--out", &file, "--frames", "20"]).unwrap();
        let e = run_line(&[
            "simulate", &file, "--buffer", "5", "--rate", "0", "--delay", "1",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("--rate must be positive"));
        let e = run_line(&[
            "simulate", &file, "--buffer", "5", "--rate", "2", "--delay", "1", "--policy", "yolo",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("unknown policy"));
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn merge_combines_traces() {
        let a = tmp("merge_a");
        let b = tmp("merge_b");
        let out = tmp("merge_out");
        run_line(&["generate", "--out", &a, "--frames", "20", "--seed", "1"]).unwrap();
        run_line(&["generate", "--out", &b, "--frames", "30", "--seed", "2"]).unwrap();
        let msg = run_line(&["merge", &a, &b, "--out", &out]).unwrap();
        assert!(msg.contains("merged 2 traces"));
        assert!(msg.contains("30 frames"));
        let stats = run_line(&["stats", &out]).unwrap();
        assert!(stats.contains("slices:        50"));
        assert!(run_line(&["merge", &a, "--out", &out]).is_err()); // one input
        for f in [&a, &b, &out] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn convert_ingests_raw_sizes() {
        let sizes = tmp("sizes");
        let out = tmp("converted");
        std::fs::write(&sizes, "I 120\n38\nB 12\n").unwrap();
        let msg = run_line(&["convert", &sizes, "--out", &out, "--slicing", "byte"]).unwrap();
        assert!(msg.contains("3 frames"));
        assert!(msg.contains("170 bytes"));
        let stats = run_line(&["stats", &out]).unwrap();
        assert!(stats.contains("bytes:         170"));
        assert!(run_line(&["convert", &sizes]).is_err()); // missing --out
        let _ = std::fs::remove_file(&sizes);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn simulate_timeline_export() {
        let file = tmp("timeline_trace");
        let timeline = tmp("timeline_csv");
        run_line(&["generate", "--out", &file, "--frames", "30"]).unwrap();
        let out = run_line(&[
            "simulate",
            &file,
            "--buffer",
            "100",
            "--rate",
            "40",
            "--delay",
            "3",
            "--timeline",
            &timeline,
        ])
        .unwrap();
        assert!(out.contains("timeline:"));
        let csv = std::fs::read_to_string(&timeline).unwrap();
        assert!(csv.starts_with("time,server_occupancy"));
        assert!(csv.lines().count() > 30);
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_file(&timeline);
    }

    #[test]
    fn mux_demo_compares_schedulers_and_policies() {
        let out = run_line(&["mux", "--sessions", "2", "--frames", "60"]).unwrap();
        assert!(out.contains("mux: 2 sessions"), "{out}");
        for name in ["Round-Robin", "Weighted-Fair", "Greedy-Across-Sessions"] {
            assert_eq!(out.matches(name).count(), 2, "{name} x 2 policies: {out}");
        }
        // header + 3 schedulers x 2 policies + banner
        assert_eq!(out.lines().count(), 2 + 6);
    }

    #[test]
    fn mux_single_run_reports_per_session() {
        let out = run_line(&[
            "mux", "--sessions", "3", "--frames", "60", "--scheduler", "wfq", "--policy", "tail",
        ])
        .unwrap();
        assert!(out.contains("scheduler:     Weighted-Fair"), "{out}");
        assert_eq!(out.matches("mpeg-").count(), 3, "{out}");
        assert!(out.contains("aggregate:"), "{out}");
    }

    #[test]
    fn mux_accepts_trace_files() {
        let file = tmp("mux_trace");
        run_line(&["generate", "--out", &file, "--frames", "40", "--slicing", "byte"]).unwrap();
        let out = run_line(&[
            "mux", &file, &file, "--scheduler", "rr", "--factor", "1.1", "--delay", "4",
        ])
        .unwrap();
        assert!(out.contains("mux: 2 sessions"), "{out}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn mux_rejects_bad_inputs() {
        assert!(run_line(&["mux", "--sessions", "0"]).is_err());
        assert!(run_line(&["mux", "--scheduler", "fifo", "--frames", "10"]).is_err());
        assert!(run_line(&["mux", "--overbook", "3", "--frames", "10"]).is_err());
        assert!(run_line(&["mux", "--overbook", "1/0", "--frames", "10"]).is_err());
        // A link far below the nominal sum trips admission control.
        let e = run_line(&["mux", "--frames", "40", "--link-rate", "1"]).unwrap_err();
        assert!(e.to_string().contains("rejected"), "{e}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = run_line(&["stats", "/nonexistent/definitely/missing.txt"]).unwrap_err();
        assert!(matches!(e, CliError::Io { .. }));
    }

    #[test]
    fn simulate_trace_out_roundtrips_through_obs() {
        let file = tmp("obs_trace");
        let events = tmp("obs_events");
        let series = tmp("obs_series");
        run_line(&["generate", "--out", &file, "--frames", "40"]).unwrap();
        let out = run_line(&[
            "simulate",
            &file,
            "--buffer",
            "200",
            "--rate",
            "40",
            "--delay",
            "5",
            "--trace-out",
            &events,
            "--metrics-out",
            &series,
        ])
        .unwrap();
        assert!(out.contains("trace:         wrote"), "{out}");
        assert!(out.contains("metrics:       wrote"), "{out}");

        let csv = std::fs::read_to_string(&series).unwrap();
        assert!(csv.starts_with(rts_obs::CSV_HEADER), "{csv}");

        let summary = run_line(&["obs", &events]).unwrap();
        assert!(summary.contains("replayed"), "{summary}");
        assert!(summary.contains("sojourn"), "{summary}");
        for f in [&file, &events, &series] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn mux_single_run_writes_trace() {
        let events = tmp("mux_events");
        let out = run_line(&[
            "mux", "--sessions", "2", "--frames", "40", "--scheduler", "rr", "--trace-out",
            &events,
        ])
        .unwrap();
        assert!(out.contains("trace:         wrote"), "{out}");
        let summary = run_line(&["obs", &events]).unwrap();
        assert!(summary.contains("sessions=2"), "{summary}");
        let _ = std::fs::remove_file(&events);
    }

    #[test]
    fn mux_comparison_mode_rejects_trace_out() {
        let e = run_line(&["mux", "--frames", "10", "--trace-out", "x.jsonl"]).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e}");
    }

    #[test]
    fn obs_rejects_missing_and_malformed_traces() {
        let e = run_line(&["obs", "/no/such/trace.jsonl"]).unwrap_err();
        assert!(matches!(e, CliError::Io { .. }));
        assert!(e.to_string().contains("/no/such/trace.jsonl"));

        let bad = tmp("obs_bad");
        std::fs::write(&bad, "{\"ev\":\"run_start\",\"t\":0,\"sessions\":1}\nnot json\n").unwrap();
        let e = run_line(&["obs", &bad]).unwrap_err();
        assert!(matches!(e, CliError::Events { .. }), "{e}");
        assert!(e.to_string().contains("line 2"), "{e}");
        let _ = std::fs::remove_file(&bad);
    }
}
