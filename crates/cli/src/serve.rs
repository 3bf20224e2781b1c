//! `smoothctl serve`: run the sharded smoothing daemon.
//!
//! Three workload sources compose freely:
//!
//! * `--sessions K` — K loopback CBR sessions admitted at startup
//!   (the capacity-smoke configuration: no sockets involved);
//! * `--replay TRACE.jsonl` — sessions reconstructed from a recorded
//!   `--trace-out` event trace, admitted as scheduled arrivals;
//! * `--listen tcp:HOST:PORT` / `--listen uds:PATH` — a frame-protocol
//!   ingest socket, served for `--run-secs` seconds.
//!
//! The run ends when every session has retired (finite sources) or
//! when `--run-secs` elapses; whatever is still live is then drained
//! (evicted with `--evict-on-exit true`). The exit ledger is printed
//! and, with `--trace-out`, lifecycle events (`session_joined`,
//! `session_retired`, `ingest_rejected`) land in JSONL for
//! `smoothctl obs`.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rts_obs::{JsonlWriter, Probe};
use rts_smoothd::{
    replay_sessions, serve_tcp_with, AdmitRequest, ArrivalSource, Daemon, DaemonConfig,
    DaemonReport, IngestConfig, IngestServer, QueuedSlice, RebalanceConfig, SlotPacing, WirePolicy,
};
use rts_telemetry::{render_exposition, MetricsServer};

use crate::{Args, CliError};

/// Where `--listen` points.
enum Listen {
    Tcp(String),
    #[cfg_attr(not(unix), allow(dead_code))]
    Uds(String),
}

fn parse_listen(spec: &str) -> Result<Listen, CliError> {
    if let Some(addr) = spec.strip_prefix("tcp:") {
        return Ok(Listen::Tcp(addr.to_string()));
    }
    if let Some(path) = spec.strip_prefix("uds:") {
        return Ok(Listen::Uds(path.to_string()));
    }
    Err(CliError::usage(format!(
        "option --listen: expected tcp:HOST:PORT or uds:PATH, got {spec:?}"
    )))
}

fn parse_overbook(spec: &str) -> Result<(u64, u64), CliError> {
    let bad = || CliError::usage(format!("option --overbook: expected NUM/DEN, got {spec:?}"));
    let (num, den) = spec.split_once('/').ok_or_else(bad)?;
    let num: u64 = num.parse().map_err(|_| bad())?;
    let den: u64 = den.parse().map_err(|_| bad())?;
    if num == 0 || den == 0 || num < den {
        return Err(CliError::usage(format!(
            "option --overbook: NUM/DEN must be >= 1 with both nonzero, got {spec:?}"
        )));
    }
    Ok((num, den))
}

fn parse_policy(spec: &str) -> Result<WirePolicy, CliError> {
    match spec {
        "tail" => Ok(WirePolicy::Tail),
        "head" => Ok(WirePolicy::Head),
        "greedy" => Ok(WirePolicy::Greedy),
        other => Err(CliError::usage(format!(
            "option --policy: expected tail|head|greedy, got {other:?}"
        ))),
    }
}

fn start_listener(
    daemon: Arc<Mutex<Daemon>>,
    listen: &Listen,
    ingest: IngestConfig,
) -> Result<(IngestServer, String), CliError> {
    match listen {
        Listen::Tcp(addr) => {
            let server = serve_tcp_with(daemon, addr, ingest).map_err(|e| CliError::io(addr, e))?;
            let bound = server
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|| addr.clone());
            Ok((server, format!("tcp:{bound}")))
        }
        #[cfg(unix)]
        Listen::Uds(path) => {
            let server = rts_smoothd::serve_uds_with(daemon, std::path::Path::new(path), ingest)
                .map_err(|e| CliError::io(path, e))?;
            Ok((server, format!("uds:{path}")))
        }
        #[cfg(not(unix))]
        Listen::Uds(path) => Err(CliError::io(
            path,
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ),
        )),
    }
}

/// Executes `smoothctl serve`.
pub(crate) fn serve_cmd(args: &Args) -> Result<String, CliError> {
    let sessions: u64 = args.opt_or("sessions", 0)?;
    let rate: u64 = args.opt_or("rate", 8)?;
    let delay: u64 = args.opt_or("delay", 4)?;
    let link_delay: u64 = args.opt_or("link-delay", 1)?;
    let slice_size: u64 = args.opt_or("slice-size", rate.max(1))?;
    let per_slot: u64 = args.opt_or("per-slot", rate)?;
    let lifetime: u64 = args.opt_or("lifetime", 256)?;
    let shards: u32 = args.opt_or("shards", 0)?;
    let queue: usize = args.opt_or("queue", 1024)?;
    let ingest_threads: usize =
        args.opt_or("ingest-threads", rts_smoothd::DEFAULT_INGEST_THREADS)?;
    let slot_us: u64 = args.opt_or("slot-us", 0)?;
    let run_secs: f64 = args.opt_or("run-secs", 0.0)?;
    let policy = parse_policy(args.opt("policy").unwrap_or("tail"))?;
    let overbook = match args.opt("overbook") {
        Some(s) => parse_overbook(s)?,
        None => (1, 1),
    };
    let listen = args.opt("listen").map(parse_listen).transpose()?;
    if rate == 0 {
        return Err(CliError::usage("option --rate: must be positive"));
    }
    if sessions == 0
        && listen.is_none()
        && args.opt("replay").is_none()
        && args.opt("restore").is_none()
    {
        return Err(CliError::usage(
            "nothing to serve: give --sessions, --replay, --restore, and/or --listen",
        ));
    }

    let mut cfg = DaemonConfig {
        queue_capacity: queue.max(1),
        // --slot-us selects absolute-deadline pacing: the realized
        // slot period holds at the configured value (work permitting)
        // with misses accounted, instead of drifting by work time.
        pacing: if slot_us > 0 {
            SlotPacing::Deadline(Duration::from_micros(slot_us))
        } else {
            SlotPacing::Free
        },
        record_events: args.opt("trace-out").is_some(),
        overbook,
        // --rebalance true turns on skew-aware migration.
        rebalance: RebalanceConfig {
            enabled: args.opt("rebalance") == Some("true"),
        },
        ..DaemonConfig::default()
    };
    if shards > 0 {
        cfg.shards = shards;
    }
    // Default the per-shard link to exactly what the loopback workload
    // books, so --sessions alone always fits regardless of core count.
    cfg.shard_link_rate = match args.opt_parse::<u64>("shard-link-rate")? {
        Some(r) => r,
        None => {
            let per_shard = sessions.div_ceil(u64::from(cfg.shards.max(1)));
            (rate * per_shard.max(1)).max(1 << 16)
        }
    };

    let started = Instant::now();
    let mut daemon = Daemon::start(cfg.clone());
    let mut out = String::new();

    // --restore loads a snapshot image into the fresh daemon before
    // any new workload is admitted. All-or-nothing: a torn or corrupt
    // file (or one that does not fit this daemon's capacity) refuses
    // the whole start, so a rolling restart never half-loads.
    let mut restored: u64 = 0;
    if let Some(path) = args.opt("restore") {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                daemon.shutdown(false);
                return Err(CliError::io(path, e));
            }
        };
        match daemon.restore(&bytes) {
            Ok(n) => {
                restored = n;
                let _ = writeln!(out, "restored:      {n} session(s) from {path}");
            }
            Err(e) => {
                daemon.shutdown(false);
                return Err(CliError::io(
                    path,
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()),
                ));
            }
        }
    }

    // The exposition listener reads the registry directly, so it works
    // in every mode — loopback, replay, and socket ingest alike — and
    // keeps serving fresh snapshots without the daemon mutex.
    let metrics = match args.opt("metrics-addr") {
        Some(addr) => {
            let registry = daemon.registry();
            let render = Arc::new(move || render_exposition(&registry.snapshot()));
            match MetricsServer::serve(addr, render) {
                Ok(server) => {
                    let _ = writeln!(out, "metrics:       tcp:{}", server.local_addr());
                    Some(server)
                }
                Err(e) => {
                    daemon.shutdown(false);
                    return Err(CliError::io(addr, e));
                }
            }
        }
        None => None,
    };

    let req = AdmitRequest {
        rate,
        delay,
        link_delay,
        buffer: 0, // balanced B = R·D
        weight: 1,
        policy,
        per_slot: u32::try_from(per_slot)
            .map_err(|_| CliError::usage("option --per-slot: too large"))?,
        slice_size: u32::try_from(slice_size)
            .map_err(|_| CliError::usage("option --slice-size: too large"))?,
        lifetime,
    };

    // --skew true pins every loopback admission onto shard 0 instead
    // of placing it on the widest residual, building the deliberately
    // unbalanced population the rebalancer exists to fix (CI's
    // migration smoke uses this).
    let skew = args.opt("skew") == Some("true");
    let mut admitted: u64 = 0;
    let mut rejected: u64 = 0;
    for _ in 0..sessions {
        let outcome = if skew {
            daemon.admit_pinned(&req, 0).map(|id| (id, 0))
        } else {
            daemon.admit(&req)
        };
        match outcome {
            Ok(_) => admitted += 1,
            Err(_) => rejected += 1,
        }
    }

    // Restored sessions keep whatever sources they were checkpointed
    // with (often unbounded); never block the exit on their
    // retirement — shutdown's drain settles them either way.
    let mut unbounded = (sessions > 0 && lifetime == 0) || restored > 0;
    if let Some(path) = args.opt("replay") {
        let file = std::fs::File::open(path).map_err(|e| CliError::io(path, e))?;
        let replayed = replay_sessions(std::io::BufReader::new(file))
            .map_err(|e| CliError::events(path, e))?;
        if replayed.is_empty() {
            // Lifecycle-only traces (serve's own --trace-out) carry no
            // slice_admitted events; silently serving nothing would
            // read as success.
            return Err(CliError::events(
                path,
                rts_obs::ReplayError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "trace has no slice_admitted events to replay \
                     (record one with `smoothctl simulate --trace-out` or `mux --trace-out`)",
                )),
            ));
        }
        for session in replayed {
            let slices: Vec<QueuedSlice> = session.slices;
            match daemon.admit_with_source(&req, ArrivalSource::scheduled(slices)) {
                Ok(_) => admitted += 1,
                Err(_) => rejected += 1,
            }
        }
    }

    let listener = match &listen {
        Some(spec) => {
            // The daemon moves behind a mutex for the ingest threads;
            // admissions over the socket may be unbounded CBR.
            unbounded = true;
            let shared = Arc::new(Mutex::new(daemon));
            let ingest = IngestConfig {
                threads: ingest_threads.max(1),
            };
            let (server, bound) = match start_listener(Arc::clone(&shared), spec, ingest) {
                Ok(ok) => ok,
                Err(e) => {
                    // Tear the workers down before surfacing the error.
                    let d = Arc::try_unwrap(shared)
                        .map(|m| m.into_inner().expect("daemon mutex"))
                        .unwrap_or_else(|_| unreachable!("listener never started"));
                    d.shutdown(false);
                    return Err(e);
                }
            };
            let _ = writeln!(
                out,
                "listening:     {bound} ({} ingest thread(s))",
                server.pool_threads()
            );
            let deadline = Instant::now() + Duration::from_secs_f64(run_secs.max(0.05));
            while Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
                shared.lock().expect("daemon mutex").poll();
            }
            server.stop();
            daemon = Arc::try_unwrap(shared)
                .map(|m| m.into_inner().expect("daemon mutex"))
                .unwrap_or_else(|_| panic!("ingest threads still hold the daemon"));
            true
        }
        None => false,
    };

    if !listener && run_secs > 0.0 {
        // Poll on the same cadence as the socket loop so the
        // rebalancer (and event harvest) runs during the window, not
        // just once at the end.
        let deadline = Instant::now() + Duration::from_secs_f64(run_secs);
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            daemon.poll();
        }
    }

    // Finite workloads: wait for full retirement so the exit ledger
    // conserves exactly. Unbounded ones get drained at shutdown.
    let drained = if unbounded {
        false
    } else {
        let budget = Duration::from_secs_f64((run_secs + 60.0).min(600.0));
        daemon.wait_idle(budget)
    };
    let evict = args.opt("evict-on-exit") == Some("true");
    let stats = daemon.stats();
    let migrations = daemon.registry().snapshot().migrations;
    let mut events = Vec::new();
    daemon.poll();
    daemon.take_events(&mut events);
    let report = daemon.shutdown(!evict);
    if let Some(mut server) = metrics {
        server.stop();
    }

    render(
        &mut out,
        &cfg,
        &report,
        admitted,
        rejected,
        stats.sessions,
        drained,
        started.elapsed(),
    );
    if migrations > 0 {
        let _ = writeln!(out, "rebalance:     {migrations} migration(s)");
    }

    if let Some(path) = args.opt("trace-out") {
        let resolved = rts_obs::resolve_out_path(std::path::Path::new(path))
            .display()
            .to_string();
        let sink = rts_obs::create_sink(std::path::Path::new(path))
            .map_err(|e| CliError::io(&resolved, e))?;
        let mut writer = JsonlWriter::new(sink);
        for ev in &events {
            writer.on_event(ev);
        }
        let lines = writer.lines();
        writer
            .finish()
            .and_then(|mut w| std::io::Write::flush(&mut w))
            .map_err(|e| CliError::io(&resolved, e))?;
        let _ = writeln!(out, "trace:         wrote {resolved} ({lines} events)");
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn render(
    out: &mut String,
    cfg: &DaemonConfig,
    report: &DaemonReport,
    admitted: u64,
    rejected: u64,
    live_at_stop: u64,
    drained: bool,
    elapsed: Duration,
) {
    let t = &report.totals;
    let _ = writeln!(
        out,
        "daemon:        {} shard(s), link {} B/slot each, overbook {}/{}",
        report.shards.len(),
        cfg.shard_link_rate,
        cfg.overbook.0,
        cfg.overbook.1
    );
    let _ = writeln!(
        out,
        "sessions:      admitted {admitted}, rejected {rejected}, retired {}, live at stop {}",
        report.retired_sessions, live_at_stop
    );
    let _ = writeln!(
        out,
        "slots:         {} total across shards ({})",
        report.total_slots(),
        if drained { "drained" } else { "stopped" }
    );
    let _ = writeln!(
        out,
        "ledger:        offered {} B = played {} + server-drop {} + client-drop {} + evicted {}",
        t.offered_bytes,
        t.played_bytes,
        t.server_dropped_bytes,
        t.client_dropped_bytes,
        t.evicted_bytes
    );
    let secs = elapsed.as_secs_f64().max(1e-9);
    let _ = writeln!(
        out,
        "throughput:    {:.0} slices/s played, {:.0} slot-steps/s, wall {:.2}s",
        t.played_slices as f64 / secs,
        report.total_slots() as f64 / secs,
        secs
    );
    if report.latency.count() > 0 {
        let _ = writeln!(
            out,
            "slot latency:  p50 {} ns, p99 {} ns, max {} ns",
            report.latency.quantile(0.50),
            report.latency.quantile(0.99),
            report.latency.max()
        );
    }
    if let SlotPacing::Deadline(period) = cfg.pacing {
        let misses: u64 = report.shards.iter().map(|s| s.deadline_misses).sum();
        let overruns: u64 = report.shards.iter().map(|s| s.slot_overruns).sum();
        let _ = writeln!(
            out,
            "pacing:        deadline {} us/slot, {misses} deadline miss(es), {overruns} overrun(s)",
            period.as_micros()
        );
    }
    if report.rejects.iter().any(|&n| n > 0) {
        let breakdown = report
            .rejects_by_reason()
            .map(|(reason, n)| format!("{}={n}", reason.name()))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "rejects:       {breakdown}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        Args::parse(argv.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn loopback_sessions_drain_and_conserve() {
        let args = parse(&[
            "serve", "--sessions", "12", "--rate", "4", "--delay", "3", "--lifetime", "20",
            "--shards", "2",
        ]);
        let out = serve_cmd(&args).unwrap();
        assert!(out.contains("admitted 12, rejected 0, retired 12"), "{out}");
        assert!(out.contains("(drained)"), "{out}");
        // Exact conservation: everything offered was played.
        let ledger = out.lines().find(|l| l.starts_with("ledger:")).unwrap();
        assert!(
            ledger.contains("played 960 + server-drop 0 + client-drop 0 + evicted 0"),
            "{ledger}"
        );
    }

    #[test]
    fn paced_loopback_prints_pacing_line_and_serves_metrics() {
        let args = parse(&[
            "serve",
            "--sessions",
            "4",
            "--rate",
            "4",
            "--delay",
            "3",
            "--lifetime",
            "10",
            "--shards",
            "1",
            "--slot-us",
            "500",
            "--metrics-addr",
            "127.0.0.1:0",
        ]);
        let out = serve_cmd(&args).unwrap();
        assert!(out.contains("admitted 4, rejected 0, retired 4"), "{out}");
        assert!(out.contains("pacing:        deadline 500 us/slot"), "{out}");
        assert!(out.contains("metrics:       tcp:127.0.0.1:"), "{out}");
    }

    #[test]
    fn metrics_endpoint_serves_parseable_exposition() {
        use rts_telemetry::{parse_exposition, series_value};
        use std::io::{Read as _, Write as _};

        // Drive the daemon pieces directly so the scrape happens while
        // the metrics listener is up and counters are final.
        let cfg = DaemonConfig {
            shards: 1,
            shard_link_rate: 64,
            overbook: (1, 1),
            queue_capacity: 64,
            pacing: SlotPacing::Deadline(Duration::from_micros(200)),
            record_events: false,
            rebalance: Default::default(),
        };
        let mut daemon = Daemon::start(cfg);
        let registry = daemon.registry();
        let render = Arc::new(move || render_exposition(&registry.snapshot()));
        let mut server = MetricsServer::serve("127.0.0.1:0", render).unwrap();
        let req = AdmitRequest {
            rate: 4,
            delay: 3,
            link_delay: 1,
            buffer: 0,
            weight: 1,
            policy: WirePolicy::Tail,
            per_slot: 4,
            slice_size: 1,
            lifetime: 10,
        };
        for _ in 0..3 {
            daemon.admit(&req).unwrap();
        }
        assert!(daemon.wait_idle(Duration::from_secs(20)));
        daemon.poll();

        let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut text = String::new();
        conn.read_to_string(&mut text).unwrap();
        let body = text.split("\r\n\r\n").nth(1).expect("http body");
        let parsed = parse_exposition(body).expect("exposition parses");
        assert_eq!(
            series_value(&parsed, "smoothd_retired_total"),
            Some(3.0),
            "{body}"
        );
        let slots = series_value(&parsed, "smoothd_slots_total{shard=\"0\"}").unwrap();
        assert!(slots >= 10.0, "paced shard stepped its slots: {slots}");

        server.stop();
        daemon.shutdown(true);
    }

    #[test]
    fn skewed_loopback_run_migrates_and_reports_it() {
        // All 32 sessions pinned onto shard 0 of 2; the rebalancer must
        // move some across during the run and the summary must say so.
        let args = parse(&[
            "serve", "--sessions", "32", "--rate", "4", "--delay", "3", "--lifetime", "0",
            "--shards", "2", "--skew", "true", "--rebalance", "true", "--run-secs", "1.5",
            "--evict-on-exit", "true",
        ]);
        let out = serve_cmd(&args).unwrap();
        assert!(out.contains("admitted 32, rejected 0"), "{out}");
        let line = out
            .lines()
            .find(|l| l.starts_with("rebalance:"))
            .unwrap_or_else(|| panic!("no rebalance line in:\n{out}"));
        let n: u64 = line
            .split_whitespace()
            .nth(1)
            .and_then(|w| w.parse().ok())
            .unwrap_or(0);
        assert!(n >= 1, "{line}");
    }

    #[test]
    fn nothing_to_serve_is_a_usage_error() {
        let e = serve_cmd(&parse(&["serve"])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn malformed_listen_and_overbook_are_usage_errors() {
        let e = serve_cmd(&parse(&["serve", "--sessions", "1", "--listen", "443"])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        let e =
            serve_cmd(&parse(&["serve", "--sessions", "1", "--overbook", "half"])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        let e = serve_cmd(&parse(&["serve", "--sessions", "1", "--policy", "lifo"])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn unbindable_listen_address_is_an_io_error() {
        let e = serve_cmd(&parse(&[
            "serve",
            "--sessions",
            "1",
            "--listen",
            "tcp:256.0.0.1:0",
        ]))
        .unwrap_err();
        assert_eq!(e.exit_code(), 1);
    }

    #[test]
    fn missing_replay_trace_is_an_io_error() {
        let e = serve_cmd(&parse(&["serve", "--replay", "/nonexistent/trace.jsonl"])).unwrap_err();
        assert_eq!(e.exit_code(), 1);
    }

    #[test]
    fn sliceless_replay_trace_is_a_loud_error() {
        // A lifecycle-only trace (what serve's own --trace-out writes)
        // reconstructs zero sessions; serving nothing must not look
        // like success.
        let dir = std::env::temp_dir().join(format!("serve-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lifecycle.jsonl");
        std::fs::write(
            &path,
            "{\"ev\":\"session_joined\",\"t\":0,\"session\":1,\"shard\":0,\"rate\":4}\n",
        )
        .unwrap();
        let e = serve_cmd(&parse(&["serve", "--replay", path.to_str().unwrap()])).unwrap_err();
        assert_eq!(e.exit_code(), 1);
        assert!(e.to_string().contains("no slice_admitted events"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
