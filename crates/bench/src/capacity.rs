//! The smoothd capacity ramp behind `BENCH_capacity.json`.
//!
//! Each rung starts a fresh daemon, admits N identical lightweight CBR
//! sessions (unbounded lifetime, `B = R·D` balanced buffers) through
//! the batched admission path, lets the shard workers free-run for a
//! fixed wall window, and reports the sustained played-slices/second
//! together with the per-slot wall latency quantiles from the shard
//! workers' own histograms. Rungs are keyed by `(sessions, shards,
//! workload)`: the 100k rung runs at 1, 2, and 4 shards plus a
//! deliberately skewed 2-shard variant (every session pinned onto one
//! shard, the live rebalancer pulling the population level before the
//! window opens), so the suite records the shards-vs-throughput
//! scaling curve and not just single-core capacity. The full ramp
//! climbs to one million resident sessions; smoke mode keeps short
//! windows for parse checks, and check mode stops at 100k so the
//! regression gate stays fast.
//!
//! Two side measurements ride along:
//!
//! * [`admit_bench`] — the control-plane admission phase, sequential
//!   `admit()` loop vs one `admit_batch()` call, whose speedup the
//!   regression gate holds at `>= 5x`;
//! * [`ingest_soak`] — thousands of concurrent sockets greeted by the
//!   fixed ingest pool, with the OS thread count sampled before and
//!   while holding them (the multiplexed pool must not grow by even
//!   one thread per connection).
//!
//! Numbers are whole-daemon (admission placement, command queues, fair
//! grants, playout rings), not a microbenchmark of one loop: the suite
//! exists to catch order-of-magnitude capacity regressions.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rts_smoothd::{
    encode_frame, serve_tcp, AdmitRequest, Daemon, DaemonConfig, Frame, FrameReader,
    RebalanceConfig, WirePolicy, PROTOCOL_VERSION,
};

/// Per-session reserved rate (bytes per slot) for the ramp workload.
pub const SESSION_RATE: u64 = 4;

/// One ramp rung's measurements.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Sessions requested.
    pub sessions: u64,
    /// Shard (worker) count for this rung.
    pub shards: u32,
    /// `"uniform"` (one batch admission, spread by placement) or
    /// `"skewed"` (all sessions pinned onto shard 0, rebalancer
    /// enabled).
    pub workload: &'static str,
    /// Sessions actually resident during the window (must equal
    /// `sessions`: the per-shard link is provisioned to fit them all).
    pub resident: u64,
    /// Wall time spent admitting them, nanoseconds.
    pub admit_ns: u64,
    /// Control-plane admission throughput: `sessions / admit_ns`.
    pub admit_sessions_per_sec: f64,
    /// Completed live migrations (nonzero only for skewed rungs).
    pub migrations: u64,
    /// Measurement window, nanoseconds.
    pub measure_ns: u64,
    /// Shard slots processed inside the window.
    pub slots: u64,
    /// Slices played inside the window.
    pub played_slices: u64,
    /// Sustained throughput: `played_slices / window`.
    pub slices_per_sec: f64,
    /// Median per-slot wall latency over the whole run, nanoseconds.
    pub p50_slot_ns: u64,
    /// 99th-percentile per-slot wall latency, nanoseconds.
    pub p99_slot_ns: u64,
    /// Worst per-slot wall latency, nanoseconds.
    pub max_slot_ns: u64,
}

/// Sequential-vs-batched admission phase comparison.
#[derive(Debug, Clone)]
pub struct AdmitBench {
    /// Sessions admitted by each arm.
    pub sessions: u64,
    /// Wall time for the one-`admit()`-per-session loop, nanoseconds.
    pub sequential_ns: u64,
    /// Wall time for the single `admit_batch()` call, nanoseconds.
    pub batch_ns: u64,
    /// `sequential_ns / batch_ns` (the gate holds this at `>= 5`).
    pub speedup: f64,
}

/// Concurrent-socket soak against the multiplexed ingest pool.
#[derive(Debug, Clone)]
pub struct IngestSoak {
    /// Sockets opened and held concurrently.
    pub sockets: u64,
    /// Sockets that completed the Hello/Welcome handshake.
    pub welcomed: u64,
    /// Readiness-loop threads the pool was configured with.
    pub pool_threads: u64,
    /// OS threads in this process after the listener started but
    /// before any client connected.
    pub threads_before: u64,
    /// OS threads while every socket was connected and greeted. The
    /// pool model demands `threads_during <= threads_before`: no
    /// thread is ever spawned per connection.
    pub threads_during: u64,
}

/// The whole ramp's results, ready for JSON serialization.
#[derive(Debug, Clone)]
pub struct Suite {
    /// `"full"`, `"smoke"`, or `"check"`.
    pub mode: &'static str,
    /// CPU cores the machine offered (`available_parallelism`); the
    /// multi-shard scaling gate only binds when this is `>= 2`.
    pub cores: u32,
    /// Rungs in ramp order.
    pub rungs: Vec<Rung>,
    /// The admission-phase comparison.
    pub admit: AdmitBench,
    /// The concurrent-socket soak.
    pub soak: IngestSoak,
}

fn ramp_request() -> AdmitRequest {
    AdmitRequest {
        rate: SESSION_RATE,
        delay: 4,
        link_delay: 1,
        buffer: 0, // balanced B = R·D
        weight: 1,
        policy: WirePolicy::Tail,
        per_slot: SESSION_RATE as u32,
        slice_size: SESSION_RATE as u32,
        lifetime: 0, // unbounded: pure steady state
    }
}

fn rung_config(sessions: u64, shards: u32, skewed: bool) -> DaemonConfig {
    DaemonConfig {
        shards,
        // Provision each shard's link for its worst-case share of the
        // workload: an even split under placement, the whole
        // population when pinned (the skewed rung must fit everything
        // on the donor and everything the rebalancer hands over on
        // the receiver).
        shard_link_rate: {
            let share = if skewed {
                sessions
            } else {
                sessions.div_ceil(u64::from(shards.max(1)))
            };
            (SESSION_RATE * share).max(1 << 16)
        },
        queue_capacity: 4096,
        record_events: false,
        rebalance: RebalanceConfig { enabled: skewed },
        ..DaemonConfig::default()
    }
}

fn measure_rung(
    sessions: u64,
    shards: u32,
    workload: &'static str,
    window: Duration,
    warmup: Duration,
) -> Rung {
    let skewed = workload == "skewed";
    let mut daemon = Daemon::start(rung_config(sessions, shards, skewed));
    let req = ramp_request();
    let t_admit = Instant::now();
    if skewed {
        // Maximal imbalance: every session lands on shard 0.
        for _ in 0..sessions {
            daemon
                .admit_pinned(&req, 0)
                .expect("donor link provisioned for the whole rung");
        }
    } else {
        let batch = daemon
            .admit_batch(&req, sessions)
            .expect("link provisioned for the whole rung");
        assert_eq!(batch.admitted, sessions, "batched admission truncated");
    }
    let admit_ns = t_admit.elapsed().as_nanos() as u64;
    // Admission bookkeeping is synchronous but session creation rides
    // the shard command queues, so residency lags `admit()` at the top
    // rungs: wait until every session has materialized before timing.
    let settle = Instant::now();
    while daemon.live_sessions() < sessions && settle.elapsed() < Duration::from_secs(300) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let resident = daemon.live_sessions();
    if skewed {
        // Let the rebalancer pull the skew inside its own hysteresis
        // band (donor <= 1.5x receiver) before measuring, so the rung
        // reports post-rebalance steady state.
        let settle = Instant::now();
        loop {
            daemon.poll();
            let detail = daemon.stats_detail();
            let max = detail.shards.iter().map(|s| s.sessions).max().unwrap_or(0);
            let min = detail.shards.iter().map(|s| s.sessions).min().unwrap_or(0);
            if max * 2 <= min * 3 || settle.elapsed() > Duration::from_secs(60) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    std::thread::sleep(warmup);

    let s0 = daemon.stats();
    let t0 = Instant::now();
    if skewed {
        // Keep the control plane polling, as a serving daemon does, so
        // the rebalancer stays live while the window runs.
        while t0.elapsed() < window {
            std::thread::sleep(Duration::from_millis(10));
            daemon.poll();
        }
    } else {
        std::thread::sleep(window);
    }
    let mut s1 = daemon.stats();
    // A single slot at the million-session rung takes a large fraction
    // of a second; extend past the nominal window until enough slots
    // complete that the rate is never computed over an empty sample.
    const MIN_SLOTS: u64 = 4;
    while s1.slots - s0.slots < MIN_SLOTS && t0.elapsed() < Duration::from_secs(120) {
        std::thread::sleep(Duration::from_millis(20));
        s1 = daemon.stats();
    }
    let measure_ns = t0.elapsed().as_nanos() as u64;
    daemon.poll();
    let migrations = daemon.migrations();

    let report = daemon.shutdown(false); // evict: sources are unbounded
    let played_slices = s1.slices_played - s0.slices_played;
    Rung {
        sessions,
        shards,
        workload,
        resident,
        admit_ns,
        admit_sessions_per_sec: sessions as f64 / (admit_ns as f64 / 1e9),
        migrations,
        measure_ns,
        slots: s1.slots - s0.slots,
        played_slices,
        slices_per_sec: played_slices as f64 / (measure_ns as f64 / 1e9),
        p50_slot_ns: report.latency.quantile(0.50),
        p99_slot_ns: report.latency.quantile(0.99),
        max_slot_ns: report.latency.max(),
    }
}

/// Times the admission phase both ways on fresh single-shard daemons:
/// one `admit()` per session against a single `admit_batch()` call.
/// The arms alternate over three rounds and each keeps its fastest
/// round, so a burst of host load slows one round, not the ratio.
pub fn admit_bench(sessions: u64) -> AdmitBench {
    let time_arm = |batched: bool| -> u64 {
        let mut daemon = Daemon::start(rung_config(sessions, 1, false));
        let req = ramp_request();
        let t = Instant::now();
        if batched {
            let batch = daemon.admit_batch(&req, sessions).expect("provisioned");
            assert_eq!(batch.admitted, sessions, "batched admission truncated");
        } else {
            for _ in 0..sessions {
                daemon.admit(&req).expect("provisioned");
            }
        }
        let ns = t.elapsed().as_nanos() as u64;
        daemon.shutdown(false);
        ns
    };
    let (mut sequential_ns, mut batch_ns) = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        sequential_ns = sequential_ns.min(time_arm(false));
        batch_ns = batch_ns.min(time_arm(true).max(1));
    }
    AdmitBench {
        sessions,
        sequential_ns,
        batch_ns,
        speedup: sequential_ns as f64 / batch_ns as f64,
    }
}

/// OS thread count of this process (Linux `/proc`; 0 where absent).
fn os_thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Opens `sockets` concurrent connections against a live ingest
/// listener, completes every Hello/Welcome handshake, and samples the
/// process thread count while holding them all open.
pub fn ingest_soak(sockets: usize) -> IngestSoak {
    let daemon = Daemon::start(DaemonConfig {
        shards: 1,
        shard_link_rate: 1 << 16,
        queue_capacity: 1024,
        record_events: false,
        ..DaemonConfig::default()
    });
    let shared = Arc::new(Mutex::new(daemon));
    let server = serve_tcp(Arc::clone(&shared), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("tcp listener has an address");
    let threads_before = os_thread_count();

    // Connect everything and pipeline the handshakes: all Hellos out,
    // then all Welcomes in (a serial request/response loop would
    // measure the client, not the pool).
    let hello = encode_frame(&Frame::Hello {
        version: PROTOCOL_VERSION,
    });
    let mut conns = Vec::with_capacity(sockets);
    for _ in 0..sockets {
        let mut stream = TcpStream::connect(addr).expect("loopback connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        stream.write_all(&hello).expect("send hello");
        conns.push(stream);
    }
    let mut welcomed = 0u64;
    let mut buf = [0u8; 256];
    for stream in &mut conns {
        let mut reader = FrameReader::new();
        loop {
            match reader.next_frame().expect("well-formed greeting") {
                Some(Frame::Welcome { .. }) => {
                    welcomed += 1;
                    break;
                }
                Some(other) => panic!("expected Welcome, got {other:?}"),
                None => {}
            }
            let n = stream.read(&mut buf).expect("read greeting");
            assert!(n > 0, "server closed a soak connection");
            reader.extend(&buf[..n]);
        }
    }
    let threads_during = os_thread_count();
    let pool_threads = server.pool_threads() as u64;

    drop(conns);
    server.stop();
    let daemon = Arc::try_unwrap(shared)
        .map(|m| m.into_inner().expect("daemon mutex"))
        .unwrap_or_else(|_| panic!("ingest threads still hold the daemon"));
    daemon.shutdown(false);
    IngestSoak {
        sockets: sockets as u64,
        welcomed,
        pool_threads,
        threads_before,
        threads_during,
    }
}

/// Runs the ramp. `mode` is `"full"` (to 1M sessions, 4k-socket
/// soak), `"smoke"` (short windows, small soak; numbers are for parse
/// checks only), or `"check"` (full windows, stops at 100k for the
/// regression gate).
pub fn run(mode: &'static str) -> Suite {
    type Plan = (&'static [(u64, u32, &'static str)], Duration, Duration, u64, usize);
    let (rungs, window, warmup, admit_sessions, soak_sockets): Plan = match mode {
        "full" => (
            &[
                (1_000, 1, "uniform"),
                (10_000, 1, "uniform"),
                (100_000, 1, "uniform"),
                (100_000, 2, "uniform"),
                (100_000, 4, "uniform"),
                (100_000, 2, "skewed"),
                (1_000_000, 1, "uniform"),
            ],
            Duration::from_millis(2_000),
            Duration::from_millis(200),
            1_000_000,
            4_096,
        ),
        "check" => (
            &[
                (1_000, 1, "uniform"),
                (10_000, 1, "uniform"),
                (100_000, 1, "uniform"),
                (100_000, 2, "uniform"),
                (100_000, 2, "skewed"),
            ],
            Duration::from_millis(2_000),
            Duration::from_millis(200),
            100_000,
            4_096,
        ),
        "smoke" => (
            &[(1_000, 1, "uniform"), (100_000, 2, "skewed")],
            Duration::from_millis(300),
            Duration::from_millis(50),
            10_000,
            512,
        ),
        other => panic!("unknown capacity mode {other:?}"),
    };
    let measured = rungs
        .iter()
        .map(|&(n, shards, workload)| measure_rung(n, shards, workload, window, warmup))
        .collect();
    Suite {
        mode,
        cores: std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(1),
        rungs: measured,
        admit: admit_bench(admit_sessions),
        soak: ingest_soak(soak_sockets),
    }
}

impl Suite {
    /// Serializes the ramp as pretty-printed JSON (hand-rolled; the
    /// flat shape is what [`extract_rungs`] parses back).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"suite\": \"capacity\",\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!("  \"cores\": {},\n", self.cores));
        s.push_str(&format!("  \"rate_per_session\": {SESSION_RATE},\n"));
        s.push_str("  \"rungs\": [\n");
        for (i, r) in self.rungs.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"sessions\": {}, \"shards\": {}, \"workload\": \"{}\", \"resident\": {}, \"admit_ns\": {}, \"admit_sessions_per_sec\": {:.1}, \"migrations\": {}, \"measure_ns\": {}, \"slots\": {}, \"played_slices\": {}, \"slices_per_sec\": {:.1}, \"p50_slot_ns\": {}, \"p99_slot_ns\": {}, \"max_slot_ns\": {}}}{}\n",
                r.sessions,
                r.shards,
                r.workload,
                r.resident,
                r.admit_ns,
                r.admit_sessions_per_sec,
                r.migrations,
                r.measure_ns,
                r.slots,
                r.played_slices,
                r.slices_per_sec,
                r.p50_slot_ns,
                r.p99_slot_ns,
                r.max_slot_ns,
                if i + 1 < self.rungs.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"admit\": {{\"sessions\": {}, \"sequential_ns\": {}, \"batch_ns\": {}, \"speedup\": {:.2}}},\n",
            self.admit.sessions, self.admit.sequential_ns, self.admit.batch_ns, self.admit.speedup
        ));
        s.push_str(&format!(
            "  \"soak\": {{\"sockets\": {}, \"welcomed\": {}, \"pool_threads\": {}, \"threads_before\": {}, \"threads_during\": {}}}\n",
            self.soak.sockets,
            self.soak.welcomed,
            self.soak.pool_threads,
            self.soak.threads_before,
            self.soak.threads_during
        ));
        s.push_str("}\n");
        s
    }
}

/// One rung parsed back out of a suite JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRung {
    /// Sessions requested.
    pub sessions: u64,
    /// Shard count (1 for pre-multi-shard baselines).
    pub shards: u32,
    /// Workload tag (`"uniform"` for pre-multi-shard baselines).
    pub workload: String,
    /// Sustained played-slices/second.
    pub slices_per_sec: f64,
    /// Control-plane admission throughput (0 for old baselines).
    pub admit_sessions_per_sec: f64,
    /// 99th-percentile per-slot wall latency, nanoseconds.
    pub p99_slot_ns: u64,
}

fn field(line: &str, key: &str) -> Option<String> {
    Some(
        line.split(&format!("\"{key}\": "))
            .nth(1)?
            .split([',', '}'])
            .next()?
            .trim()
            .trim_matches('"')
            .to_string(),
    )
}

/// Extracts the rungs from a suite JSON produced by [`Suite::to_json`]
/// (tolerating the older flat shape without shard/workload keys).
/// Returns `None` on any shape it does not recognize.
pub fn extract_rungs(json: &str) -> Option<Vec<ParsedRung>> {
    if !json.contains("\"suite\": \"capacity\"") {
        return None;
    }
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"sessions\": ") {
            continue;
        }
        out.push(ParsedRung {
            sessions: field(line, "sessions")?.parse().ok()?,
            shards: field(line, "shards")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1),
            workload: field(line, "workload").unwrap_or_else(|| "uniform".into()),
            slices_per_sec: field(line, "slices_per_sec")?.parse().ok()?,
            admit_sessions_per_sec: field(line, "admit_sessions_per_sec")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0),
            p99_slot_ns: field(line, "p99_slot_ns")?.parse().ok()?,
        });
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// Extracts the admission comparison `(sessions, speedup)` from a
/// suite JSON; `None` for pre-batch baselines.
pub fn extract_admit(json: &str) -> Option<(u64, f64)> {
    let line = json.lines().find(|l| l.trim_start().starts_with("\"admit\""))?;
    Some((
        field(line, "sessions")?.parse().ok()?,
        field(line, "speedup")?.parse().ok()?,
    ))
}

/// Extracts the soak record from a suite JSON; `None` for pre-pool
/// baselines.
pub fn extract_soak(json: &str) -> Option<IngestSoak> {
    let line = json.lines().find(|l| l.trim_start().starts_with("\"soak\""))?;
    Some(IngestSoak {
        sockets: field(line, "sockets")?.parse().ok()?,
        welcomed: field(line, "welcomed")?.parse().ok()?,
        pool_threads: field(line, "pool_threads")?.parse().ok()?,
        threads_before: field(line, "threads_before")?.parse().ok()?,
        threads_during: field(line, "threads_during")?.parse().ok()?,
    })
}

/// Extracts the recorded mode (`"full"` / `"smoke"` / `"check"`) from
/// a suite JSON.
pub fn extract_mode(json: &str) -> Option<String> {
    let line = json
        .lines()
        .find(|l| l.trim_start().starts_with("\"mode\""))?;
    Some(line.split('"').nth(3)?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;

    fn sample_rung(sessions: u64, shards: u32, workload: &'static str) -> Rung {
        Rung {
            sessions,
            shards,
            workload,
            resident: sessions,
            admit_ns: 5_000_000,
            admit_sessions_per_sec: sessions as f64 / 5e-3,
            migrations: if workload == "skewed" { 42 } else { 0 },
            measure_ns: 2_000_000_000,
            slots: 40_000,
            played_slices: 30_000_000,
            slices_per_sec: 1.5e7,
            p50_slot_ns: 40_000,
            p99_slot_ns: 90_000,
            max_slot_ns: 500_000,
        }
    }

    fn sample_suite() -> Suite {
        Suite {
            mode: "full",
            cores: 2,
            rungs: vec![
                sample_rung(1_000, 1, "uniform"),
                sample_rung(100_000, 2, "skewed"),
            ],
            admit: AdmitBench {
                sessions: 1_000_000,
                sequential_ns: 20_000_000_000,
                batch_ns: 500_000_000,
                speedup: 40.0,
            },
            soak: IngestSoak {
                sockets: 4_096,
                welcomed: 4_096,
                pool_threads: 2,
                threads_before: 4,
                threads_during: 4,
            },
        }
    }

    #[test]
    fn json_roundtrips_through_the_extractors() {
        let json = sample_suite().to_json();
        let rungs = extract_rungs(&json).expect("parses");
        assert_eq!(rungs.len(), 2);
        assert_eq!(rungs[0].sessions, 1_000);
        assert_eq!(rungs[0].workload, "uniform");
        assert!((rungs[0].slices_per_sec - 1.5e7).abs() < 1.0);
        assert!(rungs[0].admit_sessions_per_sec > 0.0);
        assert_eq!(rungs[1].shards, 2);
        assert_eq!(rungs[1].workload, "skewed");
        assert_eq!(rungs[1].p99_slot_ns, 90_000);
        assert_eq!(extract_mode(&json).as_deref(), Some("full"));
        let (n, speedup) = extract_admit(&json).expect("admit parses");
        assert_eq!(n, 1_000_000);
        assert!((speedup - 40.0).abs() < 1e-9);
        let soak = extract_soak(&json).expect("soak parses");
        assert_eq!(soak.sockets, 4_096);
        assert_eq!(soak.threads_during, 4);
    }

    #[test]
    fn old_flat_baselines_still_parse() {
        // The pre-multi-shard shape: no shards/workload/admit keys.
        let json = concat!(
            "{\n  \"suite\": \"capacity\",\n  \"mode\": \"full\",\n",
            "  \"rungs\": [\n",
            "    {\"sessions\": 1000, \"resident\": 1000, \"admit_ns\": 1, ",
            "\"measure_ns\": 1, \"slots\": 1, \"played_slices\": 1, ",
            "\"slices_per_sec\": 8621933.9, \"p50_slot_ns\": 1, ",
            "\"p99_slot_ns\": 311295, \"max_slot_ns\": 1}\n  ]\n}\n"
        );
        let rungs = extract_rungs(json).expect("parses");
        assert_eq!(rungs[0].shards, 1);
        assert_eq!(rungs[0].workload, "uniform");
        assert_eq!(rungs[0].admit_sessions_per_sec, 0.0);
        assert_eq!(extract_admit(json), None);
        assert!(extract_soak(json).is_none());
    }

    #[test]
    fn extractors_reject_garbage() {
        assert_eq!(extract_rungs("not json"), None);
        assert_eq!(extract_rungs("{\"suite\": \"capacity\"}"), None);
        assert_eq!(extract_mode(""), None);
    }

    #[test]
    fn tiny_rung_measures_real_throughput() {
        let _serial = serial();
        let r = measure_rung(
            64,
            1,
            "uniform",
            Duration::from_millis(120),
            Duration::from_millis(20),
        );
        assert_eq!(r.resident, 64, "provisioned link must fit every session");
        assert!(r.played_slices > 0, "sessions must make progress");
        assert!(r.slices_per_sec > 0.0);
        assert!(r.admit_sessions_per_sec > 0.0);
        assert!(r.p99_slot_ns >= r.p50_slot_ns);
    }

    #[test]
    fn tiny_skewed_rung_rebalances_before_measuring() {
        let _serial = serial();
        let r = measure_rung(
            64,
            2,
            "skewed",
            Duration::from_millis(120),
            Duration::from_millis(20),
        );
        assert_eq!(r.resident, 64);
        assert!(r.migrations >= 1, "rebalancer never moved a session");
        assert!(r.played_slices > 0);
    }

    #[test]
    fn admit_bench_batch_path_wins() {
        let _serial = serial();
        // Debug builds flatten the gap (per-session work dominates the
        // queue crossings the batch saves); the full >= 5x floor is
        // enforced by `capacity --check` on the release binary.
        let b = admit_bench(20_000);
        assert_eq!(b.sessions, 20_000);
        assert!(
            b.speedup >= 2.0,
            "batched admission only {:.1}x faster",
            b.speedup
        );
    }

    #[test]
    fn small_soak_holds_every_socket_without_new_threads() {
        let _serial = serial();
        let s = ingest_soak(64);
        assert_eq!(s.welcomed, 64, "every socket must be greeted");
        assert!(s.pool_threads >= 1);
        // Thread accounting only exists under /proc, and other unit
        // tests share this process, so only thread-per-connection
        // growth is distinguishable here; the strict zero-growth gate
        // runs in the dedicated `capacity --check` process.
        if s.threads_before > 0 {
            assert!(
                s.threads_during < s.threads_before + s.sockets / 2,
                "pool grew threads with connections: {} -> {} over {} sockets",
                s.threads_before,
                s.threads_during,
                s.sockets
            );
        }
    }
}
