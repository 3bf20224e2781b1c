//! `resident`: a large CBR population held in an in-process daemon.
//!
//! Every session is offered exactly its reserved rate, so every session
//! works every slot and the steady state is lossless. Session state is
//! far larger than L2, so the shard → session → core slot loop does
//! almost all the work while ingest, the frame codec and drop policies
//! sit idle. The window is split over three daemons set up one after
//! another; after it the workload does a rolling restart of the last
//! one (snapshot → shutdown → restore into a fresh daemon).

use std::time::{Duration, Instant};

use rts_core::{DropPolicy, GreedyByteValue, HeadDrop, ServerStep, TailDrop};
use rts_smoothd::{
    read_snapshot, AdmitRequest, ArrivalSource, Daemon, DaemonConfig, DaemonReport, LiveSession,
    RebalanceConfig, SessionCounters, Shard, SlotPacing, WirePolicy,
};
use rts_stream::rng::SplitMix64;
use rts_stream::Slice;
use rts_telemetry::RegistrySnapshot;

use crate::report::Outcome;
use rts_obs::LogHistogram;

use crate::stats::{describe_hist, interp_quantile, median, sample_window_with, window, WARMUP};
use crate::trace::Tracer;
use crate::{host, AllocCounter};

/// Sessions admitted.
pub const SESSIONS: u64 = 60_000;
/// Shard workers.
pub const SHARDS: u32 = 2;
/// Set-ups per run, the measured daemons' included; `setup_s` is their
/// median.
const SETUPS: usize = 9;
/// Daemons the window is split over.
const DAEMONS: usize = 3;
/// Sessions per block of the session-layer probe (about 400 KiB of
/// session state, well inside L2).
const PROBE_BLOCK: usize = 256;
/// Admission waves per set-up.
const WAVES: u64 = 10;
/// Longest any wait for residency may take before the run fails.
const RESIDENCY_TIMEOUT: Duration = Duration::from_secs(60);

const RATES: [u64; 4] = [4, 8, 12, 16];
const DELAYS: [u64; 3] = [8, 16, 32];
const POLICIES: [WirePolicy; 3] = [WirePolicy::Tail, WirePolicy::Head, WirePolicy::Greedy];
/// Bytes per generated slice: a session plays `rate / SLICE` slices a
/// slot.
const SLICE: u32 = 4;

/// The session classes and how many sessions each gets: every session
/// draws its (rate, delay, drop policy) class from the seed.
pub fn population(seed: u64, sessions: u64) -> Vec<(AdmitRequest, u64)> {
    let mut classes = Vec::new();
    for &rate in &RATES {
        for &delay in &DELAYS {
            for &policy in &POLICIES {
                classes.push(AdmitRequest {
                    rate,
                    delay,
                    link_delay: 1,
                    buffer: 0,
                    weight: 1,
                    policy,
                    per_slot: rate as u32,
                    slice_size: SLICE,
                    lifetime: 0,
                });
            }
        }
    }
    let mut counts = vec![0u64; classes.len()];
    let mut rng = SplitMix64::new(seed);
    for _ in 0..sessions {
        counts[(rng.next_u64() % classes.len() as u64) as usize] += 1;
    }
    classes
        .into_iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// Per-shard link rate: three quarters of the whole population's rate,
/// so either shard can take its share with room for routing skew.
pub fn link_rate(pop: &[(AdmitRequest, u64)]) -> u64 {
    let total: u64 = pop.iter().map(|(r, n)| r.rate * n).sum();
    (total * 3).div_ceil(4)
}

fn start(link: u64) -> Daemon {
    Daemon::start(DaemonConfig {
        shards: SHARDS,
        shard_link_rate: link,
        overbook: (1, 1),
        queue_capacity: 1024,
        pacing: SlotPacing::Free,
        record_events: false,
        rebalance: RebalanceConfig::default(),
    })
}

fn wait_resident(d: &Daemon, n: u64) -> Result<(), String> {
    let t = Instant::now();
    while d.live_sessions() < n {
        if t.elapsed() > RESIDENCY_TIMEOUT {
            return Err(format!(
                "only {} of {n} sessions resident after {:?}",
                d.live_sessions(),
                RESIDENCY_TIMEOUT
            ));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(())
}

struct Setup {
    daemon: Daemon,
    total_s: f64,
    admit_ms: f64,
    materialize_ms: f64,
}

fn setup(pop: &[(AdmitRequest, u64)], link: u64, tr: &mut Tracer) -> Result<Setup, String> {
    let total: u64 = pop.iter().map(|(_, n)| n).sum();
    let t0 = Instant::now();
    let whole = tr.enter("resident.setup", 0);
    let s = tr.enter("daemon.start", 0);
    let mut daemon = start(link);
    tr.exit(s);
    // Waves, each holding an equal share of every class and admitted
    // once the previous wave is resident: the router then prices shards
    // on published counts that include every earlier wave, and every
    // shard ends up with the same class mix.
    let mut admit = Duration::ZERO;
    let mut materialize = Duration::ZERO;
    let mut resident = 0;
    for w in 0..WAVES {
        let s = tr.enter("daemon.admit_batch", 0);
        let t = Instant::now();
        for (req, n) in pop {
            let part = n * (w + 1) / WAVES - n * w / WAVES;
            if part == 0 {
                continue;
            }
            match daemon.admit_batch(req, part) {
                Ok(b) if b.admitted == part => {}
                Ok(b) => return Err(format!("admit_batch admitted {} of {part}", b.admitted)),
                Err(r) => return Err(format!("admit_batch refused: {}", r.name())),
            }
            resident += part;
        }
        admit += t.elapsed();
        tr.exit(s);
        let s = tr.enter("daemon.materialize", 0);
        let t = Instant::now();
        wait_resident(&daemon, resident)?;
        materialize += t.elapsed();
        tr.exit(s);
    }
    debug_assert_eq!(resident, total);
    tr.exit(whole);
    Ok(Setup {
        daemon,
        total_s: t0.elapsed().as_secs_f64(),
        admit_ms: admit.as_secs_f64() * 1e3,
        materialize_ms: materialize.as_secs_f64() * 1e3,
    })
}

/// The ledger facts the `resident` checks judge, per daemon report.
#[derive(Debug, Clone)]
pub struct LedgerFacts {
    /// Which daemon the report came from.
    pub label: &'static str,
    /// Per shard: combined ledger, largest slot send, link rate.
    pub shards: Vec<(SessionCounters, u64, u64)>,
}

impl LedgerFacts {
    fn of(label: &'static str, r: &DaemonReport) -> LedgerFacts {
        LedgerFacts {
            label,
            shards: r
                .shards
                .iter()
                .map(|s| (s.counters, s.max_slot_sent, s.link_rate))
                .collect(),
        }
    }
}

/// Everything the `resident` correctness checks look at.
#[derive(Debug, Clone)]
pub struct ResidentFacts {
    /// The measured daemon (evicted at restart) and the restored one
    /// (drained at the end).
    pub ledgers: Vec<LedgerFacts>,
    /// Sessions admitted.
    pub expected: u64,
    /// Sessions in the snapshot.
    pub snapshot: u64,
    /// Sessions the restore reported.
    pub restored: u64,
}

/// The `resident` checks: conserved ledgers, zero server and client
/// drops, no slot over the link rate, and a restore that brings back
/// exactly the snapshot's sessions.
pub fn check(f: &ResidentFacts) -> Vec<String> {
    let mut bad = Vec::new();
    for l in &f.ledgers {
        for (i, (c, max_sent, link)) in l.shards.iter().enumerate() {
            if !c.conserved() {
                bad.push(format!(
                    "{} shard {i}: ledger not conserved: {c:?}",
                    l.label
                ));
            }
            if c.server_dropped_slices != 0 || c.client_dropped_slices != 0 {
                bad.push(format!(
                    "{} shard {i}: {} server / {} client drops in a lossless steady state",
                    l.label, c.server_dropped_slices, c.client_dropped_slices
                ));
            }
            if max_sent > link {
                bad.push(format!(
                    "{} shard {i}: a slot sent {max_sent} bytes over a {link}-byte link",
                    l.label
                ));
            }
        }
    }
    if f.snapshot != f.expected {
        bad.push(format!(
            "snapshot holds {} sessions, expected {}",
            f.snapshot, f.expected
        ));
    }
    if f.restored != f.snapshot {
        bad.push(format!(
            "restore brought back {} sessions, snapshot held {}",
            f.restored, f.snapshot
        ));
    }
    bad
}

/// One daemon's measured window: its per-sub-window figures, and its
/// totals over the whole window.
#[derive(Default)]
struct Window {
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p90s: Vec<f64>,
    cpus: Vec<f64>,
    norm_rates: Vec<f64>,
    norm_p50s: Vec<f64>,
    shares: Vec<f64>,
    yards: Vec<f64>,
    /// Slot times of every shard over the window.
    slots: LogHistogram,
    /// Sessions per shard at the window's end.
    split: Vec<u64>,
    played: u64,
    cpu_ns: u64,
    wall: f64,
}

fn played_of(b: &RegistrySnapshot, a: &RegistrySnapshot) -> u64 {
    b.shards
        .iter()
        .zip(&a.shards)
        .map(|(b, a)| b.played_slices - a.played_slices)
        .sum()
}

/// Measures one daemon over `seconds` after a warm-up: registry and
/// thread-CPU deltas only, sampled at every sub-window boundary, with
/// yardstick samples taken in between while the shards run. The longer
/// warm-up covers the slower first seconds after admission.
fn measure(
    daemon: &Daemon,
    seconds: f64,
    stick: &mut host::Yardstick,
    tr: &mut Tracer,
) -> Result<Window, String> {
    let reg = daemon.registry();
    let mut yard_samples: Vec<(Instant, u64)> = Vec::new();
    let w = tr.enter("resident.window", 0);
    let samples = sample_window_with(
        Instant::now() + 3 * WARMUP,
        seconds,
        host::YARD_GAP,
        || yard_samples.push((Instant::now(), stick.sample())),
        || (reg.snapshot(), host::cpu_ns(&["smoothd-"])),
    );
    tr.exit(w);
    let mut m = Window::default();
    for pair in samples.windows(2) {
        let ((t0, (s0, c0)), (t1, (s1, c1))) = (&pair[0], &pair[1]);
        let dt = (*t1 - *t0).as_secs_f64();
        let played = played_of(s1, s0);
        m.rates.push(played as f64 / dt);
        // CPU per unit of work: under Free pacing every shard that holds
        // sessions spins, so CPU per second only counts busy shards.
        m.cpus.push((c1 - c0) as f64 / played.max(1) as f64);
        // The gated figures count the shards' own CPU time instead of
        // wall time (time the hypervisor or another thread took from a
        // shard does not count) and scale it to the reference speed.
        let share = (c1 - c0) as f64 / (dt * 1e9 * SHARDS as f64);
        let yard = host::yard_reading(&yard_samples, *t0, *t1)
            .ok_or("no yardstick sample in a sub-window")?;
        let speed = yard / stick.reference_ns();
        m.shares.push(share);
        m.yards.push(yard);
        m.norm_rates
            .push(played as f64 / dt / share.max(1e-3) * speed);
        // Each shard's own slot quantile, averaged over the shards. A
        // shard's slot time grows with its share of the sessions, so the
        // mean does not depend on how the router split them, while the
        // merged histogram turns bimodal and its median jumps between
        // the modes.
        let per_shard = |q: f64| -> Option<f64> {
            let v: Option<Vec<f64>> = s1
                .shards
                .iter()
                .zip(&s0.shards)
                .map(|(b, a)| interp_quantile(&window(&a.latency, &b.latency), q))
                .collect();
            v.map(|v| v.iter().sum::<f64>() / v.len() as f64 / 1e3)
        };
        if let Some(p50) = per_shard(0.5) {
            m.p50s.push(p50);
            m.norm_p50s.push(p50 * share / speed);
        }
        if let Some(p90) = per_shard(0.9) {
            m.p90s.push(p90);
        }
    }
    let ((t0, (s0, c0)), (t1, (s1, c1))) = (&samples[0], &samples[samples.len() - 1]);
    m.wall = (*t1 - *t0).as_secs_f64();
    m.played = played_of(s1, s0);
    m.cpu_ns = c1 - c0;
    m.slots = window(&s0.process, &s1.process);
    m.split = s1.shards.iter().map(|s| s.sessions).collect();
    if m.p50s.is_empty() {
        return Err(format!("only {} slots in the window", m.slots.count()));
    }
    Ok(m)
}

/// Runs the workload: set-up (median of several), the measured window,
/// the rolling restart, a drained shutdown, and the checks.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(seed, seconds, tr, &mut out) {
        out.check(false, format!("resident: {e}"));
    }
    out
}

fn run_inner(seed: u64, seconds: f64, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let pop = population(seed, SESSIONS);
    let link = link_rate(&pop);
    // The first measured daemon is the process's first, so its memory
    // layout and RSS do not depend on what earlier set-ups left in the
    // allocator; the set-ups beyond the measured daemons run after the
    // restart, for timing.
    let first = setup(&pop, link, tr)?;
    out.attempted += SESSIONS;
    let mut setups = vec![(first.total_s, first.admit_ms, first.materialize_ms)];
    let mut daemon = first.daemon;
    let rss = host::peak_rss_mib();
    out.put("rss_mib", rss, "MiB");

    // The window is split over DAEMONS daemons, each set up afresh.
    // Where a daemon's sessions land in memory holds for its whole
    // life, and it moved one daemon's throughput by up to 20% against
    // the next one's in the same process; the gated figures are the
    // mean over the daemons.
    let mut windows = Vec::new();
    let mut ledgers = Vec::new();
    for k in 0..DAEMONS {
        if k > 0 {
            let done = daemon.shutdown(false);
            ledgers.push(LedgerFacts::of("measured daemon", &done));
            let s = setup(&pop, link, tr)?;
            out.attempted += SESSIONS;
            setups.push((s.total_s, s.admit_ms, s.materialize_ms));
            daemon = s.daemon;
        }
        // A yardstick per daemon, so its table's placement varies too.
        let mut stick = host::Yardstick::new(host::Access::Streamed);
        windows.push(measure(&daemon, seconds / DAEMONS as f64, &mut stick, tr)?);
    }
    let mean = |f: &dyn Fn(&Window) -> f64| -> f64 {
        windows.iter().map(f).sum::<f64>() / windows.len() as f64
    };
    let pooled = |f: &dyn Fn(&Window) -> &Vec<f64>| -> Vec<f64> {
        windows.iter().flat_map(|w| f(w).iter().copied()).collect()
    };
    let (rates, p50s, p90s) = (
        pooled(&|w| &w.rates),
        pooled(&|w| &w.p50s),
        pooled(&|w| &w.p90s),
    );
    let (cpus, yards) = (pooled(&|w| &w.cpus), pooled(&|w| &w.yards));
    out.put("throughput_per_s", mean(&|w| median(&w.norm_rates)), "1/s");
    out.put("p50_us", mean(&|w| median(&w.norm_p50s)), "us");
    out.put("host.yardstick_streamed_us", median(&yards) / 1e3, "us");
    out.note(format!(
        "host-normalized (per sub-window: shard CPU time instead of wall time, scaled by {} us / the streamed yardstick's median; mean over {DAEMONS} daemons of their medians): {:.0} played slices/s, slot p50 {:.1} us",
        host::Access::Streamed.reference_ns() / 1e3,
        out.get("throughput_per_s").unwrap_or(0.0),
        out.get("p50_us").unwrap_or(0.0),
    ));
    for (k, w) in windows.iter().enumerate() {
        out.note(format!(
            "daemon {k}: sessions per shard {:?}, {} sub-windows: host-normalized {:.0} played slices/s, slot p50 {:.1} us; as measured {:.0} played slices/s, slot p50 {:.1} us; shard CPU share {:.3}, yardstick {:.1} us (medians)",
            w.split,
            w.rates.len(),
            median(&w.norm_rates),
            median(&w.norm_p50s),
            median(&w.rates),
            median(&w.p50s),
            median(&w.shares),
            median(&w.yards) / 1e3,
        ));
    }
    let p50 = median(&p50s);
    let p90 = (!p90s.is_empty()).then(|| median(&p90s));
    if let Some(p90) = p90 {
        out.put("p90_us", p90, "us");
    }
    out.put("cpu_ns_per_op", median(&cpus), "ns");
    let mut slots = LogHistogram::new();
    for w in &windows {
        slots.merge(&w.slots);
    }
    out.note(describe_hist("slot", &slots, 1e3, "us"));
    let wall: f64 = windows.iter().map(|w| w.wall).sum();
    let played: u64 = windows.iter().map(|w| w.played).sum();
    let cpu_ns: u64 = windows.iter().map(|w| w.cpu_ns).sum();
    out.note(format!(
        "played_slices_per_s = {:.0} 1/s, slot_p50_us = {p50:.1}, slot_p90_us = {} (medians over {} sub-windows of the shards' mean quantile; whole windows {:.0} 1/s), rss_mib = {rss:.1} at full residency ({SESSIONS} sessions, {SHARDS} shards, link {link} B/slot)",
        median(&rates),
        p90.map_or("n/a".to_string(), |v| format!("{v:.1}")),
        rates.len(),
        played as f64 / wall,
    ));
    out.note(format!(
        "smoothd threads: {:.2} CPU ns per played slice (median over sub-windows), {:.1}% of a core over the windows",
        median(&cpus),
        cpu_ns as f64 / 1e9 / wall * 100.0
    ));
    out.note(format!(
        "sub-window played slices/s (M): {:?}",
        rates
            .iter()
            .map(|r| (r / 1e5).round() / 10.0)
            .collect::<Vec<_>>()
    ));

    // Rolling restart.
    let restart = tr.enter("resident.restart", 0);
    let t = Instant::now();
    let s = tr.enter("snapshot.encode", 0);
    let t_enc = Instant::now();
    let (snap_sessions, bytes) = daemon.snapshot();
    let encode_ms = t_enc.elapsed().as_secs_f64() * 1e3;
    tr.exit(s);
    let s = tr.enter("daemon.shutdown", 0);
    let old = daemon.shutdown(false);
    tr.exit(s);
    let s = tr.enter("daemon.start", 0);
    let mut fresh = start(link);
    tr.exit(s);
    let s = tr.enter("daemon.restore", 0);
    let t_restore = Instant::now();
    let restored = fresh
        .restore(&bytes)
        .map_err(|e| format!("restore refused its own snapshot: {e:?}"))?;
    let restore_ms = t_restore.elapsed().as_secs_f64() * 1e3;
    tr.exit(s);
    let s = tr.enter("daemon.rematerialize", 0);
    let t_remat = Instant::now();
    wait_resident(&fresh, restored)?;
    let remat_ms = t_remat.elapsed().as_secs_f64() * 1e3;
    tr.exit(s);
    let restart_s = t.elapsed().as_secs_f64();
    tr.exit(restart);
    out.attempted += snap_sessions;
    out.failed += snap_sessions.saturating_sub(restored);
    out.note(format!(
        "restart_s = {restart_s:.4} s (snapshot {snap_sessions} sessions, {} bytes → every session resident in the restored daemon)",
        bytes.len()
    ));
    out.put("restart_s", restart_s, "s");
    out.put("snapshot.encode_ms", encode_ms, "ms");
    out.put("daemon.restore_ms", restore_ms, "ms");
    out.put("daemon.rematerialize_ms", remat_ms, "ms");
    out.put(
        "snapshot.bytes_per_session",
        bytes.len() as f64 / snap_sessions.max(1) as f64,
        "B",
    );

    let s = tr.enter("daemon.shutdown", 0);
    let drained = fresh.shutdown(true);
    tr.exit(s);
    if tr.on() {
        let s = tr.enter("snapshot.decode", 0);
        let t = Instant::now();
        let decoded = read_snapshot(&bytes).map_err(|e| format!("read_snapshot: {e:?}"))?;
        out.put("snapshot.decode_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
        tr.exit(s);
        drop(decoded);
    }
    drop(bytes);
    for _ in DAEMONS..SETUPS {
        let s = setup(&pop, link, tr)?;
        out.attempted += SESSIONS;
        setups.push((s.total_s, s.admit_ms, s.materialize_ms));
        let r = s.daemon.shutdown(false);
        out.check(
            r.totals.conserved(),
            "resident: set-up ledger not conserved",
        );
    }
    let col = |k: usize| -> Vec<f64> { setups.iter().map(|s| [s.0, s.1, s.2][k]).collect() };
    out.put("setup_s", median(&col(0)), "s");
    out.put("daemon.admit_batch_ms", median(&col(1)), "ms");
    out.put("daemon.materialize_ms", median(&col(2)), "ms");
    out.note(format!(
        "set-ups (daemon start → every session resident): {:?} s",
        col(0)
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    let facts = ResidentFacts {
        ledgers: ledgers
            .into_iter()
            .chain([
                LedgerFacts::of("measured daemon", &old),
                LedgerFacts::of("restored daemon", &drained),
            ])
            .collect(),
        expected: SESSIONS,
        snapshot: snap_sessions,
        restored,
    };
    for v in check(&facts) {
        out.check(false, format!("resident: {v}"));
    }
    Ok(())
}

fn policy(p: WirePolicy) -> Box<dyn DropPolicy + Send> {
    match p {
        WirePolicy::Tail => Box::new(TailDrop::new()),
        WirePolicy::Head => Box::new(HeadDrop::new()),
        WirePolicy::Greedy => Box::new(GreedyByteValue::new()),
    }
}

/// One shard's share of the population: every other session of each
/// class.
fn shard_share(pop: &[(AdmitRequest, u64)]) -> Vec<AdmitRequest> {
    pop.iter()
        .flat_map(|(req, n)| std::iter::repeat_n(*req, n.div_ceil(SHARDS as u64) as usize))
        .collect()
}

/// Dense-shard and session layer probes (traced run only): a
/// bench-driven [`Shard`] holding one shard's share of the population,
/// and, slot for slot in turn with it, a standalone [`LiveSession`]
/// population built from the same requests and stepped pass by pass
/// with grant = demand — exactly what `fair_grants` grants while the
/// rates fit the link.
pub fn probe_layers(seed: u64, slots: usize, tr: &mut Tracer, alloc: AllocCounter) -> Outcome {
    let mut out = Outcome::default();
    let pop = population(seed, SESSIONS);
    let link = link_rate(&pop);
    let share = shard_share(&pop);
    let n = share.len() as f64;
    let warmup = DELAYS.iter().max().copied().unwrap_or(0) as usize + 4;

    let mut shard = Shard::new(0, link, (1, 1));
    for (id, req) in share.iter().enumerate() {
        if let Err(r) = shard.admit(id as u64 + 1, req) {
            out.check(
                false,
                format!("probe shard refused a session: {}", r.name()),
            );
            return out;
        }
    }

    let a0 = alloc();
    let mut sessions: Vec<LiveSession> = Vec::with_capacity(share.len());
    for (id, req) in share.iter().enumerate() {
        let params = Shard::params_of(req).expect("population rates are positive");
        sessions.push(LiveSession::new(
            id as u64 + 1,
            params,
            req.weight,
            policy(req.policy),
            ArrivalSource::cbr(req.per_slot as u64, req.slice_size as u64, req.weight, None),
        ));
    }
    let a1 = alloc();
    out.put("session.alloc_bytes", (a1.1 - a0.1) as f64 / n, "B");
    let mut scratch: Vec<Slice> = Vec::new();
    let mut demands: Vec<u64> = Vec::with_capacity(sessions.len());
    let mut sstep = ServerStep::default();
    let mut delivered = Vec::new();
    let mut durs = Vec::with_capacity(slots);
    let mut passes: [Vec<f64>; 4] = Default::default();
    let (mut played, mut allocs) = (0, 0);
    const PASSES: [&str; 4] = [
        "session.begin_slot",
        "session.demand",
        "session.step",
        "session.retire_check",
    ];
    // A shard slot and the session passes of one slot alternate, so the
    // two sides of the additivity check see the same host. The passes
    // run block by block: a shard touches each session once per slot,
    // and four passes over the whole population would pull its state
    // from memory four times, so their sum would exceed the shard's
    // slot. A block's state stays in L2 across its four passes.
    for slot in 0..warmup + slots {
        let timed = slot >= warmup;
        let played0 = shard.stats().played_slices;
        let allocs0 = alloc().0;
        let span = timed.then(|| tr.enter("shard.process_slot", 0));
        let t = Instant::now();
        shard.process_slot();
        let d = t.elapsed().as_nanos() as f64;
        if let Some(span) = span {
            tr.exit(span);
            durs.push(d);
            allocs += alloc().0 - allocs0;
            played += shard.stats().played_slices - played0;
        }

        let mut lap_ns = [0.0f64; 4];
        let mut lap = |k: usize, t: Instant, tr: &mut Tracer| {
            if timed {
                let end = Instant::now();
                lap_ns[k] += (end - t).as_nanos() as f64;
                tr.record(PASSES[k], 0, t, end);
            }
        };
        for block in sessions.chunks_mut(PROBE_BLOCK) {
            let t = Instant::now();
            for s in block.iter_mut() {
                s.begin_slot(&mut scratch);
            }
            lap(0, t, tr);
            let t = Instant::now();
            demands.clear();
            demands.extend(block.iter().map(LiveSession::demand));
            lap(1, t, tr);
            let t = Instant::now();
            for (s, &g) in block.iter_mut().zip(&demands) {
                std::hint::black_box(s.step(g, &mut sstep, &mut delivered));
            }
            lap(2, t, tr);
            let t = Instant::now();
            for s in block.iter() {
                std::hint::black_box(s.retire_cause());
            }
            lap(3, t, tr);
        }
        if timed {
            for (k, ns) in lap_ns.into_iter().enumerate() {
                passes[k].push(ns);
            }
        }
    }
    let slot_ns = median(&durs);
    out.put("shard.process_slot_us", slot_ns / 1e3, "us");
    out.put(
        "shard.single_thread_slices_per_s",
        played as f64 / (durs.iter().sum::<f64>() / 1e9),
        "1/s",
    );
    out.put(
        "shard.allocs_per_slot",
        allocs as f64 / slots as f64,
        "count",
    );
    let mut calls_ns = 0.0;
    for (k, name) in PASSES.iter().enumerate() {
        let per = median(&passes[k]) / n;
        calls_ns += per;
        out.put(format!("{name}_ns"), per, "ns");
    }
    let whole_ns = slot_ns / n;
    let overhead = whole_ns - calls_ns;
    out.put("shard.overhead_ns", overhead, "ns");
    let within = overhead >= -0.05 * whole_ns;
    out.note(format!(
        "additivity (resident): session calls {calls_ns:.2} ns + shard.overhead_ns {overhead:.2} ns = shard.process_slot {whole_ns:.2} ns per session-slot; session share {:.1}%, overhead share {:.1}% [{}]",
        calls_ns / whole_ns * 100.0,
        overhead / whole_ns * 100.0,
        if within { "adds up" } else { "session calls exceed the whole by more than 5%" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> ResidentFacts {
        let c = SessionCounters {
            offered_slices: 10,
            offered_bytes: 40,
            played_slices: 8,
            played_bytes: 32,
            played_weight: 8,
            evicted_slices: 2,
            evicted_bytes: 8,
            sent_bytes: 36,
            ..SessionCounters::default()
        };
        ResidentFacts {
            ledgers: vec![LedgerFacts {
                label: "t",
                shards: vec![(c, 16, 16)],
            }],
            expected: 5,
            snapshot: 5,
            restored: 5,
        }
    }

    #[test]
    fn population_is_seeded_and_complete() {
        let a = population(7, 1000);
        assert_eq!(a, population(7, 1000));
        assert_ne!(a, population(8, 1000));
        assert_eq!(a.iter().map(|(_, n)| n).sum::<u64>(), 1000);
        assert!(link_rate(&a) * 2 > a.iter().map(|(r, n)| r.rate * n).sum::<u64>());
    }

    #[test]
    fn checks_accept_a_clean_result() {
        let f = good();
        assert!(
            f.ledgers[0].shards[0].0.conserved(),
            "fixture must conserve"
        );
        assert_eq!(check(&f), Vec::<String>::new());
    }

    #[test]
    fn checks_reject_corrupted_results() {
        let mut f = good();
        f.ledgers[0].shards[0].0.played_bytes += 1;
        assert!(check(&f).iter().any(|v| v.contains("not conserved")));

        let mut f = good();
        f.ledgers[0].shards[0].0.server_dropped_slices = 1;
        f.ledgers[0].shards[0].0.client_dropped_slices = 1;
        assert!(check(&f).iter().any(|v| v.contains("drops")));

        let mut f = good();
        f.ledgers[0].shards[0].1 = 17;
        assert!(check(&f).iter().any(|v| v.contains("over a 16-byte link")));

        let mut f = good();
        f.restored = 4;
        assert!(check(&f).iter().any(|v| v.contains("restore brought back")));

        let mut f = good();
        f.snapshot = 4;
        f.restored = 4;
        assert!(check(&f).iter().any(|v| v.contains("snapshot holds")));
    }
}
