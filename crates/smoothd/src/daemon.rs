//! The daemon proper: shard worker threads and the control plane.
//!
//! Sessions are partitioned across shards; each shard runs on its own
//! worker thread, stepping [`Shard::process_slot`] in a tight loop and
//! draining a bounded command queue between slots. The control plane
//! (admissions, data injection, drain/evict, stats) talks to workers
//! only through those queues, so the hot loop never takes a lock.
//!
//! Admission control happens twice, deliberately:
//!
//! 1. The control plane keeps a per-shard atomic mirror of committed
//!    rate and performs the `B = R·D` feasibility and capacity checks
//!    before enqueueing, so rejects are immediate and typed
//!    ([`RejectReason`]). The mirror is conservative: it is
//!    incremented before the worker sees the admit and decremented
//!    only after the worker has released the reservation.
//! 2. The shard's own [`rts_mux::AdmissionController`] remains the
//!    authority inside the worker; by the ordering above it can never
//!    see more committed rate than the mirror allowed.
//!
//! Backpressure is explicit: when a shard's queue is full, data-plane
//! operations fail with [`RejectReason::Backpressure`] instead of
//! blocking the listener.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rts_obs::{Event, LogHistogram, RejectReason};
use rts_stream::{Bytes, Time, Weight};
use rts_telemetry::{MonotonicClock, Registry, ShardTelemetry, SlotClock, SlotPacing};

use crate::frame::{
    AdmitRequest, HistSummary, ShardRow, StatsDetail, StatsSnapshot, MAX_STATS_SHARDS,
};
use crate::session::{ArrivalSource, LiveSession, SessionCounters, SessionId};
use crate::shard::{Retirement, Shard};
use crate::snapshot::{read_snapshot, SnapshotError, SnapshotWriter};

/// Skew-aware rebalancer policy. The control plane evaluates per-shard
/// cost from the live telemetry registry — sessions weighted by the
/// recent deadline-miss rate, with slot p99 as the tiebreak — and
/// migrates sessions from the most expensive shard to the cheapest one
/// whenever the spread crosses the hysteresis threshold.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// Master switch; off means sessions stay where placement put them.
    pub enabled: bool,
    /// Minimum wall time between rebalance evaluations (each one takes
    /// a registry snapshot, so this bounds control-plane overhead).
    pub interval: Duration,
    /// Trigger threshold in milli-ratio: migrate only while
    /// `donor_cost · 1000 > high_ratio_milli · receiver_cost`. Moving
    /// to the midpoint afterwards lands the ratio near 1000, so the
    /// gap between 1000 and this value is the hysteresis band.
    pub high_ratio_milli: u64,
    /// Absolute session-count gap below which imbalance is ignored
    /// (keeps tiny populations from ping-ponging).
    pub min_gap: u64,
    /// Most sessions migrated per evaluation.
    pub max_moves: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enabled: false,
            interval: Duration::from_millis(100),
            high_ratio_milli: 1500,
            min_gap: 8,
            max_moves: 1024,
        }
    }
}

/// Daemon sizing and behaviour.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker (shard) count.
    pub shards: u32,
    /// Link rate guarded by each shard, bytes per slot.
    pub shard_link_rate: Bytes,
    /// Admission overbooking factor `num/den` per shard.
    pub overbook: (u64, u64),
    /// Bound of each shard's command queue; a full queue sheds with
    /// [`RejectReason::Backpressure`].
    pub queue_capacity: usize,
    /// How workers pace their slot loop. [`SlotPacing::Free`] runs
    /// flat out (capacity benchmarks); [`SlotPacing::Deadline`] holds
    /// an absolute-deadline slot period and accounts misses.
    pub pacing: SlotPacing,
    /// Record lifecycle events (joined/retired/rejected) for the
    /// trace sink. Off for pure benchmarks.
    pub record_events: bool,
    /// Skew-aware live-migration policy.
    pub rebalance: RebalanceConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get() as u32)
                .unwrap_or(1),
            shard_link_rate: 1 << 16,
            overbook: (1, 1),
            queue_capacity: 1024,
            pacing: SlotPacing::Free,
            record_events: true,
            rebalance: RebalanceConfig::default(),
        }
    }
}

enum Command {
    Admit {
        id: SessionId,
        req: AdmitRequest,
        source: Option<ArrivalSource>,
    },
    /// `count` sessions with consecutive ids starting at `first_id`,
    /// all built from the same request: one queue crossing per chunk.
    AdmitBatch {
        first_id: SessionId,
        count: u32,
        req: AdmitRequest,
    },
    Inject {
        id: SessionId,
        slices: Vec<(Bytes, Weight)>,
    },
    Drain {
        id: SessionId,
    },
    Evict {
        id: SessionId,
    },
    /// Migrate up to `max_sessions` sessions out of this shard into
    /// shard `to_shard`, whose queue, committed-rate mirror, and
    /// bookable cap ride along. The donor reserves rate on the
    /// receiver's mirror *before* sending each session, so the
    /// receiver-side admission controller can never refuse it.
    Export {
        to: SyncSender<Command>,
        to_committed: Arc<AtomicU64>,
        to_bookable: Bytes,
        to_shard: u32,
        max_sessions: usize,
    },
    /// A live session arriving from another shard — ring, ledger, and
    /// session-local clock intact.
    Import {
        session: Box<LiveSession>,
    },
    /// Serialize every resident session between slots and send the
    /// filled writer back. The worker holds no session across slots,
    /// so the per-shard checkpoint is slot-consistent by construction.
    Snapshot {
        reply: SyncSender<SnapshotWriter>,
    },
    Stop {
        drain: bool,
    },
}

/// One completed session handoff, harvested by [`Daemon::poll`] to
/// update the directory and the migration counters.
struct MigrationRecord {
    session: SessionId,
    from: u32,
    to: u32,
}

#[derive(Default)]
struct SharedShard {
    sessions: AtomicU64,
    slots: AtomicU64,
    played: AtomicU64,
    /// Wall nanoseconds of the most recent `process_slot`, published
    /// every slot: the measured cost signal the admission router uses.
    slot_ns: AtomicU64,
}

/// Condvar the workers bump whenever retirements land, so
/// [`Daemon::wait_idle`] blocks instead of busy-polling.
#[derive(Default)]
struct IdleSignal {
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl IdleSignal {
    fn observe(&self) -> u64 {
        *self.epoch.lock().expect("idle signal poisoned")
    }

    fn bump(&self) {
        *self.epoch.lock().expect("idle signal poisoned") += 1;
        self.cv.notify_all();
    }

    /// Blocks until the epoch advances past `observed` or `timeout`
    /// elapses.
    fn wait_past(&self, observed: u64, timeout: Duration) {
        let guard = self.epoch.lock().expect("idle signal poisoned");
        let _unused = self
            .cv
            .wait_timeout_while(guard, timeout, |epoch| *epoch == observed)
            .expect("idle signal poisoned");
    }
}

struct ShardHandle {
    tx: SyncSender<Command>,
    committed: Arc<AtomicU64>,
    shared: Arc<SharedShard>,
    retired: Arc<Mutex<Vec<Retirement>>>,
    join: JoinHandle<Shard>,
}

/// Outcome of [`Daemon::admit_batch`]: `admitted` sessions with
/// consecutive ids starting at `first`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAdmission {
    /// First assigned session id.
    pub first: SessionId,
    /// How many sessions were admitted (`first..first + admitted`).
    pub admitted: u64,
}

/// Final per-shard accounting, extracted at shutdown.
#[derive(Debug)]
pub struct ShardReport {
    /// Shard id.
    pub id: u32,
    /// Slots the worker processed.
    pub slots: u64,
    /// Link rate it guarded.
    pub link_rate: Bytes,
    /// Combined ledger of every session it ever hosted.
    pub counters: SessionCounters,
    /// Largest single-slot byte total sent (`<= link_rate` always).
    pub max_slot_sent: Bytes,
    /// Most sessions resident at once.
    pub peak_sessions: usize,
    /// Per-slot wall latency, nanoseconds.
    pub latency: LogHistogram,
    /// Slots that finished past their deadline (deadline pacing only).
    pub deadline_misses: u64,
    /// Slots whose work alone exceeded the configured period.
    pub slot_overruns: u64,
}

/// What the daemon did over its lifetime.
#[derive(Debug)]
pub struct DaemonReport {
    /// Per-shard breakdowns.
    pub shards: Vec<ShardReport>,
    /// Ledger summed over all shards (conserved after a drained
    /// shutdown).
    pub totals: SessionCounters,
    /// Sessions retired over the daemon's lifetime.
    pub retired_sessions: u64,
    /// Merged per-slot latency histogram.
    pub latency: LogHistogram,
    /// Ingest rejections by reason, [`RejectReason::ALL`] order (the
    /// per-reason breakdown of the aggregate `IngestRejected` count).
    pub rejects: [u64; 6],
}

impl DaemonReport {
    /// `(reason, count)` pairs for the nonzero reject reasons.
    pub fn rejects_by_reason(&self) -> impl Iterator<Item = (RejectReason, u64)> + '_ {
        RejectReason::ALL
            .into_iter()
            .zip(self.rejects.iter().copied())
            .filter(|&(_, n)| n > 0)
    }
}

impl DaemonReport {
    /// Total slots processed across shards.
    pub fn total_slots(&self) -> u64 {
        self.shards.iter().map(|s| s.slots).sum()
    }
}

/// Worker-side context [`apply`] needs beyond the shard itself: the
/// control plane's committed-rate mirror, the shared migration sink,
/// this shard's telemetry block, and the stop mode once one arrived
/// (an [`Command::Import`] landing after Stop must follow the same
/// drain/evict policy or the worker would never exit).
struct WorkerCtx {
    committed: Arc<AtomicU64>,
    telemetry: Arc<ShardTelemetry>,
    migrated: Arc<Mutex<Vec<MigrationRecord>>>,
    idle: Arc<IdleSignal>,
    stop: Option<bool>,
}

#[allow(clippy::too_many_arguments)]
fn worker(
    mut shard: Shard,
    rx: Receiver<Command>,
    committed: Arc<AtomicU64>,
    shared: Arc<SharedShard>,
    retired_sink: Arc<Mutex<Vec<Retirement>>>,
    telemetry: Arc<ShardTelemetry>,
    migrated: Arc<Mutex<Vec<MigrationRecord>>>,
    idle: Arc<IdleSignal>,
    pacing: SlotPacing,
) -> Shard {
    let mut ctx = WorkerCtx {
        committed,
        telemetry,
        migrated,
        idle,
        stop: None,
    };
    let mut retire_buf: Vec<Retirement> = Vec::new();
    let mut clock = SlotClock::new(MonotonicClock::new(), pacing);
    let period_ns = pacing.period().map(|p| p.as_nanos() as u64);
    // Deltas for the monotone telemetry counters (shard stats are
    // cumulative; the registry wants increments so merges stay exact).
    let mut prev_played = 0u64;
    let mut prev_sent = 0u64;
    let mut prev_slots = 0u64;
    let mut was_idle = true;
    loop {
        // Drain the command queue without blocking the slot cadence.
        let drain_started = Instant::now();
        let mut applied = false;
        loop {
            match rx.try_recv() {
                Ok(cmd) => {
                    applied = true;
                    apply(&mut shard, cmd, &mut ctx);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    if ctx.stop.is_none() {
                        ctx.stop = Some(false);
                    }
                    break;
                }
            }
        }
        if applied {
            ctx.telemetry
                .admit
                .record(drain_started.elapsed().as_nanos() as u64);
        }
        if shard.sessions() == 0 {
            if ctx.stop.is_some() {
                break;
            }
            was_idle = true;
            ctx.telemetry.sessions.set(0);
            // Idle: wait for work instead of spinning.
            match rx.recv_timeout(Duration::from_millis(2)) {
                Ok(cmd) => {
                    apply(&mut shard, cmd, &mut ctx);
                    if ctx.stop.is_some() && shard.sessions() == 0 {
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            continue;
        }
        if was_idle {
            // Time parked waiting for work is not lateness: re-anchor
            // the deadline to the moment work actually resumed.
            clock.arm();
            was_idle = false;
        }
        let t0 = Instant::now();
        shard.process_slot();
        let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        shard.stats_mut().latency.record(nanos);
        ctx.telemetry.process.record(nanos);
        let slots = shard.stats().slots;
        ctx.telemetry.slots.add(slots - prev_slots);
        prev_slots = slots;
        ctx.telemetry.sessions.set(shard.sessions() as u64);
        let played = shard.stats().played_slices;
        ctx.telemetry.played_slices.add(played - prev_played);
        prev_played = played;
        let sent = shard.stats().sent_bytes;
        ctx.telemetry.sent_bytes.add(sent - prev_sent);
        prev_sent = sent;
        shared
            .sessions
            .store(shard.sessions() as u64, Ordering::Relaxed);
        shared.slots.store(shard.now(), Ordering::Relaxed);
        shared
            .played
            .store(shard.stats().played_slices, Ordering::Relaxed);
        shared.slot_ns.store(nanos, Ordering::Relaxed);
        if shard.has_retirements() {
            let retire_started = Instant::now();
            shard.take_retirements(&mut retire_buf);
            for r in &retire_buf {
                ctx.committed.fetch_sub(r.rate, Ordering::Relaxed);
            }
            retired_sink
                .lock()
                .expect("retirement sink poisoned")
                .append(&mut retire_buf);
            ctx.idle.bump();
            ctx.telemetry
                .retire
                .record(retire_started.elapsed().as_nanos() as u64);
        }
        if let Some(period) = period_ns {
            if nanos > period {
                ctx.telemetry.slot_overruns.inc();
            }
        }
        let outcome = clock.pace();
        if outcome.missed {
            ctx.telemetry.deadline_misses.inc();
            ctx.telemetry
                .lateness
                .record(outcome.lateness.as_nanos().min(u64::MAX as u128) as u64);
        }
    }
    // Flush anything the final slots produced.
    if shard.has_retirements() {
        shard.take_retirements(&mut retire_buf);
        for r in &retire_buf {
            ctx.committed.fetch_sub(r.rate, Ordering::Relaxed);
        }
        retired_sink
            .lock()
            .expect("retirement sink poisoned")
            .append(&mut retire_buf);
    }
    shared
        .sessions
        .store(shard.sessions() as u64, Ordering::Relaxed);
    shared.slots.store(shard.now(), Ordering::Relaxed);
    shared
        .played
        .store(shard.stats().played_slices, Ordering::Relaxed);
    ctx.telemetry.sessions.set(shard.sessions() as u64);
    ctx.telemetry.slots.add(shard.stats().slots - prev_slots);
    ctx.telemetry
        .played_slices
        .add(shard.stats().played_slices - prev_played);
    ctx.telemetry
        .sent_bytes
        .add(shard.stats().sent_bytes - prev_sent);
    ctx.idle.bump();
    shard
}

/// Applies one command; records a stop request in `ctx.stop`.
fn apply(shard: &mut Shard, cmd: Command, ctx: &mut WorkerCtx) {
    match cmd {
        Command::Admit { id, req, source } => {
            let admitted = match source {
                Some(src) => shard.admit_with_source(id, &req, src),
                None => shard.admit(id, &req),
            };
            debug_assert!(
                admitted.is_ok(),
                "control plane pre-checked admission: {admitted:?}"
            );
        }
        Command::AdmitBatch {
            first_id,
            count,
            req,
        } => {
            for k in 0..count as u64 {
                let admitted = shard.admit(first_id + k, &req);
                debug_assert!(
                    admitted.is_ok(),
                    "control plane pre-checked batch admission: {admitted:?}"
                );
            }
        }
        Command::Inject { id, slices } => {
            // A session may have retired between enqueue and apply;
            // stale injections are dropped on the floor.
            let _ = shard.inject(id, &slices);
        }
        Command::Drain { id } => {
            let _ = shard.drain(id);
        }
        Command::Evict { id } => {
            let _ = shard.evict(id);
        }
        Command::Export {
            to,
            to_committed,
            to_bookable,
            to_shard,
            max_sessions,
        } => {
            for _ in 0..max_sessions {
                let Some(s) = shard.export_any() else { break };
                let rate = s.rate();
                // Reserve on the receiver's mirror first; admissions
                // racing this can only see the conservative sum, so
                // the receiver-side controller never over-commits.
                let prev = to_committed.fetch_add(rate, Ordering::Relaxed);
                if prev + rate > to_bookable {
                    to_committed.fetch_sub(rate, Ordering::Relaxed);
                    reimport(shard, s);
                    break;
                }
                let id = s.id();
                match to.try_send(Command::Import {
                    session: Box::new(s),
                }) {
                    Ok(()) => {
                        ctx.committed.fetch_sub(rate, Ordering::Relaxed);
                        ctx.telemetry.migrations_out.inc();
                        ctx.migrated
                            .lock()
                            .expect("migration sink poisoned")
                            .push(MigrationRecord {
                                session: id,
                                from: shard.id(),
                                to: to_shard,
                            });
                    }
                    Err(e) => {
                        // Receiver queue full or worker gone: undo the
                        // reservation and keep the session here. The
                        // session rode inside the rejected command.
                        to_committed.fetch_sub(rate, Ordering::Relaxed);
                        let (TrySendError::Full(cmd) | TrySendError::Disconnected(cmd)) = e;
                        if let Command::Import { session } = cmd {
                            reimport(shard, *session);
                        }
                        break;
                    }
                }
            }
        }
        Command::Import { session } => {
            let id = session.id();
            match shard.import(*session) {
                Ok(()) => {
                    ctx.telemetry.migrations_in.inc();
                    // A stop that already passed governs latecomers
                    // too, or a drain-stop worker would spin forever
                    // on an unbounded imported session.
                    match ctx.stop {
                        Some(true) => {
                            let _ = shard.drain(id);
                        }
                        Some(false) => {
                            let _ = shard.evict(id);
                        }
                        None => {}
                    }
                }
                Err(sess) => {
                    // Unreachable by construction (the donor reserved
                    // rate on our mirror before sending); keep the
                    // ledger conserved anyway by evicting in place.
                    debug_assert!(false, "import admission cannot fail");
                    let counters = sess.evict();
                    shard.absorb_retired(&counters);
                }
            }
        }
        Command::Snapshot { reply } => {
            let mut w = SnapshotWriter::new();
            for s in shard.iter_sessions() {
                w.add(s);
            }
            // The control plane may have timed out and hung up; a
            // dropped receiver just discards this shard's checkpoint.
            let _ = reply.send(w);
        }
        Command::Stop { drain } => {
            if ctx.stop.is_none() {
                if drain {
                    shard.drain_all();
                    while shard.sessions() > 0 {
                        shard.process_slot();
                    }
                } else {
                    shard.evict_all();
                }
                ctx.stop = Some(drain);
            }
        }
    }
}

/// Puts an export candidate back where it came from; infallible
/// because the caller just released the reservation it needs.
fn reimport(shard: &mut Shard, session: LiveSession) {
    let back = shard.import(session);
    debug_assert!(back.is_ok(), "reimport into the donor cannot fail");
    if let Err(sess) = back {
        let counters = sess.evict();
        shard.absorb_retired(&counters);
    }
}

/// Handle to a running daemon: admissions, data plane, stats, and
/// shutdown. All methods take `&mut self`; wrap in a `Mutex` to share
/// with listener threads (control operations are short).
pub struct Daemon {
    cfg: DaemonConfig,
    handles: Vec<ShardHandle>,
    directory: HashMap<SessionId, u32>,
    next_id: SessionId,
    bookable_per_shard: Bytes,
    retired_sessions: u64,
    events: Vec<Event>,
    retire_scratch: Vec<Retirement>,
    registry: Arc<Registry>,
    migrated: Arc<Mutex<Vec<MigrationRecord>>>,
    idle: Arc<IdleSignal>,
    last_migration: Option<(u32, u32)>,
    last_rebalance: Instant,
    /// Per-shard (slots, deadline misses) at the previous rebalance
    /// evaluation, for windowed miss rates.
    rebalance_marks: Vec<(u64, u64)>,
}

impl Daemon {
    /// Spawns `cfg.shards` workers and returns the control handle.
    pub fn start(cfg: DaemonConfig) -> Daemon {
        assert!(cfg.shards > 0, "daemon needs at least one shard");
        assert!(cfg.shard_link_rate > 0, "shard link rate must be positive");
        let bookable = Shard::new(u32::MAX, cfg.shard_link_rate, cfg.overbook)
            .admission()
            .bookable_capacity();
        let registry = Arc::new(Registry::new(cfg.shards as usize));
        let migrated = Arc::new(Mutex::new(Vec::new()));
        let idle = Arc::new(IdleSignal::default());
        let handles = (0..cfg.shards)
            .map(|i| {
                let shard = Shard::new(i, cfg.shard_link_rate, cfg.overbook);
                let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity.max(1));
                let committed = Arc::new(AtomicU64::new(0));
                let shared = Arc::new(SharedShard::default());
                let retired = Arc::new(Mutex::new(Vec::new()));
                let join = {
                    let committed = Arc::clone(&committed);
                    let shared = Arc::clone(&shared);
                    let retired = Arc::clone(&retired);
                    let telemetry = registry.shard(i as usize);
                    let migrated = Arc::clone(&migrated);
                    let idle = Arc::clone(&idle);
                    let pacing = cfg.pacing;
                    std::thread::Builder::new()
                        .name(format!("smoothd-shard-{i}"))
                        .spawn(move || {
                            worker(
                                shard, rx, committed, shared, retired, telemetry, migrated,
                                idle, pacing,
                            )
                        })
                        .expect("spawn shard worker")
                };
                ShardHandle {
                    tx,
                    committed,
                    shared,
                    retired,
                    join,
                }
            })
            .collect();
        let shards = cfg.shards as usize;
        Daemon {
            cfg,
            handles,
            directory: HashMap::new(),
            next_id: 1,
            bookable_per_shard: bookable,
            retired_sessions: 0,
            events: Vec::new(),
            retire_scratch: Vec::new(),
            registry,
            migrated,
            idle,
            last_migration: None,
            last_rebalance: Instant::now(),
            rebalance_marks: vec![(0, 0); shards],
        }
    }

    /// The live instrument registry. Cloneable handle: scrapers (the
    /// metrics listener, ingest decode timing) read and write it
    /// without holding the daemon lock.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    fn record(&mut self, event: Event) {
        if self.cfg.record_events {
            self.events.push(event);
        }
    }

    /// Moves accumulated lifecycle events into `out`.
    pub fn take_events(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.events);
    }

    /// Routes by measured shard cost: projects each shard's next slot
    /// time as `sessions · μ` where `μ` is the measured per-session
    /// slot cost (last published `process_slot` nanoseconds divided by
    /// resident sessions), and picks the candidate whose projection
    /// after taking `pending[i]` more sessions is smallest. Shards
    /// whose residual bookable rate cannot fit `rate` are skipped. An
    /// idle shard borrows the cheapest measured μ so it is preferred
    /// exactly when it would finish first, and the projection
    /// degenerates to least-session-count when every μ is equal.
    fn route(&self, rate: Bytes, pending: &[u64]) -> Option<u32> {
        let mut min_mu = u64::MAX;
        for h in &self.handles {
            let live = h.shared.sessions.load(Ordering::Relaxed);
            let ns = h.shared.slot_ns.load(Ordering::Relaxed);
            if let Some(mu) = ns.checked_div(live) {
                min_mu = min_mu.min(mu.max(1));
            }
        }
        if min_mu == u64::MAX {
            min_mu = 1; // no shard has measured anything yet
        }
        let mut best: Option<(u32, u128)> = None;
        for (i, h) in self.handles.iter().enumerate() {
            let committed = h.committed.load(Ordering::Relaxed);
            let residual = self.bookable_per_shard.saturating_sub(committed);
            if residual < rate {
                continue;
            }
            let live = h.shared.sessions.load(Ordering::Relaxed);
            let mu = h
                .shared
                .slot_ns
                .load(Ordering::Relaxed)
                .checked_div(live)
                .map_or(min_mu, |m| m.max(1));
            let projected = (live + pending[i] + 1) as u128 * mu as u128;
            if best.map(|(_, c)| projected < c).unwrap_or(true) {
                best = Some((i as u32, projected));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Picks a shard by measured cost and reserves `rate` on its
    /// mirror.
    fn reserve(&mut self, rate: Bytes) -> Option<u32> {
        let pending = vec![0u64; self.handles.len()];
        let shard = self.route(rate, &pending)?;
        self.handles[shard as usize]
            .committed
            .fetch_add(rate, Ordering::Relaxed);
        Some(shard)
    }

    fn admit_inner(
        &mut self,
        req: &AdmitRequest,
        source: Option<ArrivalSource>,
        blocking: bool,
    ) -> Result<(SessionId, u32), RejectReason> {
        let params = Shard::params_of(req)?;
        if params.buffer > params.delay_bandwidth_product() {
            return Err(RejectReason::Infeasible);
        }
        let Some(shard) = self.reserve(params.rate) else {
            return Err(RejectReason::Capacity);
        };
        let id = self.next_id;
        let cmd = Command::Admit {
            id,
            req: *req,
            source,
        };
        let h = &self.handles[shard as usize];
        if blocking {
            if h.tx.send(cmd).is_err() {
                h.committed.fetch_sub(params.rate, Ordering::Relaxed);
                return Err(RejectReason::Backpressure);
            }
        } else {
            match h.tx.try_send(cmd) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    h.committed.fetch_sub(params.rate, Ordering::Relaxed);
                    return Err(RejectReason::Backpressure);
                }
            }
        }
        self.next_id += 1;
        self.directory.insert(id, shard);
        let time = self.handles[shard as usize]
            .shared
            .slots
            .load(Ordering::Relaxed);
        self.record(Event::SessionJoined {
            time,
            session: id,
            shard,
            rate: params.rate,
        });
        Ok((id, shard))
    }

    /// Admits a session, blocking while the target shard's queue is
    /// full (loader / benchmark path).
    pub fn admit(&mut self, req: &AdmitRequest) -> Result<(SessionId, u32), RejectReason> {
        self.admit_with_outcome(req, None, true)
    }

    /// Admits without blocking; a full queue rejects with
    /// [`RejectReason::Backpressure`] (ingest path).
    pub fn try_admit(&mut self, req: &AdmitRequest) -> Result<(SessionId, u32), RejectReason> {
        self.admit_with_outcome(req, None, false)
    }

    /// Admits with an explicit arrival source (trace replay).
    pub fn admit_with_source(
        &mut self,
        req: &AdmitRequest,
        source: ArrivalSource,
    ) -> Result<(SessionId, u32), RejectReason> {
        self.admit_with_outcome(req, Some(source), true)
    }

    /// Admits one session onto an explicit shard, bypassing the cost
    /// router (load-testing hook: benches and tests use it to build
    /// deliberately skewed populations for the rebalancer to fix).
    pub fn admit_pinned(
        &mut self,
        req: &AdmitRequest,
        shard: u32,
    ) -> Result<SessionId, RejectReason> {
        let params = Shard::params_of(req)?;
        if params.buffer > params.delay_bandwidth_product() {
            return Err(RejectReason::Infeasible);
        }
        let h = self
            .handles
            .get(shard as usize)
            .ok_or(RejectReason::UnknownSession)?;
        let committed = h.committed.load(Ordering::Relaxed);
        if self.bookable_per_shard.saturating_sub(committed) < params.rate {
            return Err(RejectReason::Capacity);
        }
        h.committed.fetch_add(params.rate, Ordering::Relaxed);
        let id = self.next_id;
        let cmd = Command::Admit {
            id,
            req: *req,
            source: None,
        };
        if self.handles[shard as usize].tx.send(cmd).is_err() {
            self.handles[shard as usize]
                .committed
                .fetch_sub(params.rate, Ordering::Relaxed);
            return Err(RejectReason::Backpressure);
        }
        self.next_id += 1;
        self.directory.insert(id, shard);
        Ok(id)
    }

    /// Admits up to `count` identical sessions through the batched
    /// path: ids are consecutive from the returned first id, placement
    /// routes whole chunks by measured shard cost, and each chunk
    /// costs one bounded-queue push instead of one per session.
    /// Returns how many were actually admitted (capacity may truncate;
    /// zero admissions reject with the blocking reason).
    pub fn admit_batch(
        &mut self,
        req: &AdmitRequest,
        count: u64,
    ) -> Result<BatchAdmission, RejectReason> {
        let params = Shard::params_of(req)?;
        if params.buffer > params.delay_bandwidth_product() {
            return Err(RejectReason::Infeasible);
        }
        let first = self.next_id;
        let mut admitted = 0u64;
        let mut pending = vec![0u64; self.handles.len()];
        // Chunks small enough to spread across shards, large enough to
        // amortize the queue crossing.
        const CHUNK: u64 = 1024;
        let mut reject = RejectReason::Capacity;
        while admitted < count {
            let Some(shard) = self.route(params.rate, &pending) else {
                break;
            };
            let h = &self.handles[shard as usize];
            let committed = h.committed.load(Ordering::Relaxed);
            let residual = self.bookable_per_shard.saturating_sub(committed);
            let chunk = (count - admitted).min(CHUNK).min(residual / params.rate);
            if chunk == 0 {
                break;
            }
            h.committed
                .fetch_add(params.rate * chunk, Ordering::Relaxed);
            let cmd = Command::AdmitBatch {
                first_id: self.next_id,
                count: chunk as u32,
                req: *req,
            };
            if h.tx.send(cmd).is_err() {
                h.committed
                    .fetch_sub(params.rate * chunk, Ordering::Relaxed);
                reject = RejectReason::Backpressure;
                break;
            }
            let time = h.shared.slots.load(Ordering::Relaxed);
            for k in 0..chunk {
                self.directory.insert(self.next_id + k, shard);
            }
            if self.cfg.record_events {
                for k in 0..chunk {
                    self.events.push(Event::SessionJoined {
                        time,
                        session: self.next_id + k,
                        shard,
                        rate: params.rate,
                    });
                }
            }
            self.next_id += chunk;
            pending[shard as usize] += chunk;
            admitted += chunk;
        }
        if admitted == 0 {
            let time = self.max_slots();
            self.record(Event::IngestRejected {
                time,
                session: 0,
                reason: reject,
            });
            self.registry.record_reject(reject);
            return Err(reject);
        }
        Ok(BatchAdmission { first, admitted })
    }

    fn admit_with_outcome(
        &mut self,
        req: &AdmitRequest,
        source: Option<ArrivalSource>,
        blocking: bool,
    ) -> Result<(SessionId, u32), RejectReason> {
        match self.admit_inner(req, source, blocking) {
            Ok(ok) => Ok(ok),
            Err(reason) => {
                let time = self.max_slots();
                self.record(Event::IngestRejected {
                    time,
                    session: 0,
                    reason,
                });
                self.registry.record_reject(reason);
                Err(reason)
            }
        }
    }

    fn shard_of(&self, id: SessionId) -> Result<u32, RejectReason> {
        self.directory
            .get(&id)
            .copied()
            .ok_or(RejectReason::UnknownSession)
    }

    fn push(&mut self, id: SessionId, cmd: Command) -> Result<(), RejectReason> {
        let shard = self.shard_of(id)?;
        match self.handles[shard as usize].tx.try_send(cmd) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                let time = self.max_slots();
                self.record(Event::IngestRejected {
                    time,
                    session: id,
                    reason: RejectReason::Backpressure,
                });
                self.registry.record_reject(RejectReason::Backpressure);
                Err(RejectReason::Backpressure)
            }
        }
    }

    /// Feeds slices to an externally-sourced session.
    pub fn inject(
        &mut self,
        id: SessionId,
        slices: Vec<(Bytes, Weight)>,
    ) -> Result<(), RejectReason> {
        self.push(id, Command::Inject { id, slices })
    }

    /// Requests a graceful drain of one session.
    pub fn drain(&mut self, id: SessionId) -> Result<(), RejectReason> {
        self.push(id, Command::Drain { id })
    }

    /// Evicts one session immediately.
    pub fn evict(&mut self, id: SessionId) -> Result<(), RejectReason> {
        self.push(id, Command::Evict { id })
    }

    /// Harvests completed migrations: repoints directory entries and
    /// bumps the daemon-wide counters. Ordered before the retirement
    /// harvest inside [`Daemon::poll`] — a record for a session whose
    /// retirement was already harvested is skipped (the directory
    /// presence check), never resurrected.
    fn harvest_migrations(&mut self) -> u64 {
        let mut records = self.migrated.lock().expect("migration sink poisoned");
        if records.is_empty() {
            return 0;
        }
        let drained: Vec<MigrationRecord> = records.drain(..).collect();
        drop(records);
        let n = drained.len() as u64;
        self.registry.migrations.add(n);
        for m in &drained {
            if let Some(entry) = self.directory.get_mut(&m.session) {
                *entry = m.to;
            }
            self.last_migration = Some((m.from, m.to));
        }
        n
    }

    /// Harvests worker retirements: updates the directory, counts
    /// them, and records `SessionRetired` events. Returns how many
    /// sessions retired since the last poll. Also drives the
    /// rebalancer when it is enabled and its interval has elapsed.
    pub fn poll(&mut self) -> u64 {
        self.harvest_migrations();
        if self.cfg.rebalance.enabled
            && self.last_rebalance.elapsed() >= self.cfg.rebalance.interval
        {
            self.rebalance_now();
        }
        let mut harvested = std::mem::take(&mut self.retire_scratch);
        harvested.clear();
        for h in &self.handles {
            let mut sink = h.retired.lock().expect("retirement sink poisoned");
            harvested.append(&mut sink);
        }
        let n = harvested.len() as u64;
        self.retired_sessions += n;
        self.registry.retired.add(n);
        let events_on = self.cfg.record_events;
        for r in &harvested {
            self.directory.remove(&r.session);
            if events_on {
                self.events.push(Event::SessionRetired {
                    time: r.slot,
                    session: r.session,
                    shard: r.shard,
                    reason: r.cause,
                });
            }
        }
        harvested.clear();
        self.retire_scratch = harvested;
        n
    }

    /// Live session count as published by the workers.
    pub fn live_sessions(&self) -> u64 {
        self.handles
            .iter()
            .map(|h| h.shared.sessions.load(Ordering::Relaxed))
            .sum()
    }

    fn max_slots(&self) -> Time {
        self.handles
            .iter()
            .map(|h| h.shared.slots.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// A point-in-time aggregate snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            sessions: self.live_sessions(),
            slices_played: self
                .handles
                .iter()
                .map(|h| h.shared.played.load(Ordering::Relaxed))
                .sum(),
            slots: self.max_slots(),
            retired: self.retired_sessions,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.cfg.shards
    }

    /// The detailed live telemetry frame: per-shard rows plus stage
    /// digests, built from the registry without stopping any worker.
    /// Truncated to [`MAX_STATS_SHARDS`] rows (one frame's worth).
    pub fn stats_detail(&self) -> StatsDetail {
        let snap = self.registry.snapshot();
        let shards = snap
            .shards
            .iter()
            .take(MAX_STATS_SHARDS)
            .map(|s| ShardRow {
                shard: s.shard as u32,
                sessions: s.sessions,
                slots: s.slots,
                played: s.played_slices,
                sent_bytes: s.sent_bytes,
                deadline_misses: s.deadline_misses,
                slot_overruns: s.slot_overruns,
                imbalance_milli: s.imbalance_milli,
                latency: HistSummary::from_histogram(&s.latency),
            })
            .collect();
        let (last_from, last_to) = self.last_migration.unwrap_or((u32::MAX, u32::MAX));
        StatsDetail {
            retired: snap.retired,
            rejects: snap.rejects,
            snapshot_bytes: snap.snapshot_bytes,
            snapshot_duration_ns: snap.snapshot_duration_ns,
            restored_sessions: snap.restored_sessions,
            migrations: snap.migrations,
            last_migration_from: last_from,
            last_migration_to: last_to,
            lateness: HistSummary::from_histogram(&snap.lateness),
            stages: [
                HistSummary::from_histogram(&snap.ingest_decode),
                HistSummary::from_histogram(&snap.admit),
                HistSummary::from_histogram(&snap.process),
                HistSummary::from_histogram(&snap.retire),
            ],
            shards,
        }
    }

    /// Checkpoints every resident session into the on-disk snapshot
    /// format without stopping the daemon: each worker serializes its
    /// shard between slots and keeps running. Returns the session
    /// count and the encoded bytes ([`crate::read_snapshot`] inverts
    /// them). Shards checkpoint at independent slot boundaries, which
    /// is sufficient: a session is a function of its own local clock
    /// only, so the combined retire ledger after a restore is
    /// byte-identical to an uninterrupted run.
    pub fn snapshot(&mut self) -> (u64, Vec<u8>) {
        let started = Instant::now();
        let (reply, rx) = mpsc::sync_channel(self.handles.len());
        let mut expected = 0usize;
        for h in &self.handles {
            // Blocking send: the checkpoint must land even when the
            // queue is momentarily full. A hung-up worker (shutdown
            // race) is skipped.
            if h.tx
                .send(Command::Snapshot {
                    reply: reply.clone(),
                })
                .is_ok()
            {
                expected += 1;
            }
        }
        drop(reply);
        let mut merged = SnapshotWriter::new();
        for _ in 0..expected {
            match rx.recv() {
                Ok(w) => merged.merge(w),
                Err(_) => break,
            }
        }
        let sessions = merged.sessions();
        let bytes = merged.finish();
        self.registry.snapshot_bytes.add(bytes.len() as u64);
        self.registry
            .snapshot_duration_ns
            .add(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        (sessions, bytes)
    }

    /// Restores every session from `bytes` (a [`Daemon::snapshot`]
    /// image) into this daemon, routing each through the measured-cost
    /// placement and reserving its rate before the worker sees it.
    /// All-or-nothing: a torn or corrupt snapshot, a duplicate or
    /// already-resident session id, or a population this daemon cannot
    /// book refuses the whole restore with a typed error and admits
    /// nothing. Returns the number of sessions restored.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<u64, SnapshotError> {
        let sessions = read_snapshot(bytes)?;
        let mut seen = std::collections::HashSet::with_capacity(sessions.len());
        for s in &sessions {
            if !seen.insert(s.id()) || self.directory.contains_key(&s.id()) {
                return Err(SnapshotError::Malformed("duplicate session id"));
            }
        }
        // Plan the full placement against a local residual mirror
        // before moving anything: widest residual first keeps the plan
        // feasible whenever any assignment is.
        let mut residual: Vec<Bytes> = self
            .handles
            .iter()
            .map(|h| {
                self.bookable_per_shard
                    .saturating_sub(h.committed.load(Ordering::Relaxed))
            })
            .collect();
        let mut placement = Vec::with_capacity(sessions.len());
        for s in &sessions {
            let Some((shard, _)) = residual
                .iter()
                .enumerate()
                .filter(|&(_, r)| *r >= s.rate())
                .max_by_key(|&(_, r)| *r)
            else {
                return Err(SnapshotError::Capacity { rate: s.rate() });
            };
            residual[shard] -= s.rate();
            placement.push(shard as u32);
        }
        let count = sessions.len() as u64;
        for (s, &shard) in sessions.into_iter().zip(&placement) {
            let id = s.id();
            let rate = s.rate();
            let h = &self.handles[shard as usize];
            h.committed.fetch_add(rate, Ordering::Relaxed);
            h.tx.send(Command::Import {
                session: Box::new(s),
            })
            .expect("shard worker hung up during restore");
            self.directory.insert(id, shard);
            self.next_id = self.next_id.max(id + 1);
        }
        self.registry.restored_sessions.add(count);
        Ok(count)
    }

    /// One rebalance evaluation, regardless of the configured
    /// interval: reads the per-shard registry (sessions, recent
    /// deadline-miss rate, slot p99), refreshes the per-shard
    /// imbalance gauges, and — when the donor/receiver cost spread
    /// crosses the hysteresis threshold — asks the donor to migrate
    /// sessions toward the cost midpoint. Returns the number of
    /// sessions requested to move (0 when balanced).
    pub fn rebalance_now(&mut self) -> u64 {
        self.last_rebalance = Instant::now();
        if self.handles.len() < 2 {
            return 0;
        }
        let snap = self.registry.snapshot();
        // Cost per shard: resident sessions scaled by the windowed
        // deadline-miss rate (milli-units). A shard missing half its
        // deadlines costs 1.5x its session count.
        let mut costs = Vec::with_capacity(self.handles.len());
        let mut total_cost: u128 = 0;
        for (i, s) in snap.shards.iter().enumerate() {
            let (last_slots, last_misses) = self.rebalance_marks[i];
            let slots_d = s.slots.saturating_sub(last_slots);
            let miss_d = s.deadline_misses.saturating_sub(last_misses);
            self.rebalance_marks[i] = (s.slots, s.deadline_misses);
            let miss_milli = (miss_d * 1000).checked_div(slots_d).unwrap_or(0).min(1000);
            let cost = s.sessions * (1000 + miss_milli);
            total_cost += cost as u128;
            costs.push(cost);
        }
        // Publish the imbalance gauges (cost over mean, milli-units)
        // whether or not anything moves.
        let n = costs.len() as u128;
        let mean_cost = (total_cost / n).max(1);
        for (i, &cost) in costs.iter().enumerate() {
            let gauge = (cost as u128 * 1000 / mean_cost).min(u64::MAX as u128) as u64;
            self.registry.shard(i).imbalance_milli.set(gauge);
        }
        // Donor: max cost, slot p99 breaking ties; receiver: min cost.
        let p99 = |i: usize| snap.shards[i].latency.quantile(0.99);
        let mut donor = 0usize;
        let mut receiver = 0usize;
        for i in 1..costs.len() {
            if costs[i] > costs[donor] || (costs[i] == costs[donor] && p99(i) > p99(donor)) {
                donor = i;
            }
            if costs[i] < costs[receiver]
                || (costs[i] == costs[receiver] && p99(i) < p99(receiver))
            {
                receiver = i;
            }
        }
        let donor_sessions = snap.shards[donor].sessions;
        let receiver_sessions = snap.shards[receiver].sessions;
        if donor_sessions.saturating_sub(receiver_sessions) < self.cfg.rebalance.min_gap {
            return 0;
        }
        if costs[donor] * 1000 <= self.cfg.rebalance.high_ratio_milli * costs[receiver].max(1) {
            return 0;
        }
        let moves = ((donor_sessions - receiver_sessions) / 2)
            .min(self.cfg.rebalance.max_moves as u64)
            .min((self.cfg.queue_capacity / 2).max(1) as u64)
            .max(1);
        let rh = &self.handles[receiver];
        let cmd = Command::Export {
            to: rh.tx.clone(),
            to_committed: Arc::clone(&rh.committed),
            to_bookable: self.bookable_per_shard,
            to_shard: receiver as u32,
            max_sessions: moves as usize,
        };
        match self.handles[donor].tx.try_send(cmd) {
            Ok(()) => moves,
            // Donor busy: skip this cycle, the next interval retries.
            Err(_) => 0,
        }
    }

    /// Cumulative completed migrations (post-harvest view).
    pub fn migrations(&self) -> u64 {
        self.registry.migrations.get()
    }

    /// Polls until every session has retired or `timeout` elapses.
    /// Returns `true` when fully idle. Blocks on the workers'
    /// retirement condvar between polls instead of busy-sleeping, so
    /// idle detection is prompt and contention-free.
    pub fn wait_idle(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Observe the epoch *before* polling: a retirement landing
            // mid-poll advances it and the wait returns immediately.
            let observed = self.idle.observe();
            self.poll();
            if self.live_sessions() == 0 && self.directory.is_empty() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // Defensive cap so a missed publication can only delay,
            // never wedge; the common path wakes on the condvar bump.
            let wait = (deadline - now).min(Duration::from_millis(250));
            self.idle.wait_past(observed, wait);
        }
    }

    /// Stops the workers — draining every session first when `drain`
    /// is true, evicting otherwise — and merges the final report.
    pub fn shutdown(mut self, drain: bool) -> DaemonReport {
        for h in &self.handles {
            // Blocking send: Stop must arrive even on a full queue.
            let _ = h.tx.send(Command::Stop { drain });
        }
        self.harvest_migrations();
        let mut shards = Vec::with_capacity(self.handles.len());
        let mut totals = SessionCounters::default();
        let mut latency = LogHistogram::new();
        let events_on = self.cfg.record_events;
        let handles = std::mem::take(&mut self.handles);
        for h in handles {
            drop(h.tx);
            let shard = h.join.join().expect("shard worker panicked");
            // Final harvest for events and the directory.
            let mut sink = h.retired.lock().expect("retirement sink poisoned");
            for r in sink.drain(..) {
                self.retired_sessions += 1;
                self.registry.retired.inc();
                self.directory.remove(&r.session);
                if events_on {
                    self.events.push(Event::SessionRetired {
                        time: r.slot,
                        session: r.session,
                        shard: r.shard,
                        reason: r.cause,
                    });
                }
            }
            drop(sink);
            let counters = shard.totals();
            totals.add(&counters);
            latency.merge(&shard.stats().latency);
            let telemetry = self.registry.shard(shard.id() as usize);
            shards.push(ShardReport {
                id: shard.id(),
                slots: shard.stats().slots,
                link_rate: shard.admission().link_rate(),
                counters,
                max_slot_sent: shard.stats().max_slot_sent,
                peak_sessions: shard.stats().peak_sessions,
                latency: shard.stats().latency.clone(),
                deadline_misses: telemetry.deadline_misses.get(),
                slot_overruns: telemetry.slot_overruns.get(),
            });
        }
        // Exports applied between the Stop send and the worker joins
        // can still have produced records; count them all.
        self.harvest_migrations();
        DaemonReport {
            shards,
            totals,
            retired_sessions: self.retired_sessions,
            latency,
            rejects: self.registry.rejects(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::WirePolicy;

    fn cbr_request(rate: Bytes, lifetime: u64) -> AdmitRequest {
        AdmitRequest {
            rate,
            delay: 3,
            link_delay: 1,
            buffer: 0,
            weight: 1,
            policy: WirePolicy::Tail,
            per_slot: rate as u32,
            slice_size: 1,
            lifetime,
        }
    }

    fn small_config(shards: u32, rate: Bytes) -> DaemonConfig {
        DaemonConfig {
            shards,
            shard_link_rate: rate,
            overbook: (1, 1),
            queue_capacity: 64,
            pacing: SlotPacing::Free,
            record_events: true,
            rebalance: RebalanceConfig::default(),
        }
    }

    #[test]
    fn sessions_complete_and_ledger_conserves() {
        let mut d = Daemon::start(small_config(2, 64));
        for _ in 0..16 {
            d.admit(&cbr_request(4, 12)).expect("capacity available");
        }
        assert!(d.wait_idle(Duration::from_secs(20)), "sessions must finish");
        let report = d.shutdown(true);
        assert!(report.totals.conserved(), "daemon ledger must balance");
        assert_eq!(report.totals.offered_bytes, 16 * 4 * 12);
        assert_eq!(
            report.totals.played_bytes, report.totals.offered_bytes,
            "uncontended sessions play everything"
        );
        assert_eq!(report.retired_sessions, 16);
        for s in &report.shards {
            assert!(s.max_slot_sent <= s.link_rate);
        }
    }

    #[test]
    fn capacity_rejection_is_typed_and_released_on_retirement() {
        let mut d = Daemon::start(small_config(1, 8));
        let (id, _) = d.admit(&cbr_request(8, 0)).unwrap();
        assert_eq!(d.admit(&cbr_request(1, 4)), Err(RejectReason::Capacity));
        d.drain(id).unwrap();
        assert!(d.wait_idle(Duration::from_secs(20)));
        d.admit(&cbr_request(8, 4)).expect("capacity came back");
        assert!(d.wait_idle(Duration::from_secs(20)));
        let report = d.shutdown(true);
        assert!(report.totals.conserved());
        assert_eq!(report.retired_sessions, 2);
    }

    #[test]
    fn eviction_shutdown_still_balances_the_ledger() {
        let mut d = Daemon::start(small_config(2, 32));
        for _ in 0..8 {
            d.admit(&cbr_request(4, 0)).unwrap(); // unbounded
        }
        // Give the workers a moment to move bytes.
        std::thread::sleep(Duration::from_millis(20));
        let report = d.shutdown(false);
        assert!(report.totals.conserved(), "evicted ledgers must balance");
        assert!(report.totals.evicted_bytes > 0, "eviction charged the pools");
        assert_eq!(report.retired_sessions, 8);
    }

    #[test]
    fn lifecycle_events_are_recorded() {
        let mut d = Daemon::start(small_config(1, 8));
        let (id, _) = d.admit(&cbr_request(4, 6)).unwrap();
        assert!(d.wait_idle(Duration::from_secs(20)));
        assert_eq!(d.admit(&cbr_request(0, 1)), Err(RejectReason::ZeroRate));
        let mut events = Vec::new();
        d.take_events(&mut events);
        assert!(events.iter().any(
            |e| matches!(e, Event::SessionJoined { session, rate, .. } if *session == id && *rate == 4)
        ));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::SessionRetired {
                session,
                reason: rts_obs::RetireReason::Completed,
                ..
            } if *session == id
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::IngestRejected { reason: RejectReason::ZeroRate, .. })));
        d.shutdown(true);
    }

    #[test]
    fn deadline_pacing_holds_the_period_on_an_idle_shard() {
        // An idle shard (one tiny CBR session, sub-microsecond slot
        // work) under deadline pacing must realize ≈ slots·period of
        // wall time: the clock absorbs per-slot work instead of adding
        // the interval on top. Lower bound only — a loaded CI box can
        // stretch time, never compress it.
        let period = Duration::from_millis(2);
        let mut cfg = small_config(1, 64);
        cfg.pacing = SlotPacing::Deadline(period);
        let mut d = Daemon::start(cfg);
        let started = Instant::now();
        d.admit(&cbr_request(4, 20)).expect("capacity available");
        assert!(d.wait_idle(Duration::from_secs(30)));
        let elapsed = started.elapsed();
        let report = d.shutdown(true);
        let slots = report.total_slots();
        assert!(slots >= 20, "session lives ≥ its 20-slot lifetime");
        // All but the final slot must each have consumed a full period
        // (admission latency can delay the first arm, hence -1).
        let floor = period * (slots.saturating_sub(1) as u32);
        assert!(
            elapsed >= floor,
            "paced run finished too fast: {elapsed:?} < {slots}·{period:?}"
        );
    }

    #[test]
    fn report_surfaces_per_reason_rejects() {
        let mut d = Daemon::start(small_config(1, 8));
        let (id, _) = d.admit(&cbr_request(8, 0)).unwrap();
        assert_eq!(d.admit(&cbr_request(1, 4)), Err(RejectReason::Capacity));
        assert_eq!(d.admit(&cbr_request(0, 1)), Err(RejectReason::ZeroRate));
        assert_eq!(d.admit(&cbr_request(0, 1)), Err(RejectReason::ZeroRate));
        d.drain(id).unwrap();
        assert!(d.wait_idle(Duration::from_secs(20)));
        let report = d.shutdown(true);
        let by_reason: Vec<_> = report.rejects_by_reason().collect();
        assert_eq!(
            by_reason,
            vec![(RejectReason::Capacity, 1), (RejectReason::ZeroRate, 2)]
        );
        assert_eq!(
            report.rejects.iter().sum::<u64>(),
            3,
            "per-reason counts add up to the aggregate"
        );
    }

    #[test]
    fn stats_detail_mirrors_the_registry() {
        let mut d = Daemon::start(small_config(2, 64));
        for _ in 0..8 {
            d.admit(&cbr_request(4, 10)).unwrap();
        }
        assert_eq!(d.admit(&cbr_request(0, 1)), Err(RejectReason::ZeroRate));
        assert!(d.wait_idle(Duration::from_secs(20)));
        d.poll();
        let detail = d.stats_detail();
        assert_eq!(detail.shards.len(), 2);
        assert_eq!(detail.retired, 8);
        assert_eq!(detail.rejects.iter().sum::<u64>(), 1);
        let total_slots: u64 = detail.shards.iter().map(|s| s.slots).sum();
        assert!(total_slots > 0, "workers stepped slots");
        // 8 sessions × 4 one-byte slices per slot × 10 slots.
        let total_played: u64 = detail.shards.iter().map(|s| s.played).sum();
        assert_eq!(total_played, 8 * 4 * 10, "every generated slice played");
        // The per-shard latency digests cover every stepped slot.
        let digest_count: u64 = detail.shards.iter().map(|s| s.latency.count).sum();
        assert_eq!(digest_count, total_slots);
        // Stage digests: process mirrors the per-shard latency count.
        assert_eq!(detail.stages[2].count, total_slots);
        d.shutdown(true);
    }

    #[test]
    fn unknown_session_operations_reject() {
        let mut d = Daemon::start(small_config(1, 8));
        assert_eq!(d.drain(999), Err(RejectReason::UnknownSession));
        assert_eq!(d.evict(999), Err(RejectReason::UnknownSession));
        assert_eq!(
            d.inject(999, vec![(1, 1)]),
            Err(RejectReason::UnknownSession)
        );
        d.shutdown(true);
    }

    #[test]
    fn batched_admission_assigns_consecutive_ids_and_conserves() {
        // 2 shards x link 64, rate 4 => 16 bookable per shard, 32 total.
        // Unbounded sessions (lifetime 0) so nothing retires — and frees
        // capacity — between the three admission calls below.
        let mut d = Daemon::start(small_config(2, 64));
        let req = cbr_request(4, 0);
        let batch = d.admit_batch(&req, 24).unwrap();
        assert_eq!(batch.admitted, 24);
        // A second oversized batch truncates at residual capacity...
        let rest = d.admit_batch(&req, 100).unwrap();
        assert_eq!(rest.admitted, 8);
        // ...and a third finds nothing left.
        assert_eq!(d.admit_batch(&req, 1), Err(RejectReason::Capacity));
        // Ids are consecutive from `first`: every one is addressable.
        for id in batch.first..batch.first + batch.admitted {
            assert!(d.drain(id).is_ok(), "id {id} not admitted");
        }
        for id in rest.first..rest.first + rest.admitted {
            assert!(d.drain(id).is_ok(), "id {id} not admitted");
        }
        assert!(d.wait_idle(Duration::from_secs(30)));
        let report = d.shutdown(true);
        assert_eq!(report.retired_sessions, 32);
        assert!(report.totals.conserved(), "{:?}", report.totals);
        assert_eq!(report.totals.evicted_bytes, 0);
    }

    #[test]
    fn rebalancer_migrates_a_skewed_population_without_losing_bytes() {
        let mut cfg = small_config(2, 256);
        cfg.rebalance = RebalanceConfig {
            enabled: true,
            min_gap: 8,
            ..RebalanceConfig::default()
        };
        let mut d = Daemon::start(cfg);
        // All load pinned onto shard 0: maximal skew, unbounded CBR so
        // nothing retires out from under the rebalancer.
        let req = cbr_request(4, 0);
        for _ in 0..32 {
            d.admit_pinned(&req, 0).unwrap();
        }
        // The sessions gauge is published by the worker loop; give the
        // queued admissions a moment to land before reading the skew.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut moves = 0;
        while moves == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            moves = d.rebalance_now();
        }
        assert!(moves >= 8, "skewed run scheduled only {moves} move(s)");
        while d.migrations() == 0 && Instant::now() < deadline {
            d.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(d.migrations() >= 1, "no migration completed");
        let detail = d.stats_detail();
        assert!(detail.migrations >= 1);
        assert_eq!(detail.last_migration_from, 0);
        assert_eq!(detail.last_migration_to, 1);
        let moved: u64 = detail.shards[1].sessions;
        assert!(moved >= 1, "receiver shard still empty: {detail:?}");
        // Migrated sessions stay addressable at their new home.
        let report = d.shutdown(false);
        assert_eq!(report.retired_sessions, 32);
        assert!(report.totals.conserved(), "{:?}", report.totals);
    }

    #[test]
    fn balanced_population_does_not_migrate() {
        let mut cfg = small_config(2, 64);
        cfg.rebalance.enabled = true;
        let mut d = Daemon::start(cfg);
        let req = cbr_request(4, 0);
        for shard in 0..2 {
            for _ in 0..8 {
                d.admit_pinned(&req, shard).unwrap();
            }
        }
        // Hysteresis: equal costs are left alone.
        assert_eq!(d.rebalance_now(), 0);
        assert_eq!(d.migrations(), 0);
        let report = d.shutdown(false);
        assert!(report.totals.conserved(), "{:?}", report.totals);
    }

    #[test]
    fn snapshot_restore_moves_a_live_population_between_daemons() {
        let mut d = Daemon::start(small_config(2, 64));
        let mut ids = Vec::new();
        for _ in 0..8 {
            ids.push(d.admit(&cbr_request(4, 0)).unwrap().0); // unbounded
        }
        // Let the workers move bytes so the checkpoint is mid-flight.
        std::thread::sleep(Duration::from_millis(10));
        let (n, bytes) = d.snapshot();
        assert_eq!(n, 8, "all resident sessions checkpointed");
        // The source daemon keeps running; the checkpoint is passive.
        assert_eq!(d.live_sessions(), 8);

        let mut restored = Daemon::start(small_config(2, 64));
        assert_eq!(restored.restore(&bytes).unwrap(), 8);
        // Restoring the same ids twice must refuse before admitting.
        assert_eq!(
            restored.restore(&bytes),
            Err(SnapshotError::Malformed("duplicate session id"))
        );
        // Every restored session is addressable at its original id.
        for &id in &ids {
            assert!(restored.drain(id).is_ok(), "id {id} lost in restore");
        }
        assert!(restored.wait_idle(Duration::from_secs(20)));
        let report = restored.shutdown(true);
        assert_eq!(report.retired_sessions, 8);
        assert!(report.totals.conserved(), "{:?}", report.totals);
        let src = d.shutdown(false);
        assert!(src.totals.conserved());
    }

    #[test]
    fn restore_refuses_an_oversized_population() {
        let mut d = Daemon::start(small_config(1, 64));
        for _ in 0..4 {
            d.admit(&cbr_request(16, 0)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(5));
        let (n, bytes) = d.snapshot();
        assert_eq!(n, 4);
        d.shutdown(false);
        // A daemon half the size cannot book the rate: nothing lands.
        let mut small = Daemon::start(small_config(1, 32));
        assert_eq!(
            small.restore(&bytes),
            Err(SnapshotError::Capacity { rate: 16 })
        );
        assert_eq!(small.live_sessions(), 0);
        let report = small.shutdown(true);
        assert_eq!(report.retired_sessions, 0);
    }

    #[test]
    fn wait_idle_returns_promptly_after_the_last_retirement() {
        // Deadline pacing, 1 ms slots, 40-slot lifetimes: retirement
        // lands ~40 ms in. The condvar wait must pick it up without
        // burning the rest of the (generous) timeout.
        let cfg = DaemonConfig {
            pacing: SlotPacing::Deadline(Duration::from_millis(1)),
            ..small_config(1, 64)
        };
        let mut d = Daemon::start(cfg);
        for _ in 0..4 {
            d.admit(&cbr_request(4, 40)).unwrap();
        }
        let started = Instant::now();
        assert!(d.wait_idle(Duration::from_secs(60)));
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(10),
            "wait_idle took {waited:?} for a ~40 ms workload"
        );
        let report = d.shutdown(true);
        assert_eq!(report.retired_sessions, 4);
    }
}
