//! The instrument registry: one [`ShardTelemetry`] per worker plus
//! daemon-wide instruments, shared between the data plane (writers)
//! and scrapers (readers) through plain `Arc`s — no locks anywhere.

use std::sync::Arc;

use rts_obs::{LogHistogram, RejectReason};

use crate::atomic::{AtomicCounter, AtomicHistogram};

/// Live instruments for one shard worker. The owning worker writes the
/// slot, session and stage instruments; the control plane writes the
/// migration counters and the imbalance gauge. Anyone may read.
#[derive(Debug, Default)]
pub struct ShardTelemetry {
    /// Resident sessions (gauge, overwritten each slot).
    pub sessions: AtomicCounter,
    /// Slots stepped since start.
    pub slots: AtomicCounter,
    /// Slices delivered to playout since start.
    pub played_slices: AtomicCounter,
    /// Bytes sent over the shard link since start.
    pub sent_bytes: AtomicCounter,
    /// Slots that finished past their absolute deadline.
    pub deadline_misses: AtomicCounter,
    /// Slots whose work alone exceeded the configured period.
    pub slot_overruns: AtomicCounter,
    /// Sessions the rebalancer moved onto this shard (a restore counts
    /// none).
    pub migrations_in: AtomicCounter,
    /// Sessions the rebalancer moved off this shard.
    pub migrations_out: AtomicCounter,
    /// Rebalancer cost-over-mean gauge in milli-units (1000 = exactly
    /// the fleet mean); written by the control plane each evaluation.
    pub imbalance_milli: AtomicCounter,
    /// Nanoseconds past the deadline, per missed slot.
    pub lateness: AtomicHistogram,
    /// Nanoseconds spent applying queued commands, per busy drain.
    pub admit: AtomicHistogram,
    /// Nanoseconds spent in `process_slot`, per slot.
    pub process: AtomicHistogram,
    /// Nanoseconds spent harvesting retirements, per harvest.
    pub retire: AtomicHistogram,
}

/// The self-profiling stages a worker times, in exposition order.
pub const STAGES: [&str; 4] = ["ingest-decode", "admit", "process", "retire"];

/// Daemon-wide instrument registry: per-shard blocks plus ingest-side
/// and admission-side instruments written outside the workers.
#[derive(Debug)]
pub struct Registry {
    shards: Vec<Arc<ShardTelemetry>>,
    /// Nanoseconds spent decoding one ingest frame.
    pub ingest_decode: AtomicHistogram,
    /// Sessions fully retired and harvested.
    pub retired: AtomicCounter,
    /// Sessions migrated between shards by the rebalancer.
    pub migrations: AtomicCounter,
    /// Bytes written by snapshot checkpoints, cumulative.
    pub snapshot_bytes: AtomicCounter,
    /// Wall nanoseconds spent building snapshots, cumulative.
    pub snapshot_duration_ns: AtomicCounter,
    /// Sessions restored from a snapshot at startup.
    pub restored_sessions: AtomicCounter,
    rejects: [AtomicCounter; RejectReason::ALL.len()],
}

impl Registry {
    /// A registry for `shards` workers, all instruments at zero.
    pub fn new(shards: usize) -> Self {
        Registry {
            shards: (0..shards).map(|_| Arc::new(ShardTelemetry::default())).collect(),
            ingest_decode: AtomicHistogram::new(),
            retired: AtomicCounter::new(),
            migrations: AtomicCounter::new(),
            snapshot_bytes: AtomicCounter::new(),
            snapshot_duration_ns: AtomicCounter::new(),
            restored_sessions: AtomicCounter::new(),
            rejects: Default::default(),
        }
    }

    /// Number of shard blocks.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The instrument block for shard `i` (cloneable handle for the
    /// worker thread).
    pub fn shard(&self, i: usize) -> Arc<ShardTelemetry> {
        Arc::clone(&self.shards[i])
    }

    /// Count one ingest rejection under its typed reason.
    pub fn record_reject(&self, reason: RejectReason) {
        self.rejects[reject_index(reason)].inc();
    }

    /// Per-reason reject counts, in [`RejectReason::ALL`] order.
    pub fn rejects(&self) -> [u64; RejectReason::ALL.len()] {
        let mut out = [0u64; RejectReason::ALL.len()];
        for (slot, counter) in out.iter_mut().zip(&self.rejects) {
            *slot = counter.get();
        }
        out
    }

    /// A coherent-enough point-in-time copy of every instrument.
    /// Individual fields are racy relative to each other (writers do
    /// not stop), but each is monotone and internally consistent.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let shards: Vec<ShardSnapshot> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardSnapshot {
                shard: i,
                sessions: s.sessions.get(),
                slots: s.slots.get(),
                played_slices: s.played_slices.get(),
                sent_bytes: s.sent_bytes.get(),
                deadline_misses: s.deadline_misses.get(),
                slot_overruns: s.slot_overruns.get(),
                migrations_in: s.migrations_in.get(),
                migrations_out: s.migrations_out.get(),
                imbalance_milli: s.imbalance_milli.get(),
                latency: s.process.snapshot(),
                lateness: s.lateness.snapshot(),
            })
            .collect();
        let mut admit = LogHistogram::new();
        let mut process = LogHistogram::new();
        let mut retire = LogHistogram::new();
        let mut lateness = LogHistogram::new();
        for s in &self.shards {
            admit.merge(&s.admit.snapshot());
            process.merge(&s.process.snapshot());
            retire.merge(&s.retire.snapshot());
            lateness.merge(&s.lateness.snapshot());
        }
        RegistrySnapshot {
            shards,
            ingest_decode: self.ingest_decode.snapshot(),
            admit,
            process,
            retire,
            lateness,
            rejects: self.rejects(),
            retired: self.retired.get(),
            migrations: self.migrations.get(),
            snapshot_bytes: self.snapshot_bytes.get(),
            snapshot_duration_ns: self.snapshot_duration_ns.get(),
            restored_sessions: self.restored_sessions.get(),
        }
    }
}

/// Position of `reason` in [`RejectReason::ALL`] (the wire and
/// exposition ordering).
pub fn reject_index(reason: RejectReason) -> usize {
    RejectReason::ALL
        .iter()
        .position(|r| *r == reason)
        .expect("RejectReason::ALL is exhaustive")
}

/// Point-in-time copy of one shard's instruments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Resident sessions at scrape time.
    pub sessions: u64,
    /// Slots stepped since start.
    pub slots: u64,
    /// Slices delivered to playout since start.
    pub played_slices: u64,
    /// Bytes sent over the shard link since start.
    pub sent_bytes: u64,
    /// Slots that finished past their deadline.
    pub deadline_misses: u64,
    /// Slots whose work alone exceeded the period.
    pub slot_overruns: u64,
    /// Sessions migrated into this shard.
    pub migrations_in: u64,
    /// Sessions migrated out of this shard.
    pub migrations_out: u64,
    /// Rebalancer cost-over-mean gauge (milli-units).
    pub imbalance_milli: u64,
    /// `process_slot` latency distribution (ns).
    pub latency: LogHistogram,
    /// Lateness past missed deadlines (ns).
    pub lateness: LogHistogram,
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Per-shard snapshots, shard 0 first.
    pub shards: Vec<ShardSnapshot>,
    /// Ingest frame-decode latency (ns), daemon-wide.
    pub ingest_decode: LogHistogram,
    /// Command-apply latency (ns), merged across shards.
    pub admit: LogHistogram,
    /// `process_slot` latency (ns), merged across shards.
    pub process: LogHistogram,
    /// Retirement-harvest latency (ns), merged across shards.
    pub retire: LogHistogram,
    /// Deadline lateness (ns), merged across shards.
    pub lateness: LogHistogram,
    /// Reject counts in [`RejectReason::ALL`] order.
    pub rejects: [u64; RejectReason::ALL.len()],
    /// Sessions fully retired and harvested.
    pub retired: u64,
    /// Sessions migrated between shards by the rebalancer.
    pub migrations: u64,
    /// Bytes written by snapshot checkpoints, cumulative.
    pub snapshot_bytes: u64,
    /// Wall nanoseconds spent building snapshots, cumulative.
    pub snapshot_duration_ns: u64,
    /// Sessions restored from a snapshot at startup.
    pub restored_sessions: u64,
}

impl RegistrySnapshot {
    /// Total slots stepped across all shards.
    pub fn total_slots(&self) -> u64 {
        self.shards.iter().map(|s| s.slots).sum()
    }

    /// Total deadline misses across all shards.
    pub fn total_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.deadline_misses).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_indexing_is_stable() {
        for (i, r) in RejectReason::ALL.into_iter().enumerate() {
            assert_eq!(reject_index(r), i);
        }
    }

    #[test]
    fn snapshot_reflects_writes() {
        let reg = Registry::new(2);
        let s0 = reg.shard(0);
        s0.slots.add(10);
        s0.sessions.set(3);
        s0.process.record(500);
        s0.deadline_misses.inc();
        s0.lateness.record(1200);
        reg.shard(1).slots.add(4);
        reg.record_reject(RejectReason::Backpressure);
        reg.record_reject(RejectReason::Backpressure);
        reg.record_reject(RejectReason::Infeasible);
        reg.retired.add(7);
        reg.ingest_decode.record(90);

        let snap = reg.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[0].slots, 10);
        assert_eq!(snap.shards[0].sessions, 3);
        assert_eq!(snap.shards[1].slots, 4);
        assert_eq!(snap.total_slots(), 14);
        assert_eq!(snap.total_misses(), 1);
        assert_eq!(snap.rejects[reject_index(RejectReason::Backpressure)], 2);
        assert_eq!(snap.rejects[reject_index(RejectReason::Infeasible)], 1);
        assert_eq!(snap.retired, 7);
        assert_eq!(snap.process.count(), 1);
        assert_eq!(snap.process.max(), 500);
        assert_eq!(snap.lateness.max(), 1200);
        assert_eq!(snap.ingest_decode.count(), 1);
    }
}
