//! Aggregate metrics of a schedule (Definition 2.4 and the Section 5
//! measures).

use std::collections::BTreeMap;

use rts_core::ClientDropReason;
use rts_stream::{Bytes, FrameKind, Weight};

use crate::record::{Fate, ScheduleRecord};

/// Aggregate performance measures of a schedule.
///
/// *Throughput* is the total number of bytes played out (Definition 2.4);
/// *benefit* is the total weight of played slices (Definition 2.6);
/// *weighted loss* is the complement fraction the paper plots in
/// Figures 2–3 and 5–6.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    /// Bytes offered by the source.
    pub offered_bytes: Bytes,
    /// Weight offered by the source.
    pub offered_weight: Weight,
    /// Bytes played out (throughput).
    pub played_bytes: Bytes,
    /// Weight played out (benefit).
    pub benefit: Weight,
    /// Played slice count.
    pub played_slices: u64,
    /// Slices dropped at the server.
    pub server_dropped_slices: u64,
    /// Bytes dropped at the server.
    pub server_dropped_bytes: Bytes,
    /// Slices discarded by the client.
    pub client_dropped_slices: u64,
    /// Bytes discarded by the client.
    pub client_dropped_bytes: Bytes,
    /// Bytes of slices with no resolved fate (0 for a drained run).
    pub residual_bytes: Bytes,
    /// Client discard counts by reason.
    pub client_drop_reasons: BTreeMapReason,
    /// Offered weight per frame kind.
    pub offered_weight_by_kind: BTreeMap<FrameKind, Weight>,
    /// Played weight per frame kind.
    pub benefit_by_kind: BTreeMap<FrameKind, Weight>,
    /// Maximum server occupancy over the run (buffer requirement).
    pub server_occupancy_max: Bytes,
    /// Maximum end-of-step client occupancy (client buffer requirement).
    pub client_occupancy_max: Bytes,
    /// Maximum intra-step client occupancy (before playout).
    pub client_peak_max: Bytes,
    /// Maximum bytes submitted to the link in one step (link rate
    /// requirement).
    pub link_rate_max: Bytes,
    /// Maximum bytes in flight on the link.
    pub link_in_flight_max: Bytes,
}

/// Client drop counts keyed by reason.
pub type BTreeMapReason = BTreeMap<ClientDropReason, u64>;

/// A byte-conservation violation found by [`Metrics::check_conservation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConservationError {
    /// Bytes offered by the source.
    pub offered_bytes: Bytes,
    /// Bytes accounted for (played + server-dropped + client-dropped +
    /// residual).
    pub accounted_bytes: Bytes,
    /// `accounted − offered`: positive means double counting, negative
    /// means bytes vanished.
    pub delta: i128,
}

impl std::fmt::Display for ConservationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "byte conservation violated: accounted {} vs offered {} (delta {:+})",
            self.accounted_bytes, self.offered_bytes, self.delta
        )
    }
}

impl std::error::Error for ConservationError {}

/// Every frame kind, indexed by [`kind_slot`].
const KINDS: [FrameKind; 4] = [FrameKind::I, FrameKind::P, FrameKind::B, FrameKind::Generic];

fn kind_slot(kind: FrameKind) -> usize {
    match kind {
        FrameKind::I => 0,
        FrameKind::P => 1,
        FrameKind::B => 2,
        FrameKind::Generic => 3,
    }
}

/// Every client drop reason, indexed by [`reason_slot`].
const REASONS: [ClientDropReason; 3] = [
    ClientDropReason::Overflow,
    ClientDropReason::Late,
    ClientDropReason::Incomplete,
];

fn reason_slot(reason: ClientDropReason) -> usize {
    match reason {
        ClientDropReason::Overflow => 0,
        ClientDropReason::Late => 1,
        ClientDropReason::Incomplete => 2,
    }
}

impl Metrics {
    /// Computes metrics from a completed schedule record.
    ///
    /// One pass over the slice and outcome columns folds per-kind
    /// weights and client-drop reasons into fixed arrays; the maps are
    /// built once at the end. A kind appears iff some slice of it was
    /// offered (or played), a reason iff some drop had it.
    pub fn from_record(record: &ScheduleRecord<'_>) -> Metrics {
        let mut m = Metrics::default();
        let mut offered_by_kind = [None::<Weight>; KINDS.len()];
        let mut benefit_by_kind = [None::<Weight>; KINDS.len()];
        let mut reasons = [0u64; REASONS.len()];
        for (s, outcome) in record.columns() {
            let kind = kind_slot(s.kind);
            m.offered_bytes += s.size;
            m.offered_weight += s.weight;
            *offered_by_kind[kind].get_or_insert(0) += s.weight;
            match outcome.fate() {
                Some(Fate::Played { .. }) => {
                    m.played_bytes += s.size;
                    m.benefit += s.weight;
                    m.played_slices += 1;
                    *benefit_by_kind[kind].get_or_insert(0) += s.weight;
                }
                Some(Fate::ServerDropped { .. }) => {
                    m.server_dropped_slices += 1;
                    m.server_dropped_bytes += s.size;
                }
                Some(Fate::ClientDropped { reason, .. }) => {
                    m.client_dropped_slices += 1;
                    m.client_dropped_bytes += s.size;
                    reasons[reason_slot(reason)] += 1;
                }
                None => {
                    m.residual_bytes += s.size;
                }
            }
        }
        for (slot, kind) in KINDS.into_iter().enumerate() {
            if let Some(w) = offered_by_kind[slot] {
                m.offered_weight_by_kind.insert(kind, w);
            }
            if let Some(w) = benefit_by_kind[slot] {
                m.benefit_by_kind.insert(kind, w);
            }
        }
        for (slot, reason) in REASONS.into_iter().enumerate() {
            if reasons[slot] > 0 {
                m.client_drop_reasons.insert(reason, reasons[slot]);
            }
        }
        for s in record.steps() {
            m.server_occupancy_max = m.server_occupancy_max.max(s.server_occupancy);
            m.client_occupancy_max = m.client_occupancy_max.max(s.client_occupancy);
            m.client_peak_max = m.client_peak_max.max(s.client_peak);
            m.link_rate_max = m.link_rate_max.max(s.sent_bytes);
            m.link_in_flight_max = m.link_in_flight_max.max(s.link_in_flight);
        }
        m
    }

    /// Byte-conservation self-check: every offered byte must be
    /// accounted for exactly once as played, server-dropped,
    /// client-dropped, or residual (unresolved). A violation means an
    /// accounting bug — a slice resolved twice, or a counter drifting
    /// from the record — and is returned with the offending delta.
    pub fn check_conservation(&self) -> Result<(), ConservationError> {
        let accounted = self.played_bytes
            + self.server_dropped_bytes
            + self.client_dropped_bytes
            + self.residual_bytes;
        if accounted == self.offered_bytes {
            Ok(())
        } else {
            Err(ConservationError {
                offered_bytes: self.offered_bytes,
                accounted_bytes: accounted,
                delta: accounted as i128 - self.offered_bytes as i128,
            })
        }
    }

    /// Bytes not played out.
    pub fn lost_bytes(&self) -> Bytes {
        self.offered_bytes - self.played_bytes
    }

    /// Weight not played out.
    pub fn lost_weight(&self) -> Weight {
        self.offered_weight - self.benefit
    }

    /// Fraction of offered weight lost, in `[0, 1]` — the paper's
    /// "weighted loss" (Figures 2, 3, 5, 6). Zero for an empty stream.
    pub fn weighted_loss(&self) -> f64 {
        if self.offered_weight == 0 {
            0.0
        } else {
            self.lost_weight() as f64 / self.offered_weight as f64
        }
    }

    /// Fraction of offered weight delivered, in `[0, 1]` — the paper's
    /// "benefit relative to total benefit" (Figure 4).
    pub fn benefit_fraction(&self) -> f64 {
        if self.offered_weight == 0 {
            1.0
        } else {
            self.benefit as f64 / self.offered_weight as f64
        }
    }

    /// Fraction of offered bytes lost (unweighted loss).
    pub fn byte_loss(&self) -> f64 {
        if self.offered_bytes == 0 {
            0.0
        } else {
            self.lost_bytes() as f64 / self.offered_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Fate, StepSample};
    use rts_stream::{InputStream, SliceSpec};

    /// Metrics of a three-slice record with one slice of each fate.
    fn resolved_metrics() -> Metrics {
        let stream = InputStream::from_frames([vec![
            SliceSpec::new(2, 24, FrameKind::I),
            SliceSpec::new(1, 1, FrameKind::B),
            SliceSpec::new(3, 24, FrameKind::P),
        ]]);
        let mut r = ScheduleRecord::for_stream(&stream);
        r.resolve(rts_stream::SliceId(0), Fate::Played { playout: 5 });
        r.resolve(rts_stream::SliceId(1), Fate::ServerDropped { time: 0 });
        r.resolve(
            rts_stream::SliceId(2),
            Fate::ClientDropped {
                time: 4,
                reason: ClientDropReason::Late,
            },
        );
        r.push_step(StepSample {
            time: 0,
            server_occupancy: 4,
            client_occupancy: 1,
            client_peak: 3,
            sent_bytes: 2,
            link_in_flight: 2,
        });
        Metrics::from_record(&r)
    }

    #[test]
    fn aggregates_by_fate() {
        let m = resolved_metrics();
        assert_eq!(m.offered_bytes, 6);
        assert_eq!(m.offered_weight, 49);
        assert_eq!(m.played_bytes, 2);
        assert_eq!(m.benefit, 24);
        assert_eq!(m.played_slices, 1);
        assert_eq!(m.server_dropped_slices, 1);
        assert_eq!(m.server_dropped_bytes, 1);
        assert_eq!(m.client_dropped_slices, 1);
        assert_eq!(m.client_dropped_bytes, 3);
        assert_eq!(m.residual_bytes, 0);
        assert_eq!(m.client_drop_reasons[&ClientDropReason::Late], 1);
    }

    #[test]
    fn conservation_holds_on_resolved_records() {
        resolved_metrics()
            .check_conservation()
            .expect("resolved record conserves bytes");
    }

    #[test]
    fn conservation_reports_the_delta() {
        let mut m = resolved_metrics();
        m.played_bytes += 2; // double count
        let err = m.check_conservation().unwrap_err();
        assert_eq!(err.delta, 2);
        assert_eq!(err.offered_bytes, 6);
        assert_eq!(err.accounted_bytes, 8);
        assert!(err.to_string().contains("+2"), "{err}");

        m.played_bytes -= 2;
        m.client_dropped_bytes -= 3; // vanish 3
        let err = m.check_conservation().unwrap_err();
        assert_eq!(err.delta, -3);
    }

    #[test]
    fn unresolved_slices_count_as_residual() {
        let stream = InputStream::from_frames([vec![SliceSpec::new(4, 1, FrameKind::Generic)]]);
        let r = ScheduleRecord::for_stream(&stream);
        let m = Metrics::from_record(&r);
        assert_eq!(m.residual_bytes, 4);
        m.check_conservation()
            .expect("residual bytes balance the conservation equation");
    }

    #[test]
    fn loss_fractions() {
        let m = resolved_metrics();
        assert_eq!(m.lost_bytes(), 4);
        assert_eq!(m.lost_weight(), 25);
        assert!((m.weighted_loss() - 25.0 / 49.0).abs() < 1e-12);
        assert!((m.benefit_fraction() - 24.0 / 49.0).abs() < 1e-12);
        assert!((m.byte_loss() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn per_kind_weights() {
        let m = resolved_metrics();
        assert_eq!(m.offered_weight_by_kind[&FrameKind::I], 24);
        assert_eq!(m.benefit_by_kind.get(&FrameKind::P), None);
        assert_eq!(m.benefit_by_kind[&FrameKind::I], 24);

        // A kind whose slices all weigh 0 stays present with weight 0;
        // a drop reason no slice had stays absent.
        let stream = InputStream::from_frames([vec![
            SliceSpec::new(2, 0, FrameKind::B),
            SliceSpec::new(1, 0, FrameKind::B),
            SliceSpec::new(3, 0, FrameKind::Generic),
        ]]);
        let mut r = ScheduleRecord::for_stream(&stream);
        r.resolve(rts_stream::SliceId(0), Fate::Played { playout: 2 });
        r.resolve(
            rts_stream::SliceId(1),
            Fate::ClientDropped {
                time: 2,
                reason: ClientDropReason::Incomplete,
            },
        );
        r.resolve(rts_stream::SliceId(2), Fate::ServerDropped { time: 0 });
        let m = Metrics::from_record(&r);
        assert_eq!(
            m.offered_weight_by_kind,
            BTreeMap::from([(FrameKind::B, 0), (FrameKind::Generic, 0)])
        );
        assert_eq!(m.benefit_by_kind, BTreeMap::from([(FrameKind::B, 0)]));
        assert_eq!(
            m.client_drop_reasons,
            BTreeMap::from([(ClientDropReason::Incomplete, 1)])
        );
    }

    #[test]
    fn step_maxima() {
        let m = resolved_metrics();
        assert_eq!(m.server_occupancy_max, 4);
        assert_eq!(m.client_occupancy_max, 1);
        assert_eq!(m.client_peak_max, 3);
        assert_eq!(m.link_rate_max, 2);
        assert_eq!(m.link_in_flight_max, 2);
    }

    #[test]
    fn empty_metrics_are_neutral() {
        let m = Metrics::default();
        assert_eq!(m.weighted_loss(), 0.0);
        assert_eq!(m.benefit_fraction(), 1.0);
        assert_eq!(m.byte_loss(), 0.0);
    }
}
