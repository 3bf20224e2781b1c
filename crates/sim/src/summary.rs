//! Time-series summaries over a schedule's step samples.
//!
//! The maxima in [`Metrics`](crate::Metrics) are the paper's *resource
//! requirements* (Definition 2.4); deployments also care about typical
//! levels — a buffer provisioned at the 99.9th-percentile occupancy may
//! be far cheaper than one sized for the worst step. [`Percentiles`]
//! summarizes any per-step quantity of the [`ScheduleRecord`].

use rts_stream::Bytes;

use crate::record::{ScheduleRecord, StepSample};

/// Order statistics of a non-negative series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Percentiles {
    /// Smallest sample.
    pub min: Bytes,
    /// Median (50th percentile).
    pub p50: Bytes,
    /// 90th percentile.
    pub p90: Bytes,
    /// 99th percentile.
    pub p99: Bytes,
    /// Largest sample (the Definition 2.4 requirement).
    pub max: Bytes,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of samples.
    pub count: usize,
}

impl Percentiles {
    /// Computes order statistics over the samples (empty input yields
    /// all zeros).
    pub fn of(values: impl IntoIterator<Item = Bytes>) -> Percentiles {
        let mut v: Vec<Bytes> = values.into_iter().collect();
        if v.is_empty() {
            return Percentiles::default();
        }
        v.sort_unstable();
        let rank = |p: usize| v[(p * (v.len() - 1) + 50) / 100];
        Percentiles {
            min: v[0],
            p50: rank(50),
            p90: rank(90),
            p99: rank(99),
            max: *v.last().expect("non-empty"),
            mean: v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64,
            count: v.len(),
        }
    }
}

impl ScheduleRecord<'_> {
    /// Order statistics of a per-step quantity, e.g.
    /// `record.step_percentiles(|s| s.server_occupancy)`.
    pub fn step_percentiles(&self, f: impl Fn(&StepSample) -> Bytes) -> Percentiles {
        Percentiles::of(self.steps().iter().map(f))
    }

    /// Server-occupancy order statistics (`|Bs(t)|` over the run).
    pub fn server_occupancy_summary(&self) -> Percentiles {
        self.step_percentiles(|s| s.server_occupancy)
    }

    /// Client-occupancy order statistics (`|Bc(t)|` over the run).
    pub fn client_occupancy_summary(&self) -> Percentiles {
        self.step_percentiles(|s| s.client_occupancy)
    }

    /// Link-utilization order statistics (`|S(t)|` over the run).
    pub fn link_usage_summary(&self) -> Percentiles {
        self.step_percentiles(|s| s.sent_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use rts_core::policy::TailDrop;
    use rts_core::tradeoff::SmoothingParams;
    use rts_stream::{InputStream, SliceSpec};

    #[test]
    fn percentiles_of_known_series() {
        let p = Percentiles::of(1..=100u64);
        assert_eq!(p.min, 1);
        // Nearest-rank at index round(0.5 * 99) = 50 → value 51.
        assert_eq!(p.p50, 51);
        assert_eq!(p.p90, 90);
        assert_eq!(p.p99, 99);
        assert_eq!(p.max, 100);
        assert!((p.mean - 50.5).abs() < 1e-12);
        assert_eq!(p.count, 100);
    }

    #[test]
    fn empty_series_is_all_zero() {
        assert_eq!(Percentiles::of(std::iter::empty()), Percentiles::default());
    }

    #[test]
    fn single_sample() {
        let p = Percentiles::of([7u64]);
        assert_eq!((p.min, p.p50, p.max, p.count), (7, 7, 7, 1));
    }

    #[test]
    fn summaries_from_a_schedule() {
        let stream = InputStream::from_frames([
            vec![SliceSpec::unit(); 6],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
        ]);
        let params = SmoothingParams::balanced_from_rate_delay(1, 5, 0);
        let report = simulate(&stream, SimConfig::new(params), TailDrop::new());
        let server = report.record.server_occupancy_summary();
        assert_eq!(server.max, report.metrics.server_occupancy_max);
        assert!(server.p50 <= server.p90 && server.p90 <= server.max);
        let link = report.record.link_usage_summary();
        assert_eq!(link.max, 1);
        let client = report.record.client_occupancy_summary();
        assert!(client.max <= params.buffer);
    }
}
