//! Schedule validation: mechanical checks of the paper's definitions and
//! lemmas against a simulated schedule.
//!
//! The validator is used by the integration and property tests to make
//! sure the engine *is* the model of Section 2: a valid report satisfies
//! Definitions 2.2–2.5 (causality, FIFO, constant link delay, constant
//! sojourn time) and the resource-requirement lemmas (3.2–3.4).

use rts_stream::Bytes;

use crate::engine::SimReport;
use crate::record::Fate;

/// Validates a report; returns the list of violations (empty = valid).
///
/// Checks, for every schedule:
///
/// 1. every slice has exactly one resolved fate;
/// 2. send causality: `first_send ≥ AT`, `last_send ≥ first_send`;
/// 3. Lemma 3.2: no byte is submitted later than `AT + ⌈B/R⌉`;
/// 4. FIFO: transmissions complete in arrival order;
/// 5. real-time property (Definition 2.5): every played slice has
///    sojourn time exactly `P + D`, and its last byte was delivered by
///    its playout time;
/// 6. resource requirements: `|Bs(t)| ≤ B`, `|S(t)| ≤ R`, end-of-step
///    `|Bc(t)| ≤ Bc` for all `t`;
/// 7. conservation: throughput plus losses equals the offered stream.
///
/// Additionally, when the configuration is balanced (`B = R·D`,
/// `Bc = B`), Lemmas 3.3/3.4 say the client never discards anything;
/// that too is enforced.
pub fn validate(report: &SimReport<'_>) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let params = report.config.params;
    let (b, r) = (params.buffer, params.rate);
    let latency = params.playout_latency();
    let send_deadline_slack = b.div_ceil(r);

    let mut last_completed_send = None;
    let mut played_bytes: Bytes = 0;
    let mut lost_bytes: Bytes = 0;

    for rec in report.record.slices() {
        let s = rec.slice;
        let Some(fate) = rec.fate else {
            errs.push(format!("slice {} has no resolved fate", s.id));
            continue;
        };
        if let Some(first) = rec.first_send {
            if first < s.arrival {
                errs.push(format!(
                    "slice {} sent at {first} before arrival {}",
                    s.id, s.arrival
                ));
            }
        }
        if let (Some(first), Some(last)) = (rec.first_send, rec.last_send) {
            if last < first {
                errs.push(format!(
                    "slice {} last send {last} precedes first send {first}",
                    s.id
                ));
            }
            if last > s.arrival + send_deadline_slack {
                errs.push(format!(
                    "slice {} violates Lemma 3.2: last byte sent at {last}, arrival {}, B/R slack {send_deadline_slack}",
                    s.id, s.arrival
                ));
            }
            // FIFO completion order (slice ids are arrival order).
            if let Some((prev_id, prev_last)) = last_completed_send {
                if last < prev_last {
                    errs.push(format!(
                        "FIFO violation: slice {} completed at {last} before earlier slice {prev_id} ({prev_last})",
                        s.id
                    ));
                }
            }
            last_completed_send = Some((s.id, last));
        }
        match fate {
            Fate::Played { playout } => {
                played_bytes += s.size;
                if playout != s.arrival + latency {
                    errs.push(format!(
                        "slice {} sojourn {} differs from P + D = {latency}",
                        s.id,
                        playout - s.arrival
                    ));
                }
                match rec.last_send {
                    Some(last) => {
                        if last + params.link_delay > playout {
                            errs.push(format!(
                                "slice {} delivered at {} after its playout {playout}",
                                s.id,
                                last + params.link_delay
                            ));
                        }
                    }
                    None => errs.push(format!("slice {} played but never fully sent", s.id)),
                }
            }
            Fate::ServerDropped { time } => {
                lost_bytes += s.size;
                if time < s.arrival {
                    errs.push(format!("slice {} dropped at {time} before arrival", s.id));
                }
                if rec.first_send.is_some() {
                    errs.push(format!("slice {} dropped after transmission started", s.id));
                }
            }
            Fate::ClientDropped { time, .. } => {
                lost_bytes += s.size;
                if time < s.arrival {
                    errs.push(format!(
                        "slice {} client-dropped at {time} before arrival",
                        s.id
                    ));
                }
            }
        }
    }

    for step in report.record.steps() {
        if step.server_occupancy > b {
            errs.push(format!(
                "step {}: server occupancy {} exceeds B = {b}",
                step.time, step.server_occupancy
            ));
        }
        if step.sent_bytes > r {
            errs.push(format!(
                "step {}: sent {} bytes over a rate-{r} link",
                step.time, step.sent_bytes
            ));
        }
        let bc = report.config.client_capacity();
        if step.client_occupancy > bc {
            errs.push(format!(
                "step {}: client occupancy {} exceeds Bc = {bc}",
                step.time, step.client_occupancy
            ));
        }
    }

    let m = &report.metrics;
    if played_bytes != m.played_bytes || played_bytes + lost_bytes != m.offered_bytes {
        errs.push(format!(
            "conservation failure: played {played_bytes} + lost {lost_bytes} vs offered {}",
            m.offered_bytes
        ));
    }
    if let Err(e) = m.check_conservation() {
        errs.push(e.to_string());
    }
    if m.residual_bytes != 0 {
        errs.push(format!(
            "drained schedule left {} residual bytes unresolved",
            m.residual_bytes
        ));
    }

    // Balanced configurations: the client never discards (Lemmas 3.3/3.4).
    if params.is_balanced() && report.config.client_capacity() >= params.buffer {
        if m.client_dropped_slices > 0 {
            errs.push(format!(
                "balanced configuration but the client discarded {} slices",
                m.client_dropped_slices
            ));
        }
        if m.client_occupancy_max > params.buffer {
            errs.push(format!(
                "Lemma 3.4 violation: client occupancy {} exceeds B = {}",
                m.client_occupancy_max, params.buffer
            ));
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use rts_core::policy::{GreedyByteValue, HeadDrop, RandomDrop, TailDrop};
    use rts_core::tradeoff::SmoothingParams;
    use rts_stream::gen::{MpegConfig, MpegSource};
    use rts_stream::slicing::Slicing;
    use rts_stream::weight::WeightAssignment;
    use rts_stream::{InputStream, SliceSpec};

    fn unit_frames(counts: &[usize]) -> InputStream {
        InputStream::from_frames(
            counts
                .iter()
                .map(|&c| vec![SliceSpec::unit(); c])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn balanced_unit_schedule_validates() {
        let stream = unit_frames(&[5, 0, 8, 2, 0, 0, 13, 1]);
        let params = SmoothingParams::balanced_from_rate_delay(3, 2, 2);
        let report = simulate(&stream, SimConfig::new(params), TailDrop::new());
        validate(&report).expect("balanced schedule must validate");
    }

    #[test]
    fn all_policies_validate_on_mpeg_trace() {
        let trace = MpegSource::new(MpegConfig::cnn_like(), 17).frames(120);
        let stream = trace.materialize(Slicing::WholeFrame, WeightAssignment::MPEG_12_8_1);
        let avg = stream.stats().rate_at(1.0);
        let params = SmoothingParams::balanced_from_rate_delay(avg, 5, 3);
        let config = SimConfig::new(params);
        for report in [
            simulate(&stream, config, TailDrop::new()),
            simulate(&stream, config, GreedyByteValue::new()),
            simulate(&stream, config, HeadDrop::new()),
            simulate(&stream, config, RandomDrop::new(7)),
        ] {
            validate(&report)
                .unwrap_or_else(|e| panic!("{} failed validation: {e:?}", report.policy));
        }
    }

    #[test]
    fn unbalanced_schedule_still_passes_structural_checks() {
        // D < B/R loses data at the client but breaks no structural
        // invariant except the balanced-only clauses (not applied here).
        let params = SmoothingParams {
            buffer: 6,
            rate: 1,
            delay: 2,
            link_delay: 0,
        };
        let stream = unit_frames(&[6, 0, 0]);
        let report = simulate(&stream, SimConfig::new(params), TailDrop::new());
        validate(&report).expect("structural checks should pass");
        assert!(report.metrics.client_dropped_slices > 0);
    }

    #[test]
    fn detects_fabricated_violation() {
        // Corrupt a report and check the validator notices.
        let stream = unit_frames(&[3]);
        let params = SmoothingParams::balanced_from_rate_delay(1, 3, 0);
        let mut report = simulate(&stream, SimConfig::new(params), TailDrop::new());
        report.metrics.played_bytes += 1; // break conservation
        let errs = validate(&report).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("conservation")));
    }
}
