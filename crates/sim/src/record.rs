//! The full schedule record: the functions `ST`, `RT`, `PT`, `DT` of
//! Definition 2.2, materialized per slice, plus per-step occupancy
//! series. Everything the paper's definitions talk about can be checked
//! against this record (see [`validate`](crate::validate)).

use rts_core::ClientDropReason;
use rts_stream::{Bytes, InputStream, Slice, SliceId, Time};

/// The final fate of a slice in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Played out at the recorded time (`PT(s)`); sojourn time is
    /// `PT − AT`.
    Played {
        /// Playout time.
        playout: Time,
    },
    /// Dropped from the server's buffer (`DT(s)` finite, never sent).
    ServerDropped {
        /// Drop time.
        time: Time,
    },
    /// Discarded by the client.
    ClientDropped {
        /// Discard time.
        time: Time,
        /// Why the client discarded it.
        reason: ClientDropReason,
    },
}

impl Fate {
    /// Whether the slice was played out.
    pub fn is_played(&self) -> bool {
        matches!(self, Fate::Played { .. })
    }
}

/// Per-slice schedule entry, as [`ScheduleRecord`] yields it (by value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceRecord {
    /// The slice (carries `AT`, size, weight, kind).
    pub slice: Slice,
    /// Send time of the slice's first byte, if any byte was sent.
    pub first_send: Option<Time>,
    /// Send time of the slice's last byte, if fully sent.
    pub last_send: Option<Time>,
    /// Resolved fate. `None` only transiently during simulation.
    pub fate: Option<Fate>,
}

/// Per-step occupancy and usage sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepSample {
    /// Time of the sample.
    pub time: Time,
    /// Server occupancy after the step (`|Bs(t)|`).
    pub server_occupancy: Bytes,
    /// Client occupancy after the step (`|Bc(t)|`).
    pub client_occupancy: Bytes,
    /// Client occupancy before playout (intra-step peak).
    pub client_peak: Bytes,
    /// Bytes submitted to the link this step (`|S(t)|`).
    pub sent_bytes: Bytes,
    /// Bytes in flight on the link after the step.
    pub link_in_flight: Bytes,
}

/// "No time recorded" in an [`Outcome`] time field.
const NONE: Time = Time::MAX;

fn opt_time(t: Time) -> Option<Time> {
    (t != NONE).then_some(t)
}

/// How a slice's fate is encoded in its [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FateTag {
    Unresolved,
    Played,
    ServerDropped,
    ClientDropped(ClientDropReason),
}

/// The per-slice column the engine writes while it runs: send times and
/// fate, sentinel-coded in 32 bytes. The slices themselves are the
/// stream's own column, which the record borrows and never copies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Outcome {
    first_send: Time,
    last_send: Time,
    fate_time: Time,
    fate: FateTag,
}

const _: () = assert!(std::mem::size_of::<Outcome>() <= 32);

impl Outcome {
    const UNRESOLVED: Outcome = Outcome {
        first_send: NONE,
        last_send: NONE,
        fate_time: NONE,
        fate: FateTag::Unresolved,
    };

    /// The decoded fate (`None` while unresolved).
    pub(crate) fn fate(&self) -> Option<Fate> {
        let time = self.fate_time;
        match self.fate {
            FateTag::Unresolved => None,
            FateTag::Played => Some(Fate::Played { playout: time }),
            FateTag::ServerDropped => Some(Fate::ServerDropped { time }),
            FateTag::ClientDropped(reason) => Some(Fate::ClientDropped { time, reason }),
        }
    }

    /// The by-value record of `slice` with this outcome.
    fn view(&self, slice: Slice) -> SliceRecord {
        SliceRecord {
            slice,
            first_send: opt_time(self.first_send),
            last_send: opt_time(self.last_send),
            fate: self.fate(),
        }
    }
}

/// The complete record of one simulated schedule.
///
/// Slices and their outcomes are two columns indexed by slice id: the
/// slices are the stream's column, borrowed for the record's lifetime
/// `'s`, and only the outcomes and the step series belong to the
/// record. [`SliceRecord`] is the by-value view that joins them.
#[derive(Debug, Clone, Default)]
pub struct ScheduleRecord<'s> {
    slices: &'s [Slice],
    outcomes: Vec<Outcome>,
    steps: Vec<StepSample>,
}

impl<'s> ScheduleRecord<'s> {
    /// Creates a record over every slice of `stream` (in id order), all
    /// unresolved.
    pub fn for_stream(stream: &'s InputStream) -> Self {
        let slices = stream.slices();
        ScheduleRecord {
            slices,
            outcomes: vec![Outcome::UNRESOLVED; slices.len()],
            steps: Vec::new(),
        }
    }

    /// Reserves capacity for `n` more step samples. The engines call
    /// this with a horizon-derived hint so the steady-state loop never
    /// reallocates the step series; the hint is capped internally, so a
    /// pathological horizon cannot balloon the reservation.
    pub fn reserve_steps(&mut self, n: usize) {
        // 1 Mi samples ≈ 48 MiB — far beyond any committed experiment,
        // close enough to skip for the ones that do exceed it.
        const CAP: usize = 1 << 20;
        self.steps.reserve(n.min(CAP));
    }

    /// All slice records, in id order.
    pub fn slices(&self) -> impl ExactSizeIterator<Item = SliceRecord> + '_ {
        self.slices
            .iter()
            .zip(&self.outcomes)
            .map(|(&slice, o)| o.view(slice))
    }

    /// The per-step samples, in time order.
    pub fn steps(&self) -> &[StepSample] {
        &self.steps
    }

    /// Record of one slice.
    pub fn slice(&self, id: SliceId) -> SliceRecord {
        self.outcomes[id.index()].view(self.slices[id.index()])
    }

    /// The slice and outcome columns side by side, in id order (the
    /// metrics fold reads these without building [`SliceRecord`]s).
    pub(crate) fn columns(&self) -> impl Iterator<Item = (&'s Slice, &Outcome)> + '_ {
        self.slices.iter().zip(&self.outcomes)
    }

    pub(crate) fn note_send(&mut self, id: SliceId, time: Time, completed: bool) {
        debug_assert!(time != NONE, "send time collides with the sentinel");
        let o = &mut self.outcomes[id.index()];
        if o.first_send == NONE {
            o.first_send = time;
        }
        if completed {
            debug_assert!(o.last_send == NONE, "slice completed twice");
            o.last_send = time;
        }
    }

    pub(crate) fn resolve(&mut self, id: SliceId, fate: Fate) {
        let o = &mut self.outcomes[id.index()];
        debug_assert!(
            o.fate == FateTag::Unresolved,
            "slice {id} resolved twice: {:?}",
            o.fate()
        );
        (o.fate, o.fate_time) = match fate {
            Fate::Played { playout } => (FateTag::Played, playout),
            Fate::ServerDropped { time } => (FateTag::ServerDropped, time),
            Fate::ClientDropped { time, reason } => (FateTag::ClientDropped(reason), time),
        };
    }

    pub(crate) fn push_step(&mut self, sample: StepSample) {
        debug_assert!(
            self.steps.last().is_none_or(|s| s.time + 1 == sample.time),
            "step samples must be consecutive"
        );
        self.steps.push(sample);
    }

    /// Iterates over played slices with their playout times.
    pub fn played(&self) -> impl Iterator<Item = (SliceRecord, Time)> + '_ {
        self.slices().filter_map(|r| match r.fate {
            Some(Fate::Played { playout }) => Some((r, playout)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::{FrameKind, SliceSpec};

    fn stream() -> InputStream {
        InputStream::from_frames([
            vec![SliceSpec::new(2, 5, FrameKind::I)],
            vec![SliceSpec::unit()],
        ])
    }

    #[test]
    fn prepopulated_unresolved() {
        let stream = stream();
        let r = ScheduleRecord::for_stream(&stream);
        assert_eq!(r.slices().len(), 2);
        assert!(r.slices().all(|s| s.fate.is_none()));
        assert_eq!(r.slice(SliceId(1)).slice.arrival, 1);
    }

    #[test]
    fn send_notes_first_and_last() {
        let stream = stream();
        let mut r = ScheduleRecord::for_stream(&stream);
        r.note_send(SliceId(0), 3, false);
        r.note_send(SliceId(0), 4, true);
        let s = r.slice(SliceId(0));
        assert_eq!(s.first_send, Some(3));
        assert_eq!(s.last_send, Some(4));
    }

    #[test]
    fn resolve_and_played_iterator() {
        let stream = stream();
        let mut r = ScheduleRecord::for_stream(&stream);
        r.resolve(SliceId(0), Fate::Played { playout: 9 });
        r.resolve(SliceId(1), Fate::ServerDropped { time: 1 });
        let played: Vec<_> = r.played().collect();
        assert_eq!(played.len(), 1);
        assert_eq!(played[0].1, 9);
        assert!(r.slice(SliceId(0)).fate.unwrap().is_played());
        assert!(!r.slice(SliceId(1)).fate.unwrap().is_played());
    }

    #[test]
    fn step_samples_accumulate() {
        let stream = stream();
        let mut r = ScheduleRecord::for_stream(&stream);
        r.push_step(StepSample {
            time: 0,
            server_occupancy: 2,
            ..Default::default()
        });
        r.push_step(StepSample {
            time: 1,
            server_occupancy: 1,
            ..Default::default()
        });
        assert_eq!(r.steps().len(), 2);
        assert_eq!(r.steps()[1].server_occupancy, 1);
    }
}
