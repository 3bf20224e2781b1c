//! Drop policies: which slices to discard on a server overflow.
//!
//! Theorem 3.5 shows that for unit-size slices *any* choice of victims is
//! loss-optimal — the generic algorithm deliberately under-specifies the
//! victim ("the actual identity of the slices dropped is unrestricted").
//! Section 4 refines the question for weighted slices and studies the
//! greedy lowest-byte-value rule. This module provides:
//!
//! * [`TailDrop`] — drop the newest slices (the paper's FIFO/Tail-Drop
//!   baseline: "if an overflow occurs at time i, slices from frame i are
//!   discarded");
//! * [`GreedyByteValue`] — Section 4.1: "discard the slices with the
//!   lowest byte value one by one in increasing byte value order";
//! * [`HeadDrop`] — drop the oldest droppable slice (drop-from-front);
//! * [`RandomDrop`] — drop a uniformly random stored slice (a common
//!   pushout baseline).
//!
//! A policy never sees the *amount* that must be dropped; the
//! [`Server`](crate::Server) repeatedly asks for one victim until the
//! occupancy constraint is restored, which matches the paper's
//! slice-at-a-time greedy rule.
//!
//! [`GreedyByteValue`] indexes the buffer by byte value with one FIFO
//! deque per distinct value. The index is exact because the server
//! transmits in FIFO order: the stored slices of one byte value only
//! ever leave from their oldest end (a finished transmission of the
//! FIFO head) or their newest end (Greedy's newest-first victims).

use std::collections::VecDeque;

use rts_stream::rng::SplitMix64;
use rts_stream::{byte_value_cmp, Bytes, Slice, SliceId, Weight};

use crate::buffer::{Seq, ServerBuffer};

/// A server drop policy.
///
/// The server notifies the policy of every admission and removal so that
/// policies can maintain indexes incrementally (Greedy keeps one deque
/// per byte value, giving O(1) per event for a stream with few distinct
/// byte values). When an overflow must be resolved,
/// [`next_victim`](Self::next_victim) is called repeatedly; it must
/// return a slice that is currently stored and not in transmission.
pub trait DropPolicy {
    /// Short policy name used in reports ("Greedy", "Tail-Drop", …).
    fn name(&self) -> &'static str;

    /// Called when `slice` is admitted under sequence number `seq`.
    fn on_admit(&mut self, seq: Seq, slice: &Slice);

    /// Called when `slice`, stored under `seq`, leaves the buffer: its
    /// transmission completed, or it was dropped. Passing the slice
    /// lets a policy find its index entry without a lookup table.
    fn on_remove(&mut self, seq: Seq, slice: &Slice);

    /// Selects the next victim. Must return a sequence number that is
    /// stored in `buffer` and different from [`ServerBuffer::protected`],
    /// or `None` if the policy sees no droppable slice (the server treats
    /// `None` with a non-empty droppable set as a policy bug).
    fn next_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq>;

    /// Optional *early drop* (Section 2.1: "the algorithm may drop
    /// slices at any time, even when no overflow occurs, possibly to
    /// avoid drops later"). Called repeatedly after each step's arrivals
    /// and before overflow resolution; return a victim to discard
    /// proactively, or `None` to proceed. The same validity rules as
    /// [`next_victim`](Self::next_victim) apply. Default: no early drops
    /// (the generic algorithm of Section 3).
    fn early_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        let _ = buffer;
        None
    }
}

/// Boxed policies delegate, so heterogeneous policy sets (one per
/// multiplexed session, say) can share a `Server<Box<dyn DropPolicy>>`.
impl<P: DropPolicy + ?Sized> DropPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn on_admit(&mut self, seq: Seq, slice: &Slice) {
        (**self).on_admit(seq, slice)
    }

    fn on_remove(&mut self, seq: Seq, slice: &Slice) {
        (**self).on_remove(seq, slice)
    }

    fn next_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        (**self).next_victim(buffer)
    }

    fn early_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        (**self).early_victim(buffer)
    }
}

/// Drops the newest stored slice first (the paper's Tail-Drop baseline).
///
/// On an overflow at time `i` the victims are the just-arrived slices of
/// frame `i` — exactly "all overflow is from the tail of the server's
/// buffer". If the incoming frame alone exceeds the buffer, older slices
/// at the tail are dropped too.
#[derive(Debug, Clone, Default)]
pub struct TailDrop;

impl TailDrop {
    /// Creates the policy.
    pub fn new() -> Self {
        TailDrop
    }
}

impl DropPolicy for TailDrop {
    fn name(&self) -> &'static str {
        "Tail-Drop"
    }

    fn on_admit(&mut self, _seq: Seq, _slice: &Slice) {}

    fn on_remove(&mut self, _seq: Seq, _slice: &Slice) {}

    fn next_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        let protected = buffer.protected();
        let tail = buffer.tail()?;
        if Some(tail.seq) != protected {
            return Some(tail.seq);
        }
        // The tail is the protected head (single-slice buffer): nothing
        // droppable from the tail side.
        None
    }
}

/// Drops the oldest droppable slice first (drop-from-front).
#[derive(Debug, Clone, Default)]
pub struct HeadDrop;

impl HeadDrop {
    /// Creates the policy.
    pub fn new() -> Self {
        HeadDrop
    }
}

impl DropPolicy for HeadDrop {
    fn name(&self) -> &'static str {
        "Head-Drop"
    }

    fn on_admit(&mut self, _seq: Seq, _slice: &Slice) {}

    fn on_remove(&mut self, _seq: Seq, _slice: &Slice) {}

    fn next_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        let protected = buffer.protected();
        buffer
            .iter()
            .map(|e| e.seq)
            .find(|&seq| Some(seq) != protected)
    }
}

/// One byte-value class of [`GreedyByteValue`]'s index: the stored
/// slices whose byte value equals `weight / size`, oldest first.
#[derive(Debug, Clone)]
struct ValueClass {
    /// Weight of the slice that opened the class.
    weight: Weight,
    /// Size of the slice that opened the class. Every member's byte
    /// value equals `weight / size` exactly (2/4 and 1/2 share a class).
    size: Bytes,
    /// Member sequence numbers in admission (= FIFO) order.
    seqs: VecDeque<Seq>,
}

/// The greedy policy of Section 4.1: on overflow, discard the stored
/// slice with the lowest byte value `w(s)/|s|`, newest first among equal
/// values (ties may be "resolved arbitrarily" per the paper; newest-first
/// is deterministic and keeps older data, which is closer to
/// transmission).
///
/// Byte values are compared exactly (u128 cross-multiplication). The
/// policy is `4B/(B − 2(Lmax − 1))`-competitive (Theorem 4.1) and no
/// better than `2 − (2/(α+1) + 1/(B+1))`-competitive (Theorem 4.7).
///
/// Internally a list of byte-value classes in increasing value, each a
/// deque of its stored slices in admission order. The index is exact,
/// with no stale entries, because every removal is at an end of its
/// class:
///
/// * a finished transmission removes the FIFO head, the oldest stored
///   slice, so it is the front of its class;
/// * Greedy's victims (and [`EarlyValueDrop`]'s) are the back of their
///   class, the newest slice of the lowest value;
/// * the protected head is the back of its class only when it is the
///   class's sole member, and the victim then comes from the next class.
///
/// A removal from the middle of a class breaks that contract and panics.
/// Admission, removal and victim selection cost O(log k), O(log k) and
/// O(k) for `k` distinct stored byte values — three for the Section 5
/// MPEG weighting. Emptied classes stay in the list for reuse until, at
/// the next class insertion, they outnumber the live ones.
#[derive(Debug, Clone, Default)]
pub struct GreedyByteValue {
    /// Classes in strictly increasing byte value.
    classes: Vec<ValueClass>,
}

impl GreedyByteValue {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed slices; always the number of stored slices.
    /// Exposed for the memory-regression tests.
    pub fn index_len(&self) -> usize {
        self.classes.iter().map(|c| c.seqs.len()).sum()
    }

    /// Number of byte-value classes held, empty ones included.
    #[cfg(test)]
    fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Position of `slice`'s byte value in the class list: `Ok` when a
    /// class holds it, `Err` with its insertion point otherwise.
    fn find_class(&self, slice: &Slice) -> Result<usize, usize> {
        self.classes
            .binary_search_by(|c| byte_value_cmp(c.weight, c.size, slice.weight, slice.size))
    }

    /// Opens a class for `slice`'s byte value and returns its position.
    /// Empty classes are pruned first once they outnumber live ones, so
    /// right after an insertion the list holds at most twice the live
    /// classes; it grows by exactly one slot, never by doubling.
    fn open_class(&mut self, slice: &Slice) -> usize {
        let empty = self.classes.iter().filter(|c| c.seqs.is_empty()).count();
        if empty > self.classes.len() - empty {
            self.classes.retain(|c| !c.seqs.is_empty());
        }
        let at = self
            .find_class(slice)
            .expect_err("no class holds this byte value");
        self.classes.reserve_exact(1);
        self.classes.insert(
            at,
            ValueClass {
                weight: slice.weight,
                size: slice.size,
                seqs: VecDeque::new(),
            },
        );
        at
    }
}

impl DropPolicy for GreedyByteValue {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn on_admit(&mut self, seq: Seq, slice: &Slice) {
        let at = match self.find_class(slice) {
            Ok(at) => at,
            Err(_) => self.open_class(slice),
        };
        self.classes[at].seqs.push_back(seq);
    }

    fn on_remove(&mut self, seq: Seq, slice: &Slice) {
        let seqs = match self.find_class(slice) {
            Ok(at) => &mut self.classes[at].seqs,
            Err(_) => panic!("removal of {seq}, whose byte value has no class"),
        };
        if seqs.front() == Some(&seq) {
            seqs.pop_front();
        } else if seqs.back() == Some(&seq) {
            seqs.pop_back();
        } else {
            panic!("removal of {seq} from the middle of its byte-value class");
        }
    }

    fn next_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        let protected = buffer.protected();
        self.classes
            .iter()
            .filter_map(|c| c.seqs.back().copied())
            .find(|&seq| Some(seq) != protected)
    }
}

/// Drops a uniformly random droppable slice (pushout baseline).
///
/// Deterministic given the seed: the victim choice depends only on the
/// admission history and the PRNG stream.
#[derive(Debug, Clone)]
pub struct RandomDrop {
    rng: SplitMix64,
    alive: Vec<Seq>,
    /// Position of each alive seq inside `alive` (dense ids would allow a
    /// Vec; seqs are sparse after drops, so a sorted lookup is used).
    positions: std::collections::HashMap<u64, usize>,
}

impl RandomDrop {
    /// Creates the policy with a PRNG seed.
    pub fn new(seed: u64) -> Self {
        RandomDrop {
            rng: SplitMix64::new(seed),
            alive: Vec::new(),
            positions: std::collections::HashMap::new(),
        }
    }
}

impl DropPolicy for RandomDrop {
    fn name(&self) -> &'static str {
        "Random-Drop"
    }

    fn on_admit(&mut self, seq: Seq, _slice: &Slice) {
        self.positions.insert(seq.0, self.alive.len());
        self.alive.push(seq);
    }

    fn on_remove(&mut self, seq: Seq, _slice: &Slice) {
        if let Some(pos) = self.positions.remove(&seq.0) {
            let last = self.alive.len() - 1;
            self.alive.swap(pos, last);
            self.alive.pop();
            if pos <= last {
                if let Some(moved) = self.alive.get(pos) {
                    self.positions.insert(moved.0, pos);
                }
            }
        }
    }

    fn next_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        if self.alive.is_empty() {
            return None;
        }
        let protected = buffer.protected();
        // Draw until a droppable slice is found; at most one stored slice
        // is protected, so with >= 2 alive this terminates quickly. With
        // exactly one alive protected slice there is no victim.
        if self.alive.len() == 1 && Some(self.alive[0]) == protected {
            return None;
        }
        loop {
            let idx = self.rng.range_u64(0, self.alive.len() as u64 - 1) as usize;
            let seq = self.alive[idx];
            if Some(seq) != protected {
                return Some(seq);
            }
        }
    }
}

/// Reference implementation of the greedy rule by full rescan: on each
/// victim query, linearly scan the buffer for the stored slice with the
/// lowest byte value (newest-first on ties — identical semantics to
/// [`GreedyByteValue`], which maintains a per-byte-value index instead).
///
/// O(n) per query: kept for differential testing (the
/// `greedy-index-vs-rescan` oracle steps both side by side and requires
/// identical victims every slot).
#[derive(Debug, Clone, Default)]
pub struct GreedyRescan;

impl GreedyRescan {
    /// Creates the policy.
    pub fn new() -> Self {
        GreedyRescan
    }
}

impl DropPolicy for GreedyRescan {
    fn name(&self) -> &'static str {
        "Greedy-Rescan"
    }

    fn on_admit(&mut self, _seq: Seq, _slice: &Slice) {}

    fn on_remove(&mut self, _seq: Seq, _slice: &Slice) {}

    fn next_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        let protected = buffer.protected();
        buffer
            .iter()
            .filter(|e| Some(e.seq) != protected)
            .min_by(|a, b| {
                byte_value_cmp(a.slice.weight, a.slice.size, b.slice.weight, b.slice.size)
                    .then_with(|| b.seq.cmp(&a.seq)) // ties: newest first
            })
            .map(|e| e.seq)
    }
}

/// An omniscient replay policy: rejects a predetermined set of slices
/// at their arrival (early drops) and otherwise behaves like
/// [`TailDrop`].
///
/// Feed it the rejected set of an offline optimum (e.g. from
/// `rts_offline::optimal_unit_plan`) and the generic server reproduces
/// that optimum *exactly* — demonstrating that the offline benefit is
/// attainable by the paper's server machinery, not just an analytical
/// upper bound.
#[derive(Debug, Clone)]
pub struct PlannedDrops {
    rejected: std::collections::HashSet<SliceId>,
    pending: std::collections::VecDeque<Seq>,
}

impl PlannedDrops {
    /// Creates the policy from the set of slice ids to reject on
    /// arrival.
    pub fn new(rejected: std::collections::HashSet<SliceId>) -> Self {
        PlannedDrops {
            rejected,
            pending: std::collections::VecDeque::new(),
        }
    }
}

impl DropPolicy for PlannedDrops {
    fn name(&self) -> &'static str {
        "Planned-Drops"
    }

    fn on_admit(&mut self, seq: Seq, slice: &Slice) {
        if self.rejected.contains(&slice.id) {
            self.pending.push_back(seq);
        }
    }

    fn on_remove(&mut self, _seq: Seq, _slice: &Slice) {}

    fn early_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        // Planned rejects are dropped in the same step they arrive, so
        // they can never be in transmission; stale entries (already
        // gone) are skipped.
        while let Some(seq) = self.pending.pop_front() {
            if buffer.contains(seq) && buffer.protected() != Some(seq) {
                return Some(seq);
            }
        }
        None
    }

    fn next_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        // A correct plan never overflows; fall back to tail-drop so an
        // imperfect plan still yields a valid schedule.
        TailDrop::new().next_victim(buffer)
    }
}

/// A proactive variant of [`GreedyByteValue`] exploring the paper's
/// closing open problem ("more pro-active algorithms for overflows"):
/// on top of greedy overflow resolution, it *early-drops* the
/// lowest-byte-value slice whenever the buffer occupancy exceeds
/// `threshold_num/threshold_den` of the capacity **and** that slice's
/// byte value is below `value_floor` — clearing cheap data out before a
/// burst of valuable data can overflow.
///
/// The ablation experiment (`cargo bench -p rts-bench`) and the
/// integration tests show it never beats plain Greedy by much on the
/// Section 5 workloads — empirical support for the conjecture that
/// greedy is hard to improve within this model.
#[derive(Debug, Clone)]
pub struct EarlyValueDrop {
    inner: GreedyByteValue,
    capacity: Bytes,
    threshold_num: u64,
    threshold_den: u64,
    value_floor: Weight,
}

impl EarlyValueDrop {
    /// Creates the policy. `capacity` must match the server's buffer;
    /// occupancy above `capacity * threshold_num / threshold_den`
    /// triggers early drops of slices with byte value below
    /// `value_floor`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_den == 0`.
    pub fn new(
        capacity: Bytes,
        threshold_num: u64,
        threshold_den: u64,
        value_floor: Weight,
    ) -> Self {
        assert!(threshold_den > 0, "threshold denominator must be positive");
        EarlyValueDrop {
            inner: GreedyByteValue::new(),
            capacity,
            threshold_num,
            threshold_den,
            value_floor,
        }
    }

    fn above_threshold(&self, occupancy: Bytes) -> bool {
        occupancy as u128 * self.threshold_den as u128
            > self.capacity as u128 * self.threshold_num as u128
    }
}

impl DropPolicy for EarlyValueDrop {
    fn name(&self) -> &'static str {
        "Early-Value-Drop"
    }

    fn on_admit(&mut self, seq: Seq, slice: &Slice) {
        self.inner.on_admit(seq, slice);
    }

    fn on_remove(&mut self, seq: Seq, slice: &Slice) {
        self.inner.on_remove(seq, slice);
    }

    fn next_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        self.inner.next_victim(buffer)
    }

    fn early_victim(&mut self, buffer: &ServerBuffer) -> Option<Seq> {
        if !self.above_threshold(buffer.occupancy()) {
            return None;
        }
        let candidate = self.inner.next_victim(buffer)?;
        let entry = buffer.get(candidate).expect("victims are stored");
        // Drop only if strictly below the floor: w/|s| < floor.
        if entry.slice.weight < self.value_floor.saturating_mul(entry.slice.size) {
            Some(candidate)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::{FrameKind, SliceId};

    fn slice(id: u64, size: Bytes, weight: Weight) -> Slice {
        Slice {
            id: SliceId(id),
            arrival: 0,
            size,
            weight,
            kind: FrameKind::Generic,
        }
    }

    /// Drops `seq` from the buffer and mirrors the removal into a policy.
    fn remove<P: DropPolicy>(policy: &mut P, buf: &mut ServerBuffer, seq: Seq) -> Slice {
        let slice = buf.drop_slice(seq);
        policy.on_remove(seq, &slice);
        slice
    }

    /// Admits slices into a buffer and mirrors the events into a policy.
    fn fill<P: DropPolicy>(policy: &mut P, buf: &mut ServerBuffer, slices: &[Slice]) -> Vec<Seq> {
        slices
            .iter()
            .map(|s| {
                let seq = buf.admit(*s);
                policy.on_admit(seq, s);
                seq
            })
            .collect()
    }

    #[test]
    fn tail_drop_picks_newest() {
        let mut p = TailDrop::new();
        let mut b = ServerBuffer::new();
        let seqs = fill(
            &mut p,
            &mut b,
            &[slice(0, 1, 1), slice(1, 1, 1), slice(2, 1, 1)],
        );
        assert_eq!(p.next_victim(&b), Some(seqs[2]));
    }

    #[test]
    fn tail_drop_refuses_protected_singleton() {
        let mut p = TailDrop::new();
        let mut b = ServerBuffer::new();
        fill(&mut p, &mut b, &[slice(0, 5, 1)]);
        b.transmit(2); // head partially sent; it is also the tail
        assert_eq!(p.next_victim(&b), None);
    }

    #[test]
    fn head_drop_picks_oldest_droppable() {
        let mut p = HeadDrop::new();
        let mut b = ServerBuffer::new();
        let seqs = fill(&mut p, &mut b, &[slice(0, 4, 1), slice(1, 1, 1)]);
        assert_eq!(p.next_victim(&b), Some(seqs[0]));
        b.transmit(2); // protect the head
        assert_eq!(p.next_victim(&b), Some(seqs[1]));
    }

    #[test]
    fn greedy_picks_lowest_byte_value() {
        let mut p = GreedyByteValue::new();
        let mut b = ServerBuffer::new();
        // byte values: 3, 0.5, 2
        let seqs = fill(
            &mut p,
            &mut b,
            &[slice(0, 1, 3), slice(1, 2, 1), slice(2, 1, 2)],
        );
        assert_eq!(p.next_victim(&b), Some(seqs[1]));
        let victim = remove(&mut p, &mut b, seqs[1]);
        assert_eq!(victim.id, SliceId(1));
        assert_eq!(p.next_victim(&b), Some(seqs[2]));
    }

    #[test]
    fn greedy_ties_drop_newest_first() {
        let mut p = GreedyByteValue::new();
        let mut b = ServerBuffer::new();
        let seqs = fill(&mut p, &mut b, &[slice(0, 1, 1), slice(1, 1, 1)]);
        assert_eq!(p.next_victim(&b), Some(seqs[1]));
    }

    #[test]
    fn greedy_equal_ratios_with_different_sizes_tie() {
        // 2/4 == 1/2: one class, newest first, in either admission order.
        for pair in [
            [slice(0, 4, 2), slice(1, 2, 1)],
            [slice(0, 2, 1), slice(1, 4, 2)],
        ] {
            let mut p = GreedyByteValue::new();
            let mut b = ServerBuffer::new();
            let seqs = fill(&mut p, &mut b, &pair);
            assert_eq!(p.class_count(), 1, "2/4 and 1/2 share a class");
            assert_eq!(p.next_victim(&b), Some(seqs[1]));
            remove(&mut p, &mut b, seqs[1]);
            assert_eq!(p.next_victim(&b), Some(seqs[0]));
        }
    }

    #[test]
    fn greedy_skips_the_protected_head() {
        let mut p = GreedyByteValue::new();
        let mut b = ServerBuffer::new();
        let seqs = fill(&mut p, &mut b, &[slice(0, 4, 1), slice(1, 1, 5)]);
        b.transmit(1); // head (lowest byte value) now protected
        assert_eq!(p.next_victim(&b), Some(seqs[1]));
        remove(&mut p, &mut b, seqs[1]);
        assert_eq!(p.next_victim(&b), None, "only protected slice remains");
    }

    #[test]
    fn greedy_protected_sole_member_passes_to_the_next_class() {
        let mut p = GreedyByteValue::new();
        let mut b = ServerBuffer::new();
        // Classes 1/4 (the head alone), 1 (two members), 5.
        let seqs = fill(
            &mut p,
            &mut b,
            &[
                slice(0, 4, 1),
                slice(1, 1, 1),
                slice(2, 2, 2),
                slice(3, 1, 5),
            ],
        );
        assert_eq!(p.class_count(), 3);
        b.transmit(1); // the lowest class's only member is now protected
        assert_eq!(p.next_victim(&b), Some(seqs[2]), "back of the next class");
        remove(&mut p, &mut b, seqs[2]);
        assert_eq!(p.next_victim(&b), Some(seqs[1]));
        remove(&mut p, &mut b, seqs[1]);
        assert_eq!(p.next_victim(&b), Some(seqs[3]));
    }

    #[test]
    fn greedy_weight_zero_slices_form_one_class() {
        let mut p = GreedyByteValue::new();
        let mut b = ServerBuffer::new();
        let seqs = fill(
            &mut p,
            &mut b,
            &[
                slice(0, 1, 0),
                slice(1, 1, 1),
                slice(2, 3, 0),
                slice(3, 2, 0),
            ],
        );
        assert_eq!(p.class_count(), 2, "0/1, 0/3 and 0/2 are one class");
        // Zero value sits below any positive value; newest first.
        for &v in &[seqs[3], seqs[2], seqs[0], seqs[1]] {
            assert_eq!(p.next_victim(&b), Some(v));
            remove(&mut p, &mut b, v);
        }
        assert_eq!(p.index_len(), 0);
    }

    #[test]
    #[should_panic(expected = "middle of its byte-value class")]
    fn greedy_rejects_a_removal_from_the_middle_of_a_class() {
        let mut p = GreedyByteValue::new();
        let mut b = ServerBuffer::new();
        let seqs = fill(
            &mut p,
            &mut b,
            &[slice(0, 1, 1), slice(1, 1, 1), slice(2, 1, 1)],
        );
        remove(&mut p, &mut b, seqs[1]);
    }

    #[test]
    fn greedy_empty_buffer_has_no_victim() {
        let mut p = GreedyByteValue::new();
        let b = ServerBuffer::new();
        assert_eq!(p.next_victim(&b), None);
    }

    #[test]
    fn random_drop_is_deterministic_and_valid() {
        let mut b1 = ServerBuffer::new();
        let mut b2 = ServerBuffer::new();
        let mut p1 = RandomDrop::new(11);
        let mut p2 = RandomDrop::new(11);
        let s1 = fill(
            &mut p1,
            &mut b1,
            &[slice(0, 1, 1), slice(1, 1, 1), slice(2, 1, 1)],
        );
        let _ = fill(
            &mut p2,
            &mut b2,
            &[slice(0, 1, 1), slice(1, 1, 1), slice(2, 1, 1)],
        );
        let v1 = p1.next_victim(&b1).unwrap();
        let v2 = p2.next_victim(&b2).unwrap();
        assert_eq!(v1, v2, "same seed, same victim");
        assert!(s1.contains(&v1));
    }

    #[test]
    fn random_drop_respects_protection_and_removal() {
        let mut p = RandomDrop::new(3);
        let mut b = ServerBuffer::new();
        let seqs = fill(&mut p, &mut b, &[slice(0, 3, 1), slice(1, 1, 1)]);
        b.transmit(1); // protect seqs[0]
        for _ in 0..20 {
            assert_eq!(p.next_victim(&b), Some(seqs[1]));
        }
        remove(&mut p, &mut b, seqs[1]);
        assert_eq!(p.next_victim(&b), None);
    }

    #[test]
    fn policy_names() {
        assert_eq!(TailDrop::new().name(), "Tail-Drop");
        assert_eq!(HeadDrop::new().name(), "Head-Drop");
        assert_eq!(GreedyByteValue::new().name(), "Greedy");
        assert_eq!(RandomDrop::new(0).name(), "Random-Drop");
        assert_eq!(GreedyRescan::new().name(), "Greedy-Rescan");
        assert_eq!(
            PlannedDrops::new(Default::default()).name(),
            "Planned-Drops"
        );
        assert_eq!(EarlyValueDrop::new(8, 1, 2, 3).name(), "Early-Value-Drop");
    }

    #[test]
    fn default_early_victim_is_none() {
        let mut p = TailDrop::new();
        let mut b = ServerBuffer::new();
        fill(&mut p, &mut b, &[slice(0, 1, 1)]);
        assert_eq!(p.early_victim(&b), None);
    }

    #[test]
    fn greedy_index_is_exact_on_a_long_drop_free_run() {
        let mut p = GreedyByteValue::new();
        let mut b = ServerBuffer::new();
        // A long drop-free run: slices flow through the buffer while
        // next_victim is never called; every finished transmission pops
        // the front of its class.
        for i in 0..1000 {
            let s = slice(i, 1, 1);
            let seq = b.admit(s);
            p.on_admit(seq, &s);
            let sent = b.transmit(1);
            assert_eq!(sent.len(), 1);
            p.on_remove(sent[0].0, &sent[0].1);
            assert_eq!(p.index_len(), b.len(), "index drifted at step {i}");
            assert_eq!(p.class_count(), 1);
        }
        assert!(b.is_empty());
        assert_eq!(p.index_len(), 0);
    }

    #[test]
    fn greedy_victim_order_survives_out_of_band_removals() {
        let slices = [
            slice(0, 1, 7),
            slice(1, 2, 1),
            slice(2, 1, 4),
            slice(3, 3, 2),
            slice(4, 2, 9),
        ];
        let mut index = GreedyByteValue::new();
        let mut rescan = GreedyRescan::new();
        let mut b1 = ServerBuffer::new();
        let mut b2 = ServerBuffer::new();
        fill(&mut index, &mut b1, &slices);
        fill(&mut rescan, &mut b2, &slices);
        // Remove three of five out-of-band; each is its class's only
        // member, so the index stays exact and keeps the emptied classes.
        for seq in [Seq(1), Seq(3), Seq(4)] {
            remove(&mut index, &mut b1, seq);
            remove(&mut rescan, &mut b2, seq);
        }
        assert_eq!(index.index_len(), 2);
        assert_eq!(index.class_count(), 5);
        loop {
            let v1 = index.next_victim(&b1);
            let v2 = rescan.next_victim(&b2);
            assert_eq!(v1, v2);
            match v1 {
                Some(v) => {
                    remove(&mut index, &mut b1, v);
                    remove(&mut rescan, &mut b2, v);
                }
                None => break,
            }
        }
        assert_eq!(index.index_len(), 0);
    }

    #[test]
    fn greedy_classes_stay_bounded_with_a_fresh_byte_value_per_slice() {
        use crate::Server;
        // Every slice opens a new class (weight 1..=3 over a size that
        // never repeats a ratio), with overflow drops every slot.
        let mut server = Server::new(8, 3, GreedyByteValue::new());
        let mut step = crate::ServerStep::default();
        let mut next = 0u64;
        let mut drops = 0;
        for t in 0..20_000u64 {
            let arrivals: Vec<Slice> = (0..4)
                .map(|_| {
                    next += 1;
                    Slice {
                        arrival: t,
                        ..slice(next, 1 + (next % 2), next)
                    }
                })
                .collect();
            server.step_into(t, &arrivals, &mut step);
            drops += step.dropped.len();
            let (p, b) = (server.policy(), server.buffer());
            assert_eq!(p.index_len(), b.len(), "index drifted at t={t}");
            // At most 8 stored slices (B = 8) plus the arrivals are live
            // when a class opens.
            assert!(
                p.class_count() <= 2 * (8 + arrivals.len()) + 1,
                "{} classes for {} live slices at t={t}",
                p.class_count(),
                b.len()
            );
        }
        assert!(drops > 10_000, "only {drops} drops: the run is too easy");
    }

    #[test]
    fn rescan_agrees_with_index_greedy() {
        let slices = [
            slice(0, 1, 3),
            slice(1, 2, 1),
            slice(2, 1, 2),
            slice(3, 3, 3),
            slice(4, 1, 1),
        ];
        let mut index = GreedyByteValue::new();
        let mut scan = GreedyRescan::new();
        let mut b1 = ServerBuffer::new();
        let mut b2 = ServerBuffer::new();
        fill(&mut index, &mut b1, &slices);
        fill(&mut scan, &mut b2, &slices);
        // Drain victims one by one; sequences must match exactly.
        loop {
            let v1 = index.next_victim(&b1);
            let v2 = scan.next_victim(&b2);
            assert_eq!(v1, v2);
            match v1 {
                Some(v) => {
                    remove(&mut index, &mut b1, v);
                    remove(&mut scan, &mut b2, v);
                }
                None => break,
            }
        }
    }

    #[test]
    fn rescan_respects_protection() {
        let mut p = GreedyRescan::new();
        let mut b = ServerBuffer::new();
        let seqs = fill(&mut p, &mut b, &[slice(0, 4, 1), slice(1, 1, 9)]);
        b.transmit(1); // head (lowest value) becomes protected
        assert_eq!(p.next_victim(&b), Some(seqs[1]));
    }

    #[test]
    fn planned_drops_early_drop_rejected_arrivals() {
        let mut rejected = std::collections::HashSet::new();
        rejected.insert(SliceId(1));
        let mut p = PlannedDrops::new(rejected);
        let mut b = ServerBuffer::new();
        let seqs = fill(
            &mut p,
            &mut b,
            &[slice(0, 1, 5), slice(1, 1, 9), slice(2, 1, 1)],
        );
        assert_eq!(p.early_victim(&b), Some(seqs[1]));
        remove(&mut p, &mut b, seqs[1]);
        assert_eq!(p.early_victim(&b), None);
        // Overflow fallback behaves like tail-drop.
        assert_eq!(p.next_victim(&b), Some(seqs[2]));
    }

    #[test]
    fn early_value_drop_threshold_and_floor() {
        let mut p = EarlyValueDrop::new(4, 1, 2, 5); // trigger above 2, floor 5
        let mut b = ServerBuffer::new();
        let seqs = fill(&mut p, &mut b, &[slice(0, 1, 1), slice(1, 1, 9)]);
        // Occupancy 2 is not *above* half of 4: no early drop.
        assert_eq!(p.early_victim(&b), None);
        let s3 = b.admit(slice(2, 1, 9));
        p.on_admit(s3, &slice(2, 1, 9));
        // Occupancy 3 > 2: the cheapest slice (value 1 < floor 5) goes.
        assert_eq!(p.early_victim(&b), Some(seqs[0]));
        remove(&mut p, &mut b, seqs[0]);
        // Remaining slices have value 9 >= floor: no further early drop.
        assert_eq!(p.early_victim(&b), None);
    }

    #[test]
    fn early_value_drop_pops_the_back_of_the_lowest_class() {
        // Capacity 4, trigger above 1 byte, floor 4: classes 1 (three
        // members, two sizes), 2, and 9.
        let mut p = EarlyValueDrop::new(4, 1, 4, 4);
        let mut b = ServerBuffer::new();
        let seqs = fill(
            &mut p,
            &mut b,
            &[
                slice(0, 1, 1),
                slice(1, 2, 4),
                slice(2, 2, 2),
                slice(3, 1, 9),
                slice(4, 1, 1),
            ],
        );
        b.transmit(1); // the head (class 1's front) completes
        p.on_remove(seqs[0], &slice(0, 1, 1));
        let mut order = Vec::new();
        while let Some(v) = p.early_victim(&b) {
            remove(&mut p, &mut b, v);
            order.push(v);
            assert_eq!(p.inner.index_len(), b.len());
        }
        // Class 1 from its back (4 then 2), then class 2; 9 stays.
        assert_eq!(order, vec![seqs[4], seqs[2], seqs[1]]);
        assert_eq!(p.next_victim(&b), Some(seqs[3]));
    }

    #[test]
    #[should_panic(expected = "threshold denominator")]
    fn early_value_drop_rejects_zero_denominator() {
        EarlyValueDrop::new(4, 1, 0, 5);
    }
}
