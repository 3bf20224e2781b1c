//! The server's pushout FIFO buffer.
//!
//! The paper's model (Section 2.1) requires a *random-access* (pushout)
//! buffer: any stored slice may be removed to free space, except that "a
//! slice cannot be dropped after it starts being transmitted" (no
//! preemption). Transmission is strictly FIFO in arrival order.
//!
//! The buffer is keyed by a monotone admission sequence number [`Seq`]
//! and stored in a `VecDeque` FIFO ring in `Seq` order. Admission,
//! head/tail access, and transmission are O(1); a mid-queue drop
//! tombstones its entry in place and the ring compacts only when
//! tombstones outnumber live slices, so drops are amortized O(1).
//! Sequence lookup is O(1) while the ring is gap-free (one slot per
//! `Seq`, the common case) and O(log n) by binary search after a
//! compaction introduces gaps.
//!
//! A `BTreeMap` store is kept as the test-only reference in `rts-check`
//! (`reference_server`): the `ring-vs-map` oracle and
//! `tests/buffer_diff.rs` step this buffer's server and the map-backed
//! reference side by side and require identical steps every slot.

use std::collections::VecDeque;
use std::fmt;

use rts_stream::{Bytes, Slice};

/// Monotone admission sequence number; FIFO transmission order is `Seq`
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Seq(pub u64);

impl fmt::Display for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A slice resident in the server buffer, together with its transmission
/// progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedSlice {
    /// Admission sequence number.
    pub seq: Seq,
    /// The stored slice.
    pub slice: Slice,
    /// Bytes of the slice already submitted to the link. Only the FIFO
    /// head can have `sent > 0`.
    pub sent: Bytes,
}

impl BufferedSlice {
    /// Bytes of the slice still occupying buffer space.
    #[inline]
    pub fn remaining(&self) -> Bytes {
        self.slice.size - self.sent
    }

    /// Whether transmission of this slice has started (and it therefore
    /// can no longer be dropped).
    #[inline]
    pub fn in_transmission(&self) -> bool {
        self.sent > 0
    }
}

/// One ring slot: a buffered slice plus its tombstone flag. Dead entries
/// keep their `Seq` so the ring stays sorted for binary search.
#[derive(Debug, Clone, Copy)]
struct RingEntry {
    buf: BufferedSlice,
    dead: bool,
}

/// The server's pushout FIFO buffer.
///
/// Invariants maintained:
/// * at most one slice (the FIFO head) has partial transmission progress;
/// * [`occupancy`](Self::occupancy) always equals the sum of
///   [`BufferedSlice::remaining`] over all stored slices;
/// * a partially transmitted slice cannot be dropped;
/// * ring entries are strictly increasing in `Seq` (admission order);
/// * the front and back entries are always alive (trimmed on removal),
///   so `head`/`tail`/`transmit` never scan tombstones;
/// * `dead` counts tombstoned entries; compaction runs when they
///   outnumber live entries, keeping scans amortized O(1).
#[derive(Debug, Clone, Default)]
pub struct ServerBuffer {
    entries: VecDeque<RingEntry>,
    dead: usize,
    occupancy: Bytes,
    next_seq: u64,
}

impl ServerBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current occupancy in bytes (`|Bs(t)|` in the paper).
    #[inline]
    pub fn occupancy(&self) -> Bytes {
        self.occupancy
    }

    /// Number of stored slices.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len() - self.dead
    }

    /// Whether the buffer holds no slices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Admits a slice, assigning it the next sequence number.
    pub fn admit(&mut self, slice: Slice) -> Seq {
        let seq = Seq(self.next_seq);
        self.next_seq += 1;
        self.occupancy += slice.size;
        let buf = BufferedSlice {
            seq,
            slice,
            sent: 0,
        };
        self.entries.push_back(RingEntry { buf, dead: false });
        seq
    }

    /// Admits a slice that already has `sent` of its bytes on the
    /// wire — the restore path for checkpointed buffers. Only a FIFO
    /// head can be mid-transmission, so `sent > 0` requires an empty
    /// buffer; occupancy counts the unsent remainder, as
    /// [`transmit_into`](Self::transmit_into) would have left it.
    pub fn admit_in_progress(&mut self, slice: Slice, sent: Bytes) -> Seq {
        debug_assert!(
            sent == 0 || self.is_empty(),
            "only the restored head may carry transmission progress"
        );
        debug_assert!(sent < slice.size, "a fully sent slice has left the buffer");
        let seq = self.admit(slice);
        if sent > 0 {
            self.occupancy -= sent;
            self.entries.back_mut().expect("just admitted").buf.sent = sent;
        }
        seq
    }

    /// Index of `seq` in the ring, dead or alive. O(1) while the ring
    /// has one slot per sequence number (no compaction gaps yet),
    /// O(log n) by binary search otherwise.
    #[inline]
    fn position(&self, seq: Seq) -> Option<usize> {
        let first = self.entries.front()?.buf.seq;
        let last = self.entries.back().expect("non-empty").buf.seq;
        if seq < first || seq > last {
            return None;
        }
        let span = last.0 - first.0 + 1;
        if span == self.entries.len() as u64 {
            // Gap-free: sequence numbers map straight to indices.
            return Some((seq.0 - first.0) as usize);
        }
        self.entries.binary_search_by(|e| e.buf.seq.cmp(&seq)).ok()
    }

    /// Index of `seq` only if the entry is alive.
    #[inline]
    fn live_position(&self, seq: Seq) -> Option<usize> {
        self.position(seq).filter(|&i| !self.entries[i].dead)
    }

    /// Looks up a stored slice.
    pub fn get(&self, seq: Seq) -> Option<&BufferedSlice> {
        self.live_position(seq).map(|i| &self.entries[i].buf)
    }

    /// Whether `seq` is still stored.
    #[inline]
    pub fn contains(&self, seq: Seq) -> bool {
        self.live_position(seq).is_some()
    }

    /// The FIFO head (next slice to transmit from).
    #[inline]
    pub fn head(&self) -> Option<&BufferedSlice> {
        // Invariant: the front entry is never a tombstone.
        self.entries.front().map(|e| &e.buf)
    }

    /// The FIFO tail (most recently admitted stored slice).
    #[inline]
    pub fn tail(&self) -> Option<&BufferedSlice> {
        // Invariant: the back entry is never a tombstone.
        self.entries.back().map(|e| &e.buf)
    }

    /// The sequence number of the slice currently in transmission, if the
    /// head has partial progress. Such a slice must not be dropped.
    #[inline]
    pub fn protected(&self) -> Option<Seq> {
        self.head().filter(|b| b.in_transmission()).map(|b| b.seq)
    }

    /// Iterates over stored slices in FIFO order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.entries.iter())
    }

    /// Removes a slice by sequence number (an overflow or early drop).
    ///
    /// Returns the removed slice.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not stored or if the slice is already in
    /// transmission — callers (the server) must only drop victims
    /// returned by a [`DropPolicy`](crate::DropPolicy), which are
    /// guaranteed droppable; violating this is a programming error, not a
    /// recoverable condition.
    pub fn drop_slice(&mut self, seq: Seq) -> Slice {
        let i = self
            .live_position(seq)
            .unwrap_or_else(|| panic!("drop of {seq} which is not stored"));
        assert!(
            !self.entries[i].buf.in_transmission(),
            "attempt to preempt {seq} after transmission started"
        );
        let slice = if i == 0 {
            let e = self.entries.pop_front().expect("checked stored");
            self.trim_front();
            e.buf.slice
        } else if i == self.entries.len() - 1 {
            let e = self.entries.pop_back().expect("checked stored");
            self.trim_back();
            e.buf.slice
        } else {
            let e = &mut self.entries[i];
            e.dead = true;
            let slice = e.buf.slice;
            self.dead += 1;
            // Each compaction pays for the drops that queued it, so
            // drops stay amortized O(1).
            if self.dead > self.len() {
                self.entries.retain(|e| !e.dead);
                self.dead = 0;
            }
            slice
        };
        self.occupancy -= slice.size;
        slice
    }

    /// Restores the front-alive invariant after a front removal.
    #[inline]
    fn trim_front(&mut self) {
        while self.entries.front().is_some_and(|e| e.dead) {
            self.entries.pop_front();
            self.dead -= 1;
        }
    }

    /// Restores the back-alive invariant after a back removal.
    #[inline]
    fn trim_back(&mut self) {
        while self.entries.back().is_some_and(|e| e.dead) {
            self.entries.pop_back();
            self.dead -= 1;
        }
    }

    /// Transmits up to `rate` bytes from the FIFO head, advancing partial
    /// progress. Returns `(seq, slice, bytes_now, completed)` tuples in
    /// transmission order; completed slices leave the buffer.
    ///
    /// Allocation-free wrapper callers should prefer
    /// [`transmit_into`](Self::transmit_into).
    pub fn transmit(&mut self, rate: Bytes) -> Vec<(Seq, Slice, Bytes, bool)> {
        let mut out = Vec::new();
        self.transmit_into(rate, &mut out);
        out
    }

    /// [`transmit`](Self::transmit) into a caller-owned scratch buffer:
    /// appends the `(seq, slice, bytes_now, completed)` tuples to `out`
    /// without allocating (once `out`'s capacity has warmed up). Leaves
    /// `out` and the buffer untouched when the buffer is empty or
    /// `rate` is 0.
    pub fn transmit_into(&mut self, rate: Bytes, out: &mut Vec<(Seq, Slice, Bytes, bool)>) {
        let mut budget = rate;
        while let Some(chunk) = self.transmit_chunk(budget) {
            budget -= chunk.2;
            out.push(chunk);
        }
    }

    /// One transmission step: cuts at most `budget` bytes off the FIFO
    /// head and returns them as `(seq, slice, bytes_now, completed)`; a
    /// completed slice leaves the buffer. Returns `None`, touching
    /// nothing, when the buffer is empty or `budget` is 0. Calling it
    /// until `None` with the budget reduced by each chunk is exactly
    /// [`transmit_into`](Self::transmit_into), without the scratch.
    #[inline]
    pub fn transmit_chunk(&mut self, budget: Bytes) -> Option<(Seq, Slice, Bytes, bool)> {
        if budget == 0 {
            return None;
        }
        // Invariant: the front entry, if any, is alive.
        let entry = &mut self.entries.front_mut()?.buf;
        let take = entry.remaining().min(budget);
        entry.sent += take;
        let completed = entry.remaining() == 0;
        let chunk = (entry.seq, entry.slice, take, completed);
        if completed {
            self.entries.pop_front();
            self.trim_front();
        }
        self.occupancy -= take;
        Some(chunk)
    }

    /// Number of tombstoned (dead) entries currently in the ring.
    /// Exposed for the compaction tests and the memory-regression
    /// assertions.
    #[doc(hidden)]
    pub fn tombstones(&self) -> usize {
        self.dead
    }
}

/// FIFO-order iterator over the stored slices of a [`ServerBuffer`];
/// non-allocating (tombstones are skipped in place).
pub struct Iter<'a>(std::collections::vec_deque::Iter<'a, RingEntry>);

impl<'a> Iterator for Iter<'a> {
    type Item = &'a BufferedSlice;

    fn next(&mut self) -> Option<&'a BufferedSlice> {
        self.0.find(|e| !e.dead).map(|e| &e.buf)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Dead entries may deflate the lower bound to 0; the upper
        // bound is exact enough for collect() preallocation.
        (0, Some(self.0.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::{FrameKind, SliceId};

    fn slice(id: u64, size: Bytes, weight: u64) -> Slice {
        Slice {
            id: SliceId(id),
            arrival: 0,
            size,
            weight,
            kind: FrameKind::Generic,
        }
    }

    #[test]
    fn admit_tracks_occupancy_and_order() {
        let mut b = ServerBuffer::new();
        let s1 = b.admit(slice(0, 3, 1));
        let s2 = b.admit(slice(1, 2, 1));
        assert_eq!(b.occupancy(), 5);
        assert_eq!(b.len(), 2);
        assert!(s1 < s2);
        assert_eq!(b.head().unwrap().seq, s1);
        assert_eq!(b.tail().unwrap().seq, s2);
    }

    #[test]
    fn transmit_follows_fifo_and_splits_across_slices() {
        let mut b = ServerBuffer::new();
        b.admit(slice(0, 3, 1));
        b.admit(slice(1, 2, 1));
        let sent = b.transmit(4);
        assert_eq!(sent.len(), 2);
        assert_eq!((sent[0].2, sent[0].3), (3, true));
        assert_eq!((sent[1].2, sent[1].3), (1, false));
        assert_eq!(b.occupancy(), 1);
        // Second slice now protected (partially transmitted head).
        let prot = b.protected().unwrap();
        assert_eq!(b.get(prot).unwrap().remaining(), 1);
    }

    #[test]
    fn transmit_with_empty_buffer_sends_nothing() {
        let mut b = ServerBuffer::new();
        assert!(b.transmit(10).is_empty());
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    fn transmit_zero_rate_is_a_noop() {
        let mut b = ServerBuffer::new();
        b.admit(slice(0, 2, 1));
        assert!(b.transmit(0).is_empty());
        assert_eq!(b.occupancy(), 2);
        assert_eq!(b.protected(), None);
    }

    #[test]
    fn transmit_into_appends_and_early_returns() {
        let mut b = ServerBuffer::new();
        let mut out = vec![(Seq(99), slice(99, 1, 1), 1, true)];
        // Empty buffer and zero rate both leave `out` untouched.
        b.transmit_into(10, &mut out);
        assert_eq!(out.len(), 1);
        b.admit(slice(0, 2, 1));
        b.transmit_into(0, &mut out);
        assert_eq!(out.len(), 1);
        // A real transmission appends after the existing contents.
        b.transmit_into(2, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!((out[1].2, out[1].3), (2, true));
    }

    #[test]
    fn partial_transmission_completes_later() {
        let mut b = ServerBuffer::new();
        b.admit(slice(0, 5, 1));
        let first = b.transmit(2);
        assert_eq!((first[0].2, first[0].3), (2, false));
        let second = b.transmit(2);
        assert_eq!((second[0].2, second[0].3), (2, false));
        let third = b.transmit(2);
        assert_eq!((third[0].2, third[0].3), (1, true));
        assert!(b.is_empty());
        assert_eq!(b.protected(), None);
    }

    #[test]
    fn drop_mid_queue_slice() {
        let mut b = ServerBuffer::new();
        b.admit(slice(0, 1, 1));
        let mid = b.admit(slice(1, 4, 9));
        b.admit(slice(2, 1, 1));
        let dropped = b.drop_slice(mid);
        assert_eq!(dropped.id, SliceId(1));
        assert_eq!(b.occupancy(), 2);
        assert_eq!(b.len(), 2);
        // FIFO order of survivors unchanged.
        let ids: Vec<u64> = b.iter().map(|e| e.slice.id.0).collect();
        assert_eq!(ids, vec![0, 2]);
        // The tombstoned seq no longer resolves.
        assert!(!b.contains(mid));
        assert!(b.get(mid).is_none());
    }

    #[test]
    #[should_panic(expected = "not stored")]
    fn drop_of_unknown_seq_panics() {
        let mut b = ServerBuffer::new();
        b.admit(slice(0, 1, 1));
        b.drop_slice(Seq(99));
    }

    #[test]
    #[should_panic(expected = "not stored")]
    fn drop_of_tombstoned_seq_panics() {
        let mut b = ServerBuffer::new();
        b.admit(slice(0, 1, 1));
        let mid = b.admit(slice(1, 1, 1));
        b.admit(slice(2, 1, 1));
        b.drop_slice(mid);
        b.drop_slice(mid); // already gone
    }

    #[test]
    #[should_panic(expected = "preempt")]
    fn drop_of_transmitting_slice_panics() {
        let mut b = ServerBuffer::new();
        let s = b.admit(slice(0, 5, 1));
        b.transmit(2); // partial
        b.drop_slice(s);
    }

    #[test]
    fn protected_is_only_partial_head() {
        let mut b = ServerBuffer::new();
        b.admit(slice(0, 2, 1));
        b.admit(slice(1, 2, 1));
        assert_eq!(b.protected(), None);
        b.transmit(2); // completes head exactly: nothing protected
        assert_eq!(b.protected(), None);
        b.transmit(1); // partial into second slice
        assert!(b.protected().is_some());
    }

    #[test]
    fn seq_numbers_never_reused_after_drops() {
        let mut b = ServerBuffer::new();
        let a = b.admit(slice(0, 1, 1));
        b.drop_slice(a);
        let c = b.admit(slice(1, 1, 1));
        assert!(c > a);
    }

    #[test]
    fn occupancy_is_sum_of_remaining() {
        let mut b = ServerBuffer::new();
        b.admit(slice(0, 4, 1));
        b.admit(slice(1, 3, 1));
        b.transmit(5);
        let sum: Bytes = b.iter().map(|e| e.remaining()).sum();
        assert_eq!(b.occupancy(), sum);
        assert_eq!(sum, 2);
    }

    #[test]
    fn tombstones_compact_when_they_outnumber_live() {
        let mut b = ServerBuffer::new();
        let seqs: Vec<Seq> = (0..8).map(|i| b.admit(slice(i, 1, 1))).collect();
        // Drop interior entries until the compaction threshold trips.
        b.drop_slice(seqs[1]);
        b.drop_slice(seqs[2]);
        b.drop_slice(seqs[3]);
        assert_eq!(b.tombstones(), 3, "below threshold: 3 dead vs 5 live");
        b.drop_slice(seqs[4]);
        b.drop_slice(seqs[5]);
        assert_eq!(b.tombstones(), 0, "5 dead vs 3 live must compact");
        assert_eq!(b.len(), 3);
        let ids: Vec<u64> = b.iter().map(|e| e.slice.id.0).collect();
        assert_eq!(ids, vec![0, 6, 7]);
    }

    #[test]
    fn lookups_survive_compaction_gaps() {
        // After a compaction the ring has seq gaps, so position() must
        // fall back from arithmetic indexing to binary search.
        let mut b = ServerBuffer::new();
        let seqs: Vec<Seq> = (0..9).map(|i| b.admit(slice(i, 1, 1))).collect();
        for &s in &[seqs[1], seqs[3], seqs[5], seqs[7], seqs[2]] {
            b.drop_slice(s);
        }
        // Survivors: 0, 4, 6, 8 (compacted, gapped).
        for (i, &s) in seqs.iter().enumerate() {
            let alive = [0, 4, 6, 8].contains(&i);
            assert_eq!(b.contains(s), alive, "seq {s}");
            assert_eq!(b.get(s).is_some(), alive, "seq {s}");
        }
        // New admissions after the gap still resolve.
        let fresh = b.admit(slice(9, 1, 1));
        assert!(b.contains(fresh));
        assert_eq!(b.tail().unwrap().seq, fresh);
    }

    #[test]
    fn front_and_back_drops_trim_adjacent_tombstones() {
        let mut b = ServerBuffer::new();
        let seqs: Vec<Seq> = (0..5).map(|i| b.admit(slice(i, 1, 1))).collect();
        b.drop_slice(seqs[1]); // tombstone behind the head
        b.drop_slice(seqs[0]); // head drop must also clear the tombstone
        assert_eq!(b.head().unwrap().seq, seqs[2]);
        b.drop_slice(seqs[3]); // tombstone before the tail
        b.drop_slice(seqs[4]); // tail drop must also clear the tombstone
        assert_eq!(b.tail().unwrap().seq, seqs[2]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.tombstones(), 0);
    }

    #[test]
    fn transmit_completion_clears_following_tombstones() {
        let mut b = ServerBuffer::new();
        let seqs: Vec<Seq> = (0..3).map(|i| b.admit(slice(i, 1, 1))).collect();
        b.drop_slice(seqs[1]);
        let sent = b.transmit(2);
        let ids: Vec<u64> = sent.iter().map(|&(_, s, _, _)| s.id.0).collect();
        assert_eq!(ids, vec![0, 2], "tombstone skipped between heads");
        assert!(b.is_empty());
        assert_eq!(b.tombstones(), 0);
    }
}
