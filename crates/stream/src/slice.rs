use std::cmp::Ordering;
use std::fmt;

use crate::{Bytes, Time, Weight};

/// Unique identifier of a slice within one [`InputStream`](crate::InputStream).
///
/// Identifiers are assigned densely in arrival order (ties within a frame
/// follow declaration order), so they double as an index into
/// [`InputStream::slices`](crate::InputStream::slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SliceId(pub u64);

impl SliceId {
    /// Returns the identifier as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SliceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u64> for SliceId {
    fn from(v: u64) -> Self {
        SliceId(v)
    }
}

/// The type of video frame a slice belongs to.
///
/// Section 5 of the paper assigns weights 12 : 8 : 1 to slices of
/// I : P : B frames. [`Generic`](FrameKind::Generic) covers non-video
/// streams (adversarial patterns, synthetic bursts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum FrameKind {
    /// Intra-coded frame (most valuable).
    I,
    /// Predicted frame.
    P,
    /// Bidirectionally predicted frame (least valuable).
    B,
    /// Not part of an MPEG structure.
    #[default]
    Generic,
}

impl FrameKind {
    /// All MPEG frame kinds, in decreasing importance.
    pub const MPEG: [FrameKind; 3] = [FrameKind::I, FrameKind::P, FrameKind::B];

    /// One-letter label used by the trace text format.
    pub fn letter(self) -> char {
        match self {
            FrameKind::I => 'I',
            FrameKind::P => 'P',
            FrameKind::B => 'B',
            FrameKind::Generic => 'G',
        }
    }

    /// Parses the one-letter label produced by [`letter`](Self::letter).
    pub fn from_letter(c: char) -> Option<FrameKind> {
        match c {
            'I' => Some(FrameKind::I),
            'P' => Some(FrameKind::P),
            'B' => Some(FrameKind::B),
            'G' => Some(FrameKind::Generic),
            _ => None,
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// A slice: the basic unit of data that can be dropped individually
/// (Definition 2.1). A slice has `size` abstract bytes, all arriving at
/// `arrival`, and carries a local weight (Definition 2.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slice {
    /// Stream-unique identifier (dense, arrival order).
    pub id: SliceId,
    /// Arrival time `AT(s)` at the server.
    pub arrival: Time,
    /// Size `|s| >= 1` in abstract bytes.
    pub size: Bytes,
    /// Local weight `w(s)`.
    pub weight: Weight,
    /// Frame kind (for per-kind loss accounting).
    pub kind: FrameKind,
}

// Every stage copies slices (server ring, link chunks, client queue),
// so the layout stays at five words.
const _: () = assert!(std::mem::size_of::<Slice>() <= 40);

impl Slice {
    /// Compares this slice's byte value `w(s)/|s|` with another slice's,
    /// exactly (no floating point). See [`byte_value_cmp`].
    #[inline]
    pub fn cmp_byte_value(&self, other: &Slice) -> Ordering {
        byte_value_cmp(self.weight, self.size, other.weight, other.size)
    }

    /// The byte value `w(s)/|s|` as a float, for reporting only.
    /// Algorithmic decisions use [`cmp_byte_value`](Self::cmp_byte_value).
    #[inline]
    pub fn byte_value(&self) -> f64 {
        self.weight as f64 / self.size as f64
    }
}

/// Compares two byte values `w1/s1` and `w2/s2` exactly via u128
/// cross-multiplication.
///
/// The greedy policy of Section 4.1 drops slices in increasing byte-value
/// order; using exact rational comparison keeps runs bit-reproducible.
///
/// # Panics
///
/// Panics in debug builds if a size is zero (sizes are validated at stream
/// construction, so this cannot occur for slices from an
/// [`InputStream`](crate::InputStream)).
#[inline]
pub fn byte_value_cmp(w1: Weight, s1: Bytes, w2: Weight, s2: Bytes) -> Ordering {
    debug_assert!(s1 > 0 && s2 > 0, "slice sizes must be positive");
    (w1 as u128 * s2 as u128).cmp(&(w2 as u128 * s1 as u128))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(id: u64, size: Bytes, weight: Weight) -> Slice {
        Slice {
            id: SliceId(id),
            arrival: 0,
            size,
            weight,
            kind: FrameKind::Generic,
        }
    }

    #[test]
    fn byte_value_exact_comparison() {
        // 1/3 < 2/5
        assert_eq!(byte_value_cmp(1, 3, 2, 5), Ordering::Less);
        // 2/4 == 1/2
        assert_eq!(byte_value_cmp(2, 4, 1, 2), Ordering::Equal);
        // 12/1 > 8/1
        assert_eq!(byte_value_cmp(12, 1, 8, 1), Ordering::Greater);
    }

    #[test]
    fn byte_value_no_overflow_at_u64_extremes() {
        assert_eq!(byte_value_cmp(u64::MAX, 1, u64::MAX, 2), Ordering::Greater);
        assert_eq!(byte_value_cmp(u64::MAX, u64::MAX, 1, 1), Ordering::Equal);
    }

    #[test]
    fn slice_cmp_byte_value_matches_free_function() {
        let a = slice(0, 3, 1);
        let b = slice(1, 5, 2);
        assert_eq!(a.cmp_byte_value(&b), Ordering::Less);
        assert_eq!(b.cmp_byte_value(&a), Ordering::Greater);
        assert_eq!(a.cmp_byte_value(&a), Ordering::Equal);
    }

    #[test]
    fn byte_value_float_for_reporting() {
        let s = slice(0, 4, 12);
        assert!((s.byte_value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn frame_kind_letters_roundtrip() {
        for k in [FrameKind::I, FrameKind::P, FrameKind::B, FrameKind::Generic] {
            assert_eq!(FrameKind::from_letter(k.letter()), Some(k));
        }
        assert_eq!(FrameKind::from_letter('x'), None);
    }

    #[test]
    fn slice_id_display_and_index() {
        assert_eq!(SliceId(17).to_string(), "s17");
        assert_eq!(SliceId(17).index(), 17);
        assert_eq!(SliceId::from(4), SliceId(4));
    }

    #[test]
    fn mpeg_kinds_in_decreasing_importance() {
        assert_eq!(FrameKind::MPEG, [FrameKind::I, FrameKind::P, FrameKind::B]);
    }
}
