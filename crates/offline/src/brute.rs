//! Exponential brute-force optimum: the test oracle.
//!
//! Enumerates every subset of slices, keeps the feasible ones (per the
//! work-conserving simulation of [`feasible`](crate::feasible)), and
//! returns the maximum weight. Exact for *any* slice sizes — the
//! reference against which both the flow optimum and the frame DP are
//! verified on small instances.

use std::collections::HashSet;

use rts_stream::{Bytes, InputStream, SliceId, Weight};

use crate::error::OfflineError;
use crate::feasible::is_feasible_subset;

/// Maximum subsets size (in slices) the brute force accepts; beyond this
/// the enumeration is too expensive to be useful.
pub const MAX_BRUTE_SLICES: usize = 22;

/// Computes the exact optimal benefit by subset enumeration, rejecting
/// instances whose enumeration would blow up.
///
/// A stream of `n` slices costs `2^n` feasibility simulations; past
/// [`MAX_BRUTE_SLICES`] that silently turns into hours, so the oracle
/// refuses with [`OfflineError::BruteTooLarge`] instead of running —
/// callers generating random instances (the `rts-check` differential
/// oracles) can then discard rather than hang.
///
/// # Errors
///
/// Returns [`OfflineError::BruteTooLarge`] if the stream has more than
/// [`MAX_BRUTE_SLICES`] slices.
///
/// # Panics
///
/// Panics if `rate == 0`.
pub fn try_optimal_brute_force(
    stream: &InputStream,
    buffer: Bytes,
    rate: Bytes,
) -> Result<Weight, OfflineError> {
    let slices = stream.slices();
    if slices.len() > MAX_BRUTE_SLICES {
        return Err(OfflineError::BruteTooLarge {
            slices: slices.len(),
            max: MAX_BRUTE_SLICES,
        });
    }
    assert!(rate > 0, "link rate must be positive");

    let n = slices.len();
    let mut best: Weight = 0;
    for mask in 0u32..(1u32 << n) {
        let weight: Weight = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| slices[i].weight)
            .sum();
        if weight <= best {
            continue; // cannot improve; skip the feasibility check
        }
        let accepted: HashSet<SliceId> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| slices[i].id)
            .collect();
        if is_feasible_subset(stream, &accepted, buffer, rate) {
            best = weight;
        }
    }
    Ok(best)
}

/// Computes the exact optimal benefit by subset enumeration.
///
/// # Panics
///
/// Panics if the stream has more than [`MAX_BRUTE_SLICES`] slices or if
/// `rate == 0`. Use [`try_optimal_brute_force`] to get a typed
/// [`OfflineError::BruteTooLarge`] instead of the panic.
pub fn optimal_brute_force(stream: &InputStream, buffer: Bytes, rate: Bytes) -> Weight {
    match try_optimal_brute_force(stream, buffer, rate) {
        Ok(best) => best,
        Err(e) => panic!("brute force limited to {MAX_BRUTE_SLICES} slices: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_stream::{FrameKind, SliceSpec};

    #[test]
    fn trivial_cases() {
        let empty = InputStream::builder().build();
        assert_eq!(optimal_brute_force(&empty, 3, 1), 0);

        let single = InputStream::from_frames([[SliceSpec::new(1, 7, FrameKind::Generic)]]);
        assert_eq!(optimal_brute_force(&single, 0, 1), 7);
    }

    #[test]
    fn picks_best_of_conflicting_slices() {
        // B=0, R=1: only one unit slice per step.
        let s = InputStream::from_frames([vec![
            SliceSpec::new(1, 3, FrameKind::Generic),
            SliceSpec::new(1, 9, FrameKind::Generic),
        ]]);
        assert_eq!(optimal_brute_force(&s, 0, 1), 9);
    }

    #[test]
    fn variable_sizes_knapsack() {
        // B=2, R=1; t0: (3 bytes, w10) and (1 byte, w4), t1: (2, w5).
        // Accept all: occ t0 = 4-1 = 3 > 2 → no. (3,10)+(2,5): t0 occ 2,
        // t1 occ 2+2-1 = 3 > 2 → no. (1,4)+(2,5): t0 occ 0, t1 occ 1 → 9.
        // (3,10) alone: 10. (3,10)+(1,4): occ t0 = 3 > 2 → no.
        let s = InputStream::from_frames([
            vec![
                SliceSpec::new(3, 10, FrameKind::Generic),
                SliceSpec::new(1, 4, FrameKind::Generic),
            ],
            vec![SliceSpec::new(2, 5, FrameKind::Generic)],
        ]);
        assert_eq!(optimal_brute_force(&s, 2, 1), 10);
        // A slightly bigger buffer admits (3,10)+(2,5) = 15.
        assert_eq!(optimal_brute_force(&s, 3, 1), 15);
    }

    #[test]
    #[should_panic(expected = "brute force limited")]
    fn refuses_large_instances() {
        let s = InputStream::from_frames([vec![SliceSpec::unit(); MAX_BRUTE_SLICES + 1]]);
        optimal_brute_force(&s, 1, 1);
    }

    #[test]
    fn too_large_is_a_typed_error_not_a_hang() {
        // Regression: above the enumeration ceiling the fallible entry
        // point must return immediately with the typed refusal (2^23+
        // feasibility simulations would otherwise run "forever").
        let s = InputStream::from_frames([vec![SliceSpec::unit(); MAX_BRUTE_SLICES + 1]]);
        let err = try_optimal_brute_force(&s, 1, 1).unwrap_err();
        assert_eq!(
            err,
            OfflineError::BruteTooLarge {
                slices: MAX_BRUTE_SLICES + 1,
                max: MAX_BRUTE_SLICES,
            }
        );
        // At the ceiling itself the oracle still answers.
        let ok = InputStream::from_frames([vec![SliceSpec::unit(); 3]]);
        assert_eq!(try_optimal_brute_force(&ok, 1, 1), Ok(2));
    }
}
