//! Synthetic MPEG-like VBR video source.
//!
//! The paper's experiments (Section 5) use MPEG clips from the CNN
//! archive, reporting: average frame size ≈ 38 KB, maximum ≈ 120 KB, and
//! frame-kind frequencies of roughly 8% I, 31% P, 61% B. The clips
//! themselves are long gone, so this module generates traces with the same
//! structure:
//!
//! * a repeating GOP pattern (default 12 frames, `IPBBPBBPBBPB`-style,
//!   tuned to the reported kind frequencies);
//! * per-kind lognormal frame sizes with I > P > B means;
//! * an AR(1) "scene activity" multiplier resampled at scene changes,
//!   which produces the long bursts of valuable bytes the paper observes
//!   ("in MPEG streams, the valuable bytes come in large bursts");
//! * clamping to a maximum frame size.
//!
//! Sizes are in abstract units (1 unit ≈ 1 KB).

use crate::rng::SplitMix64;
use crate::slicing::FrameSizeTrace;
use crate::{Bytes, FrameKind};

/// Configuration of the synthetic MPEG source.
#[derive(Debug, Clone, PartialEq)]
pub struct MpegConfig {
    /// GOP pattern repeated over the trace; must be non-empty.
    pub gop: Vec<FrameKind>,
    /// Mean size of an I frame (units).
    pub mean_i: f64,
    /// Mean size of a P frame (units).
    pub mean_p: f64,
    /// Mean size of a B frame (units).
    pub mean_b: f64,
    /// Lognormal shape parameter (sigma of the underlying normal).
    pub sigma: f64,
    /// Upper clamp on any frame size (units).
    pub max_frame: Bytes,
    /// Mean scene length in frames (geometric); scene changes resample
    /// the activity multiplier.
    pub mean_scene_len: f64,
    /// Spread of the scene activity multiplier (lognormal sigma);
    /// 0 disables scene modulation.
    pub scene_sigma: f64,
    /// AR(1) smoothing coefficient for frame-to-frame correlation,
    /// in `[0, 1)`.
    pub ar1: f64,
}

impl MpegConfig {
    /// A configuration calibrated to the clip statistics reported in
    /// Section 5: mean frame ≈ 38 units, max frame ≈ 120 units, kind
    /// frequencies ≈ 8% / 31% / 61% for I / P / B.
    ///
    /// The GOP has 13 frames with 1 I, 4 P and 8 B: 7.7% / 30.8% / 61.5%.
    pub fn cnn_like() -> Self {
        use FrameKind::{B, I, P};
        MpegConfig {
            gop: vec![I, B, B, P, B, B, P, B, B, P, B, P, B],
            mean_i: 104.0,
            mean_p: 58.0,
            mean_b: 26.0,
            sigma: 0.24,
            max_frame: 120,
            mean_scene_len: 180.0,
            scene_sigma: 0.34,
            ar1: 0.85,
        }
    }
}

impl MpegConfig {
    /// A "stored high-quality clip" preset: the same GOP structure but
    /// steadier scenes and tighter per-frame variance — the kind of
    /// pre-encoded material the lossless-smoothing related work targets
    /// (noticeably smoother than [`cnn_like`](MpegConfig::cnn_like)).
    pub fn studio() -> Self {
        MpegConfig {
            sigma: 0.12,
            scene_sigma: 0.15,
            mean_scene_len: 400.0,
            ar1: 0.9,
            ..MpegConfig::cnn_like()
        }
    }
}

impl Default for MpegConfig {
    fn default() -> Self {
        MpegConfig::cnn_like()
    }
}

/// A deterministic synthetic MPEG-like source.
///
/// # Example
///
/// ```
/// use rts_stream::gen::{MpegConfig, MpegSource};
/// use rts_stream::slicing::Slicing;
/// use rts_stream::weight::WeightAssignment;
///
/// let trace = MpegSource::new(MpegConfig::cnn_like(), 42).frames(500);
/// let stream = trace.materialize(Slicing::PerByte, WeightAssignment::MPEG_12_8_1);
/// assert_eq!(stream.frame_count(), 500);
/// ```
#[derive(Debug, Clone)]
pub struct MpegSource {
    config: MpegConfig,
    rng: SplitMix64,
}

impl MpegSource {
    /// Creates a source from a configuration and a seed.
    ///
    /// # Panics
    ///
    /// Panics if the GOP pattern is empty, any mean size is not positive,
    /// or `ar1` is outside `[0, 1)`.
    pub fn new(config: MpegConfig, seed: u64) -> Self {
        assert!(!config.gop.is_empty(), "GOP pattern must be non-empty");
        assert!(
            config.mean_i > 0.0 && config.mean_p > 0.0 && config.mean_b > 0.0,
            "mean frame sizes must be positive"
        );
        assert!((0.0..1.0).contains(&config.ar1), "ar1 must be in [0, 1)");
        MpegSource {
            config,
            rng: SplitMix64::new(seed),
        }
    }

    /// Generates a trace of `n` frames.
    pub fn frames(&mut self, n: usize) -> FrameSizeTrace {
        let cfg = self.config.clone();
        let mut frames = Vec::with_capacity(n);
        let mut scene_left = self.next_scene_len();
        let mut scene_mult = self.next_scene_mult();
        let mut smooth = 1.0_f64; // AR(1) state around 1.0
        for t in 0..n {
            if scene_left == 0 {
                scene_left = self.next_scene_len();
                scene_mult = self.next_scene_mult();
            }
            scene_left -= 1;
            let kind = cfg.gop[t % cfg.gop.len()];
            let mean = match kind {
                FrameKind::I => cfg.mean_i,
                FrameKind::P => cfg.mean_p,
                FrameKind::B => cfg.mean_b,
                FrameKind::Generic => cfg.mean_b,
            };
            // Lognormal with unit mean: exp(N(-sigma^2/2, sigma)).
            let shape = self.rng.lognormal(-cfg.sigma * cfg.sigma / 2.0, cfg.sigma);
            smooth = cfg.ar1 * smooth + (1.0 - cfg.ar1) * shape;
            let size = (mean * smooth * scene_mult).round();
            let size = (size.max(1.0) as Bytes).min(cfg.max_frame);
            frames.push((kind, size));
        }
        FrameSizeTrace::new(frames)
    }

    fn next_scene_len(&mut self) -> u64 {
        if self.config.mean_scene_len <= 1.0 {
            return 1;
        }
        1 + self.rng.geometric(1.0 / self.config.mean_scene_len)
    }

    fn next_scene_mult(&mut self) -> f64 {
        if self.config.scene_sigma <= 0.0 {
            return 1.0;
        }
        let s = self.config.scene_sigma;
        self.rng.lognormal(-s * s / 2.0, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slicing::Slicing;
    use crate::weight::WeightAssignment;

    #[test]
    fn deterministic_given_seed() {
        let a = MpegSource::new(MpegConfig::cnn_like(), 7).frames(200);
        let b = MpegSource::new(MpegConfig::cnn_like(), 7).frames(200);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = MpegSource::new(MpegConfig::cnn_like(), 1).frames(50);
        let b = MpegSource::new(MpegConfig::cnn_like(), 2).frames(50);
        assert_ne!(a, b);
    }

    #[test]
    fn calibration_matches_paper_clip_statistics() {
        let trace = MpegSource::new(MpegConfig::cnn_like(), 42).frames(4000);
        let avg = trace.average_rate();
        assert!(
            (30.0..46.0).contains(&avg),
            "average frame size {avg} should be near the paper's ~38"
        );
        assert!(trace.max_frame_bytes() <= 120);
        assert!(
            trace.max_frame_bytes() >= 100,
            "bursts should approach the clamp; got {}",
            trace.max_frame_bytes()
        );
        // Kind frequencies from the GOP: ~7.7% I, ~30.8% P, ~61.5% B.
        let stream = trace.materialize(Slicing::WholeFrame, WeightAssignment::MPEG_12_8_1);
        let st = stream.stats();
        assert!((st.frame_fraction(FrameKind::I) - 0.077).abs() < 0.02);
        assert!((st.frame_fraction(FrameKind::P) - 0.308).abs() < 0.03);
        assert!((st.frame_fraction(FrameKind::B) - 0.615).abs() < 0.03);
    }

    #[test]
    fn i_frames_are_largest_on_average() {
        let trace = MpegSource::new(MpegConfig::cnn_like(), 3).frames(2000);
        let mut sums = [0.0f64; 3];
        let mut counts = [0u64; 3];
        for &(kind, size) in trace.frames() {
            let idx = match kind {
                FrameKind::I => 0,
                FrameKind::P => 1,
                _ => 2,
            };
            sums[idx] += size as f64;
            counts[idx] += 1;
        }
        let mean = |i: usize| sums[i] / counts[i] as f64;
        assert!(mean(0) > mean(1), "I mean should exceed P mean");
        assert!(mean(1) > mean(2), "P mean should exceed B mean");
    }

    #[test]
    fn studio_preset_is_smoother_than_cnn_like() {
        let cnn = MpegSource::new(MpegConfig::cnn_like(), 8).frames(3000);
        let studio = MpegSource::new(MpegConfig::studio(), 8).frames(3000);
        // Compare burstiness via the dispersion of frame sizes around
        // each trace's own mean (coefficient of variation).
        let cv = |t: &crate::slicing::FrameSizeTrace| {
            let mean = t.average_rate();
            let var: f64 = t
                .frames()
                .iter()
                .map(|&(_, s)| (s as f64 - mean).powi(2))
                .sum::<f64>()
                / t.len() as f64;
            var.sqrt() / mean
        };
        assert!(
            cv(&studio) < cv(&cnn),
            "studio CV {} should be below cnn CV {}",
            cv(&studio),
            cv(&cnn)
        );
    }

    #[test]
    fn sizes_are_within_bounds() {
        let trace = MpegSource::new(MpegConfig::cnn_like(), 5).frames(1000);
        for &(_, size) in trace.frames() {
            assert!((1..=120).contains(&size));
        }
    }

    #[test]
    fn scene_modulation_can_be_disabled() {
        let mut cfg = MpegConfig::cnn_like();
        cfg.scene_sigma = 0.0;
        cfg.mean_scene_len = 1.0;
        let trace = MpegSource::new(cfg, 9).frames(100);
        assert_eq!(trace.len(), 100);
    }

    #[test]
    #[should_panic(expected = "GOP pattern must be non-empty")]
    fn empty_gop_rejected() {
        let mut cfg = MpegConfig::cnn_like();
        cfg.gop.clear();
        MpegSource::new(cfg, 0);
    }

    #[test]
    #[should_panic(expected = "ar1 must be in [0, 1)")]
    fn invalid_ar1_rejected() {
        let mut cfg = MpegConfig::cnn_like();
        cfg.ar1 = 1.0;
        MpegSource::new(cfg, 0);
    }
}
