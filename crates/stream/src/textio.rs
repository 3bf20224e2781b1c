//! Plain-text trace format.
//!
//! A deliberately simple line format so traces can be diffed, versioned,
//! and produced by external tools:
//!
//! ```text
//! # anything after '#' is a comment
//! frame 0
//! slice 3 12 I
//! slice 1 1 B
//! frame 2
//! ```
//!
//! `frame <time>` opens a frame; each following `slice <size> <weight>
//! <kind-letter>` belongs to it. Empty frames are legal and preserved.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), rts_stream::StreamError> {
//! use rts_stream::{textio, FrameKind, InputStream, SliceSpec};
//!
//! let stream = InputStream::from_frames([[SliceSpec::new(2, 8, FrameKind::P)]]);
//! let text = textio::write_stream(&stream);
//! let back = textio::parse_stream(&text)?;
//! assert_eq!(stream, back);
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;

use crate::{FrameKind, InputStream, SliceSpec, StreamBuilder, StreamError, Time};

/// Serializes a stream to the text format.
pub fn write_stream(stream: &InputStream) -> String {
    let mut out = String::new();
    out.push_str("# rts-stream trace v1\n");
    for frame in stream.frames() {
        let _ = writeln!(out, "frame {}", frame.time);
        for s in frame.slices {
            let _ = writeln!(out, "slice {} {} {}", s.size, s.weight, s.kind.letter());
        }
    }
    out
}

/// Parses the text format back into a stream.
///
/// # Errors
///
/// Returns [`StreamError::Parse`] for malformed lines,
/// [`StreamError::NonMonotonicTime`] for out-of-order frames, and
/// [`StreamError::EmptySlice`] for zero-size slices.
pub fn parse_stream(text: &str) -> Result<InputStream, StreamError> {
    // Editors on some platforms prepend a UTF-8 byte-order mark; without
    // stripping it the first record reads as `'\u{feff}frame'`.
    let text = strip_bom(text);
    let mut builder = StreamBuilder::new();
    let mut current: Option<(Time, Vec<SliceSpec>)> = None;

    let flush = |builder: &mut StreamBuilder,
                 current: &mut Option<(Time, Vec<SliceSpec>)>|
     -> Result<(), StreamError> {
        if let Some((time, specs)) = current.take() {
            builder.try_frame(time, specs)?;
        }
        Ok(())
    };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("frame") => {
                flush(&mut builder, &mut current)?;
                let time = parse_field(parts.next(), line_no, "frame time")?;
                if parts.next().is_some() {
                    return Err(parse_err(line_no, "trailing tokens after frame time"));
                }
                current = Some((time, Vec::new()));
            }
            Some("slice") => {
                let Some((_, specs)) = current.as_mut() else {
                    return Err(parse_err(line_no, "slice before any frame"));
                };
                let size = parse_field(parts.next(), line_no, "slice size")?;
                let weight = parse_field(parts.next(), line_no, "slice weight")?;
                let kind = match parts.next() {
                    Some(tok) if tok.chars().count() == 1 => {
                        FrameKind::from_letter(tok.chars().next().expect("one char"))
                            .ok_or_else(|| parse_err(line_no, "unknown frame kind"))?
                    }
                    Some(_) => return Err(parse_err(line_no, "frame kind must be one letter")),
                    None => return Err(parse_err(line_no, "missing frame kind")),
                };
                if parts.next().is_some() {
                    return Err(parse_err(line_no, "trailing tokens after slice"));
                }
                specs.push(SliceSpec::new(size, weight, kind));
            }
            Some(other) => {
                return Err(parse_err(line_no, &format!("unknown record '{other}'")));
            }
            None => unreachable!("empty lines are skipped"),
        }
    }
    flush(&mut builder, &mut current)?;
    Ok(builder.build())
}

/// Parses a raw frame-size listing: one frame per line, either
/// `<size>` or `<kind-letter> <size>` (the format in which published
/// VBR video traces — e.g. the classic Bellcore/"Star Wars" MPEG
/// traces — circulate). `#` comments and blank lines are ignored.
/// Line `i` (0-based among data lines) becomes the frame at time `i`.
///
/// # Errors
///
/// Returns [`StreamError::Parse`] for malformed lines.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), rts_stream::StreamError> {
/// let trace = rts_stream::textio::parse_frame_sizes("I 120\n38\nB 12\n")?;
/// assert_eq!(trace.total_bytes(), 170);
/// # Ok(())
/// # }
/// ```
pub fn parse_frame_sizes(text: &str) -> Result<crate::slicing::FrameSizeTrace, StreamError> {
    let text = strip_bom(text);
    let mut frames = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let first = parts.next().expect("non-empty line has a token");
        let (kind, size_tok) = match first.parse::<u64>() {
            Ok(_) => (FrameKind::Generic, first),
            Err(_) => {
                let kind = (first.chars().count() == 1)
                    .then(|| FrameKind::from_letter(first.chars().next().expect("one char")))
                    .flatten()
                    .ok_or_else(|| parse_err(line_no, "expected a size or a kind letter"))?;
                let tok = parts
                    .next()
                    .ok_or_else(|| parse_err(line_no, "missing frame size"))?;
                (kind, tok)
            }
        };
        let size = size_tok
            .parse::<u64>()
            .map_err(|_| parse_err(line_no, &format!("invalid frame size '{size_tok}'")))?;
        if parts.next().is_some() {
            return Err(parse_err(line_no, "trailing tokens after frame size"));
        }
        frames.push((kind, size));
    }
    Ok(crate::slicing::FrameSizeTrace::new(frames))
}

/// Serializes a frame-size trace in the format accepted by
/// [`parse_frame_sizes`].
pub fn write_frame_sizes(trace: &crate::slicing::FrameSizeTrace) -> String {
    let mut out = String::new();
    out.push_str("# frame sizes: <kind-letter> <size>\n");
    for &(kind, size) in trace.frames() {
        let _ = writeln!(out, "{} {}", kind.letter(), size);
    }
    out
}

/// Drops a single leading UTF-8 byte-order mark, if present.
fn strip_bom(text: &str) -> &str {
    text.strip_prefix('\u{feff}').unwrap_or(text)
}

fn parse_field(tok: Option<&str>, line: usize, what: &str) -> Result<u64, StreamError> {
    let tok = tok.ok_or_else(|| parse_err(line, &format!("missing {what}")))?;
    tok.parse::<u64>()
        .map_err(|_| parse_err(line, &format!("invalid {what} '{tok}'")))
}

fn parse_err(line: usize, message: &str) -> StreamError {
    StreamError::Parse {
        line,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceSpec;

    fn sample() -> InputStream {
        let mut b = InputStream::builder();
        b.frame(
            0,
            [
                SliceSpec::new(3, 12, FrameKind::I),
                SliceSpec::new(1, 1, FrameKind::B),
            ],
        );
        b.frame(2, []);
        b.frame(5, [SliceSpec::new(2, 8, FrameKind::P)]);
        b.build()
    }

    #[test]
    fn roundtrip_preserves_stream() {
        let s = sample();
        let text = write_stream(&s);
        let back = parse_stream(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn roundtrip_empty_stream() {
        let s = InputStream::builder().build();
        assert_eq!(parse_stream(&write_stream(&s)).unwrap(), s);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# header\nframe 0  # inline comment\nslice 1 5 G\n\n";
        let s = parse_stream(text).unwrap();
        assert_eq!(s.slice_count(), 1);
        assert_eq!(s.slices()[0].weight, 5);
    }

    #[test]
    fn bom_and_crlf_traces_roundtrip() {
        let s = sample();
        // A trace saved by a BOM-writing editor with Windows line
        // endings must parse back to the identical stream.
        let text = format!("\u{feff}{}", write_stream(&s).replace('\n', "\r\n"));
        assert_eq!(parse_stream(&text).unwrap(), s);
        // The BOM is consumed exactly once — a BOM mid-file is still an
        // error, and a bare BOM is an empty trace.
        assert!(parse_stream("frame 0\n\u{feff}frame 1\n").is_err());
        assert_eq!(parse_stream("\u{feff}").unwrap(), InputStream::builder().build());
    }

    #[test]
    fn frame_sizes_bom_and_crlf() {
        let t = parse_frame_sizes("\u{feff}I 120\r\n38\r\nB 12\r\n").unwrap();
        assert_eq!(t.frames()[0], (FrameKind::I, 120));
        assert_eq!(t.total_bytes(), 170);
        let back = parse_frame_sizes(&write_frame_sizes(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn slice_before_frame_is_an_error() {
        let err = parse_stream("slice 1 1 G").unwrap_err();
        assert!(matches!(err, StreamError::Parse { line: 1, .. }));
    }

    #[test]
    fn bad_kind_is_an_error() {
        let err = parse_stream("frame 0\nslice 1 1 Z").unwrap_err();
        assert!(matches!(err, StreamError::Parse { line: 2, .. }));
    }

    #[test]
    fn bad_number_is_an_error() {
        let err = parse_stream("frame zero").unwrap_err();
        assert!(err.to_string().contains("invalid frame time"));
    }

    #[test]
    fn trailing_tokens_are_errors() {
        assert!(parse_stream("frame 0 1").is_err());
        assert!(parse_stream("frame 0\nslice 1 1 G extra").is_err());
    }

    #[test]
    fn unknown_record_is_an_error() {
        let err = parse_stream("bogus 1").unwrap_err();
        assert!(err.to_string().contains("unknown record 'bogus'"));
    }

    #[test]
    fn out_of_order_frames_rejected() {
        let err = parse_stream("frame 5\nframe 3").unwrap_err();
        assert!(matches!(err, StreamError::NonMonotonicTime { .. }));
    }

    #[test]
    fn zero_size_slice_rejected() {
        let err = parse_stream("frame 0\nslice 0 1 G").unwrap_err();
        assert!(matches!(err, StreamError::EmptySlice { time: 0 }));
    }

    #[test]
    fn frame_sizes_bare_numbers() {
        let t = parse_frame_sizes("10\n20\n\n# comment\n30\n").unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_bytes(), 60);
        assert!(t.frames().iter().all(|&(k, _)| k == FrameKind::Generic));
    }

    #[test]
    fn frame_sizes_with_kinds() {
        let t = parse_frame_sizes("I 120\nP 50  # inline\nB 12\n").unwrap();
        assert_eq!(t.frames()[0], (FrameKind::I, 120));
        assert_eq!(t.frames()[2], (FrameKind::B, 12));
    }

    #[test]
    fn frame_sizes_roundtrip() {
        let t = parse_frame_sizes("I 120\nG 38\nB 12\n").unwrap();
        let back = parse_frame_sizes(&write_frame_sizes(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn frame_sizes_zero_is_an_empty_slot() {
        let t = parse_frame_sizes("0\n5\n").unwrap();
        assert_eq!(t.frames()[0].1, 0);
    }

    #[test]
    fn frame_sizes_errors() {
        assert!(parse_frame_sizes("X 12").is_err()); // unknown kind
        assert!(parse_frame_sizes("I").is_err()); // missing size
        assert!(parse_frame_sizes("I twelve").is_err()); // bad number
        assert!(parse_frame_sizes("I 12 extra").is_err()); // trailing
        let err = parse_frame_sizes("ok\nI 1\nbogus line").unwrap_err();
        assert!(matches!(err, StreamError::Parse { line: 1, .. }));
    }

    #[test]
    fn empty_inputs_parse_to_the_empty_stream() {
        // Every flavour of "nothing": no bytes, newlines only, CRLF
        // only, comments only, and whitespace with a BOM.
        for text in ["", "\n", "\r\n\r\n", "# only a comment\n", "\u{feff}\r\n# hi\r\n", "   \n\t\n"] {
            let s = parse_stream(text)
                .unwrap_or_else(|e| panic!("empty-ish input {text:?} rejected: {e}"));
            assert_eq!(s, InputStream::builder().build(), "input {text:?}");
            assert_eq!(s.slice_count(), 0);
        }
    }

    #[test]
    fn single_slice_frames_roundtrip() {
        // The whole-frame slicing extreme: exactly one slice per frame.
        let mut b = InputStream::builder();
        b.frame(0, [SliceSpec::new(4, 9, FrameKind::I)]);
        b.frame(1, [SliceSpec::new(1, 1, FrameKind::B)]);
        b.frame(5, [SliceSpec::new(7, 0, FrameKind::P)]);
        let s = b.build();
        let back = parse_stream(&write_stream(&s)).unwrap();
        assert_eq!(back, s);
        assert!(back.frames().all(|f| f.slices.len() == 1));
        // The time gap (frame 1 -> frame 5) survives the trip.
        assert_eq!(back.frame(2).time, 5);
    }

    #[test]
    fn empty_frames_survive_the_roundtrip() {
        // A frame line with no following slices is a real (idle) frame,
        // not a parse artifact, and must not be collapsed.
        let mut b = InputStream::builder();
        b.frame(0, [SliceSpec::new(1, 1, FrameKind::Generic)]);
        b.frame(3, std::iter::empty::<SliceSpec>());
        b.frame(4, [SliceSpec::new(2, 2, FrameKind::Generic)]);
        let s = b.build();
        let back = parse_stream(&write_stream(&s)).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.frame_count(), 3);
        assert!(back.frame(1).slices.is_empty());
    }

    #[test]
    fn maximal_slices_roundtrip_without_overflow() {
        // Lmax at the representation ceiling: u64::MAX sizes, weights,
        // and frame times must print and re-parse exactly.
        let mut b = InputStream::builder();
        b.frame(0, [SliceSpec::new(u64::MAX, u64::MAX, FrameKind::I)]);
        b.frame(u64::MAX, [SliceSpec::new(1, 0, FrameKind::Generic)]);
        let s = b.build();
        let back = parse_stream(&write_stream(&s)).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.frame(0).slices[0].size, u64::MAX);
        assert_eq!(back.frame(1).time, u64::MAX);
        // One past u64::MAX is a parse error, not a silent wrap.
        assert!(parse_stream("frame 0\nslice 18446744073709551616 1 G\n").is_err());
    }

    #[test]
    fn frame_sizes_empty_inputs() {
        for text in ["", "\r\n", "\u{feff}# nothing\n"] {
            let t = parse_frame_sizes(text)
                .unwrap_or_else(|e| panic!("empty-ish sizes {text:?} rejected: {e}"));
            assert_eq!(t.frames().len(), 0, "input {text:?}");
            assert_eq!(t.total_bytes(), 0);
        }
    }
}
