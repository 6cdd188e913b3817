//! Newline-delimited framing with a size guard, as a push-based decoder.
//!
//! The NDJSON wire protocol is one frame per line. A readiness-driven
//! event loop receives byte chunks whenever the socket is readable and
//! must carry partial-frame state across reads. [`FrameDecoder`] is that
//! state machine: feed it raw bytes with [`push`](FrameDecoder::push),
//! drain completed frames with [`next_frame`](FrameDecoder::next_frame).
//!
//! An unbounded line would let a single malicious or corrupted peer grow
//! a buffer without limit, so the decoder caps the bytes buffered per
//! frame. When a frame overflows the cap, the rest of the line is
//! **discarded** up to its newline and [`FrameError::TooLarge`] is emitted
//! *in sequence* with the frames around it — the stream stays
//! line-aligned, so a decoder that hits garbage keeps serving subsequent
//! well-formed frames. A trailing `\r` is stripped (telnet-style clients)
//! and each frame is validated as UTF-8.

use std::collections::VecDeque;

use crate::frame::FrameError;

/// A push-based newline-delimited frame decoder with a size guard.
///
/// Not `Clone`: the decoder owns in-flight partial-frame state tied to one
/// byte stream.
#[derive(Debug)]
pub struct FrameDecoder {
    max_bytes: usize,
    /// Bytes of the current, still-unterminated frame.
    line: Vec<u8>,
    /// The current frame overflowed `max_bytes`; discard until newline.
    overflowed: bool,
    /// Completed frames (or in-sequence framing errors) awaiting pickup.
    ready: VecDeque<Result<String, FrameError>>,
}

impl FrameDecoder {
    /// A decoder capping each frame at `max_bytes` (excluding the
    /// terminator).
    pub fn new(max_bytes: usize) -> Self {
        Self {
            max_bytes,
            line: Vec::new(),
            overflowed: false,
            ready: VecDeque::new(),
        }
    }

    /// Feeds raw bytes from the transport. Completed frames become
    /// available via [`next_frame`](Self::next_frame).
    pub fn push(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            match bytes.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    self.take_segment(&bytes[..i]);
                    self.terminate();
                    bytes = &bytes[i + 1..];
                }
                None => {
                    self.take_segment(bytes);
                    return;
                }
            }
        }
    }

    /// Signals EOF: an unterminated trailing frame still counts as a frame.
    pub fn finish(&mut self) {
        if self.overflowed || !self.line.is_empty() {
            self.terminate();
        }
    }

    /// The next completed frame, a framing error in stream order, or
    /// `None` when more bytes are needed.
    pub fn next_frame(&mut self) -> Option<Result<String, FrameError>> {
        self.ready.pop_front()
    }

    /// Bytes currently buffered for the in-progress partial frame.
    pub fn buffered(&self) -> usize {
        self.line.len()
    }

    fn take_segment(&mut self, seg: &[u8]) {
        if self.overflowed {
            return;
        }
        if self.line.len() + seg.len() > self.max_bytes {
            self.overflowed = true;
            self.line.clear();
        } else {
            self.line.extend_from_slice(seg);
        }
    }

    fn terminate(&mut self) {
        if self.overflowed {
            self.overflowed = false;
            self.ready.push_back(Err(FrameError::TooLarge {
                limit: self.max_bytes,
            }));
            return;
        }
        let mut line = std::mem::take(&mut self.line);
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        self.ready.push_back(String::from_utf8(line).map_err(|_| {
            FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "frame is not valid UTF-8",
            ))
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(d: &mut FrameDecoder) -> Vec<Result<String, FrameError>> {
        let mut out = Vec::new();
        while let Some(f) = d.next_frame() {
            out.push(f);
        }
        out
    }

    #[test]
    fn frames_split_across_pushes() {
        let mut d = FrameDecoder::new(64);
        d.push(b"hel");
        assert!(d.next_frame().is_none());
        d.push(b"lo\nwor");
        assert_eq!(d.next_frame().unwrap().unwrap(), "hello");
        assert!(d.next_frame().is_none());
        d.push(b"ld\n");
        assert_eq!(d.next_frame().unwrap().unwrap(), "world");
    }

    #[test]
    fn multiple_frames_in_one_push() {
        let mut d = FrameDecoder::new(64);
        d.push(b"a\nbb\nccc\n");
        let texts: Vec<_> = drain(&mut d).into_iter().map(|f| f.unwrap()).collect();
        assert_eq!(texts, ["a", "bb", "ccc"]);
    }

    #[test]
    fn oversized_frame_resyncs_in_sequence() {
        let mut d = FrameDecoder::new(4);
        d.push(b"ok\n");
        d.push(b"toolongtoolong");
        d.push(b"evenlonger\nnext\n");
        let out = drain(&mut d);
        assert_eq!(out[0].as_deref().unwrap(), "ok");
        assert!(matches!(out[1], Err(FrameError::TooLarge { limit: 4 })));
        assert_eq!(out[2].as_deref().unwrap(), "next");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn finish_flushes_trailing_partial_frame() {
        let mut d = FrameDecoder::new(64);
        d.push(b"partial");
        assert!(d.next_frame().is_none());
        d.finish();
        assert_eq!(d.next_frame().unwrap().unwrap(), "partial");
        // A second finish with nothing buffered emits nothing.
        d.finish();
        assert!(d.next_frame().is_none());
    }

    #[test]
    fn finish_reports_overflowed_trailing_frame() {
        let mut d = FrameDecoder::new(2);
        d.push(b"abcdef");
        d.finish();
        assert!(matches!(
            d.next_frame(),
            Some(Err(FrameError::TooLarge { limit: 2 }))
        ));
    }

    #[test]
    fn strips_carriage_return_and_validates_utf8() {
        let mut d = FrameDecoder::new(16);
        d.push(b"hi\r\n");
        d.push(&[0xff, 0xfe, b'\n']);
        let out = drain(&mut d);
        assert_eq!(out[0].as_deref().unwrap(), "hi");
        assert!(matches!(out[1], Err(FrameError::Io(_))));
    }

    #[test]
    fn empty_lines_are_empty_frames() {
        let mut d = FrameDecoder::new(8);
        d.push(b"\n\nx\n");
        let out = drain(&mut d);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].as_deref().unwrap(), "");
        assert_eq!(out[2].as_deref().unwrap(), "x");
    }

    #[test]
    fn buffered_tracks_partial_bytes() {
        let mut d = FrameDecoder::new(64);
        assert_eq!(d.buffered(), 0);
        d.push(b"abc");
        assert_eq!(d.buffered(), 3);
        d.push(b"d\n");
        assert_eq!(d.buffered(), 0);
    }
}
