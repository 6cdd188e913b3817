//! Framing failures of the newline-delimited wire protocol (see
//! [`FrameDecoder`](crate::FrameDecoder)).

use std::fmt;

/// Framing failures.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// The frame exceeded the size cap; the line was consumed for resync.
    TooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TooLarge { limit } => {
                write!(f, "frame exceeds {limit} bytes")
            }
        }
    }
}

impl std::error::Error for FrameError {}
