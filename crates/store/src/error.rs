//! Typed corruption handling for the `.fsg` container.
//!
//! Every way a file can fail to load maps to a structured [`StoreError`]
//! variant — the loader validates everything up front and never panics on
//! untrusted bytes, mirroring the robustness posture of the wire layer
//! (`crates/wire/tests/robustness.rs`).

use std::fmt;

/// Why an `.fsg` container failed to open or validate.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure (open, read, map).
    Io(std::io::Error),
    /// The file does not start with the `.fsg` magic.
    BadMagic {
        /// The first bytes actually found (at most 8).
        found: Vec<u8>,
    },
    /// The container's format version is not supported by this build.
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
        /// The newest version this build reads (and the one it writes).
        supported: u32,
    },
    /// The endianness marker does not match — the file was written on an
    /// incompatible (big-endian) machine. The format is little-endian only.
    BadEndianness,
    /// The file ends before a region the header promised.
    Truncated {
        /// Bytes required for the region.
        need: u64,
        /// Bytes actually available.
        have: u64,
        /// What was being read.
        what: &'static str,
    },
    /// A section or record holds values that violate the format invariants
    /// (out-of-range ids, non-monotone offsets, unsorted runs, bad tags,
    /// nonzero reserved bytes, ...).
    Corrupt {
        /// The section or structure at fault.
        section: &'static str,
        /// What exactly is wrong.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "not an .fsg container (bad magic {found:02x?})")
            }
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported container version {found} (this build reads versions {} to {supported})",
                crate::format::MIN_VERSION
            ),
            StoreError::BadEndianness => {
                write!(
                    f,
                    "container endianness marker mismatch (format is little-endian)"
                )
            }
            StoreError::Truncated { need, have, what } => {
                write!(
                    f,
                    "truncated container: {what} needs {need} bytes, file has {have}"
                )
            }
            StoreError::Corrupt { section, detail } => {
                write!(f, "corrupt container section '{section}': {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Shorthand for a [`StoreError::Corrupt`].
pub(crate) fn corrupt(section: &'static str, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        section,
        detail: detail.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StoreError::BadMagic {
            found: b"GARBAGE!".to_vec(),
        };
        assert!(e.to_string().contains("bad magic"));
        let e = StoreError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = StoreError::Truncated {
            need: 100,
            have: 10,
            what: "header",
        };
        assert!(e.to_string().contains("header"));
        let e = corrupt("postings", "unsorted run");
        assert!(e.to_string().contains("postings"));
        assert!(StoreError::BadEndianness.to_string().contains("endian"));
        let io = StoreError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
    }
}
