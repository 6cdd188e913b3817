//! Owned-or-mapped columnar storage segments.
//!
//! Every large array inside a [`Graph`](crate::Graph) — node labels, CSR
//! offsets and adjacency, attribute entries, value postings — is held in a
//! [`Segment<T>`]: either an owned boxed slice (graphs built in memory by
//! [`GraphBuilder`](crate::GraphBuilder)) or a zero-copy view into a shared
//! byte buffer (graphs loaded from an `.fsg` container, typically a
//! memory-mapped file). The two backings are indistinguishable through the
//! deref-to-slice surface, so the matcher and measure hot paths run
//! unchanged over both.
//!
//! Safety rests on two explicitly unsafe contracts:
//!
//! * [`StableBytes`] — the byte owner keeps its buffer at a fixed address
//!   and immutable for its whole lifetime (true for `Vec<u8>` behind an
//!   `Arc`, and for a private read-only file mapping);
//! * [`Pod`] — the element type has a stable `#[repr(C)]` layout and is
//!   valid for any initialized bit pattern, so reinterpreting file bytes as
//!   `[T]` cannot produce an invalid value.
//!
//! This is the only module (together with [`crate::cols`], which declares
//! the `Pod` record types) that uses `unsafe`; the rest of the crate keeps
//! `#![deny(unsafe_code)]` teeth.

use crate::ids::{AttrId, EdgeLabelId, GroupId, LabelId, NodeId, SymbolId};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A byte buffer whose address and contents are stable for its lifetime.
///
/// # Safety
///
/// Implementors must guarantee that every call to [`stable_bytes`]
/// (`StableBytes::stable_bytes`) returns the same pointer and length, and
/// that the pointed-to bytes are never mutated or unmapped while `self` is
/// alive. [`Segment`] caches raw pointers into the buffer and dereferences
/// them for as long as it holds the owner `Arc`.
#[allow(unsafe_code)]
pub unsafe trait StableBytes: Send + Sync + 'static {
    /// The stable byte buffer.
    fn stable_bytes(&self) -> &[u8];
}

// SAFETY: a `Vec<u8>` behind an `Arc<dyn StableBytes>` is immutable (no
// `&mut` access exists) and its heap buffer does not move without `&mut`.
#[allow(unsafe_code)]
unsafe impl StableBytes for Vec<u8> {
    fn stable_bytes(&self) -> &[u8] {
        self
    }
}

/// Marker for plain-old-data element types that may live in mapped bytes.
///
/// # Safety
///
/// Implementors must be `#[repr(C)]` or `#[repr(transparent)]` with a
/// fully defined layout (no implicit padding unless every byte of the
/// padding is written by serialization), and every initialized bit pattern
/// must be a valid value of the type. Types with invariants (enums,
/// references, `bool`) must not implement this.
#[allow(unsafe_code)]
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

macro_rules! impl_pod {
    ($($t:ty),* $(,)?) => {
        $(
            // SAFETY: primitive integers and `#[repr(transparent)]` id
            // newtypes over them: no padding, every bit pattern valid.
            #[allow(unsafe_code)]
            unsafe impl Pod for $t {}
        )*
    };
}

impl_pod!(
    u8,
    u16,
    u32,
    u64,
    i64,
    NodeId,
    LabelId,
    EdgeLabelId,
    AttrId,
    SymbolId,
    GroupId
);

/// Why a byte range could not be viewed as a typed segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// `offset + len * size_of::<T>()` exceeds the buffer (or overflows).
    OutOfBounds,
    /// The start address is not aligned for `T`.
    Misaligned,
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::OutOfBounds => write!(f, "segment range out of bounds"),
            SegmentError::Misaligned => write!(f, "segment start is misaligned"),
        }
    }
}

impl std::error::Error for SegmentError {}

enum Backing<T> {
    // The box is never read through, only kept alive: `ptr`/`len` alias it.
    Owned(#[allow(dead_code)] Box<[T]>),
    Mapped(Arc<dyn StableBytes>),
}

/// An immutable typed array, either owned or a zero-copy view into a
/// shared byte buffer. Dereferences to `&[T]`.
pub struct Segment<T: Pod> {
    ptr: *const T,
    len: usize,
    backing: Backing<T>,
}

// SAFETY: the pointed-to data is immutable and either owned by `backing`
// or kept alive (and unmoved, per `StableBytes`) by the owner `Arc`, so
// sharing across threads is sound whenever `T` itself is `Send + Sync`
// (which `Pod` requires).
#[allow(unsafe_code)]
unsafe impl<T: Pod> Send for Segment<T> {}
// SAFETY: as above — `Segment` hands out only shared `&[T]`.
#[allow(unsafe_code)]
unsafe impl<T: Pod> Sync for Segment<T> {}

impl<T: Pod> Segment<T> {
    /// An empty owned segment.
    pub fn empty() -> Self {
        Self::from_vec(Vec::new())
    }

    /// An owned segment taking over `v`'s buffer.
    pub fn from_vec(v: Vec<T>) -> Self {
        let boxed = v.into_boxed_slice();
        Self {
            ptr: boxed.as_ptr(),
            len: boxed.len(),
            backing: Backing::Owned(boxed),
        }
    }

    /// A zero-copy view of `len` elements starting `offset` bytes into
    /// `owner`'s buffer. Fails if the range escapes the buffer or the
    /// start is misaligned for `T`.
    #[allow(unsafe_code)]
    pub fn map(
        owner: Arc<dyn StableBytes>,
        offset: usize,
        len: usize,
    ) -> Result<Self, SegmentError> {
        if len == 0 {
            return Ok(Self::empty());
        }
        let bytes = owner.stable_bytes();
        let byte_len = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or(SegmentError::OutOfBounds)?;
        let end = offset
            .checked_add(byte_len)
            .ok_or(SegmentError::OutOfBounds)?;
        if end > bytes.len() {
            return Err(SegmentError::OutOfBounds);
        }
        let ptr = bytes[offset..].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(SegmentError::Misaligned);
        }
        Ok(Self {
            ptr: ptr.cast::<T>(),
            len,
            backing: Backing::Mapped(owner),
        })
    }

    /// Like [`Segment::map`], but copies the range into an owned buffer
    /// when the mapped start would be misaligned for `T` (e.g. a plain
    /// `Vec<u8>` backing with no alignment guarantee). Out-of-bounds
    /// ranges still fail.
    #[allow(unsafe_code)]
    pub fn map_or_copy(
        owner: Arc<dyn StableBytes>,
        offset: usize,
        len: usize,
    ) -> Result<Self, SegmentError> {
        match Self::map(Arc::clone(&owner), offset, len) {
            Err(SegmentError::Misaligned) => {
                let bytes = owner.stable_bytes();
                let byte_len = len * std::mem::size_of::<T>();
                let src = &bytes[offset..offset + byte_len];
                let mut out: Vec<T> = Vec::with_capacity(len);
                // SAFETY: `T: Pod` is valid for any initialized bit
                // pattern; `src` holds exactly `len` elements' worth of
                // initialized bytes; the destination buffer has capacity
                // for `len` elements and does not overlap `src`.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        src.as_ptr(),
                        out.as_mut_ptr().cast::<u8>(),
                        byte_len,
                    );
                    out.set_len(len);
                }
                Ok(Self::from_vec(out))
            }
            other => other,
        }
    }

    /// Whether the segment is a zero-copy view (as opposed to owned heap).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }

    /// Heap bytes owned by this segment (0 for mapped views).
    pub fn heap_bytes(&self) -> usize {
        match self.backing {
            Backing::Owned(_) => self.len * std::mem::size_of::<T>(),
            Backing::Mapped(_) => 0,
        }
    }

    /// Bytes viewed through a shared mapping (0 for owned segments).
    pub fn mapped_bytes(&self) -> usize {
        match self.backing {
            Backing::Owned(_) => 0,
            Backing::Mapped(_) => self.len * std::mem::size_of::<T>(),
        }
    }

    /// The elements as a slice.
    #[allow(unsafe_code)]
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr`/`len` describe either our own boxed slice or a
        // validated in-bounds, aligned range of the owner's stable bytes;
        // `Pod` makes any initialized bit pattern a valid `T`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Pod> Deref for Segment<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Clone for Segment<T> {
    fn clone(&self) -> Self {
        match &self.backing {
            Backing::Owned(_) => Self::from_vec(self.as_slice().to_vec()),
            Backing::Mapped(owner) => Self {
                ptr: self.ptr,
                len: self.len,
                backing: Backing::Mapped(Arc::clone(owner)),
            },
        }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for Segment<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Segment")
            .field("len", &self.len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl<T: Pod> From<Vec<T>> for Segment<T> {
    fn from(v: Vec<T>) -> Self {
        Self::from_vec(v)
    }
}

impl<T: Pod + PartialEq> PartialEq for Segment<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_roundtrip() {
        let s = Segment::from_vec(vec![1u32, 2, 3]);
        assert_eq!(&*s, &[1, 2, 3]);
        assert!(!s.is_mapped());
        assert_eq!(s.heap_bytes(), 12);
        assert_eq!(s.mapped_bytes(), 0);
        let c = s.clone();
        assert_eq!(&*c, &[1, 2, 3]);
    }

    #[test]
    fn mapped_view_reads_bytes() {
        let mut bytes = Vec::new();
        for v in [7u32, 8, 9] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let owner: Arc<dyn StableBytes> = Arc::new(bytes);
        // `map_or_copy` tolerates the Vec's unknown alignment.
        let s = Segment::<u32>::map_or_copy(Arc::clone(&owner), 0, 3).unwrap();
        assert_eq!(&*s, &[7, 8, 9]);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let owner: Arc<dyn StableBytes> = Arc::new(vec![0u8; 8]);
        assert_eq!(
            Segment::<u32>::map(Arc::clone(&owner), 0, 3).unwrap_err(),
            SegmentError::OutOfBounds
        );
        assert_eq!(
            Segment::<u32>::map(Arc::clone(&owner), usize::MAX, 1).unwrap_err(),
            SegmentError::OutOfBounds
        );
        // Empty views are fine anywhere.
        assert!(Segment::<u32>::map(owner, 0, 0).is_ok());
    }

    #[test]
    fn zero_copy_view_shares_owner() {
        let mut bytes = vec![0u8; 16];
        bytes[4..8].copy_from_slice(&0xABCDu32.to_le_bytes());
        let owner: Arc<dyn StableBytes> = Arc::new(bytes);
        let ptr = owner.stable_bytes().as_ptr() as usize;
        // Pick whichever of offset 0/4 is aligned — Vec gives at least 4
        // on mainstream allocators, but don't rely on it.
        let off = if ptr.is_multiple_of(4) { 4 } else { return };
        let s = Segment::<u32>::map(Arc::clone(&owner), off, 1).unwrap();
        assert_eq!(s[0], 0xABCD);
        assert!(s.is_mapped());
        assert_eq!(s.heap_bytes(), 0);
        assert_eq!(s.mapped_bytes(), 4);
        let c = s.clone();
        assert!(c.is_mapped());
        assert_eq!(c[0], 0xABCD);
    }
}
