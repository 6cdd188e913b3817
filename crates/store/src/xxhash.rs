//! Minimal streaming xxHash64 — the whole-file digest of `.fsg` v2.
//!
//! Hand-rolled (the workspace carries no hashing dependency) from the
//! published algorithm: four 64-bit lanes consuming 32-byte stripes, a
//! lane-merging finalizer, and an avalanche mix. Verified against the
//! reference test vectors below.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Incremental xxHash64 state. Feed bytes with [`update`](Self::update) in
/// any chunking; [`finish`](Self::finish) yields the same value as hashing
/// the concatenation in one call.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// Partial stripe carried between `update` calls (< 32 bytes used).
    tail: [u8; 32],
    tail_len: usize,
    total: u64,
    seed: u64,
}

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

#[inline]
fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

#[inline]
fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

#[inline]
fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().unwrap())
}

impl Xxh64 {
    /// Fresh state for the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            lanes: [
                seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
                seed.wrapping_add(PRIME_2),
                seed,
                seed.wrapping_sub(PRIME_1),
            ],
            tail: [0; 32],
            tail_len: 0,
            total: 0,
            seed,
        }
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.tail_len > 0 {
            let need = 32 - self.tail_len;
            let take = need.min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 32 {
                return;
            }
            let stripe = self.tail;
            self.consume_stripe(&stripe);
            self.tail_len = 0;
        }
        let mut chunks = bytes.chunks_exact(32);
        for stripe in &mut chunks {
            self.consume_stripe(stripe.try_into().unwrap());
        }
        let rem = chunks.remainder();
        self.tail[..rem.len()].copy_from_slice(rem);
        self.tail_len = rem.len();
    }

    #[inline]
    fn consume_stripe(&mut self, stripe: &[u8; 32]) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            *lane = round(*lane, read_u64(&stripe[8 * i..]));
        }
    }

    /// The digest of everything absorbed so far (the state stays usable).
    pub fn finish(&self) -> u64 {
        let mut acc = if self.total >= 32 {
            let [l1, l2, l3, l4] = self.lanes;
            let mut acc = l1
                .rotate_left(1)
                .wrapping_add(l2.rotate_left(7))
                .wrapping_add(l3.rotate_left(12))
                .wrapping_add(l4.rotate_left(18));
            acc = merge_round(acc, l1);
            acc = merge_round(acc, l2);
            acc = merge_round(acc, l3);
            merge_round(acc, l4)
        } else {
            self.seed.wrapping_add(PRIME_5)
        };
        acc = acc.wrapping_add(self.total);

        let mut rest = &self.tail[..self.tail_len];
        while rest.len() >= 8 {
            acc = (acc ^ round(0, read_u64(rest)))
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            acc = (acc ^ (read_u32(rest) as u64).wrapping_mul(PRIME_1))
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            rest = &rest[4..];
        }
        for &b in rest {
            acc = (acc ^ (b as u64).wrapping_mul(PRIME_5))
                .rotate_left(11)
                .wrapping_mul(PRIME_1);
        }

        acc ^= acc >> 33;
        acc = acc.wrapping_mul(PRIME_2);
        acc ^= acc >> 29;
        acc = acc.wrapping_mul(PRIME_3);
        acc ^= acc >> 32;
        acc
    }
}

/// One-shot xxHash64 of `bytes` with `seed`.
///
/// Test oracle: `crates/store/tests/robustness.rs` recomputes a whole-file
/// digest with it.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = Xxh64::new(seed);
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the canonical xxHash distribution
    /// (`xxhsum` / the spec's doc/xxhash_spec.md examples).
    #[test]
    fn reference_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
        assert_eq!(xxh64(b"xxhash", 20_141_025), 13_067_679_811_253_438_005);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1013u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = xxh64(&data, 7);
        // Every chunking must agree, including chunks straddling stripes.
        for chunk in [1usize, 3, 7, 31, 32, 33, 64, 100] {
            let mut h = Xxh64::new(7);
            for part in data.chunks(chunk) {
                h.update(part);
            }
            assert_eq!(h.finish(), whole, "chunk size {chunk}");
        }
    }
}
