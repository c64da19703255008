//! The workspace's one FNV-1a (64-bit): every determinism pin — span
//! graph hashes, black-box dump hashes, fleet digests, trace-JSON
//! fingerprints in the test suite — folds its bytes through this hasher,
//! so two pins over the same bytes can never disagree about the hash.

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in, in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one word in as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors_and_folds_words_little_endian() {
        let of = |s: &[u8]| {
            let mut h = Fnv1a::new();
            h.bytes(s);
            h.finish()
        };
        assert_eq!(of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of(b"foobar"), 0x8594_4171_f739_67e8);
        let mut word = Fnv1a::new();
        word.u64(0x0102_0304_0506_0708);
        assert_eq!(word.finish(), of(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
