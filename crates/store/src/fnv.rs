//! FNV-1a hashing, 64- and 128-bit — the same family the rest of the
//! code base uses for digests and fingerprints (no external crates).

const OFFSET64: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME64: u64 = 0x0000_0100_0000_01b3;
const OFFSET128: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const PRIME128: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// FNV-1a 64 over a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = OFFSET64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME64);
    }
    h
}

/// Streaming FNV-1a 128 accumulator with length-prefixed field framing,
/// so adjacent variable-length fields cannot alias.
pub struct Fnv128 {
    h: u128,
}

impl Fnv128 {
    /// A fresh accumulator at the offset basis.
    pub fn new() -> Self {
        Fnv128 { h: OFFSET128 }
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= b as u128;
            self.h = self.h.wrapping_mul(PRIME128);
        }
    }

    /// Hashes one u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.eat(&v.to_le_bytes());
        self
    }

    /// Hashes one u128.
    pub fn u128(&mut self, v: u128) -> &mut Self {
        self.eat(&v.to_le_bytes());
        self
    }

    /// Hashes one f64 by exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Hashes one bool.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u64(v as u64)
    }

    /// Hashes a string, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.eat(s.as_bytes());
        self
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u128 {
        self.h
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

/// Folds a campaign context into a pipeline store key: both halves pass
/// through the full FNV-1a mixing, so contexts differing in a single bit
/// address disjoint key spaces.
pub fn mix(context: u128, key: u128) -> u128 {
    let mut h = Fnv128::new();
    h.u128(context).u128(key);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Classic FNV-1a reference values.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn field_framing_prevents_aliasing() {
        let mut a = Fnv128::new();
        a.str("ab").str("c");
        let mut b = Fnv128::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn mix_separates_contexts_and_keys() {
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(0, 5), mix(5, 0));
        assert_eq!(mix(7, 9), mix(7, 9));
    }
}
