//! FNV-1a hashing, 64- and 128-bit: the one implementation behind the
//! netlist content digest, the report fingerprints, the store's keys and
//! checksums and the service's job ids (no external crates).

const OFFSET64: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME64: u64 = 0x0000_0100_0000_01b3;
const OFFSET128: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const PRIME128: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// FNV-1a 64 over a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv64::new().bytes(bytes).finish()
}

/// Streaming FNV-1a 64 accumulator over raw bytes: no field framing, so
/// the digest equals [`fnv64`] of the concatenated input.
pub struct Fnv64 {
    h: u64,
}

impl Fnv64 {
    /// A fresh accumulator at the offset basis.
    pub fn new() -> Self {
        Fnv64 { h: OFFSET64 }
    }

    /// Hashes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(PRIME64);
        }
        self
    }

    /// Hashes one u64, little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Streaming FNV-1a 128 accumulator with length-prefixed string framing,
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

    /// Hashes one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.eat(&[v]);
        self
    }

    /// Hashes one u64, little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.eat(&v.to_le_bytes());
        self
    }

    /// Hashes one u128, little-endian.
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
    fn streaming_64_equals_one_shot_over_the_concatenation() {
        let mut h = Fnv64::new();
        h.bytes(b"foo").bytes(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
        let mut h = Fnv64::new();
        h.u64(7);
        assert_eq!(h.finish(), fnv64(&7u64.to_le_bytes()));
    }

    #[test]
    fn field_framing_prevents_aliasing() {
        let mut a = Fnv128::new();
        a.str("ab").str("c");
        let mut b = Fnv128::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
