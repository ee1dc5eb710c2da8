//! A minimal length-checked binary wire format (little-endian, no
//! external crates). Every decode returns `Option`: any truncation,
//! overflow or bad tag is a `None`, which the store layers above treat
//! as a cache miss — never as an error.
//!
//! Small counts (solver-stats words, sequence lengths) travel as
//! unsigned LEB128 varints: seven bits per byte, low group first, the
//! high bit set on every byte but the last. Only the shortest form
//! decodes, so each value has exactly one encoding.

/// Append-only byte buffer writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, unframed (fixed-size fields like magic numbers).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// One little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// One unsigned LEB128 varint (1 to 10 bytes).
    pub fn uvar(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// One little-endian u128.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// One f64 by exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.raw(s.as_bytes());
    }
}

/// Cursor over a byte slice; every accessor checks bounds.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// `true` when every byte has been consumed — decoders require this
    /// so trailing garbage invalidates an entry instead of hiding in it.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Takes `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.raw(1).map(|b| b[0])
    }

    /// One little-endian u64.
    pub fn u64(&mut self) -> Option<u64> {
        self.raw(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// One canonical unsigned LEB128 varint. Overlong forms (a final
    /// zero group after the first byte) and values past `u64::MAX` are
    /// rejected.
    pub fn uvar(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let b = self.u8()?;
            let group = u64::from(b & 0x7f);
            // The tenth byte holds bit 63 alone.
            if i == 9 && group > 1 {
                return None;
            }
            v |= group << (7 * i);
            if b & 0x80 == 0 {
                return (i == 0 || group != 0).then_some(v);
            }
        }
        None
    }

    /// One little-endian u128.
    pub fn u128(&mut self) -> Option<u128> {
        self.raw(16)
            .map(|b| u128::from_le_bytes(b.try_into().expect("16 bytes")))
    }

    /// One f64 by exact bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A length-prefixed UTF-8 string. The length is bounded by the
    /// remaining buffer, so a corrupt prefix cannot ask for gigabytes.
    pub fn str(&mut self) -> Option<String> {
        let n = self.u64()?;
        let n = usize::try_from(n).ok()?;
        let bytes = self.raw(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// A varint length prefix for a sequence of items at least
    /// `min_item` bytes each — bounded up front so corrupt counts fail
    /// fast instead of attempting huge allocations.
    pub fn seq_len(&mut self, min_item: usize) -> Option<usize> {
        let n = usize::try_from(self.uvar()?).ok()?;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(min_item.max(1))? > remaining {
            return None;
        }
        Some(n)
    }
}

/// Lowercase hex encoding.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
    }
    s
}

/// Strict lowercase/uppercase hex decoding; `None` on odd length or a
/// non-hex character.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    let digits: Vec<u32> = s.chars().map(|c| c.to_digit(16)).collect::<Option<_>>()?;
    Some(
        digits
            .chunks(2)
            .map(|p| ((p[0] << 4) | p[1]) as u8)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::new();
        w.u8(7);
        w.u64(u64::MAX - 3);
        w.u128(u128::MAX - 9);
        w.f64(-0.0);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.u128(), Some(u128::MAX - 9));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.str().as_deref(), Some("héllo"));
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_none_not_panic() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert_eq!(r.u64(), None);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u128(), None, "asked for more than is there");
    }

    #[test]
    fn corrupt_string_length_is_bounded() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // an absurd length prefix
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str(), None);
    }

    #[test]
    fn varints_are_canonical_leb128() {
        for (v, hex) in [
            (0u64, "00"),
            (1, "01"),
            (127, "7f"),
            (128, "8001"),
            (300, "ac02"),
            (u64::MAX, "ffffffffffffffffff01"),
        ] {
            let mut w = Writer::new();
            w.uvar(v);
            let bytes = w.into_bytes();
            assert_eq!(to_hex(&bytes), hex, "{v}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.uvar(), Some(v));
            assert!(r.is_empty());
        }
        for (bad, why) in [
            ("8000", "overlong zero"),
            ("ff00", "overlong 127"),
            ("ffffffffffffffffff02", "past u64::MAX"),
            ("ffffffffffffffffff8101", "eleven bytes"),
            ("80", "truncated"),
            ("", "empty"),
        ] {
            let bytes = from_hex(bad).expect("hex");
            assert_eq!(Reader::new(&bytes).uvar(), None, "{why}");
        }
    }

    #[test]
    fn hex_roundtrip_and_rejection() {
        let b = vec![0x00, 0x7f, 0xff, 0x1a];
        assert_eq!(from_hex(&to_hex(&b)).as_deref(), Some(&b[..]));
        assert_eq!(from_hex("abc"), None, "odd length");
        assert_eq!(from_hex("zz"), None, "non-hex digit");
        assert_eq!(from_hex("+f"), None, "a sign is not a digit");
        assert_eq!(from_hex("aéb"), None, "multibyte character");
        assert_eq!(from_hex(""), Some(Vec::new()));
    }
}
