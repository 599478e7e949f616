//! The checkpoint wire format: a small, versioned, little-endian binary
//! encoding used for data segments and manifests.
//!
//! A checkpointing system must own its on-disk format — it has to be stable
//! across versions and platforms, self-describing enough to fail loudly on
//! corruption, and byte-exact (restart correctness is bitwise). Hence no
//! serialization framework: the format is a few dozen lines and fully
//! specified here.
//!
//! Layout conventions: all integers little-endian; strings are
//! `u32 length + UTF-8 bytes`; blobs are `u64 length + bytes`; every file
//! starts with a 4-byte magic and a `u32` version.

use std::fmt;

/// Format errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The file does not start with the expected magic.
    BadMagic {
        /// Expected magic bytes.
        expected: [u8; 4],
        /// Found bytes.
        found: [u8; 4],
    },
    /// Unsupported format version.
    BadVersion(
        /// Found version.
        u32,
    ),
    /// The buffer ended before the encoded value did.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A trailing CRC did not match the bytes it covers.
    ChecksumMismatch {
        /// What was being verified.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:?}, found {found:?}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            WireError::Truncated { what } => write!(f, "truncated while decoding {what}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::ChecksumMismatch { what } => {
                write!(f, "checksum mismatch verifying {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32 (IEEE 802.3) polynomial, bit-reflected. CRC-32 guarantees
/// detection of any single-bit or single-byte error and any burst up to 32
/// bits — exactly the corruption classes the storage-resilience layer must
/// catch.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables, computed at compile time. `CRC32_TABLES[0]`
/// is the classic byte table; `CRC32_TABLES[k][b]` is the CRC contribution
/// of byte `b` followed by `k` zero bytes, so one step folds 16 input bytes
/// with 16 independent lookups instead of 16 dependent ones.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let a = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Product of two polynomials modulo the CRC polynomial, both in the
/// reflected bit order CRC-32 uses (bit 31 is x^0).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    p
}

/// `X2N[k]` is x^(2^k) modulo the CRC polynomial, for every `k` that
/// [`crc32_shift`] reaches: 3 plus the bit index of a `u64` length.
const X2N: [u32; 67] = {
    let mut t = [0u32; 67];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 67 {
        t[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    t
};

/// The operator that shifts a CRC past `len` further bytes: x^(8·len)
/// modulo the CRC polynomial. Compute it once and reuse it with
/// [`crc32_combine`] when many pieces share one length.
pub(crate) fn crc32_shift(len: u64) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut n = len;
    let mut k = 3; // 8·len = len·2^3
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// CRC-32 of `a‖b` from `crc32(a)`, `crc32(b)` and `shift =
/// crc32_shift(b.len())`, without touching the bytes.
pub(crate) fn crc32_combine(crc_a: u32, crc_b: u32, shift: u32) -> u32 {
    multmodp(shift, crc_a) ^ crc_b
}

/// Splits `buf` into its payload and a verified trailing CRC-32; errors when
/// the buffer is too short or the CRC does not match the payload.
pub fn split_trailing_crc<'a>(buf: &'a [u8], what: &'static str) -> Result<&'a [u8], WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated { what });
    }
    let (payload, tail) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().expect("4 bytes"));
    if crc32(payload) != stored {
        return Err(WireError::ChecksumMismatch { what });
    }
    Ok(payload)
}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// A writer starting with `magic` and `version`.
    pub fn with_header(magic: [u8; 4], version: u32) -> Writer {
        let mut w = Writer::new();
        w.buf.extend_from_slice(&magic);
        w.u32(version);
        w
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed string.
    pub fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn blob(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Finishes, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Finishes, appending a CRC-32 of everything written so far. Pair with
    /// [`split_trailing_crc`] on the read side.
    pub fn finish_with_crc(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequential decoder.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// A reader that validates `magic` and returns the version.
    pub fn with_header(buf: &'a [u8], magic: [u8; 4]) -> Result<(Reader<'a>, u32), WireError> {
        let mut r = Reader::new(buf);
        let found = r.take(4, "magic")?;
        let found: [u8; 4] = found.try_into().expect("4 bytes");
        if found != magic {
            return Err(WireError::BadMagic { expected: magic, found });
        }
        let version = r.u32()?;
        Ok((r, version))
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().expect("8 bytes")))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8, "f64")?.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n, "string body")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed blob.
    pub fn blob(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u64()? as usize;
        Ok(self.take(n, "blob body")?.to_vec())
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads a `u32` element count and checks it against the bytes left:
    /// that many entries of at least `min_bytes` encoded bytes each must
    /// fit in what remains. The result is safe to reserve, so a crafted
    /// count fails with [`WireError::Truncated`] instead of aborting on a
    /// huge allocation.
    pub(crate) fn count_u32(
        &mut self,
        min_bytes: usize,
        what: &'static str,
    ) -> Result<usize, WireError> {
        let n = self.u32()?;
        self.fit(n.into(), min_bytes, what)
    }

    /// As [`Reader::count_u32`], for a `u64` count.
    pub(crate) fn count_u64(
        &mut self,
        min_bytes: usize,
        what: &'static str,
    ) -> Result<usize, WireError> {
        let n = self.u64()?;
        self.fit(n, min_bytes, what)
    }

    fn fit(&self, n: u64, min_bytes: usize, what: &'static str) -> Result<usize, WireError> {
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() / min_bytes.max(1) => Ok(n),
            _ => Err(WireError::Truncated { what }),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(3.25);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 3.25);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn string_and_blob_roundtrip() {
        let mut w = Writer::new();
        w.string("héllo");
        w.blob(&[1, 2, 3]);
        w.string("");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.blob().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.string().unwrap(), "");
    }

    #[test]
    fn header_validation() {
        let w = Writer::with_header(*b"DRMS", 3);
        let buf = w.finish();
        let (_, v) = Reader::with_header(&buf, *b"DRMS").unwrap();
        assert_eq!(v, 3);
        assert!(matches!(Reader::with_header(&buf, *b"XXXX"), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.u64(5);
        let mut buf = w.finish();
        buf.truncate(3);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.u64(), Err(WireError::Truncated { .. })));

        let mut w = Writer::new();
        w.blob(&[0; 100]);
        let mut buf = w.finish();
        buf.truncate(50);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.blob(), Err(WireError::Truncated { what: "blob body" })));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bit-at-a-time CRC-32, sharing no table with the kernel: the
    /// reference the sliced kernel must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// xorshift64 bytes: a fixed, dependency-free test buffer.
    pub(crate) fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_bytewise_oracle_at_every_length_and_offset() {
        let buf = seeded(256 + 16, 0xC0FFEE);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        for off in 0..16 {
            for len in 0..=256 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {off} length {len}");
            }
        }
    }

    #[test]
    fn crc32_combine_equals_crc_of_concatenation() {
        let combine = |a: u32, b: u32, len: usize| crc32_combine(a, b, crc32_shift(len as u64));
        let buf = seeded(5000, 0xBEEF);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut splits = vec![(0, 0), (0, 5000), (5000, 5000), (1, 1), (16, 4096)];
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x % 5001) as usize;
            let b = a + ((x >> 32) as usize % (5001 - a));
            splits.push((a, b));
        }
        for (a, b) in splits {
            let (head, tail) = (&buf[..a], &buf[a..b]);
            assert_eq!(
                combine(crc32(head), crc32(tail), tail.len()),
                crc32(&buf[..b]),
                "split {a}..{b}"
            );
        }
        // Shifting past zero bytes is the identity.
        assert_eq!(combine(0xDEAD_BEEF, 0, 0), 0xDEAD_BEEF);
    }

    #[test]
    fn crc32_of_fixed_mebibyte_is_pinned() {
        // Value produced by the byte-at-a-time kernel this one replaced:
        // CRCs already on disk keep verifying.
        assert_eq!(crc32(&seeded(1 << 20, 0x5EED)), 0x6B3E_6F76);
    }

    #[test]
    fn trailing_crc_roundtrip_and_detection() {
        let mut w = Writer::new();
        w.string("payload");
        w.u64(99);
        let buf = w.finish_with_crc();
        let payload = split_trailing_crc(&buf, "test").unwrap();
        let mut r = Reader::new(payload);
        assert_eq!(r.string().unwrap(), "payload");
        assert_eq!(r.u64().unwrap(), 99);

        // Any single corrupted byte — payload or CRC itself — is detected.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x41;
            assert!(
                matches!(split_trailing_crc(&bad, "test"), Err(WireError::ChecksumMismatch { .. })),
                "flip at {i} went undetected"
            );
        }
        assert!(matches!(split_trailing_crc(&[1, 2], "test"), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut w = Writer::new();
        w.u32(2);
        let mut buf = w.finish();
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.string(), Err(WireError::BadUtf8)));
    }
}
