//! Binary encoding primitives for checkpoint snapshots.
//!
//! Deliberately tiny and dependency-free: fixed-width little-endian
//! integers, length-prefixed strings and sequences, and a CRC-32 for
//! whole-payload integrity. Everything a checkpoint contains is written
//! through [`Writer`] and read back through [`Reader`]; the reader never
//! panics on malformed input — every decode error carries the byte offset
//! where the payload stopped making sense, so a truncated or corrupted
//! checkpoint is diagnosed, skipped, and fallen past rather than crashing
//! the resume path.

use std::fmt;

/// A decode failure: what went wrong and where in the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub what: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a sequence length prefix; the caller then writes that many
    /// elements.
    pub fn put_seq_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Write raw bytes with no prefix (caller manages framing).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn err(&self, what: impl Into<String>) -> CodecError {
        CodecError {
            offset: self.pos,
            what: what.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "truncated: need {n} bytes for {what}, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a bool byte, rejecting anything other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.take(1, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError {
                offset: self.pos - 1,
                what: format!("invalid bool byte {b:#04x}"),
            }),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        let b = self.take(8, "i64")?;
        Ok(i64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        let b = self.take(8, "f64")?;
        Ok(f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_u64()? as usize;
        if n > self.remaining() {
            return Err(self.err(format!(
                "truncated: string claims {n} bytes, {} left",
                self.remaining()
            )));
        }
        let start = self.pos;
        let bytes = self.take(n, "string")?;
        std::str::from_utf8(bytes)
            .map(|s| s.to_owned())
            .map_err(|e| CodecError {
                offset: start + e.valid_up_to(),
                what: "invalid UTF-8 in string".into(),
            })
    }

    /// Read a sequence length prefix, sanity-capped so a corrupted length
    /// cannot trigger an absurd allocation: each element needs at least
    /// `min_elem_bytes` bytes of remaining payload.
    pub fn get_seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_u64()? as usize;
        let floor = min_elem_bytes.max(1);
        if n > self.remaining() / floor {
            return Err(self.err(format!(
                "implausible sequence length {n} with {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Reflected CRC-32 polynomial (IEEE 802.3).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `t[0]` is the classic byte-at-a-time table
/// and `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so one
/// step folds 8 input bytes with 8 independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (CRC32_POLY & (c & 1).wrapping_neg());
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
/// Matches the ubiquitous zlib/`cksum -o3` definition, so checkpoints can
/// be checked with standard tools too.
///
/// On x86_64 with `pclmulqdq` and `sse4.1` (detected at run time) inputs
/// of 64 bytes or more are folded 16 bytes at a time with carry-less
/// multiplies (the `clmul` module), and the last `len % 16` bytes go through the
/// table kernel. Everywhere else, and for shorter inputs, the
/// slicing-by-8 table kernel does all of it. Both give the same value.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc32(bytes) {
        return crc;
    }
    crc32_table(bytes)
}

/// The slicing-by-8 table kernel, start to finish.
fn crc32_table(bytes: &[u8]) -> u32 {
    !table_update(0xFFFF_FFFF, bytes)
}

/// Advance a raw (pre-inversion) CRC state over `bytes`, eight bytes per
/// step with eight independent lookups, then a byte-wise tail.
fn table_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Carry-less-multiply folding kernel (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel, 2009):
/// four 128-bit lanes fold 64 bytes per step, the lanes fold into one,
/// single 16-byte blocks fold into it, and a Barrett reduction takes the
/// 128-bit remainder to 32 bits.
///
/// The constants are the paper's bit-reflected ones for the IEEE
/// polynomial `P = 0x1_04C1_1DB7`, each `x^k mod P` reflected and shifted
/// left by one (33 bits): `k1 = x^(4·128+32)`, `k2 = x^(4·128-32)` fold a
/// lane 512 bits ahead; `k3 = x^(128+32)`, `k4 = x^(128-32)` fold 128 bits
/// ahead; `k5 = x^64` folds 96 bits to 64; `mu = x^64 / P` and `P'` (the
/// polynomial itself) drive the Barrett step.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input the fold kernel takes: one step of four lanes.
    pub(super) const MIN_LEN: usize = 64;

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0xccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_PRIME: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU has what [`fold`] needs. The standard library
    /// caches the probe, so this costs an atomic load after the first call.
    fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// CRC-32 of `bytes` through the fold kernel plus the table kernel
    /// for the tail, or `None` when `bytes` is shorter than [`MIN_LEN`]
    /// or the CPU lacks the features.
    pub(super) fn crc32(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < MIN_LEN || !detected() {
            return None;
        }
        let bulk = bytes.len() & !15;
        // SAFETY: `detected()` confirmed `pclmulqdq` and `sse4.1` on this
        // CPU, the only requirement `fold` has beyond what it checks.
        let state = unsafe { fold(0xFFFF_FFFF, &bytes[..bulk]) };
        Some(!super::table_update(state, &bytes[bulk..]))
    }

    /// Advance a raw CRC state over `bytes`, whose length must be a
    /// multiple of 16 and at least 64 (asserted).
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold(state: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= MIN_LEN && bytes.len() & 15 == 0);
        #[inline(always)]
        fn load(block: &[u8]) -> __m128i {
            assert_eq!(block.len(), 16);
            // SAFETY: `block` is 16 readable bytes (asserted above), and
            // `_mm_loadu_si128` has no alignment requirement.
            unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
        }
        // One fold step: carry `acc` 128 bits (or 512, by `k`) ahead and
        // add the next block. A macro, so the multiplies stay in this
        // function's target-feature context.
        macro_rules! fold_into {
            ($acc:expr, $k:expr, $next:expr) => {{
                let lo = _mm_clmulepi64_si128($acc, $k, 0x00);
                let hi = _mm_clmulepi64_si128($acc, $k, 0x11);
                _mm_xor_si128(_mm_xor_si128(hi, lo), $next)
            }};
        }
        let (head, rest) = bytes.split_at(MIN_LEN);
        let mut x1 = _mm_xor_si128(load(&head[..16]), _mm_cvtsi32_si128(state as i32));
        let mut x2 = load(&head[16..32]);
        let mut x3 = load(&head[32..48]);
        let mut x4 = load(&head[48..]);

        // Four lanes, 64 bytes per step.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut lanes = rest.chunks_exact(64);
        for c in &mut lanes {
            x1 = fold_into!(x1, k1k2, load(&c[..16]));
            x2 = fold_into!(x2, k1k2, load(&c[16..32]));
            x3 = fold_into!(x3, k1k2, load(&c[32..48]));
            x4 = fold_into!(x4, k1k2, load(&c[48..]));
        }

        // Lanes into one, then single 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        x1 = fold_into!(x1, k3k4, x2);
        x1 = fold_into!(x1, k3k4, x3);
        x1 = fold_into!(x1, k3k4, x4);
        for c in lanes.remainder().chunks_exact(16) {
            x1 = fold_into!(x1, k3k4, load(c));
        }

        // 128 bits to 64.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
        x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
        let k5 = _mm_set_epi64x(0, K5);
        let x2 = _mm_srli_si128(x1, 4);
        x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
        x1 = _mm_xor_si128(x1, x2);

        // Barrett reduction to 32 bits.
        let poly = _mm_set_epi64x(MU, P_PRIME);
        let mut x2 = _mm_and_si128(x1, low32);
        x2 = _mm_clmulepi64_si128(x2, poly, 0x10);
        x2 = _mm_and_si128(x2, low32);
        x2 = _mm_clmulepi64_si128(x2, poly, 0x00);
        x1 = _mm_xor_si128(x1, x2);
        _mm_extract_epi32(x1, 1) as u32
    }
}

/// The bit-at-a-time CRC-32 the kernel replaced, kept as its reference.
#[cfg(test)]
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC32_POLY & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_all_primitives() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-123_456_789);
        w.put_f64(-0.125);
        w.put_f64(f64::NAN);
        w.put_str("héllo 世界");
        w.put_seq_len(3);
        for i in 0..3 {
            w.put_u8(i);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i64().unwrap(), -123_456_789);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_str().unwrap(), "héllo 世界");
        assert_eq!(r.get_seq_len(1).unwrap(), 3);
        for i in 0..3 {
            assert_eq!(r.get_u8().unwrap(), i);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_with_offset_not_a_panic() {
        let mut w = Writer::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        let err = r.get_u64().unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.what.contains("truncated"));
    }

    #[test]
    fn truncated_string_reports_error() {
        let mut w = Writer::new();
        w.put_str("this is a reasonably long string");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..12]);
        assert!(r.get_str().unwrap_err().what.contains("truncated"));
    }

    #[test]
    fn invalid_utf8_string_reports_error() {
        let mut w = Writer::new();
        w.put_u64(2);
        w.put_raw(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_str().unwrap_err().what.contains("UTF-8"));
    }

    #[test]
    fn invalid_bool_byte_rejected() {
        let bytes = [2u8];
        let mut r = Reader::new(&bytes);
        assert!(r.get_bool().unwrap_err().what.contains("bool"));
    }

    #[test]
    fn implausible_sequence_length_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_seq_len(8).unwrap_err().what.contains("implausible"));
    }

    /// Each kernel called directly, not through the dispatch: the table
    /// kernel always, the fold kernel when this CPU has its features (a
    /// note is printed once when it does not). The fold kernel takes only
    /// inputs of [`clmul::MIN_LEN`] bytes or more.
    fn kernels(bytes: &[u8]) -> Vec<(&'static str, u32)> {
        let mut out = vec![("table", crc32_table(bytes))];
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN {
            match clmul::crc32(bytes) {
                Some(crc) => out.push(("clmul", crc)),
                None => note_no_clmul(),
            }
        }
        out
    }

    fn note_no_clmul() {
        static NOTE: std::sync::Once = std::sync::Once::new();
        NOTE.call_once(|| eprintln!("note: CPU lacks pclmulqdq/sse4.1; fold-kernel cases skipped"));
    }

    fn assert_kernels_match_bitwise(bytes: &[u8], what: &str) {
        let want = crc32_bitwise(bytes);
        for (kernel, got) in kernels(bytes) {
            assert_eq!(got, want, "{kernel} kernel, {what}");
        }
        assert_eq!(crc32(bytes), want, "dispatch, {what}");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_table(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Flipping one bit changes the checksum.
        assert_ne!(crc32(b"checkpoint"), crc32(b"checkpoInt"));
        // The check value repeated past the fold kernel's minimum.
        let long = b"123456789".repeat(8);
        assert_kernels_match_bitwise(&long, "72-byte check string");
    }

    /// The pattern the golden values below were taken from.
    fn golden_pattern() -> Vec<u8> {
        (0..1usize << 20)
            .map(|i| ((i * 31 + 7) % 251) as u8)
            .collect()
    }

    #[test]
    fn crc32_pins_golden_values_of_the_bitwise_build() {
        // Values computed by the bitwise loop that wrote every existing
        // checkpoint, journal and cell stamp: on-disk compatibility, not
        // just self-consistency.
        let b = golden_pattern();
        assert_eq!(crc32(&b), 0x31bd_5f80);
        assert_eq!(crc32(&b[3..3 + 1_000_003]), 0xb959_3f70);
        assert_eq!(crc32_bitwise(&b), 0x31bd_5f80);
        for (kernel, got) in kernels(&b) {
            assert_eq!(got, 0x31bd_5f80, "{kernel} kernel");
        }
        for (kernel, got) in kernels(&b[3..3 + 1_000_003]) {
            assert_eq!(got, 0xb959_3f70, "{kernel} kernel");
        }
    }

    #[test]
    fn crc32_matches_bitwise_on_every_short_length_and_offset() {
        // Every length through nine 64-byte fold steps plus every tail,
        // at every alignment of a 16-byte load.
        let b = golden_pattern();
        for start in 0..16 {
            for len in 0..=600 {
                let s = &b[start..start + len];
                assert_kernels_match_bitwise(s, &format!("start {start} len {len}"));
            }
        }
    }

    #[test]
    fn kernels_match_bitwise_on_fold_block_edges() {
        let b = golden_pattern();
        for len in [63, 64, 65, 127, 128, 129] {
            assert_kernels_match_bitwise(&b[..len], &format!("len {len}"));
            assert_kernels_match_bitwise(&b[1..1 + len], &format!("start 1 len {len}"));
        }
    }

    #[test]
    fn kernels_match_bitwise_on_a_mebibyte_of_random_bytes() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let bytes: Vec<u8> = (0..1usize << 20)
            .map(|_| {
                // xorshift64*: cheap, seedable, no dependency.
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect();
        assert_kernels_match_bitwise(&bytes, "1 MiB random");
        assert_kernels_match_bitwise(&bytes[5..], "1 MiB random from start 5");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_matches_bitwise_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..4097),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }
}
