//! Gorilla-style XOR compression for 32-bit floats, and a 64-bit twin.
//!
//! This is the value codec of Facebook's Gorilla TSDB (reference \[28\] of
//! the paper) adapted to the `f32` values of the storage schema: each value
//! is XORed with the previous value in the stream; a zero XOR costs one bit,
//! and non-zero XORs reuse the previous leading/trailing-zero window when
//! possible. The MMGC extension of Section 5.2 stores the values of a group
//! *time-ordered per timestamp block* in one such stream, so correlated
//! series produce small deltas against the immediately preceding value.

use crate::bits::{BitReader, BitWriter};

const LEADING_BITS: u8 = 5;
const LENGTH_BITS: u8 = 5; // stores (significant_bits - 1) ∈ [0, 31]

/// Streaming XOR encoder.
#[derive(Debug, Clone)]
pub struct XorEncoder {
    writer: BitWriter,
    prev: u32,
    leading: u8,
    trailing: u8,
    count: usize,
}

impl Default for XorEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl XorEncoder {
    /// A new encoder; the first pushed value is stored verbatim.
    pub fn new() -> Self {
        Self {
            writer: BitWriter::new(),
            prev: 0,
            leading: u8::MAX,
            trailing: 0,
            count: 0,
        }
    }

    /// Appends one value to the stream with a single
    /// [`BitWriter::write_bits`] call: at most 44 bits (new window).
    pub fn push(&mut self, value: f32) {
        let bits = value.to_bits();
        if self.count == 0 {
            self.writer.write_bits(u64::from(bits), 32);
            self.prev = bits;
            self.count = 1;
            return;
        }
        let xor = bits ^ self.prev;
        if xor == 0 {
            self.writer.write_bits(0, 1);
        } else {
            let leading = (xor.leading_zeros() as u8).min(31);
            let trailing = xor.trailing_zeros() as u8;
            if self.leading != u8::MAX && leading >= self.leading && trailing >= self.trailing {
                // Fits in the previous window: `10` + meaningful bits.
                let significant = 32 - self.leading - self.trailing;
                let code = (0b10 << significant) | u64::from(xor >> self.trailing);
                self.writer.write_bits(code, 2 + significant);
            } else {
                // New window: `11` + leading count + length + bits.
                let significant = 32 - leading - trailing;
                let header = (0b11 << (LEADING_BITS + LENGTH_BITS))
                    | (u64::from(leading) << LENGTH_BITS)
                    | u64::from(significant - 1);
                let code = (header << significant) | u64::from(xor >> trailing);
                self.writer
                    .write_bits(code, 2 + LEADING_BITS + LENGTH_BITS + significant);
                self.leading = leading;
                self.trailing = trailing;
            }
        }
        self.prev = bits;
        self.count += 1;
    }

    /// Number of values pushed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The size of the stream so far, in bits (used for model selection).
    pub fn bit_len(&self) -> usize {
        self.writer.bit_len()
    }

    /// The size of the stream so far, rounded up to whole bytes.
    pub fn byte_len(&self) -> usize {
        self.writer.bit_len().div_ceil(8)
    }

    /// The bytes [`finish`](Self::finish) would return, without consuming
    /// the encoder; its length is [`byte_len`](Self::byte_len).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.writer.to_bytes()
    }

    /// Finishes the stream and returns its bytes.
    pub fn finish(self) -> Vec<u8> {
        self.writer.finish()
    }
}

/// Streaming XOR decoder. The number of encoded values is not part of the
/// stream and must be supplied by the caller (segments know their length).
///
/// Each value is decoded from one 64-bit big-endian peek at the stream: a
/// value's code is at most 44 bits (`11`, five leading-zero bits, five
/// length bits, up to 32 significant bits) and a peek holds at least 57
/// bits of input, or all that is left of it, zero-padded.
#[derive(Debug, Clone)]
pub struct XorDecoder<'a> {
    bytes: &'a [u8],
    /// The stream's length in bits.
    bit_len: usize,
    /// Bit cursor: the start of the next value's code.
    pos: usize,
    prev: u32,
    /// The current window: its significant bits and trailing zeros.
    significant: u32,
    trailing: u32,
    started: bool,
}

impl<'a> XorDecoder<'a> {
    /// A decoder over an encoded stream.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            bit_len: bytes.len() * 8,
            pos: 0,
            prev: 0,
            significant: 32,
            trailing: 0,
            started: false,
        }
    }

    /// The 64 stream bits from the cursor on, most significant first, with
    /// zeros past the end of the input.
    #[inline]
    fn peek(&self) -> u64 {
        let byte = self.pos / 8;
        let word = match self.bytes.get(byte..byte + 8) {
            Some(word) => u64::from_be_bytes(word.try_into().expect("an 8-byte slice")),
            None => {
                let tail = self.bytes.get(byte..).unwrap_or_default();
                let mut padded = [0u8; 8];
                padded[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(padded)
            }
        };
        word << (self.pos % 8)
    }

    /// Moves the cursor past a code of `width` bits, unless that runs past
    /// the end of the input (zero padding never counts as code).
    #[inline]
    fn consume(&mut self, width: u32) -> Option<()> {
        let end = self.pos + width as usize;
        if end > self.bit_len {
            return None;
        }
        self.pos = end;
        Some(())
    }

    /// Decodes the next value; `None` on malformed or exhausted input, which
    /// leaves the decoder where it was.
    #[inline]
    pub fn next_value(&mut self) -> Option<f32> {
        if self.started {
            return self.step();
        }
        let bits = (self.peek() >> 32) as u32;
        self.consume(32)?;
        self.prev = bits;
        self.started = true;
        Some(f32::from_bits(bits))
    }

    /// Decodes a value after the first from one peek: `0` repeats the
    /// previous value, `10` reuses the window, `11` opens a new one.
    #[inline]
    fn step(&mut self) -> Option<f32> {
        let word = self.peek();
        if word >> 63 == 0 {
            self.consume(1)?;
        } else if word >> 62 == 0b11 {
            // `11`, five leading-zero bits, five bits of (length - 1).
            let leading = (word >> 57) as u32 & 0x1F;
            let significant = ((word >> 52) as u32 & 0x1F) + 1;
            if leading + significant > 32 {
                // No encoder writes this window: the stream is damaged.
                return None;
            }
            self.consume(12 + significant)?;
            let trailing = 32 - leading - significant;
            let xor = ((word << 12) >> (64 - significant)) as u32;
            self.prev ^= xor << trailing;
            (self.significant, self.trailing) = (significant, trailing);
        } else {
            self.consume(2 + self.significant)?;
            let xor = ((word << 2) >> (64 - self.significant)) as u32;
            self.prev ^= xor << self.trailing;
        }
        Some(f32::from_bits(self.prev))
    }
}

/// Decodes exactly `count` values.
pub fn decode_all(bytes: &[u8], count: usize) -> Option<Vec<f32>> {
    let mut out = Vec::new();
    decode_into(bytes, count, &mut out).then_some(out)
}

/// Decodes exactly `count` values into `out` (cleared first), so a caller
/// decoding many streams reuses one buffer. `false` when the stream ends
/// early or is damaged; `out` then holds the values decoded so far.
pub fn decode_into(bytes: &[u8], count: usize, out: &mut Vec<f32>) -> bool {
    out.clear();
    // Every value costs at least one bit, so a damaged `count` cannot make
    // this reserve more than the stream could ever hold.
    out.reserve(count.min(bytes.len() * 8));
    let mut decoder = XorDecoder::new(bytes);
    for _ in 0..count {
        match decoder.next_value() {
            Some(value) => out.push(value),
            None => return false,
        }
    }
    true
}

/// Encodes a slice of values.
pub fn encode_all(values: &[f32]) -> Vec<u8> {
    let mut enc = XorEncoder::new();
    for &v in values {
        enc.push(v);
    }
    enc.finish()
}

/// Leading-zero count of the 64-bit twin's window header, in [0, 63].
const LEADING_BITS_64: u8 = 6;
/// Stores (significant_bits - 1) ∈ [0, 63] of the 64-bit twin's window.
const LENGTH_BITS_64: u8 = 6;

/// The 64-bit twin of [`XorEncoder`]: the same stream grammar over `f64`
/// bit patterns, with six-bit leading and length fields because a 64-bit
/// window needs them. Lossless for every bit pattern (NaN payloads, −0.0,
/// infinities), so a reload is bit-exact.
#[derive(Debug, Clone, Default)]
pub struct Xor64Encoder {
    writer: BitWriter,
    prev: u64,
    /// `None` until the first non-zero XOR opens a window.
    window: Option<(u8, u8)>,
    count: usize,
}

impl Xor64Encoder {
    /// A new encoder; the first pushed value is stored verbatim.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one value to the stream.
    pub fn push(&mut self, value: f64) {
        let bits = value.to_bits();
        let xor = bits ^ self.prev;
        if self.count == 0 {
            self.writer.write_bits(bits, 64);
        } else if xor == 0 {
            self.writer.write_bits(0, 1);
        } else {
            let leading = xor.leading_zeros() as u8;
            let trailing = xor.trailing_zeros() as u8;
            match self.window {
                Some((l, t)) if leading >= l && trailing >= t => {
                    // Fits in the previous window: `10` + meaningful bits.
                    self.writer.write_bits(0b10, 2);
                    self.writer.write_bits(xor >> t, 64 - l - t);
                }
                _ => {
                    // New window: `11` + leading count + length + bits.
                    let significant = 64 - leading - trailing;
                    let header = (0b11 << (LEADING_BITS_64 + LENGTH_BITS_64))
                        | (u64::from(leading) << LENGTH_BITS_64)
                        | u64::from(significant - 1);
                    self.writer
                        .write_bits(header, 2 + LEADING_BITS_64 + LENGTH_BITS_64);
                    self.writer.write_bits(xor >> trailing, significant);
                    self.window = Some((leading, trailing));
                }
            }
        }
        self.prev = bits;
        self.count += 1;
    }

    /// Finishes the stream and returns its bytes.
    pub fn finish(self) -> Vec<u8> {
        self.writer.finish()
    }
}

/// Streaming decoder of [`Xor64Encoder`] streams; like [`XorDecoder`], the
/// caller supplies the value count.
#[derive(Debug, Clone)]
pub struct Xor64Decoder<'a> {
    reader: BitReader<'a>,
    prev: u64,
    leading: u8,
    trailing: u8,
    emitted: usize,
}

impl<'a> Xor64Decoder<'a> {
    /// A decoder over an encoded stream.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            reader: BitReader::new(bytes),
            prev: 0,
            leading: 0,
            trailing: 0,
            emitted: 0,
        }
    }

    /// Decodes the next value; `None` on malformed or exhausted input.
    pub fn next_value(&mut self) -> Option<f64> {
        let bits = if self.emitted == 0 {
            self.reader.read_bits(64)?
        } else if !self.reader.read_bit()? {
            self.prev
        } else {
            if self.reader.read_bit()? {
                let leading = self.reader.read_bits(LEADING_BITS_64)? as u8;
                let significant = self.reader.read_bits(LENGTH_BITS_64)? as u8 + 1;
                if leading + significant > 64 {
                    // No encoder writes this window: the stream is damaged.
                    return None;
                }
                self.leading = leading;
                self.trailing = 64 - leading - significant;
            }
            let significant = 64 - self.leading - self.trailing;
            self.prev ^ (self.reader.read_bits(significant)? << self.trailing)
        };
        self.prev = bits;
        self.emitted += 1;
        Some(f64::from_bits(bits))
    }
}

/// Encodes a slice of `f64` values with [`Xor64Encoder`].
pub fn encode_all_f64(values: &[f64]) -> Vec<u8> {
    let mut enc = Xor64Encoder::new();
    for &v in values {
        enc.push(v);
    }
    enc.finish()
}

/// Decodes exactly `count` `f64` values; `None` when the stream is damaged
/// or ends early.
pub fn decode_all_f64(bytes: &[u8], count: usize) -> Option<Vec<f64>> {
    // Every value costs at least one bit, so a damaged `count` cannot make
    // this reserve more than the stream could ever hold.
    let mut out = Vec::with_capacity(count.min(bytes.len() * 8));
    let mut decoder = Xor64Decoder::new(bytes);
    for _ in 0..count {
        out.push(decoder.next_value()?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::reference::ByteWriter;

    /// The encoder [`XorEncoder`] replaced: up to five writer calls per
    /// value on the byte-at-a-time reference writer.
    #[derive(Default)]
    struct ReferenceEncoder {
        writer: ByteWriter,
        prev: u32,
        window: Option<(u8, u8)>,
        count: usize,
    }

    impl ReferenceEncoder {
        fn push(&mut self, value: f32) {
            let bits = value.to_bits();
            if self.count == 0 {
                self.writer.write_bits(u64::from(bits), 32);
            } else if bits == self.prev {
                self.writer.write_bit(false);
            } else {
                let xor = bits ^ self.prev;
                self.writer.write_bit(true);
                let leading = (xor.leading_zeros() as u8).min(31);
                let trailing = xor.trailing_zeros() as u8;
                match self.window {
                    Some((l, t)) if leading >= l && trailing >= t => {
                        self.writer.write_bit(false);
                        self.writer.write_bits(u64::from(xor >> t), 32 - l - t);
                    }
                    _ => {
                        self.writer.write_bit(true);
                        let significant = 32 - leading - trailing;
                        self.writer.write_bits(u64::from(leading), LEADING_BITS);
                        self.writer
                            .write_bits(u64::from(significant - 1), LENGTH_BITS);
                        self.writer
                            .write_bits(u64::from(xor >> trailing), significant);
                        self.window = Some((leading, trailing));
                    }
                }
            }
            self.prev = bits;
            self.count += 1;
        }
    }

    /// The decoder [`XorDecoder`] replaced: three to five bounds-checked
    /// reader calls per value, kept as the reference the word-at-a-time
    /// decoder must match.
    struct ReferenceDecoder<'a> {
        reader: BitReader<'a>,
        prev: u32,
        leading: u8,
        trailing: u8,
        emitted: usize,
    }

    impl<'a> ReferenceDecoder<'a> {
        fn new(bytes: &'a [u8]) -> Self {
            Self {
                reader: BitReader::new(bytes),
                prev: 0,
                leading: 0,
                trailing: 0,
                emitted: 0,
            }
        }

        fn next_value(&mut self) -> Option<f32> {
            if self.emitted == 0 {
                let bits = self.reader.read_bits(32)? as u32;
                self.prev = bits;
                self.emitted = 1;
                return Some(f32::from_bits(bits));
            }
            let bits = if !self.reader.read_bit()? {
                self.prev
            } else {
                if self.reader.read_bit()? {
                    let leading = self.reader.read_bits(LEADING_BITS)? as u8;
                    let significant = self.reader.read_bits(LENGTH_BITS)? as u8 + 1;
                    if leading + significant > 32 {
                        return None;
                    }
                    self.leading = leading;
                    self.trailing = 32 - leading - significant;
                }
                let significant = 32 - self.leading - self.trailing;
                let xor = (self.reader.read_bits(significant)? as u32) << self.trailing;
                self.prev ^ xor
            };
            self.prev = bits;
            self.emitted += 1;
            Some(f32::from_bits(bits))
        }
    }

    /// Decodes up to `count` values with `next`, stopping at the first
    /// `None`: whether all `count` came out, and the bits of those that did.
    fn decode_prefix(count: usize, mut next: impl FnMut() -> Option<f32>) -> (bool, Vec<u32>) {
        let mut out = Vec::new();
        for _ in 0..count {
            match next() {
                Some(value) => out.push(value.to_bits()),
                None => return (false, out),
            }
        }
        (true, out)
    }

    /// Builds an `f32` stream from random draws that hits every encoder
    /// branch: special values (NaN payloads, ±0, ±inf, subnormals), repeats
    /// (zero XOR), small perturbations of the previous value (reused
    /// windows) and arbitrary bit patterns (new windows).
    fn float_stream(draws: &[(u32, u8)]) -> Vec<f32> {
        const SPECIAL: [u32; 10] = [
            0x7FC0_0000, // quiet NaN
            0x7FC0_0001, // NaN with a payload
            0x7F80_0001, // signalling NaN
            0xFFC0_0000, // negative NaN
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x7F80_0000, // +inf
            0xFF80_0000, // -inf
            0x0000_0001, // smallest subnormal
            0x7F7F_FFFF, // f32::MAX
        ];
        let mut prev = 0u32;
        draws
            .iter()
            .map(|&(random, pick)| {
                prev = match pick {
                    0..=9 => SPECIAL[usize::from(pick)],
                    10..=29 => prev,
                    30..=129 => prev ^ (random >> (pick % 32)),
                    _ => random,
                };
                f32::from_bits(prev)
            })
            .collect()
    }

    fn round_trip(values: &[f32]) {
        let bytes = encode_all(values);
        let decoded = decode_all(&bytes, values.len()).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "lossless mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn constant_values_cost_one_bit_each() {
        let values = vec![42.5f32; 1000];
        let bytes = encode_all(&values);
        // 32 bits for the first value + 999 single zero bits.
        assert!(bytes.len() <= 4 + 999 / 8 + 1, "got {}", bytes.len());
        round_trip(&values);
    }

    #[test]
    fn similar_values_compress_well() {
        let values: Vec<f32> = (0..1000).map(|i| 180.0 + (i as f32) * 0.001).collect();
        let bytes = encode_all(&values);
        assert!(
            bytes.len() < values.len() * 4,
            "no smaller than raw: {}",
            bytes.len()
        );
        round_trip(&values);
    }

    #[test]
    fn special_values_round_trip_bit_exactly() {
        round_trip(&[
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN,
            f32::MAX,
            f32::EPSILON,
        ]);
        // NaN payloads must survive too.
        let values = [f32::NAN, f32::from_bits(0x7FC0_0001), 1.0];
        let bytes = encode_all(&values);
        let decoded = decode_all(&bytes, 3).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_and_single() {
        round_trip(&[]);
        round_trip(&[std::f32::consts::PI]);
    }

    #[test]
    fn truncated_stream_returns_none() {
        let values: Vec<f32> = (0..10).map(|i| i as f32 * 1.7).collect();
        let bytes = encode_all(&values);
        assert!(decode_all(&bytes[..2], 10).is_none());
    }

    #[test]
    fn grouped_correlated_blocks_beat_per_series_streams() {
        // Three correlated series interleaved per timestamp (the MMGC layout
        // of Figure 10) should compress better than concatenating them
        // (values at the same timestamp differ less than values 50 apart).
        let base: Vec<f32> = (0..50)
            .map(|i| (i as f32 * 0.37).sin() * 50.0 + 180.0)
            .collect();
        let mut interleaved = Vec::new();
        let mut concatenated = [Vec::new(), Vec::new(), Vec::new()];
        for (i, &v) in base.iter().enumerate() {
            for (s, column) in concatenated.iter_mut().enumerate() {
                let value = v + s as f32 * 0.01 + (i % 3) as f32 * 0.001;
                interleaved.push(value);
                column.push(value);
            }
        }
        let grouped = encode_all(&interleaved).len();
        let separate: usize = concatenated.iter().map(|c| encode_all(c).len()).sum();
        assert!(
            grouped <= separate + 8,
            "grouped {grouped} vs separate {separate}"
        );
        round_trip(&interleaved);
    }

    #[test]
    fn window_wider_than_a_value_is_rejected() {
        // [first value][11][leading = 31][length - 1 = 31][32 bits]: the
        // window claims 31 + 32 bits of a 32-bit value.
        let mut w = BitWriter::new();
        w.write_bits(u64::from(10.0f32.to_bits()), 32);
        w.write_bits(0b11, 2);
        w.write_bits(31, LEADING_BITS);
        w.write_bits(31, LENGTH_BITS);
        w.write_bits(0xBEEF_CAFE, 32);
        let bytes = w.finish();
        assert_eq!(decode_all(&bytes, 2), None);
        let mut decoder = XorDecoder::new(&bytes);
        assert_eq!(decoder.next_value(), Some(10.0));
        assert_eq!(decoder.next_value(), None);
    }

    /// Builds an `f64` stream the way [`float_stream`] builds an `f32` one:
    /// special bit patterns, repeats, perturbations and arbitrary patterns.
    fn double_stream(draws: &[(u64, u8)]) -> Vec<f64> {
        const SPECIAL: [u64; 10] = [
            0x7FF8_0000_0000_0000, // quiet NaN
            0x7FF8_0000_0000_0001, // NaN with a payload
            0x7FF0_0000_0000_0001, // signalling NaN
            0xFFF8_0000_0000_0000, // negative NaN
            0x0000_0000_0000_0000, // +0
            0x8000_0000_0000_0000, // -0
            0x7FF0_0000_0000_0000, // +inf
            0xFFF0_0000_0000_0000, // -inf
            0x0000_0000_0000_0001, // smallest subnormal
            0x7FEF_FFFF_FFFF_FFFF, // f64::MAX
        ];
        let mut prev = 0u64;
        draws
            .iter()
            .map(|&(random, pick)| {
                prev = match pick {
                    0..=9 => SPECIAL[usize::from(pick)],
                    10..=29 => prev,
                    30..=129 => prev ^ (random >> (pick % 64)),
                    _ => random,
                };
                f64::from_bits(prev)
            })
            .collect()
    }

    #[test]
    fn f64_special_values_round_trip_bit_exactly() {
        let values = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::MIN,
            f64::MAX,
            f64::from_bits(1),
            // One bit apart at each end: windows of width 1 at both edges.
            f64::from_bits(0x8000_0000_0000_0001),
            f64::from_bits(0x0000_0000_0000_0001),
        ];
        let decoded = decode_all_f64(&encode_all_f64(&values), values.len()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded), bits(&values));
        assert_eq!(decode_all_f64(&encode_all_f64(&[]), 0), Some(Vec::new()));
    }

    #[test]
    fn f64_widened_f32_values_cost_less_than_raw() {
        // Values reconstructed from `f32` models leave 29 zero mantissa
        // bits in every XOR: the windows must exploit them.
        let values: Vec<f64> = (0..1000)
            .map(|i| f64::from(20.0f32 + (i % 17) as f32 * 0.25))
            .collect();
        let bytes = encode_all_f64(&values);
        assert!(bytes.len() * 4 < values.len() * 8, "got {}", bytes.len());
        assert_eq!(decode_all_f64(&bytes, values.len()).unwrap(), values);
    }

    #[test]
    fn f64_window_wider_than_a_value_is_rejected() {
        // [first value][11][leading = 63][length - 1 = 63][64 bits]: the
        // window claims 63 + 64 bits of a 64-bit value.
        let mut w = BitWriter::new();
        w.write_bits(10.0f64.to_bits(), 64);
        w.write_bits(0b11, 2);
        w.write_bits(63, LEADING_BITS_64);
        w.write_bits(63, LENGTH_BITS_64);
        w.write_bits(u64::MAX, 64);
        let bytes = w.finish();
        assert_eq!(decode_all_f64(&bytes, 2), None);
        let mut decoder = Xor64Decoder::new(&bytes);
        assert_eq!(decoder.next_value(), Some(10.0));
        assert_eq!(decoder.next_value(), None);
        // The widest legal window (leading 0, all 64 bits) still decodes.
        let mut w = BitWriter::new();
        w.write_bits(0, 64);
        w.write_bits(0b11, 2);
        w.write_bits(0, LEADING_BITS_64);
        w.write_bits(63, LENGTH_BITS_64);
        w.write_bits(u64::MAX, 64);
        let decoded = decode_all_f64(&w.finish(), 2).unwrap();
        assert_eq!(decoded[1].to_bits(), u64::MAX);
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_f64_bit_patterns_round_trip(draws in proptest::collection::vec((proptest::num::u64::ANY, 0u8..=255), 0..200)) {
            let values = double_stream(&draws);
            let decoded = decode_all_f64(&encode_all_f64(&values), values.len()).unwrap();
            proptest::prop_assert_eq!(decoded.len(), values.len());
            for (a, b) in values.iter().zip(&decoded) {
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // The 64-bit decoder on damaged or arbitrary input: `None` or
        // exactly `count` values, never a panic, and never a reservation
        // larger than the input could fill (one bit per value).
        #[test]
        fn f64_arbitrary_bytes_and_counts_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..96),
            count in 0usize..900,
            huge in proptest::bool::ANY,
        ) {
            let count = if huge { usize::MAX - count } else { count };
            if let Some(values) = decode_all_f64(&bytes, count) {
                proptest::prop_assert_eq!(values.len(), count);
                proptest::prop_assert!(values.capacity() <= bytes.len() * 8);
            }
        }

        #[test]
        fn arbitrary_floats_round_trip(draws in proptest::collection::vec((0u32..=u32::MAX, 0u8..=255), 0..200)) {
            let values = float_stream(&draws);
            let bytes = encode_all(&values);
            let decoded = decode_all(&bytes, values.len()).unwrap();
            for (a, b) in values.iter().zip(&decoded) {
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // One `write_bits` per value emits exactly the bytes of the
        // five-call reference, and `to_bytes` equals `finish` (with
        // `byte_len` its length) after every prefix.
        #[test]
        fn encoder_matches_the_five_call_reference(draws in proptest::collection::vec((0u32..=u32::MAX, 0u8..=255), 0..200)) {
            let mut encoder = XorEncoder::new();
            let mut reference = ReferenceEncoder::default();
            for value in float_stream(&draws) {
                encoder.push(value);
                reference.push(value);
                let bytes = encoder.to_bytes();
                proptest::prop_assert_eq!(bytes.len(), encoder.byte_len());
                proptest::prop_assert_eq!(&bytes, &encoder.clone().finish());
            }
            proptest::prop_assert_eq!(encoder.finish(), reference.writer.finish());
        }

        // On arbitrary bytes, and on valid streams cut short or with one
        // bit flipped, `decode_into` and `XorDecoder` return what the
        // bit-at-a-time reference returns: the same result and the same
        // decoded prefix.
        #[test]
        fn decoder_matches_the_bit_at_a_time_reference(
            noise in proptest::collection::vec(0u8..=255, 0..64),
            draws in proptest::collection::vec((0u32..=u32::MAX, 0u8..=255), 0..120),
            valid in proptest::bool::ANY,
            cut in 0usize..4,
            flip in 0usize..9600,
            extra in 0usize..3,
            count in 0usize..600,
        ) {
            let (bytes, count) = if valid {
                let mut bytes = encode_all(&float_stream(&draws));
                bytes.truncate(bytes.len().saturating_sub(cut));
                if flip < bytes.len() * 8 {
                    bytes[flip / 8] ^= 0x80 >> (flip % 8);
                }
                (bytes, draws.len() + extra)
            } else {
                (noise, count)
            };
            let mut reference = ReferenceDecoder::new(&bytes);
            let expected = decode_prefix(count, || reference.next_value());
            let mut out = Vec::new();
            let complete = decode_into(&bytes, count, &mut out);
            let decoded = out.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(&(complete, decoded), &expected);
            let mut decoder = XorDecoder::new(&bytes);
            proptest::prop_assert_eq!(&decode_prefix(count, || decoder.next_value()), &expected);
            // A failed step leaves the decoder where it was.
            if !expected.0 {
                proptest::prop_assert_eq!(decoder.next_value(), None);
            }
        }

        // Decoding damaged or arbitrary input ends in `None` or a value
        // list, never a panic — whatever count the caller claims.
        #[test]
        fn arbitrary_bytes_and_counts_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            count in 0usize..600,
            huge in proptest::bool::ANY,
        ) {
            let count = if huge { usize::MAX - count } else { count };
            if let Some(values) = decode_all(&bytes, count) {
                proptest::prop_assert_eq!(values.len(), count);
            }
        }
    }
}
