//! Gorilla-style XOR compression for 32-bit floats.
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
#[derive(Debug, Clone)]
pub struct XorDecoder<'a> {
    reader: BitReader<'a>,
    prev: u32,
    leading: u8,
    trailing: u8,
    emitted: usize,
}

impl<'a> XorDecoder<'a> {
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
    pub fn next_value(&mut self) -> Option<f32> {
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
                    // No encoder writes this window: the stream is damaged.
                    return None;
                }
                self.leading = leading;
                self.trailing = 32 - leading - significant;
                let xor = (self.reader.read_bits(significant)? as u32) << self.trailing;
                self.prev ^ xor
            } else {
                let significant = 32 - self.leading - self.trailing;
                let xor = (self.reader.read_bits(significant)? as u32) << self.trailing;
                self.prev ^ xor
            }
        };
        self.prev = bits;
        self.emitted += 1;
        Some(f32::from_bits(bits))
    }
}

/// Decodes exactly `count` values.
pub fn decode_all(bytes: &[u8], count: usize) -> Option<Vec<f32>> {
    let mut out = Vec::new();
    decode_into(bytes, count, &mut out).then_some(out)
}

/// Decodes exactly `count` values into `out` (cleared first), so a caller
/// decoding many streams reuses one buffer. `false` when the stream ends
/// early; `out` then holds the values decoded so far.
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

    proptest::proptest! {
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
