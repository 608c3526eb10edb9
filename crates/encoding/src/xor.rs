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

    /// Appends one value to the stream.
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
            self.writer.write_bit(false);
        } else {
            self.writer.write_bit(true);
            let leading = (xor.leading_zeros() as u8).min(31);
            let trailing = xor.trailing_zeros() as u8;
            if self.leading != u8::MAX && leading >= self.leading && trailing >= self.trailing {
                // Fits in the previous window: control bit 0 + meaningful bits.
                self.writer.write_bit(false);
                let significant = 32 - self.leading - self.trailing;
                self.writer
                    .write_bits(u64::from(xor >> self.trailing), significant);
            } else {
                // New window: control bit 1 + leading count + length + bits.
                self.writer.write_bit(true);
                let significant = 32 - leading - trailing;
                self.writer.write_bits(u64::from(leading), LEADING_BITS);
                self.writer
                    .write_bits(u64::from(significant - 1), LENGTH_BITS);
                self.writer
                    .write_bits(u64::from(xor >> trailing), significant);
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
    out.reserve(count);
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

    proptest::proptest! {
        #[test]
        fn arbitrary_floats_round_trip(values in proptest::collection::vec(proptest::num::f32::ANY, 0..200)) {
            let bytes = encode_all(&values);
            let decoded = decode_all(&bytes, values.len()).unwrap();
            for (a, b) in values.iter().zip(&decoded) {
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
