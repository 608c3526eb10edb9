//! MSB-first bit streams.
//!
//! [`BitWriter`] and [`BitReader`] are the substrate for the Gorilla-style
//! XOR codec ([`crate::xor`]) and the bit-packed integer codec
//! ([`crate::bitpack`]). Bits are written most-significant-first within each
//! byte, matching the layout in the Gorilla paper.

/// Appends bits to a growable byte buffer, most significant bit first.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in `current`.
    used: u8,
    current: u8,
}

impl BitWriter {
    /// A new, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that re-fills an existing buffer's allocation.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            used: 0,
            current: 0,
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.current = (self.current << 1) | u8::from(bit);
        self.used += 1;
        if self.used == 8 {
            self.bytes.push(self.current);
            self.current = 0;
            self.used = 0;
        }
    }

    /// Writes the `count` least significant bits of `value`,
    /// most-significant-first. `count` must be ≤ 64.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u8) {
        debug_assert!(count <= 64);
        let mut remaining = count;
        while remaining > 0 {
            // take ≤ 8, so the shift below fits in u16 arithmetic.
            let take = (8 - self.used).min(remaining);
            let shift = remaining - take;
            let chunk = ((value >> shift) as u8) & (((1u16 << take) - 1) as u8);
            // u16 arithmetic: take can be 8, which would overflow `u8 << 8`
            // (current is always 0 in that case, but the shift still panics).
            self.current = (((u16::from(self.current)) << take) as u8) | chunk;
            self.used += take;
            if self.used == 8 {
                self.bytes.push(self.current);
                self.current = 0;
                self.used = 0;
            }
            remaining -= take;
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.used as usize
    }

    /// Finishes the stream, zero-padding the final byte, and returns the
    /// bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.used > 0 {
            self.current <<= 8 - self.used;
            self.bytes.push(self.current);
        }
        self.bytes
    }
}

/// Reads bits from a byte slice, most significant bit first.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads one bit; `None` at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `count` bits (≤ 64) into the low bits of a `u64`.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Option<u64> {
        debug_assert!(count <= 64);
        if self.pos + count as usize > self.bytes.len() * 8 {
            return None;
        }
        // Away from the end of the input, one big-endian word load holds
        // every wanted bit (up to 57 past a 7-bit offset).
        let offset = self.pos % 8;
        if let (1..=57, Some(word)) = (count, self.bytes.get(self.pos / 8..self.pos / 8 + 8)) {
            let word = u64::from_be_bytes(word.try_into().expect("an 8-byte slice"));
            self.pos += count as usize;
            return Some((word << offset) >> (64 - count));
        }
        let mut out = 0u64;
        let mut remaining = count;
        while remaining > 0 {
            let byte = self.bytes[self.pos / 8];
            let offset = (self.pos % 8) as u8;
            let available = 8 - offset;
            let take = available.min(remaining);
            let chunk = (byte >> (available - take)) & ((1u16 << take) - 1) as u8;
            out = (out << take) | u64::from(chunk);
            self.pos += take as usize;
            remaining -= take;
        }
        Some(out)
    }

    /// Number of bits consumed so far.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Remaining unread bits (including any zero padding in the final byte).
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [
            true, false, true, true, false, false, true, false, true, true,
        ];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn multi_bit_values_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(0x3FF, 10);
        w.write_bits(u64::MAX, 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(32), Some(0xDEADBEEF));
        assert_eq!(r.read_bits(10), Some(0x3FF));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn zero_width_reads_and_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        w.write_bits(0b1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0), Some(0));
        assert_eq!(r.read_bit(), Some(true));
    }

    #[test]
    fn reading_past_end_returns_none() {
        let mut w = BitWriter::new();
        w.write_bits(0xAB, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0xAB));
        assert_eq!(r.read_bits(1), None);
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn bit_len_tracks_written_bits() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 13);
        assert_eq!(w.bit_len(), 13);
    }

    #[test]
    fn final_byte_is_zero_padded() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1100_0000]);
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_values_round_trip(values in proptest::collection::vec((0u64..=u64::MAX, 1u8..=64), 0..200)) {
            let mut w = BitWriter::new();
            for &(v, c) in &values {
                let masked = if c == 64 { v } else { v & ((1u64 << c) - 1) };
                w.write_bits(masked, c);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(v, c) in &values {
                let masked = if c == 64 { v } else { v & ((1u64 << c) - 1) };
                proptest::prop_assert_eq!(r.read_bits(c), Some(masked));
            }
        }
    }
}
