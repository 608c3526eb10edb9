//! MSB-first bit streams.
//!
//! [`BitWriter`] and [`BitReader`] are the substrate for the Gorilla-style
//! XOR codec ([`crate::xor`]) and the bit-packed integer codec
//! ([`crate::bitpack`]). Bits are written most-significant-first within each
//! byte, matching the layout in the Gorilla paper.

/// Appends bits to a growable byte buffer, most significant bit first.
///
/// Bits collect in a 64-bit accumulator and leave it a whole byte at a
/// time, so one [`write_bits`](Self::write_bits) call costs one shift-in
/// plus one store per completed byte, whatever its bit offset.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits in the low `used` bits; the bits above them were
    /// already drained to `bytes` and are ignored.
    acc: u64,
    /// Number of pending bits in `acc`, always < 8 between calls.
    used: u8,
}

impl BitWriter {
    /// A new, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A new, empty writer whose buffer holds `bytes` bytes before it
    /// first reallocates.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            acc: 0,
            used: 0,
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Writes the `count` least significant bits of `value`,
    /// most-significant-first. `count` must be ≤ 64.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u8) {
        debug_assert!(count <= 64);
        // Up to 7 bits are pending, so 56 more always fit the accumulator.
        if count > 56 {
            self.write_bits(value >> 32, count - 32);
            self.write_bits(value, 32);
            return;
        }
        let mask = (1u64 << count).wrapping_sub(1);
        self.acc = (self.acc << count) | (value & mask);
        self.used += count;
        while self.used >= 8 {
            self.used -= 8;
            self.bytes.push((self.acc >> self.used) as u8);
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.used as usize
    }

    /// The pending bits as a zero-padded final byte, if there are any.
    fn padded_tail(&self) -> Option<u8> {
        (self.used > 0).then(|| (self.acc << (8 - self.used)) as u8)
    }

    /// The bytes [`finish`](Self::finish) would return, without consuming
    /// the writer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes.len() + 1);
        out.extend_from_slice(&self.bytes);
        out.extend(self.padded_tail());
        out
    }

    /// Finishes the stream, zero-padding the final byte, and returns the
    /// bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if let Some(tail) = self.padded_tail() {
            self.bytes.push(tail);
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

/// The byte-at-a-time writer [`BitWriter`] replaced, kept as the reference
/// its output must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    #[derive(Debug, Default)]
    pub(crate) struct ByteWriter {
        bytes: Vec<u8>,
        used: u8,
        current: u8,
    }

    impl ByteWriter {
        pub(crate) fn write_bit(&mut self, bit: bool) {
            self.current = (self.current << 1) | u8::from(bit);
            self.used += 1;
            if self.used == 8 {
                self.bytes.push(self.current);
                self.current = 0;
                self.used = 0;
            }
        }

        pub(crate) fn write_bits(&mut self, value: u64, count: u8) {
            let mut remaining = count;
            while remaining > 0 {
                let take = (8 - self.used).min(remaining);
                let shift = remaining - take;
                let chunk = ((value >> shift) as u8) & (((1u16 << take) - 1) as u8);
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

        pub(crate) fn finish(mut self) -> Vec<u8> {
            if self.used > 0 {
                self.current <<= 8 - self.used;
                self.bytes.push(self.current);
            }
            self.bytes
        }
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

        // The accumulator writer emits exactly the reference's bytes, and
        // `to_bytes` equals `finish` after every prefix. `op` ≤ 64 is a
        // `write_bits` count; above that it is a `write_bit` or one of the
        // counts at the edges of the 56-bit split. The unmasked high bits
        // of `value` must be ignored.
        #[test]
        fn writer_matches_the_byte_at_a_time_reference(
            ops in proptest::collection::vec((0u64..=u64::MAX, 0u8..=84), 0..120)
        ) {
            const EDGE_COUNTS: [u8; 10] = [0, 1, 7, 8, 9, 55, 56, 57, 63, 64];
            let mut w = BitWriter::new();
            let mut reference = reference::ByteWriter::default();
            let mut bits = 0usize;
            for &(value, op) in &ops {
                match op {
                    65..=74 => {
                        w.write_bit(value & 1 == 1);
                        reference.write_bit(value & 1 == 1);
                        bits += 1;
                    }
                    _ => {
                        let count = if op <= 64 { op } else { EDGE_COUNTS[usize::from(op - 75)] };
                        w.write_bits(value, count);
                        reference.write_bits(value, count);
                        bits += usize::from(count);
                    }
                }
                proptest::prop_assert_eq!(w.bit_len(), bits);
                proptest::prop_assert_eq!(w.to_bytes(), w.clone().finish());
            }
            proptest::prop_assert_eq!(w.finish(), reference.finish());
        }
    }
}
