//! Delta and delta-of-delta integer compression.
//!
//! Regular time series have constant deltas, so delta-of-delta encodes their
//! timestamps to almost nothing — the property that makes the Gorilla and
//! InfluxDB storage engines compact (paper references \[28\] and Section 7.1)
//! and that the Parquet-like baseline uses for its timestamp column.

use bytes::Buf;

use crate::varint;

/// Encodes `values` as: varint count, zigzag first value, zigzag first delta,
/// then zigzag delta-of-deltas.
pub fn encode(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() + 8);
    varint::write_u64(&mut out, values.len() as u64);
    if values.is_empty() {
        return out;
    }
    varint::write_i64(&mut out, values[0]);
    if values.len() == 1 {
        return out;
    }
    let first_delta = values[1].wrapping_sub(values[0]);
    varint::write_i64(&mut out, first_delta);
    let mut prev = values[1];
    let mut prev_delta = first_delta;
    for &v in &values[2..] {
        let delta = v.wrapping_sub(prev);
        varint::write_i64(&mut out, delta.wrapping_sub(prev_delta));
        prev = v;
        prev_delta = delta;
    }
    out
}

/// Decodes a buffer produced by [`encode`]; `None` on malformed input.
pub fn decode(input: &mut impl Buf) -> Option<Vec<i64>> {
    let count = varint::read_u64(input)? as usize;
    // Every value costs at least one byte, so a damaged count cannot
    // reserve more than the input could fill.
    let mut out = Vec::with_capacity(count.min(input.remaining()));
    if count == 0 {
        return Some(out);
    }
    let first = varint::read_i64(input)?;
    out.push(first);
    if count == 1 {
        return Some(out);
    }
    let mut delta = varint::read_i64(input)?;
    let mut prev = first.wrapping_add(delta);
    out.push(prev);
    for _ in 2..count {
        let dod = varint::read_i64(input)?;
        delta = delta.wrapping_add(dod);
        prev = prev.wrapping_add(delta);
        out.push(prev);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[i64]) -> Vec<i64> {
        let buf = encode(values);
        decode(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(round_trip(&[]), Vec::<i64>::new());
        assert_eq!(round_trip(&[42]), vec![42]);
        assert_eq!(round_trip(&[-7, -7]), vec![-7, -7]);
    }

    #[test]
    fn regular_timestamps_compress_to_two_bytes_per_run() {
        // A regular series with SI = 60000 (the EP data set) has dod = 0.
        let ts: Vec<i64> = (0..1000).map(|i| 1_460_442_200_000 + i * 60_000).collect();
        let buf = encode(&ts);
        // count + first + first delta + 998 zero dods (1 byte each).
        assert!(buf.len() < 1_020, "got {}", buf.len());
        assert_eq!(decode(&mut buf.as_slice()).unwrap(), ts);
    }

    #[test]
    fn irregular_series_round_trips() {
        let ts = vec![100, 200, 300, 900, 1_000, 1_100, 5_000_000, 5_000_001];
        assert_eq!(round_trip(&ts), ts);
    }

    #[test]
    fn truncated_buffer_returns_none() {
        let ts = vec![1, 2, 3, 4, 5];
        let buf = encode(&ts);
        for cut in 1..buf.len() {
            // Some prefixes decode fewer elements than promised → None.
            let got = decode(&mut buf[..cut].as_ref());
            assert!(got.is_none(), "cut at {cut} decoded {:?}", got);
        }
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_values_round_trip(values in proptest::collection::vec(-1_000_000_000_000i64..1_000_000_000_000, 0..300)) {
            proptest::prop_assert_eq!(round_trip(&values), values);
        }

        #[test]
        fn extreme_values_round_trip(values in proptest::collection::vec(proptest::num::i64::ANY, 0..50)) {
            proptest::prop_assert_eq!(round_trip(&values), values);
        }
    }
}
