//! Run-length encoding with literal runs, in the style of ORC's integer RLE:
//! repeated values become `(run, value)` pairs, and stretches without
//! repetition are stored as literal sequences to avoid per-value headers.

use bytes::Buf;

use crate::varint;

/// Runs shorter than this are folded into literal sequences.
const MIN_RUN: usize = 3;

/// Encodes `values` as a sequence of headers: `header = (len << 1) | is_run`,
/// followed by one zigzag value (run) or `len` zigzag values (literal).
pub fn encode(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() / 2 + 8);
    varint::write_u64(&mut out, values.len() as u64);
    let mut i = 0;
    let mut literal_start = 0;
    while i < values.len() {
        // Measure the run starting at i.
        let mut run = 1;
        while i + run < values.len() && values[i + run] == values[i] {
            run += 1;
        }
        if run >= MIN_RUN {
            flush_literals(&mut out, &values[literal_start..i]);
            varint::write_u64(&mut out, ((run as u64) << 1) | 1);
            varint::write_i64(&mut out, values[i]);
            i += run;
            literal_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, &values[literal_start..]);
    out
}

fn flush_literals(out: &mut Vec<u8>, literals: &[i64]) {
    if literals.is_empty() {
        return;
    }
    varint::write_u64(out, (literals.len() as u64) << 1);
    for &v in literals {
        varint::write_i64(out, v);
    }
}

/// Decodes a buffer produced by [`encode`]; `None` on malformed input.
pub fn decode(input: &mut impl Buf) -> Option<Vec<i64>> {
    decode_at_most(input, usize::MAX)
}

/// [`decode`] for untrusted input whose value count the caller knows an
/// upper bound of: a buffer claiming more than `max` values is malformed,
/// so a damaged run length cannot allocate past the bound.
pub fn decode_at_most(input: &mut impl Buf, max: usize) -> Option<Vec<i64>> {
    let total = varint::read_u64(input)? as usize;
    if total > max {
        return None;
    }
    let mut out = Vec::with_capacity(total.min(1 << 20));
    while out.len() < total {
        let header = varint::read_u64(input)?;
        let len = (header >> 1) as usize;
        if len == 0 || out.len() + len > total {
            return None;
        }
        if header & 1 == 1 {
            let value = varint::read_i64(input)?;
            out.resize(out.len() + len, value);
        } else {
            for _ in 0..len {
                out.push(varint::read_i64(input)?);
            }
        }
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
    fn empty_and_short_inputs() {
        assert_eq!(round_trip(&[]), Vec::<i64>::new());
        assert_eq!(round_trip(&[5]), vec![5]);
        assert_eq!(round_trip(&[5, 5]), vec![5, 5]);
    }

    #[test]
    fn long_runs_compress_to_a_few_bytes() {
        let values = vec![-3i64; 10_000];
        let buf = encode(&values);
        assert!(buf.len() < 16, "got {}", buf.len());
        assert_eq!(decode(&mut buf.as_slice()).unwrap(), values);
    }

    #[test]
    fn mixed_runs_and_literals() {
        let values = vec![1, 2, 3, 7, 7, 7, 7, 4, 5, 9, 9, 9, 6];
        assert_eq!(round_trip(&values), values);
    }

    #[test]
    fn runs_of_exactly_min_run() {
        let values = vec![1, 1, 1, 2, 2, 3, 3, 3];
        assert_eq!(round_trip(&values), values);
    }

    #[test]
    fn truncated_input_returns_none() {
        let values = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let buf = encode(&values);
        assert!(decode(&mut buf[..buf.len() - 1].as_ref()).is_none());
    }

    #[test]
    fn length_overflow_rejected() {
        // A header promising more values than the total is malformed.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 2); // total = 2
        varint::write_u64(&mut buf, (5 << 1) | 1); // run of 5
        varint::write_i64(&mut buf, 1);
        assert!(decode(&mut buf.as_slice()).is_none());
    }

    #[test]
    fn decode_at_most_rejects_counts_past_the_bound() {
        let buf = encode(&[7; 1000]);
        assert_eq!(
            decode_at_most(&mut buf.as_slice(), 1000),
            Some(vec![7; 1000])
        );
        assert_eq!(decode_at_most(&mut buf.as_slice(), 999), None);
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_values_round_trip(values in proptest::collection::vec(-100i64..100, 0..400)) {
            proptest::prop_assert_eq!(round_trip(&values), values);
        }

        #[test]
        fn extreme_values_round_trip(values in proptest::collection::vec(proptest::num::i64::ANY, 0..100)) {
            proptest::prop_assert_eq!(round_trip(&values), values);
        }
    }
}
