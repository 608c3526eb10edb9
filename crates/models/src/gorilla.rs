//! Gorilla: lossless XOR float compression (Pelkonen et al., reference
//! \[28\]), extended for group compression per Section 5.2.
//!
//! "For Gorilla, values from data points with the same time stamp are stored
//! in blocks. As the time series in a group are correlated, n − 1 values in
//! each block will have only a small delta compared to the first value and
//! only require a few bits to encode" (Figure 10). The fitter therefore
//! pushes the group's values timestamp-major into one XOR stream, encoding
//! each value exactly once; that stream is both its size estimate and its
//! parameters, and no raw copy of the values is kept.
//!
//! Gorilla accepts any values (it is lossless), so it is the fallback model
//! that guarantees ingestion always progresses; the Model Length Limit of
//! Table 1 bounds how many timestamps one instance may absorb.

use mdb_types::{ErrorBound, Timestamp, Value};

use crate::{Fitter, ModelType, SegmentAgg};

/// The Gorilla model type. Parameters: the XOR-compressed value stream.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gorilla;

impl ModelType for Gorilla {
    fn name(&self) -> &str {
        "Gorilla"
    }

    fn fitter(&self, _bound: ErrorBound, n_series: usize, length_limit: usize) -> Box<dyn Fitter> {
        Box::new(GorillaFitter {
            n_series,
            length_limit,
            encoder: mdb_encoding::xor::XorEncoder::new(),
            len: 0,
        })
    }

    fn grid(&self, params: &[u8], n_series: usize, count: usize) -> Option<Vec<Value>> {
        mdb_encoding::xor::decode_all(params, count * n_series)
    }

    fn grid_into(
        &self,
        params: &[u8],
        n_series: usize,
        count: usize,
        out: &mut Vec<Value>,
    ) -> bool {
        mdb_encoding::xor::decode_into(params, count * n_series, out)
    }

    fn agg(
        &self,
        _params: &[u8],
        _n_series: usize,
        _count: usize,
        _range: (usize, usize),
        _series: usize,
    ) -> Option<SegmentAgg> {
        // No closed form: the query engine reconstructs the values.
        None
    }

    /// The engine takes the extremes from the reconstructed values.
    fn attained_extremes(&self) -> bool {
        true
    }
}

/// Fits by streaming every accepted value into one XOR encoder.
///
/// The multi-model adapter of Section 5.1 truncates a model to the
/// timestamps it accepted ("the leftover parameters should be deleted",
/// Figure 9 case III). Here there is never anything to delete: `append`
/// rejects a timestamp whole, before pushing any of its values, so the
/// stream always holds exactly `len * n_series` values and `params()` is
/// the stream as it stands.
struct GorillaFitter {
    n_series: usize,
    length_limit: usize,
    /// The accepted values, timestamp-major — the model's only state.
    encoder: mdb_encoding::xor::XorEncoder,
    len: usize,
}

impl Fitter for GorillaFitter {
    fn append(&mut self, _timestamp: Timestamp, values: &[Value]) -> bool {
        debug_assert_eq!(values.len(), self.n_series);
        if self.len >= self.length_limit {
            return false;
        }
        for &v in values {
            self.encoder.push(v);
        }
        self.len += 1;
        true
    }

    fn len(&self) -> usize {
        self.len
    }

    fn params(&self) -> Vec<u8> {
        self.encoder.to_bytes()
    }

    fn byte_size(&self) -> usize {
        self.encoder.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdb_types::ErrorBound;

    #[test]
    fn lossless_round_trip_of_arbitrary_rows() {
        let rows = [
            vec![187.5f32, 175.5, 189.7],
            vec![-182.8, 0.0, 184.0],
            vec![f32::MAX, f32::MIN, 1e-30],
        ];
        let mut f = Gorilla.fitter(ErrorBound::Lossless, 3, 50);
        for (t, row) in rows.iter().enumerate() {
            assert!(f.append(t as i64 * 100, row));
        }
        let grid = Gorilla.grid(&f.params(), 3, 3).unwrap();
        for (t, row) in rows.iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                assert_eq!(grid[t * 3 + s].to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn length_limit_stops_acceptance() {
        let mut f = Gorilla.fitter(ErrorBound::Lossless, 1, 2);
        assert!(f.append(0, &[1.0]));
        assert!(f.append(100, &[2.0]));
        assert!(!f.append(200, &[3.0]));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn byte_size_tracks_stream_growth() {
        let mut f = Gorilla.fitter(ErrorBound::Lossless, 2, 50);
        assert!(f.append(0, &[1.0, 1.0]));
        let s1 = f.byte_size();
        assert!(f.append(100, &[500.0, -500.0]));
        assert!(f.byte_size() > s1);
        // The size is exact: the parameters are the stream itself.
        assert_eq!(f.byte_size(), f.params().len());
    }

    #[test]
    fn correlated_groups_encode_smaller_than_uncorrelated() {
        let mut correlated = Gorilla.fitter(ErrorBound::Lossless, 4, 50);
        let mut uncorrelated = Gorilla.fitter(ErrorBound::Lossless, 4, 50);
        for t in 0..50i64 {
            let base = (t as f32 * 0.1).sin() * 10.0 + 100.0;
            correlated.append(t * 100, &[base, base + 0.01, base + 0.02, base - 0.01]);
            uncorrelated.append(
                t * 100,
                &[
                    base,
                    base * -37.3 + 11.1,
                    (t as f32).exp().fract() * 1e6,
                    1.0 / (t as f32 + 0.7),
                ],
            );
        }
        assert!(correlated.byte_size() < uncorrelated.byte_size());
    }

    #[test]
    fn agg_defers_to_grid() {
        assert!(Gorilla.agg(&[], 1, 10, (0, 9), 0).is_none());
    }

    proptest::proptest! {
        #[test]
        fn grid_round_trips_any_values(
            rows in proptest::collection::vec(proptest::collection::vec(proptest::num::f32::ANY, 3), 1..40)
        ) {
            let mut f = Gorilla.fitter(ErrorBound::Lossless, 3, 100);
            for (t, row) in rows.iter().enumerate() {
                proptest::prop_assert!(f.append(t as i64, row));
            }
            let grid = Gorilla.grid(&f.params(), 3, rows.len()).unwrap();
            for (t, row) in rows.iter().enumerate() {
                for (s, &v) in row.iter().enumerate() {
                    proptest::prop_assert_eq!(grid[t * 3 + s].to_bits(), v.to_bits());
                }
            }
        }

        // After every append, accepted or rejected at the length limit,
        // the parameters are the XOR encoding of exactly the accepted rows
        // and `byte_size` is their length. Values are arbitrary bit
        // patterns, NaN payloads included.
        #[test]
        fn params_encode_exactly_the_accepted_rows(
            rows in proptest::collection::vec(proptest::collection::vec(0u32..=u32::MAX, 3), 2..40),
            limit_draw in 0usize..40,
        ) {
            // Below the row count, so at least the last append is rejected.
            let length_limit = 1 + limit_draw % (rows.len() - 1);
            let mut f = Gorilla.fitter(ErrorBound::Lossless, 3, length_limit);
            let mut accepted: Vec<Value> = Vec::new();
            for (t, row) in rows.iter().enumerate() {
                let row: Vec<Value> = row.iter().map(|&bits| f32::from_bits(bits)).collect();
                let ok = f.append(t as i64, &row);
                proptest::prop_assert_eq!(ok, t < length_limit);
                if ok {
                    accepted.extend_from_slice(&row);
                }
                proptest::prop_assert_eq!(f.len(), accepted.len() / 3);
                let params = f.params();
                proptest::prop_assert_eq!(&params, &mdb_encoding::xor::encode_all(&accepted));
                proptest::prop_assert_eq!(f.byte_size(), params.len());
            }
        }
    }
}
