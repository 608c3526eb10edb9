//! PMC-Mean: constant-function compression (reference \[25\]), extended for
//! group compression per Section 5.2.
//!
//! The model stores one `f32`: an average within the error bound of every
//! value it represents. "PMC requires no changes as the model only tracks the
//! current minimum, maximum and average value" — the fitter below folds all
//! values of the group at each timestamp into one feasible interval plus a
//! running mean, so single-series and group fitting are the same code.

use mdb_types::{ErrorBound, Timestamp, Value};

use crate::{allowed_interval, Fitter, ModelType, SegmentAgg};

/// The PMC-Mean model type. Parameters: 4 bytes (the average as `f32`).
#[derive(Debug, Default, Clone, Copy)]
pub struct PmcMean;

impl ModelType for PmcMean {
    fn name(&self) -> &str {
        "PMC-Mean"
    }

    fn fitter(&self, bound: ErrorBound, n_series: usize, length_limit: usize) -> Box<dyn Fitter> {
        Box::new(PmcFitter {
            bound,
            n_series,
            length_limit,
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            sum: 0.0,
            value_count: 0,
            len: 0,
        })
    }

    fn grid(&self, params: &[u8], n_series: usize, count: usize) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        self.grid_into(params, n_series, count, &mut out)
            .then_some(out)
    }

    fn grid_into(
        &self,
        params: &[u8],
        n_series: usize,
        count: usize,
        out: &mut Vec<Value>,
    ) -> bool {
        let Some(value) = decode(params) else {
            return false;
        };
        out.clear();
        out.resize(count * n_series, value);
        true
    }

    fn agg(
        &self,
        params: &[u8],
        _n_series: usize,
        count: usize,
        range: (usize, usize),
        _series: usize,
    ) -> Option<SegmentAgg> {
        let value = decode(params)?;
        let (a, b) = range;
        if a > b || b >= count {
            return None;
        }
        let n = (b - a + 1) as f64;
        Some(SegmentAgg {
            sum: f64::from(value) * n,
            min: value,
            max: value,
        })
    }

    /// A constant is monotone both ways.
    fn monotone_value_at(
        &self,
        params: &[u8],
        _n_series: usize,
        count: usize,
        t: usize,
        _series: usize,
    ) -> Option<Value> {
        decode(params).filter(|v| t < count && !v.is_nan())
    }

    /// `agg`'s extremes are the constant every tick reconstructs.
    fn attained_extremes(&self) -> bool {
        true
    }
}

fn decode(params: &[u8]) -> Option<Value> {
    Some(Value::from_le_bytes(params.get(..4)?.try_into().ok()?))
}

struct PmcFitter {
    bound: ErrorBound,
    n_series: usize,
    length_limit: usize,
    /// Intersection of the acceptable intervals of every value seen.
    lo: f64,
    hi: f64,
    /// Running mean over all values (the "Mean" of PMC-Mean).
    sum: f64,
    value_count: usize,
    len: usize,
}

impl PmcFitter {
    fn representative(&self) -> Value {
        // The mean, clamped into the feasible interval (with a degenerate
        // interval the midpoint is the only choice).
        let mean = if self.value_count > 0 {
            self.sum / self.value_count as f64
        } else {
            0.0
        };
        let clamped = mean.clamp(self.lo, self.hi);
        clamped as Value
    }
}

impl Fitter for PmcFitter {
    fn append(&mut self, _timestamp: Timestamp, values: &[Value]) -> bool {
        debug_assert_eq!(values.len(), self.n_series);
        if self.len >= self.length_limit {
            return false;
        }
        let (vlo, vhi) = match allowed_interval(&self.bound, values) {
            Some(iv) => iv,
            None => return false,
        };
        let lo = self.lo.max(vlo);
        let hi = self.hi.min(vhi);
        if lo > hi {
            return false;
        }
        // The candidate representative must itself survive the f32 rounding.
        let sum = self.sum + values.iter().map(|&v| f64::from(v)).sum::<f64>();
        let value_count = self.value_count + values.len();
        let candidate = (sum / value_count as f64).clamp(lo, hi) as Value;
        if f64::from(candidate) < lo || f64::from(candidate) > hi {
            return false;
        }
        self.lo = lo;
        self.hi = hi;
        self.sum = sum;
        self.value_count = value_count;
        self.len += 1;
        true
    }

    fn len(&self) -> usize {
        self.len
    }

    fn params(&self) -> Vec<u8> {
        self.representative().to_le_bytes().to_vec()
    }

    fn byte_size(&self) -> usize {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(bound: ErrorBound, n_series: usize, rows: &[&[Value]]) -> (usize, Vec<u8>) {
        let mut f = PmcMean.fitter(bound, n_series, 50);
        let mut accepted = 0;
        for (i, row) in rows.iter().enumerate() {
            if f.append(i as i64 * 100, row) {
                accepted += 1;
            } else {
                break;
            }
        }
        assert_eq!(f.len(), accepted);
        (accepted, f.params())
    }

    #[test]
    fn constant_series_fits_up_to_length_limit() {
        let mut f = PmcMean.fitter(ErrorBound::Lossless, 1, 50);
        let mut n = 0;
        for i in 0..100 {
            if f.append(i * 100, &[42.0]) {
                n += 1;
            }
        }
        assert_eq!(n, 50, "length limit caps the model");
        assert_eq!(decode(&f.params()), Some(42.0));
    }

    #[test]
    fn lossless_bound_rejects_first_deviation() {
        let (len, params) = fit(ErrorBound::Lossless, 1, &[&[5.0], &[5.0], &[5.1]]);
        assert_eq!(len, 2);
        assert_eq!(decode(&params), Some(5.0));
    }

    #[test]
    fn absolute_bound_accepts_small_drift() {
        let (len, params) = fit(
            ErrorBound::absolute(1.0),
            1,
            &[&[10.0], &[10.5], &[11.0], &[12.5]],
        );
        // 10.0 and 12.5 cannot share one value under ε = 1.
        assert_eq!(len, 3);
        let v = decode(&params).unwrap();
        for orig in [10.0f32, 10.5, 11.0] {
            assert!(ErrorBound::absolute(1.0).within(v, orig), "{v} vs {orig}");
        }
    }

    #[test]
    fn group_rows_reduce_to_min_max() {
        // Section 5.2: a group's values at one timestamp act via min/max.
        let bound = ErrorBound::absolute(1.0);
        let (len, params) = fit(bound, 3, &[&[10.0, 10.5, 11.0], &[10.2, 10.8, 10.4]]);
        assert_eq!(len, 2);
        let v = decode(&params).unwrap();
        for orig in [10.0f32, 10.5, 11.0, 10.2, 10.8, 10.4] {
            assert!(bound.within(v, orig));
        }
        // A group whose own values span more than 2ε can never start.
        let (len, _) = fit(bound, 2, &[&[10.0, 12.5]]);
        assert_eq!(len, 0);
    }

    #[test]
    fn paper_example_pmc_range() {
        // max(V) − min(V) = 2ε is the maximum representable range (§5.2).
        let bound = ErrorBound::absolute(1.0);
        let (len, _) = fit(bound, 2, &[&[10.0, 12.0]]);
        assert_eq!(len, 1);
    }

    #[test]
    fn params_after_failed_append_cover_prefix_only() {
        let bound = ErrorBound::absolute(0.5);
        let mut f = PmcMean.fitter(bound, 1, 50);
        assert!(f.append(0, &[1.0]));
        assert!(!f.append(100, &[5.0]));
        assert_eq!(f.len(), 1);
        let v = decode(&f.params()).unwrap();
        assert!(bound.within(v, 1.0));
    }

    #[test]
    fn grid_replicates_value_across_series_and_time() {
        let params = 7.5f32.to_le_bytes().to_vec();
        let grid = PmcMean.grid(&params, 3, 4).unwrap();
        assert_eq!(grid.len(), 12);
        assert!(grid.iter().all(|&v| v == 7.5));
    }

    #[test]
    fn agg_is_constant_time_arithmetic() {
        let params = 2.0f32.to_le_bytes().to_vec();
        let agg = PmcMean.agg(&params, 3, 10, (2, 5), 0).unwrap();
        assert_eq!(agg.sum, 8.0);
        assert_eq!(agg.min, 2.0);
        assert_eq!(agg.max, 2.0);
        assert!(PmcMean.agg(&params, 3, 10, (5, 2), 0).is_none());
        assert!(PmcMean.agg(&params, 3, 10, (0, 10), 0).is_none());
    }

    #[test]
    fn non_finite_values_rejected() {
        let (len, _) = fit(ErrorBound::relative(10.0), 1, &[&[f32::NAN]]);
        assert_eq!(len, 0);
    }

    proptest::proptest! {
        #[test]
        fn reconstruction_is_within_bound(
            base in -1000.0f32..1000.0,
            drift in proptest::collection::vec(-0.5f32..0.5, 1..60),
            pct in 0.5f64..20.0,
        ) {
            let bound = ErrorBound::relative(pct);
            let mut f = PmcMean.fitter(bound, 1, 100);
            let mut accepted = Vec::new();
            for (i, d) in drift.iter().enumerate() {
                let v = base + d;
                if f.append(i as i64, &[v]) {
                    accepted.push(v);
                } else {
                    break;
                }
            }
            if !accepted.is_empty() {
                let v = decode(&f.params()).unwrap();
                for orig in accepted {
                    proptest::prop_assert!(bound.within(v, orig), "{} vs {}", v, orig);
                }
            }
        }
    }
}
