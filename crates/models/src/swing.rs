//! Swing: linear-function compression with precision guarantees (Elmeleegy
//! et al., reference \[15\]), extended for group compression per Section 5.2.
//!
//! The model is a linear function guaranteed to pass through an initial
//! point; the fitter maintains the interval of slopes that keeps the line
//! within the error bound of every later point ("swinging" the upper and
//! lower bound lines of Figure 10). The group extension follows the paper:
//! the initial point is computed like PMC from the first timestamp's values,
//! and each later timestamp contributes the interval that all of the group's
//! values allow — only the minimum and maximum value at each timestamp can
//! tighten the slope bounds.
//!
//! Parameters: 8 bytes — the value at the first and at the last represented
//! timestamp as `f32` (the form ModelarDB stores; slope and intercept follow
//! from the segment's start time, end time and sampling interval).

use mdb_types::{ErrorBound, Timestamp, Value};

use crate::{allowed_interval, Fitter, ModelType, SegmentAgg};

/// The Swing model type.
#[derive(Debug, Default, Clone, Copy)]
pub struct Swing;

impl ModelType for Swing {
    fn name(&self) -> &str {
        "Swing"
    }

    fn fitter(&self, bound: ErrorBound, n_series: usize, length_limit: usize) -> Box<dyn Fitter> {
        Box::new(SwingFitter {
            bound,
            n_series,
            length_limit,
            first: None,
            slope_lo: f64::NEG_INFINITY,
            slope_hi: f64::INFINITY,
            last_dt: 0.0,
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
        let Some((first, last)) = decode(params) else {
            return false;
        };
        out.clear();
        out.reserve(count * n_series);
        for t in 0..count {
            let v = value_at(first, last, t, count);
            for _ in 0..n_series {
                out.push(v);
            }
        }
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
        let (first, last) = decode(params)?;
        let (a, b) = range;
        if a > b || b >= count {
            return None;
        }
        // The values form an arithmetic sequence, so the sum over the range
        // is the average of the endpoints times the count, and the extremes
        // sit at the endpoints (Section 6.1's constant-time SUM example,
        // Figure 11).
        let va = value_at(first, last, a, count);
        let vb = value_at(first, last, b, count);
        let n = (b - a + 1) as f64;
        // Sum the f32-rounded per-timestamp values exactly as the Data Point
        // View would produce them is O(n); the O(1) closed form over the
        // ideal line differs from it by strictly less than the reconstruction
        // rounding, which is what the paper accepts for queries on models.
        let sum = (f64::from(va) + f64::from(vb)) / 2.0 * n;
        Some(SegmentAgg {
            sum,
            min: va.min(vb),
            max: va.max(vb),
        })
    }

    /// `value_at` is monotone in `t` for finite endpoints: each of its
    /// steps (the division by `count - 1`, the product with the fixed
    /// difference, the sum with the fixed first value, the cast to `f32`)
    /// is a monotone function followed by a monotone rounding.
    fn monotone_value_at(
        &self,
        params: &[u8],
        _n_series: usize,
        count: usize,
        t: usize,
        _series: usize,
    ) -> Option<Value> {
        let (first, last) = decode(params)?;
        (t < count && first.is_finite() && last.is_finite())
            .then(|| value_at(first, last, t, count))
    }

    /// `agg`'s extremes are the reconstructed values at the range's ends.
    fn attained_extremes(&self) -> bool {
        true
    }
}

fn decode(params: &[u8]) -> Option<(Value, Value)> {
    if params.len() < 8 {
        return None;
    }
    let first = Value::from_le_bytes(params[0..4].try_into().ok()?);
    let last = Value::from_le_bytes(params[4..8].try_into().ok()?);
    Some((first, last))
}

/// The model's value at timestamp index `t` of `count` (linear interpolation
/// between the stored endpoint values; `count == 1` degenerates to `first`).
fn value_at(first: Value, last: Value, t: usize, count: usize) -> Value {
    if count <= 1 {
        return first;
    }
    let frac = t as f64 / (count - 1) as f64;
    (f64::from(first) + (f64::from(last) - f64::from(first)) * frac) as Value
}

struct SwingFitter {
    bound: ErrorBound,
    n_series: usize,
    length_limit: usize,
    /// `(t0, v0)`: the initial point, fixed after the first append. `v0` is
    /// quantized to `f32` immediately so the stored anchor is the one the
    /// slope bounds are computed against.
    first: Option<(Timestamp, f32)>,
    slope_lo: f64,
    slope_hi: f64,
    /// Time offset of the last accepted point, in ms since `t0`.
    last_dt: f64,
    len: usize,
}

impl SwingFitter {
    fn slope(&self) -> f64 {
        if self.slope_lo == f64::NEG_INFINITY || self.slope_hi == f64::INFINITY {
            return 0.0;
        }
        (self.slope_lo + self.slope_hi) / 2.0
    }
}

impl Fitter for SwingFitter {
    fn append(&mut self, timestamp: Timestamp, values: &[Value]) -> bool {
        debug_assert_eq!(values.len(), self.n_series);
        if self.len >= self.length_limit {
            return false;
        }
        let (lo, hi) = match allowed_interval(&self.bound, values) {
            Some(iv) => iv,
            None => return false,
        };
        match self.first {
            None => {
                // Initial point via PMC: the average of the first timestamp's
                // values, clamped into the interval they all allow.
                let mean = values.iter().map(|&v| f64::from(v)).sum::<f64>() / values.len() as f64;
                let v0 = mean.clamp(lo, hi) as f32;
                if f64::from(v0) < lo || f64::from(v0) > hi {
                    return false;
                }
                self.first = Some((timestamp, v0));
                self.len = 1;
                true
            }
            Some((t0, v0)) => {
                let dt = (timestamp - t0) as f64;
                if dt <= 0.0 {
                    return false;
                }
                let lo_slope = (lo - f64::from(v0)) / dt;
                let hi_slope = (hi - f64::from(v0)) / dt;
                let new_lo = self.slope_lo.max(lo_slope);
                let new_hi = self.slope_hi.min(hi_slope);
                if new_lo > new_hi {
                    return false;
                }
                self.slope_lo = new_lo;
                self.slope_hi = new_hi;
                self.last_dt = dt;
                self.len += 1;
                true
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn params(&self) -> Vec<u8> {
        let (first, last) = match self.first {
            None => (0.0f32, 0.0f32),
            Some((_, v0)) if self.len <= 1 => (v0, v0),
            Some((_, v0)) => {
                let last = f64::from(v0) + self.slope() * self.last_dt;
                (v0, last as f32)
            }
        };
        let mut out = Vec::with_capacity(8);
        out.extend_from_slice(&first.to_le_bytes());
        out.extend_from_slice(&last.to_le_bytes());
        out
    }

    fn byte_size(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_within(bound: &ErrorBound, params: &[u8], rows: &[Vec<Value>]) {
        let n_series = rows[0].len();
        let grid = Swing.grid(params, n_series, rows.len()).unwrap();
        for (t, row) in rows.iter().enumerate() {
            for (s, &orig) in row.iter().enumerate() {
                let approx = grid[t * n_series + s];
                assert!(
                    bound.within(approx, orig),
                    "t={t} s={s}: {approx} vs {orig}"
                );
            }
        }
    }

    #[test]
    fn exact_line_fits_losslessly_when_representable() {
        // v = 2t with f32-exact values.
        let bound = ErrorBound::Lossless;
        let mut f = Swing.fitter(bound, 1, 50);
        let rows: Vec<Vec<Value>> = (0..10).map(|t| vec![(2 * t) as f32]).collect();
        for (t, row) in rows.iter().enumerate() {
            assert!(f.append(t as i64 * 100, row), "failed at {t}");
        }
        check_within(&bound, &f.params(), &rows);
    }

    #[test]
    fn paper_example_three_series_within_ten() {
        // Section 2: TS1/TS2/TS3's first four timestamps fit one line under
        // ε = 10, but the fifth (183.7/179.1/172.9) breaks it.
        let bound = ErrorBound::absolute(10.0);
        let rows = [
            vec![187.5f32, 175.5, 189.7],
            vec![182.8, 170.9, 184.0],
            vec![178.1, 166.3, 178.3],
            vec![173.4, 161.7, 174.6],
            vec![183.7, 179.1, 172.9],
        ];
        let mut f = Swing.fitter(bound, 3, 50);
        let mut accepted = 0;
        for (t, row) in rows.iter().enumerate() {
            if f.append(100 + t as i64 * 100, row) {
                accepted += 1;
            } else {
                break;
            }
        }
        assert_eq!(
            accepted, 4,
            "the segment of Section 2 covers timestamps 100–400"
        );
        check_within(&bound, &f.params(), &rows[..4]);
    }

    #[test]
    fn noisy_line_fits_within_relative_bound() {
        let bound = ErrorBound::relative(5.0);
        let rows: Vec<Vec<Value>> = (0..40)
            .map(|t| {
                let base = 100.0 + t as f32 * 0.5;
                vec![base * 1.01, base * 0.99]
            })
            .collect();
        let mut f = Swing.fitter(bound, 2, 50);
        for (t, row) in rows.iter().enumerate() {
            assert!(f.append(t as i64 * 1000, row), "failed at {t}");
        }
        check_within(&bound, &f.params(), &rows);
    }

    #[test]
    fn level_shift_breaks_the_line() {
        let bound = ErrorBound::absolute(1.0);
        let mut f = Swing.fitter(bound, 1, 50);
        for t in 0..5 {
            assert!(f.append(t * 100, &[10.0]));
        }
        assert!(!f.append(500, &[50.0]));
        assert_eq!(f.len(), 5);
    }

    #[test]
    fn incompatible_first_row_fails_to_start() {
        // First values further apart than 2ε: no initial point exists.
        let bound = ErrorBound::absolute(1.0);
        let mut f = Swing.fitter(bound, 2, 50);
        assert!(!f.append(0, &[0.0, 10.0]));
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn singleton_model_stores_flat_line() {
        let bound = ErrorBound::absolute(1.0);
        let mut f = Swing.fitter(bound, 1, 50);
        assert!(f.append(0, &[5.0]));
        let (first, last) = decode(&f.params()).unwrap();
        assert_eq!(first, last);
        assert!(bound.within(first, 5.0));
    }

    #[test]
    fn non_monotonic_timestamps_rejected() {
        let mut f = Swing.fitter(ErrorBound::absolute(1.0), 1, 50);
        assert!(f.append(100, &[1.0]));
        assert!(!f.append(100, &[1.0]));
        assert!(!f.append(50, &[1.0]));
    }

    #[test]
    fn length_limit_enforced() {
        let mut f = Swing.fitter(ErrorBound::absolute(100.0), 1, 3);
        for t in 0..3 {
            assert!(f.append(t * 100, &[1.0]));
        }
        assert!(!f.append(300, &[1.0]));
    }

    #[test]
    fn agg_matches_grid_sum() {
        let bound = ErrorBound::absolute(0.1);
        let rows: Vec<Vec<Value>> = (0..20).map(|t| vec![10.0 + t as f32]).collect();
        let mut f = Swing.fitter(bound, 1, 50);
        for (t, row) in rows.iter().enumerate() {
            assert!(f.append(t as i64 * 100, row));
        }
        let params = f.params();
        let agg = Swing.agg(&params, 1, 20, (0, 19), 0).unwrap();
        let grid = Swing.grid(&params, 1, 20).unwrap();
        let grid_sum: f64 = grid.iter().map(|&v| f64::from(v)).sum();
        assert!(
            (agg.sum - grid_sum).abs() < 1e-3 * grid_sum.abs(),
            "{} vs {}",
            agg.sum,
            grid_sum
        );
        assert!(agg.min <= grid.iter().cloned().fold(f32::INFINITY, f32::min) + 1e-3);
        assert!(agg.max >= grid.iter().cloned().fold(f32::NEG_INFINITY, f32::max) - 1e-3);
        // Sub-ranges too.
        let sub = Swing.agg(&params, 1, 20, (5, 9), 0).unwrap();
        let sub_sum: f64 = grid[5..=9].iter().map(|&v| f64::from(v)).sum();
        assert!((sub.sum - sub_sum).abs() < 1e-3 * sub_sum.abs());
    }

    #[test]
    fn figure11_sum_example() {
        // Figure 11: Sum over −0.0465t + 186.1 from t=100 to t=2300 at
        // SI=100: ((181.45 + 79.15) / 2) × 23 = 2996.9.
        let first = -0.0465f32 * 100.0 + 186.1;
        let last = -0.0465f32 * 2300.0 + 186.1;
        let mut params = Vec::new();
        params.extend_from_slice(&first.to_le_bytes());
        params.extend_from_slice(&last.to_le_bytes());
        let agg = Swing.agg(&params, 3, 23, (0, 22), 0).unwrap();
        assert!((agg.sum - 2996.9).abs() < 0.1, "{}", agg.sum);
    }

    /// An arbitrary finite endpoint: any bit pattern (huge and subnormal
    /// magnitudes included), one with a zero exponent (a subnormal or a
    /// signed zero), or an ordinary value.
    fn endpoint(kind: usize, bits: u32, ordinary: f32) -> Value {
        let v = match kind {
            0 => f32::from_bits(bits),
            1 => f32::from_bits(bits & 0x807f_ffff),
            _ => ordinary,
        };
        if v.is_finite() {
            v
        } else {
            ordinary
        }
    }

    proptest::proptest! {
        // `value_at` over arbitrary finite endpoints: independent ones,
        // equal ones, ones of opposite sign and ones a huge ratio apart,
        // with every count from a single tick up.
        #[test]
        fn value_at_is_monotone_and_is_the_grid(
            kinds in (0usize..3, 0usize..3),
            bits in (proptest::num::u32::ANY, proptest::num::u32::ANY),
            ordinary in (-1.0e3f32..1.0e3, -1.0e3f32..1.0e3),
            relation in 0usize..4,
            count_pick in (0usize..3, 1usize..2000),
        ) {
            let first = endpoint(kinds.0, bits.0, ordinary.0);
            let last = match relation {
                0 => endpoint(kinds.1, bits.1, ordinary.1),
                1 => first,
                2 => -first,
                _ => first * 1.0e-30 + f32::MIN_POSITIVE * ordinary.1,
            };
            let count = [1, 2, count_pick.1][count_pick.0];
            let mut params = first.to_le_bytes().to_vec();
            params.extend_from_slice(&last.to_le_bytes());
            let values: Vec<Value> = (0..count).map(|t| value_at(first, last, t, count)).collect();
            let rising = values[0] <= values[count - 1];
            for (t, w) in values.windows(2).enumerate() {
                proptest::prop_assert!(
                    if rising { w[0] <= w[1] } else { w[0] >= w[1] },
                    "{} -> {} over {}: t={} {} then {}", first, last, count, t, w[0], w[1]
                );
            }
            let grid = Swing.grid(&params, 2, count).unwrap();
            for (t, v) in values.iter().enumerate() {
                for s in 0..2 {
                    let at = Swing.monotone_value_at(&params, 2, count, t, s).unwrap();
                    proptest::prop_assert_eq!(at.to_bits(), v.to_bits());
                    proptest::prop_assert_eq!(grid[t * 2 + s].to_bits(), v.to_bits());
                }
            }
        }
    }

    #[test]
    fn non_finite_endpoints_are_not_searched() {
        for (first, last) in [
            (f32::NAN, 1.0),
            (1.0, f32::INFINITY),
            (f32::NEG_INFINITY, 0.0),
        ] {
            let mut params = first.to_le_bytes().to_vec();
            params.extend_from_slice(&last.to_le_bytes());
            assert!(Swing.monotone_value_at(&params, 1, 5, 0, 0).is_none());
        }
    }

    proptest::proptest! {
        #[test]
        fn reconstruction_is_within_bound(
            base in -500.0f32..500.0,
            slope in -2.0f32..2.0,
            noise in proptest::collection::vec(-0.2f32..0.2, 2..60),
            pct in 1.0f64..20.0,
        ) {
            let bound = ErrorBound::relative(pct);
            let mut f = Swing.fitter(bound, 1, 100);
            let mut rows = Vec::new();
            for (t, n) in noise.iter().enumerate() {
                let v = base + slope * t as f32 + n;
                if f.append(t as i64 * 1000, &[v]) {
                    rows.push(vec![v]);
                } else {
                    break;
                }
            }
            if !rows.is_empty() {
                let params = f.params();
                let grid = Swing.grid(&params, 1, rows.len()).unwrap();
                for (t, row) in rows.iter().enumerate() {
                    // Allow one f32 ULP of slack for the quantized endpoints.
                    let approx = grid[t];
                    let tolerance = pct / 100.0 * f64::from(row[0].abs()) + f64::from(row[0].abs()) * 1e-5 + 1e-6;
                    proptest::prop_assert!(
                        (f64::from(approx) - f64::from(row[0])).abs() <= tolerance,
                        "t={} {} vs {}", t, approx, row[0]
                    );
                }
            }
        }
    }
}
