//! Model types for Multi-Model Group Compression (Sections 3.2, 5).
//!
//! A *model* (Definition 4) is a pair of functions `(mest, merr)` from which
//! the data points of a bounded time series — here, a time series *group* —
//! can be reconstructed within a known error bound. ModelarDB+ treats models
//! as black boxes behind a common interface so user-defined models can be
//! added without recompiling the system (Section 3.1); this crate defines
//! that interface and the three models distributed with ModelarDB+ Core,
//! extended for group compression as described in Section 5.2:
//!
//! * [`pmc::PmcMean`] — constant functions (Lazaridis & Mehrotra, \[25\]).
//!   For a group, the set of values `V` at each timestamp collapses to
//!   `(min(V), max(V))`; the model stores one average within `ε` of both.
//! * [`swing::Swing`] — linear functions (Elmeleegy et al., \[15\]). The
//!   initial point is computed like PMC; afterwards each timestamp appends
//!   the interval all group values allow, swinging the slope bounds.
//! * [`gorilla::Gorilla`] — lossless XOR compression (Pelkonen et al.,
//!   \[28\]), storing the group's values in time-ordered blocks so
//!   correlated series XOR into few bits.
//!
//! [`multi::PerSeries`] is the baseline method of Section 5.1 that upgrades
//! *any* single-series model to group compression by fitting one sub-model
//! per series inside a single segment (including the `te` truncation of
//! Figure 9, case III).

pub mod gorilla;
pub mod multi;
pub mod pmc;
pub mod registry;
pub mod swing;

use mdb_types::{ErrorBound, SegmentRecord, Timestamp, Value, ValueInterval};

pub use registry::{ModelRegistry, MID_GORILLA, MID_PMC_MEAN, MID_SWING};

/// The size in bytes a raw data point is accounted as when computing
/// compression ratios: 8-byte timestamp + 4-byte value + 4-byte tid, the
/// uncompressed layout of the Data Point View.
pub const RAW_DATA_POINT_BYTES: usize = 16;

/// The fixed per-segment header the storage layer adds around the model
/// parameters (see `SegmentRecord::storage_bytes`).
pub const SEGMENT_HEADER_BYTES: usize = 25;

/// An online fitter for one model type over one time series group.
///
/// The ingestion loop of Section 3.2 appends the group's values one sampling
/// interval at a time. `append` is atomic: it either extends the model by one
/// timestamp and returns `true`, or returns `false` and leaves the fitter
/// representing exactly the previously accepted timestamps (so `params` stays
/// valid after a failed append — the Figure 9 contract).
///
/// Fitters are `Send + Sync` so an engine owning them can be driven from a
/// network server's sessions; the built-in fitters are plain value structs,
/// and user-defined ones should be too (interior shared state belongs in
/// the [`ModelType`], which is already shared).
pub trait Fitter: Send + Sync {
    /// Tries to extend the model with the group's values at `timestamp`
    /// (`values[i]` belongs to the `i`-th series represented by the segment).
    fn append(&mut self, timestamp: Timestamp, values: &[Value]) -> bool;

    /// The number of timestamps currently represented.
    fn len(&self) -> usize;

    /// True before anything was accepted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the model parameters representing the accepted timestamps.
    fn params(&self) -> Vec<u8>;

    /// The (possibly estimated) size of `params()` in bytes, used to select
    /// the model with the best compression ratio without serializing all
    /// candidates.
    fn byte_size(&self) -> usize;
}

/// Constant-time aggregate values over a slice of a segment, produced without
/// reconstructing data points (Section 6.1: "SUM on a linear model uses
/// constant time").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentAgg {
    /// Sum of the values in the range.
    pub sum: f64,
    /// Minimum value in the range.
    pub min: Value,
    /// Maximum value in the range.
    pub max: Value,
}

/// A model type: a factory for fitters plus the decoding half of the black
/// box. Implement this trait (and register it) to add a user-defined model.
///
/// Decoding comes in three levels. [`ModelType::grid`] reconstructs every
/// value and is required. [`ModelType::agg`] answers aggregates over a tick
/// range in constant time, and [`ModelType::monotone_value_at`] evaluates
/// one value of a series that rises or falls with time, which lets a
/// `Value` filter be answered without a grid. Both may return `None` (the
/// evaluator's default): a query then reconstructs the model's values.
pub trait ModelType: Send + Sync {
    /// A short stable name (the `Classpath` column of the Model table in
    /// Figure 6 plays this role in the paper).
    fn name(&self) -> &str;

    /// Creates a fitter for a group segment of `n_series` series under
    /// `bound`. `length_limit` is the Model Length Limit of Table 1: the
    /// maximum number of timestamps one model may represent.
    fn fitter(&self, bound: ErrorBound, n_series: usize, length_limit: usize) -> Box<dyn Fitter>;

    /// Reconstructs all values of a segment with the given `params`:
    /// the result is timestamp-major, `out[t * n_series + s]` being the value
    /// of the `s`-th represented series at the `t`-th timestamp.
    fn grid(&self, params: &[u8], n_series: usize, count: usize) -> Option<Vec<Value>>;

    /// [`ModelType::grid`] into a caller-owned buffer (cleared first), so a
    /// hot path reconstructing segment after segment reuses one allocation.
    /// Returns `false` where `grid` returns `None`; `out` is then
    /// unspecified. The default forwards to `grid`; the built-in models
    /// reconstruct in place.
    fn grid_into(
        &self,
        params: &[u8],
        n_series: usize,
        count: usize,
        out: &mut Vec<Value>,
    ) -> bool {
        match self.grid(params, n_series, count) {
            Some(grid) => {
                *out = grid;
                true
            }
            None => false,
        }
    }

    /// Constant-time aggregation over the timestamp indexes
    /// `range.0 ..= range.1` for the series at `series` position, if this
    /// model supports it. Returning `None` makes the query engine fall back
    /// to [`ModelType::grid`].
    ///
    /// **Contract:** `min` and `max` must bound every value
    /// [`ModelType::grid`] reconstructs for that series over that range,
    /// exactly (`min <= v <= max`, no tolerance). Block value ranges
    /// ([`segment_value_range`]) and the query engine's value-filtered scan
    /// both skip a series whose `[min, max]` misses a `Value` predicate
    /// without reconstructing it, so extremes that miss a value drop points.
    /// `sum` may differ from the reconstructed sum by the reconstruction's
    /// rounding.
    fn agg(
        &self,
        params: &[u8],
        n_series: usize,
        count: usize,
        range: (usize, usize),
        series: usize,
    ) -> Option<SegmentAgg>;

    /// The reconstructed value of the series at `series` position at tick
    /// `t`, for a model that promises its series are monotone in `t`. The
    /// default is `None`: the model makes no such promise, and the query
    /// engine reconstructs the grid instead.
    ///
    /// **Contract:** a `Some` value is bit-identical to
    /// `grid(params, n_series, count)[t * n_series + series]`, and the
    /// values over `t in 0..count` are non-decreasing or non-increasing
    /// (no `NaN`). The engine answers a `Value` filter from this alone: the
    /// ticks whose value passes a closed interval form one contiguous range
    /// ([`crossing_range`]), whose `COUNT` is its length and whose `MIN` and
    /// `MAX` are its end values, so an evaluator that breaks the contract
    /// drops or invents points.
    fn monotone_value_at(
        &self,
        _params: &[u8],
        _n_series: usize,
        _count: usize,
        _t: usize,
        _series: usize,
    ) -> Option<Value> {
        None
    }

    /// Whether the extremes the query engine derives for this model are
    /// attained, not only bounds. The default is `false`.
    ///
    /// **Contract:** `true` promises that over every tick range, `agg`'s
    /// `min` and `max` (or, where `agg` is `None`, the extremes of the
    /// reconstructed values) are each a value [`ModelType::grid`]
    /// reconstructs for that series in that range. Rollup cells then hold
    /// the exact `MIN`/`MAX` of their points, so the engine answers a
    /// `Value`-filtered tile whose every point passes from its cell. With
    /// any registered model that does not promise it, such tiles are
    /// scanned.
    fn attained_extremes(&self) -> bool {
        false
    }
}

/// The ticks of a monotone run that pass a filter, found by
/// [`crossing_range`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// The first and the last passing tick (inclusive).
    pub range: (usize, usize),
    /// The compared values at those two ticks: the extremes of every
    /// passing value, in the run's order.
    pub keys: (f64, f64),
}

/// The ticks of `range` (inclusive) at which a monotone series passes
/// `filter`: `key(t)` is the value compared at tick `t` (for the query
/// engine, [`ModelType::monotone_value_at`] divided by the series'
/// scaling) and must be non-decreasing or non-increasing over `range`, so
/// the passing ticks form one contiguous sub-range.
///
/// The run's two end keys are read first and decide what they can: a run
/// whose first key already passes the near bound starts at its first tick,
/// and one whose last key passes the far bound ends at its last tick, so
/// only an end they leave open is binary-searched, and no key is read
/// twice. A filter open on one side (`Value > x`, `Value <= x`) takes at
/// most `bitlen(len) + 3` calls of `key`, any other at most
/// `2·bitlen(len) + 4`.
///
/// Returns `Some(Some(crossing))` for the passing sub-range, `Some(None)`
/// when no tick passes, and `None` when `key` returns `None` or a `NaN`,
/// which leaves the caller to look at every point.
pub fn crossing_range(
    range: (usize, usize),
    filter: &ValueInterval,
    mut key: impl FnMut(usize) -> Option<f64>,
) -> Option<Option<Crossing>> {
    let mut key = |t| key(t).filter(|k| !k.is_nan());
    let (a, b) = range;
    let (first, last) = (key(a)?, key(b)?);
    if filter.contains(first) && filter.contains(last) {
        let keys = (first, last);
        return Some(Some(Crossing { range, keys }));
    }
    // Both ends on one side of the filter: so is every tick between them.
    let (lo, hi) = (filter.lo, filter.hi);
    if (first < lo && last < lo) || (first > hi && last > hi) {
        return Some(None);
    }
    // On a rising run the ticks below the filter come first and those
    // above it last; a falling run is the mirror image.
    let rising = first <= last;
    let fails_early = |k: f64| if rising { k < lo } else { k > hi };
    let fails_late = |k: f64| if rising { k > hi } else { k < lo };
    // The first tick past the near bound. When it is not the first, it is
    // at most the last, whose key cannot fail early too (the ends would
    // then lie on one side).
    let (start, start_key) = if fails_early(first) {
        let (t, _, k) = partition_point((a + 1, b), (first, last), &mut key, fails_early)?;
        (t, k)
    } else {
        (a, first)
    };
    if fails_late(start_key) {
        return Some(None);
    }
    // The last tick within the far bound: the last one, or the one before
    // the first tick past it, which lies after `start`.
    let (end, end_key) = if fails_late(last) {
        let passes = |k| !fails_late(k);
        let (t, k, _) = partition_point((start + 1, b), (start_key, last), &mut key, passes)?;
        (t - 1, k)
    } else {
        (b, last)
    };
    Some(Some(Crossing {
        range: (start, end),
        keys: (start_key, end_key),
    }))
}

/// The first tick of `lo..=hi` at which `holds` fails, for a `holds` that
/// is true on a prefix, given that it holds at `lo - 1`, whose key is
/// `before`, and fails at `hi`, whose key is `at`: that tick, with the keys
/// just before it and at it. `None` when `key` does.
fn partition_point(
    (mut lo, mut hi): (usize, usize),
    (mut before, mut at): (f64, f64),
    key: &mut impl FnMut(usize) -> Option<f64>,
    holds: impl Fn(f64) -> bool,
) -> Option<(usize, f64, f64)> {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let k = key(mid)?;
        if holds(k) {
            (lo, before) = (mid + 1, k);
        } else {
            (hi, at) = (mid, k);
        }
    }
    Some((lo, before, at))
}

/// Intersects the intervals of acceptable approximations for all values of a
/// group at one timestamp: a single representative value `r` can stand in for
/// every `v` in `values` iff `lo ≤ r ≤ hi`.
///
/// This is the reduction of Section 5.2: only the extreme values can
/// invalidate a model, so the set `V` collapses to a range — here generalized
/// to relative bounds by intersecting per-value intervals. Returns `None`
/// when no single value can represent them all (or any value is non-finite).
pub fn allowed_interval(bound: &ErrorBound, values: &[Value]) -> Option<(f64, f64)> {
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for &v in values {
        if !v.is_finite() {
            return None;
        }
        let (l, h) = bound.interval_for(v);
        lo = lo.max(l);
        hi = hi.min(h);
        if lo > hi {
            return None;
        }
    }
    if values.is_empty() {
        None
    } else {
        Some((lo, hi))
    }
}

/// The stored-value range a segment is known to cover, computed in constant
/// time from the model's closed-form aggregate over the full timestamp range
/// — the statistic the storage layer unions into each block's value range.
///
/// Returns `None` when the model has no closed form (e.g. Gorilla, whose
/// values would have to be reconstructed; the store's digester then takes
/// the range from the values it reconstructs anyway) or when the parameters
/// cannot be evaluated.
pub fn segment_value_range(
    registry: &ModelRegistry,
    segment: &SegmentRecord,
    group_size: usize,
) -> Option<ValueInterval> {
    let model = registry.get(segment.mid)?;
    let n_series = segment.gaps.count_present(group_size);
    if n_series == 0 {
        return None;
    }
    let count = segment.len();
    let mut range = ValueInterval::EMPTY;
    for series in 0..n_series {
        let agg = model.agg(&segment.params, n_series, count, (0, count - 1), series)?;
        range = range.union(&ValueInterval::new(f64::from(agg.min), f64::from(agg.max)));
    }
    Some(range)
}

/// The compression ratio used for model selection (step iii of Section 3.2):
/// raw bytes represented divided by stored bytes.
pub fn compression_ratio(timestamps: usize, n_series: usize, stored_bytes: usize) -> f64 {
    if stored_bytes == 0 {
        return 0.0;
    }
    (timestamps * n_series * RAW_DATA_POINT_BYTES) as f64 / stored_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_interval_intersects_per_value_bounds() {
        let b = ErrorBound::absolute(1.0);
        // [9, 11] ∩ [10, 12] = [10, 11].
        let (lo, hi) = allowed_interval(&b, &[10.0, 11.0]).unwrap();
        assert_eq!((lo, hi), (10.0, 11.0));
        // Exactly 2ε apart: a single representative remains (§5.2's
        // max(V) − min(V) = 2ε maximum range).
        let (lo, hi) = allowed_interval(&b, &[10.0, 12.0]).unwrap();
        assert_eq!((lo, hi), (11.0, 11.0));
        // Values further apart than 2ε: no representative exists.
        assert!(allowed_interval(&b, &[10.0, 12.5]).is_none());
    }

    #[test]
    fn allowed_interval_relative_bound() {
        let b = ErrorBound::relative(10.0);
        let (lo, hi) = allowed_interval(&b, &[100.0, 110.0]).unwrap();
        assert!(lo <= hi);
        assert!(lo >= 99.0 && hi <= 110.0 + 11.0);
    }

    #[test]
    fn allowed_interval_rejects_non_finite_and_empty() {
        let b = ErrorBound::relative(10.0);
        assert!(allowed_interval(&b, &[f32::NAN]).is_none());
        assert!(allowed_interval(&b, &[1.0, f32::INFINITY]).is_none());
        assert!(allowed_interval(&b, &[]).is_none());
    }

    #[test]
    fn allowed_interval_lossless_requires_equality() {
        let b = ErrorBound::Lossless;
        assert!(allowed_interval(&b, &[5.0, 5.0]).is_some());
        assert!(allowed_interval(&b, &[5.0, 5.000001]).is_none());
    }

    #[test]
    fn compression_ratio_scales_with_group_size() {
        // One 25+4 byte PMC segment representing 50 timestamps of 3 series.
        let one = compression_ratio(50, 1, 29);
        let three = compression_ratio(50, 3, 29);
        assert!((three / one - 3.0).abs() < 1e-9);
        assert_eq!(compression_ratio(10, 1, 0), 0.0);
    }

    /// Asserts [`ModelType::agg`]'s contract for every series of a segment
    /// over `range`: `min <= v <= max` for each value `grid` reconstructs.
    fn check_agg_bounds_grid(
        model: &dyn ModelType,
        params: &[u8],
        n_series: usize,
        count: usize,
        range: (usize, usize),
    ) -> Result<(), proptest::TestCaseError> {
        let grid = model.grid(params, n_series, count).unwrap();
        for series in 0..n_series {
            let agg = model.agg(params, n_series, count, range, series).unwrap();
            for t in range.0..=range.1 {
                let v = grid[t * n_series + series];
                proptest::prop_assert!(
                    agg.min <= v && v <= agg.max,
                    "{}: {} outside [{}, {}] at t={} of {:?}",
                    model.name(),
                    v,
                    agg.min,
                    agg.max,
                    t,
                    range
                );
            }
        }
        Ok(())
    }

    /// A sub-range of `0..count` from two draws.
    fn sub_range(count: usize, a: usize, b: usize) -> (usize, usize) {
        let lo = a % count;
        (lo, lo + b % (count - lo))
    }

    proptest::proptest! {
        // The closed-form extremes of the models with one, fitted from
        // drifting, noisy groups: exact bounds of the reconstruction.
        #[test]
        fn closed_form_extremes_bound_every_reconstructed_value(
            model_idx in 0usize..4,
            n_series in 1usize..4,
            base in -1000.0f32..1000.0,
            slope in -5.0f32..5.0,
            noise in proptest::collection::vec(-1.0f32..1.0, 1..120),
            pct in 0.5f64..20.0,
            a in 0usize..1000,
            b in 0usize..1000,
        ) {
            use std::sync::Arc;
            let model: Arc<dyn ModelType> = match model_idx {
                0 => Arc::new(pmc::PmcMean),
                1 => Arc::new(swing::Swing),
                2 => Arc::new(multi::PerSeries::new(Arc::new(pmc::PmcMean))),
                _ => Arc::new(multi::PerSeries::new(Arc::new(swing::Swing))),
            };
            let mut fitter = model.fitter(ErrorBound::relative(pct), n_series, 200);
            for (t, n) in noise.iter().enumerate() {
                let row: Vec<Value> = (0..n_series)
                    .map(|s| base + slope * t as f32 + n * (s + 1) as f32 * 0.1)
                    .collect();
                if !fitter.append(t as i64 * 100, &row) {
                    break;
                }
            }
            let count = fitter.len();
            if count > 0 {
                let range = sub_range(count, a, b);
                check_agg_bounds_grid(&*model, &fitter.params(), n_series, count, range)?;
            }
        }

        // A model that promises attained extremes: over any sub-range, the
        // extremes the engine derives (the closed form's, or the grid's
        // without one) are each a value the grid holds there, bit for bit.
        #[test]
        fn attained_extremes_are_reconstructed_values(
            model_idx in 0usize..6,
            n_series in 1usize..4,
            base in -1000.0f32..1000.0,
            slope in -5.0f32..5.0,
            noise in proptest::collection::vec(-1.0f32..1.0, 1..120),
            pct in 0.5f64..20.0,
            a in 0usize..1000,
            b in 0usize..1000,
        ) {
            use std::sync::Arc;
            let child: Arc<dyn ModelType> = match model_idx % 3 {
                0 => Arc::new(pmc::PmcMean),
                1 => Arc::new(swing::Swing),
                _ => Arc::new(gorilla::Gorilla),
            };
            let model: Arc<dyn ModelType> = match model_idx {
                0..=2 => child,
                _ => Arc::new(multi::PerSeries::new(child)),
            };
            proptest::prop_assert!(model.attained_extremes());
            let mut fitter = model.fitter(ErrorBound::relative(pct), n_series, 200);
            for (t, n) in noise.iter().enumerate() {
                let row: Vec<Value> = (0..n_series)
                    .map(|s| base + slope * t as f32 + n * (s + 1) as f32 * 0.1)
                    .collect();
                if !fitter.append(t as i64 * 100, &row) {
                    break;
                }
            }
            let count = fitter.len();
            if count > 0 {
                let (params, range) = (fitter.params(), sub_range(count, a, b));
                let grid = model.grid(&params, n_series, count).unwrap();
                for series in 0..n_series {
                    let values: Vec<Value> =
                        (range.0..=range.1).map(|t| grid[t * n_series + series]).collect();
                    let (min, max) = match model.agg(&params, n_series, count, range, series) {
                        Some(agg) => (agg.min, agg.max),
                        None => values.iter().fold((Value::INFINITY, Value::NEG_INFINITY), |
                            (lo, hi),
                            &v,
                        | (lo.min(v), hi.max(v))),
                    };
                    for extreme in [min, max] {
                        proptest::prop_assert!(
                            values.iter().any(|v| v.to_bits() == extreme.to_bits()),
                            "{}: {} is no value of {:?} over {:?}",
                            model.name(),
                            extreme,
                            values,
                            range
                        );
                    }
                }
            }
        }

        // Swing over arbitrary stored endpoints, wherever the line's
        // rounding falls.
        #[test]
        fn swing_extremes_bound_arbitrary_lines(
            first in -1.0e6f32..1.0e6,
            last in -1.0e6f32..1.0e6,
            count in 1usize..600,
            a in 0usize..1000,
            b in 0usize..1000,
        ) {
            let mut params = first.to_le_bytes().to_vec();
            params.extend_from_slice(&last.to_le_bytes());
            check_agg_bounds_grid(&swing::Swing, &params, 2, count, sub_range(count, a, b))?;
        }
    }

    #[test]
    fn only_the_distributed_models_promise_attained_extremes() {
        use std::sync::Arc;
        /// A model with every default: it promises nothing.
        struct Bare;
        impl ModelType for Bare {
            fn name(&self) -> &str {
                "Bare"
            }
            fn fitter(&self, bound: ErrorBound, n: usize, limit: usize) -> Box<dyn Fitter> {
                pmc::PmcMean.fitter(bound, n, limit)
            }
            fn grid(&self, params: &[u8], n: usize, count: usize) -> Option<Vec<Value>> {
                pmc::PmcMean.grid(params, n, count)
            }
            fn agg(
                &self,
                params: &[u8],
                n: usize,
                count: usize,
                range: (usize, usize),
                series: usize,
            ) -> Option<SegmentAgg> {
                pmc::PmcMean.agg(params, n, count, range, series)
            }
        }
        assert!(ModelRegistry::standard().attained_extremes());
        assert!(ModelRegistry::per_series_baseline().attained_extremes());
        let mut custom = ModelRegistry::standard();
        custom.register(Arc::new(Bare));
        assert!(!custom.attained_extremes());
        assert!(!multi::PerSeries::new(Arc::new(Bare)).attained_extremes());
    }

    #[test]
    fn segment_value_range_uses_closed_forms_only() {
        use bytes::Bytes;
        use mdb_types::GapsMask;
        let registry = ModelRegistry::standard();
        // A PMC-Mean segment stores one value; its range is that point.
        let pmc = SegmentRecord {
            gid: 1,
            start_time: 0,
            end_time: 900,
            sampling_interval: 100,
            mid: MID_PMC_MEAN,
            params: Bytes::from(2.5f32.to_le_bytes().to_vec()),
            gaps: GapsMask::EMPTY,
        };
        let range = segment_value_range(&registry, &pmc, 2).unwrap();
        assert_eq!(range, ValueInterval::new(2.5, 2.5));
        // Gorilla has no closed form: no range without reconstructing it.
        let gorilla = SegmentRecord {
            mid: MID_GORILLA,
            ..pmc.clone()
        };
        assert!(segment_value_range(&registry, &gorilla, 2).is_none());
        // A segment representing no series yields no statistic.
        let empty = SegmentRecord {
            gaps: GapsMask::from_positions(&[0, 1]),
            ..pmc
        };
        assert!(segment_value_range(&registry, &empty, 2).is_none());
    }

    /// Asserts [`ModelType::monotone_value_at`]'s contract for every series
    /// of a segment: each value is the grid's, bit for bit, and each
    /// series is non-decreasing or non-increasing.
    fn check_monotone_evaluator(
        model: &dyn ModelType,
        params: &[u8],
        n_series: usize,
        count: usize,
    ) -> Result<(), proptest::TestCaseError> {
        let grid = model.grid(params, n_series, count).unwrap();
        for series in 0..n_series {
            let values: Vec<Value> = (0..count)
                .map(|t| model.monotone_value_at(params, n_series, count, t, series))
                .collect::<Option<_>>()
                .unwrap();
            for (t, v) in values.iter().enumerate() {
                let g = grid[t * n_series + series];
                proptest::prop_assert_eq!(v.to_bits(), g.to_bits(), "{} t={}", model.name(), t);
            }
            let rising = values[0] <= values[count - 1];
            proptest::prop_assert!(
                values
                    .windows(2)
                    .all(|w| if rising { w[0] <= w[1] } else { w[0] >= w[1] }),
                "{}: series {} is not monotone: {:?}",
                model.name(),
                series,
                values
            );
            proptest::prop_assert!(model
                .monotone_value_at(params, n_series, count, count, series)
                .is_none());
        }
        Ok(())
    }

    /// [`crossing_range`] by looking at every tick.
    fn linear_crossing(
        keys: &[f64],
        range: (usize, usize),
        filter: &ValueInterval,
    ) -> Option<Crossing> {
        let passing: Vec<usize> = (range.0..=range.1)
            .filter(|&t| filter.contains(keys[t]))
            .collect();
        let (&first, &last) = (passing.first()?, passing.last()?);
        assert_eq!(
            passing.len(),
            last - first + 1,
            "passing ticks are contiguous"
        );
        Some(Crossing {
            range: (first, last),
            keys: (keys[first], keys[last]),
        })
    }

    proptest::proptest! {
        // The evaluator of every monotone model, fitted from drifting,
        // noisy groups; a per-series adapter also after a case III append
        // whose later child rejects, which leaves the earlier children one
        // value longer than the segment.
        #[test]
        fn monotone_evaluators_equal_the_grid(
            model_idx in 0usize..4,
            n_series in 1usize..4,
            base in -1000.0f32..1000.0,
            slope in -5.0f32..5.0,
            noise in proptest::collection::vec(-1.0f32..1.0, 1..120),
            pct in 0.5f64..20.0,
            truncate in proptest::bool::ANY,
        ) {
            use std::sync::Arc;
            let model: Arc<dyn ModelType> = match model_idx {
                0 => Arc::new(pmc::PmcMean),
                1 => Arc::new(swing::Swing),
                2 => Arc::new(multi::PerSeries::new(Arc::new(pmc::PmcMean))),
                _ => Arc::new(multi::PerSeries::new(Arc::new(swing::Swing))),
            };
            let row = |t: usize, n: f32| -> Vec<Value> {
                (0..n_series)
                    .map(|s| base + slope * t as f32 + n * (s + 1) as f32 * 0.1)
                    .collect()
            };
            let mut fitter = model.fitter(ErrorBound::relative(pct), n_series, 200);
            for (t, n) in noise.iter().enumerate() {
                if !fitter.append(t as i64 * 100, &row(t, *n)) {
                    break;
                }
            }
            let count = fitter.len();
            if truncate && count > 0 {
                // Series 0 continues, the last series leaps out of bound.
                let mut leap = row(count, 0.0);
                *leap.last_mut().unwrap() += 1.0e6;
                fitter.append(count as i64 * 100, &leap);
            }
            if count > 0 {
                proptest::prop_assert_eq!(fitter.len(), count);
                check_monotone_evaluator(&*model, &fitter.params(), n_series, count)?;
            }
        }

        // The binary search against a linear scan, on rising, falling and
        // flat runs with repeated keys, and filters whose edges sit on a
        // key, one ulp either side of it, or outside every key, closed or
        // open on one side.
        #[test]
        fn crossing_range_equals_a_linear_scan(
            mut keys in proptest::collection::vec(-8i32..8, 1..80),
            falling in proptest::bool::ANY,
            a in 0usize..1000,
            b in 0usize..1000,
            lo_pick in 0usize..1000,
            hi_pick in 0usize..1000,
            lo_nudge in 0usize..4,
            hi_nudge in 0usize..4,
            open in 0usize..3,
        ) {
            keys.sort_unstable();
            if falling {
                keys.reverse();
            }
            let keys: Vec<f64> = keys.iter().map(|&k| f64::from(k) * 0.5).collect();
            let edge = |pick: usize, nudge: usize| {
                let k = keys[pick % keys.len()];
                [k, k.next_down(), k.next_up(), k * 3.0 + 1.0][nudge]
            };
            let (lo, hi) = (edge(lo_pick, lo_nudge), edge(hi_pick, hi_nudge));
            let filter = match open {
                1 => ValueInterval::new(lo, f64::INFINITY),
                2 => ValueInterval::new(f64::NEG_INFINITY, hi),
                _ => ValueInterval::new(lo, hi),
            };
            let start = a % keys.len();
            let range = (start, start + b % (keys.len() - start));
            let mut calls = 0u32;
            let found = crossing_range(range, &filter, |t| {
                calls += 1;
                Some(keys[t])
            });
            proptest::prop_assert_eq!(found, Some(linear_crossing(&keys, range, &filter)));
            let len = (range.1 - range.0 + 1) as u32;
            let bitlen = u32::BITS - len.leading_zeros();
            proptest::prop_assert!(
                calls <= 2 * bitlen + 4,
                "{} calls for {} ticks",
                calls,
                len
            );
            // Open on one side, one end is decided by its key alone.
            proptest::prop_assert!(
                open == 0 || calls <= bitlen + 3,
                "{} calls for {} ticks, open on one side",
                calls,
                len
            );
        }
    }

    #[test]
    fn crossing_range_gives_up_on_missing_or_nan_keys() {
        let all = ValueInterval::ALL;
        assert_eq!(crossing_range((0, 9), &all, |_| None), None);
        assert_eq!(crossing_range((0, 9), &all, |_| Some(f64::NAN)), None);
        let filter = ValueInterval::new(4.0, 6.0);
        let keys = [0.0, 1.0, 2.0, 3.0, f64::NAN, 5.0, 6.0, 7.0];
        assert_eq!(crossing_range((0, 7), &filter, |t| Some(keys[t])), None);
        let found = crossing_range((5, 7), &filter, |t| Some(keys[t]));
        assert_eq!(found.unwrap().unwrap().range, (5, 6));
        // Gorilla promises nothing, so its values are never searched.
        let params = gorilla::Gorilla.fitter(ErrorBound::Lossless, 1, 4).params();
        assert!(gorilla::Gorilla
            .monotone_value_at(&params, 1, 1, 0, 0)
            .is_none());
    }
}
