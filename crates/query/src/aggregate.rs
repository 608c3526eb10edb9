//! The aggregate framework of Algorithm 5: `initialize`, `iterate`,
//! `finalize` for distributive (COUNT, MIN, MAX, SUM) and algebraic (AVG)
//! functions, evaluated on *models* when the model type supports constant-
//! time aggregation and on reconstructed values otherwise.

use mdb_models::{ModelRegistry, SegmentAgg};
use mdb_types::{SegmentView, Value};

/// A simple aggregate function (suffixed `_S` on the Segment View).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Min,
    Max,
    Sum,
    Avg,
}

impl AggFunc {
    /// Parses `COUNT`/`MIN`/`MAX`/`SUM`/`AVG` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            _ => None,
        }
    }
}

/// The intermediate state of all aggregate functions (one accumulator serves
/// every function; `finalize` extracts the requested one). Distributive and
/// algebraic functions both merge by component-wise combination, which is
/// what lets workers compute partials that the master merges (Algorithm 5's
/// `mergeResults`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accumulator {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Accumulator {
    /// `initialize` of Algorithm 5.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a per-range model aggregate in, un-scaling the values with the
    /// series' scaling constant ("all aggregate functions divide the result
    /// by the scaling constant of each time series as part of the iterate
    /// step", Section 6.1).
    pub fn add_segment_agg(&mut self, agg: SegmentAgg, count: u64, scaling: f64) {
        self.count += count;
        self.sum += agg.sum / scaling;
        let (mut lo, mut hi) = (f64::from(agg.min) / scaling, f64::from(agg.max) / scaling);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi); // negative scaling flips extremes
        }
        self.min = self.min.min(lo);
        self.max = self.max.max(hi);
    }

    /// Folds one reconstructed value in, already divided by its series'
    /// scaling constant.
    pub fn add_raw(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another accumulator (worker partials → master).
    pub fn merge(&mut self, other: &Accumulator) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `finalize` of Algorithm 5.
    pub fn finalize(&self, func: AggFunc) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(match func {
            AggFunc::Count => self.count as f64,
            AggFunc::Sum => self.sum,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Avg => self.sum / self.count as f64,
        })
    }
}

/// Lazily reconstructs a segment's values at most once per query, shared by
/// every (tid, interval) evaluation that needs the fallback path. Holds a
/// borrowed [`SegmentView`] by value, so segments read straight out of a
/// cached block buffer are evaluated without ever materializing an owned
/// record, and decodes into a caller-owned buffer, so a scan reconstructing
/// segment after segment reuses one allocation.
pub struct SegmentCursor<'a, 'g> {
    pub segment: SegmentView<'a>,
    pub n_series: usize,
    grid: &'g mut Vec<Value>,
    /// Whether the grid decoded, once it was asked for.
    decoded: Option<bool>,
}

impl<'a, 'g> SegmentCursor<'a, 'g> {
    /// A cursor over `segment`, which represents `n_series` series,
    /// reconstructing into `grid` when it has to.
    pub fn new(segment: SegmentView<'a>, n_series: usize, grid: &'g mut Vec<Value>) -> Self {
        Self {
            segment,
            n_series,
            grid,
            decoded: None,
        }
    }

    /// The reconstructed values (timestamp-major), decoded on first use;
    /// `None` when the segment cannot be decoded.
    pub fn grid(&mut self, registry: &ModelRegistry) -> Option<&[Value]> {
        let decoded = *self.decoded.get_or_insert_with(|| {
            let len = self.segment.len();
            registry.get(self.segment.mid).is_some_and(|model| {
                model.grid_into(self.segment.params, self.n_series, len, self.grid)
                    && self.grid.len() >= len * self.n_series
            })
        });
        decoded.then_some(&self.grid[..])
    }

    /// The model's constant-time aggregate of the series at `series` over
    /// the tick range `range`, or `None` when the model has no closed form
    /// (or the range is out of bounds).
    pub fn model_agg(
        &self,
        registry: &ModelRegistry,
        series: usize,
        range: (usize, usize),
    ) -> Option<SegmentAgg> {
        let count = self.segment.len();
        if range.0 > range.1 || range.1 >= count {
            return None;
        }
        let model = registry.get(self.segment.mid)?;
        model.agg(self.segment.params, self.n_series, count, range, series)
    }

    /// Aggregates the series at position-in-segment `series` over the tick
    /// index range `range` (inclusive), preferring the model's constant-time
    /// path and falling back to the reconstructed grid.
    pub fn aggregate(
        &mut self,
        registry: &ModelRegistry,
        series: usize,
        range: (usize, usize),
    ) -> Option<SegmentAgg> {
        self.aggregate_with(registry, series, range, true)
    }

    /// Like [`SegmentCursor::aggregate`], but `use_models = false` skips the
    /// constant-time model path and always reconstructs — the semantics of
    /// aggregates on the Data Point View, which the evaluation compares
    /// against the Segment View (Figures 19–20).
    pub fn aggregate_with(
        &mut self,
        registry: &ModelRegistry,
        series: usize,
        range: (usize, usize),
        use_models: bool,
    ) -> Option<SegmentAgg> {
        if range.0 > range.1 || range.1 >= self.segment.len() {
            return None;
        }
        if use_models {
            if let Some(agg) = self.model_agg(registry, series, range) {
                return Some(agg);
            }
        }
        let n = self.n_series;
        Some(grid_aggregate(self.grid(registry)?, n, series, range))
    }
}

/// The fallback aggregate of models without a closed form: the sum and
/// extremes of series `series` over the tick range `range` (inclusive) of a
/// reconstructed timestamp-major `grid` of `n_series` series, accumulated in
/// tick order.
pub fn grid_aggregate(
    grid: &[Value],
    n_series: usize,
    series: usize,
    range: (usize, usize),
) -> SegmentAgg {
    let mut sum = 0.0f64;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for t in range.0..=range.1 {
        let v = grid[t * n_series + series];
        sum += f64::from(v);
        min = min.min(v);
        max = max.max(v);
    }
    SegmentAgg { sum, min, max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mdb_types::{GapsMask, SegmentRecord};

    #[test]
    fn accumulator_finalizes_every_function() {
        let mut acc = Accumulator::new();
        for v in [1.0f32, 2.0, 3.0, 4.0] {
            acc.add_raw(f64::from(v));
        }
        assert_eq!(acc.finalize(AggFunc::Count), Some(4.0));
        assert_eq!(acc.finalize(AggFunc::Sum), Some(10.0));
        assert_eq!(acc.finalize(AggFunc::Min), Some(1.0));
        assert_eq!(acc.finalize(AggFunc::Max), Some(4.0));
        assert_eq!(acc.finalize(AggFunc::Avg), Some(2.5));
    }

    #[test]
    fn empty_accumulator_finalizes_to_none() {
        let acc = Accumulator::new();
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            assert_eq!(acc.finalize(f), None);
        }
    }

    #[test]
    fn merge_is_distributive() {
        // Splitting the values across two accumulators and merging gives the
        // same result — the property that makes worker partials correct.
        let values = [5.0f32, -2.0, 7.5, 0.0, 3.25, 9.0];
        let mut whole = Accumulator::new();
        for &v in &values {
            whole.add_raw(f64::from(v));
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &v in &values[..3] {
            left.add_raw(f64::from(v));
        }
        for &v in &values[3..] {
            right.add_raw(f64::from(v));
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn scaling_is_divided_out_in_iterate() {
        // Stored value 9.5 with scaling 4.75 is raw value 2.0 (Figure 6's
        // Scaling column).
        let mut acc = Accumulator::new();
        acc.add_segment_agg(
            SegmentAgg {
                sum: 19.0,
                min: 9.5,
                max: 9.5,
            },
            2,
            4.75,
        );
        assert_eq!(acc.finalize(AggFunc::Avg), Some(2.0));
        assert_eq!(acc.finalize(AggFunc::Min), Some(2.0));
    }

    #[test]
    fn negative_scaling_flips_extremes() {
        let mut acc = Accumulator::new();
        acc.add_segment_agg(
            SegmentAgg {
                sum: 10.0,
                min: 1.0,
                max: 5.0,
            },
            2,
            -1.0,
        );
        assert_eq!(acc.finalize(AggFunc::Min), Some(-5.0));
        assert_eq!(acc.finalize(AggFunc::Max), Some(-1.0));
    }

    #[test]
    fn agg_func_parse() {
        assert_eq!(AggFunc::parse("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("AVG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("median"), None);
    }

    fn pmc_segment(value: f32, len: usize) -> SegmentRecord {
        SegmentRecord {
            gid: 1,
            start_time: 0,
            end_time: (len as i64 - 1) * 100,
            sampling_interval: 100,
            mid: mdb_models::MID_PMC_MEAN,
            params: Bytes::from(value.to_le_bytes().to_vec()),
            gaps: GapsMask::EMPTY,
        }
    }

    #[test]
    fn cursor_uses_model_agg_for_pmc() {
        let registry = ModelRegistry::standard();
        let seg = pmc_segment(2.5, 10);
        let mut grid = Vec::new();
        let mut cursor = SegmentCursor::new(seg.view(), 3, &mut grid);
        let agg = cursor.aggregate(&registry, 1, (0, 9)).unwrap();
        assert_eq!(agg.sum, 25.0);
        // The constant-time path never materialized the grid.
        assert!(cursor.decoded.is_none());
        // Sub-range.
        let agg = cursor.aggregate(&registry, 0, (2, 4)).unwrap();
        assert_eq!(agg.sum, 7.5);
        // Out-of-range is rejected.
        assert!(cursor.aggregate(&registry, 0, (5, 20)).is_none());
    }

    #[test]
    fn cursor_falls_back_to_grid_for_gorilla() {
        let registry = ModelRegistry::standard();
        let values = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let params = mdb_encoding_encode(&values);
        let seg = SegmentRecord {
            gid: 1,
            start_time: 0,
            end_time: 200,
            sampling_interval: 100,
            mid: mdb_models::MID_GORILLA,
            params: Bytes::from(params),
            gaps: GapsMask::EMPTY,
        };
        let mut grid = Vec::new();
        let mut cursor = SegmentCursor::new(seg.view(), 2, &mut grid);
        // Series 0 values: 1, 3, 5. Series 1 values: 2, 4, 6.
        let agg = cursor.aggregate(&registry, 0, (0, 2)).unwrap();
        assert_eq!(agg.sum, 9.0);
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 5.0);
        let agg = cursor.aggregate(&registry, 1, (1, 2)).unwrap();
        assert_eq!(agg.sum, 10.0);
        assert_eq!(cursor.decoded, Some(true), "gorilla needs the grid");
    }

    /// Minimal stand-in for the encoding dependency in tests: fits the same
    /// XOR stream Gorilla uses (via the model's own fitter).
    fn mdb_encoding_encode(values: &[f32]) -> Vec<u8> {
        use mdb_models::ModelType;
        let g = mdb_models::gorilla::Gorilla;
        let mut f = g.fitter(mdb_types::ErrorBound::Lossless, 2, 100);
        for (t, pair) in values.chunks(2).enumerate() {
            assert!(f.append(t as i64 * 100, pair));
        }
        f.params()
    }
}
