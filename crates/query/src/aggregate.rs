//! The aggregate framework of Algorithm 5: `initialize`, `iterate`,
//! `finalize` for distributive (COUNT, MIN, MAX, SUM) and algebraic (AVG)
//! functions, evaluated on *models* when the model type supports constant-
//! time aggregation and on reconstructed values otherwise.

use mdb_models::{crossing_range, ModelRegistry, SegmentAgg};
use mdb_storage::RollupAcc;
use mdb_types::{SegmentView, Value, ValueInterval};

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
///
/// Its terms are [`RollupAcc`]s: one per segment and series (a closed-form
/// aggregate, under a `Value` filter over the sub-range of ticks a
/// monotone model keeps, or a tick-order subtotal of the points the filter
/// keeps of any other model). The sum is exact over every term and rounded
/// once, in [`Accumulator::finalize`], and the extremes are order-free at
/// `±0.0`, so adding and merging are associative and commutative bit for
/// bit: an answer does not depend on how a scan is split or in which order
/// the partials meet.
#[derive(Debug, Clone)]
pub struct Accumulator {
    pub count: u64,
    sum: ExactSum,
    pub min: f64,
    pub max: f64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Self {
            count: 0,
            sum: ExactSum::Single(0.0),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Two accumulators are equal when every function finalizes alike.
impl PartialEq for Accumulator {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum().to_bits() == other.sum().to_bits()
            && self.min.to_bits() == other.min.to_bits()
            && self.max.to_bits() == other.max.to_bits()
    }
}

impl Accumulator {
    /// `initialize` of Algorithm 5.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one term in (the `iterate` step).
    pub fn add(&mut self, term: &RollupAcc) {
        self.count += term.count;
        self.sum.add(term.sum);
        self.min = lesser(self.min, term.min);
        self.max = greater(self.max, term.max);
    }

    /// Merges another accumulator (worker partials → master).
    pub fn merge(&mut self, other: &Accumulator) {
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.min = lesser(self.min, other.min);
        self.max = greater(self.max, other.max);
    }

    /// The sum of every term, correctly rounded.
    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    /// `finalize` of Algorithm 5.
    pub fn finalize(&self, func: AggFunc) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(match func {
            AggFunc::Count => self.count as f64,
            AggFunc::Sum => self.sum(),
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Avg => self.sum() / self.count as f64,
        })
    }
}

/// A per-range model aggregate as one term, un-scaling the values with the
/// series' scaling constant ("all aggregate functions divide the result by
/// the scaling constant of each time series as part of the iterate step",
/// Section 6.1). Its sum starts at `+0.0`, so it is never `-0.0`; a `NaN`
/// extreme is dropped, as every fold drops it.
pub(crate) fn term(agg: SegmentAgg, count: u64, scaling: f64) -> RollupAcc {
    let ends = (f64::from(agg.min) / scaling, f64::from(agg.max) / scaling);
    unscaled_term(count, agg.sum / scaling, ends)
}

/// The term of `count` un-scaled values summing to `sum` whose extremes
/// are `ends`, in either order (a negative scaling flips them).
fn unscaled_term(count: u64, sum: f64, (mut lo, mut hi): (f64, f64)) -> RollupAcc {
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    RollupAcc {
        count,
        sum: 0.0 + sum,
        min: f64::INFINITY.min(lo),
        max: f64::NEG_INFINITY.max(hi),
    }
}

/// The term of no point, which a tick-order fold starts from.
pub(crate) const EMPTY_TERM: RollupAcc = RollupAcc {
    count: 0,
    sum: 0.0,
    min: f64::INFINITY,
    max: f64::NEG_INFINITY,
};

/// The smaller of `a` and `b` whatever their order: `-0.0` below `+0.0`,
/// and a `NaN` loses to any number (`f64::min` leaves `±0.0` ties and a
/// `NaN` payload to the operand order).
fn lesser(a: f64, b: f64) -> f64 {
    if a == b {
        f64::from_bits(a.to_bits() | b.to_bits())
    } else {
        canonical(a.min(b))
    }
}

/// The larger of `a` and `b` whatever their order (see [`lesser`]).
fn greater(a: f64, b: f64) -> f64 {
    if a == b {
        f64::from_bits(a.to_bits() & b.to_bits())
    } else {
        canonical(a.max(b))
    }
}

/// `x`, with every `NaN` payload replaced by one.
fn canonical(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// An exact sum of `f64` terms: a plain `f64` while it holds at most one
/// nonzero term, so an untouched or single-term slot costs what a float
/// does, and a boxed [`Superaccumulator`] from the second.
#[derive(Debug, Clone)]
enum ExactSum {
    /// `+0.0`, or `+0.0` plus the one nonzero term.
    Single(f64),
    Many(Box<Superaccumulator>),
}

impl ExactSum {
    fn add(&mut self, term: f64) {
        match self {
            _ if term == 0.0 => {}
            ExactSum::Single(sum) if *sum == 0.0 => *sum = 0.0 + term,
            ExactSum::Single(sum) => {
                let mut many = Box::new(Superaccumulator::ZERO);
                many.add(*sum);
                many.add(term);
                *self = ExactSum::Many(many);
            }
            ExactSum::Many(many) => many.add(term),
        }
    }

    fn merge(&mut self, other: &ExactSum) {
        match (&mut *self, other) {
            (_, ExactSum::Single(term)) => self.add(*term),
            (ExactSum::Many(mine), ExactSum::Many(theirs)) => mine.merge(theirs),
            (ExactSum::Single(sum), ExactSum::Many(theirs)) => {
                let mut many = theirs.clone();
                many.add(*sum);
                *self = ExactSum::Many(many);
            }
        }
    }

    fn value(&self) -> f64 {
        match self {
            ExactSum::Single(sum) => canonical(*sum),
            ExactSum::Many(many) => many.value(),
        }
    }
}

/// Chunk `i` of a [`Superaccumulator`] weighs `2^(32·i − 1075)`: the low
/// five bits of a biased exponent are the shift inside a chunk, the high
/// six the chunk; 64 chunks cover every exponent and the rest hold carries.
const CHUNK_BITS: u32 = 32;
const CHUNK_MASK: i64 = (1 << CHUNK_BITS) - 1;
const CHUNKS: usize = 67;
/// Additions between carry propagations: each adds less than `2^52` to a
/// chunk, so 1023 of them and a normalized `2^32` stay far from `2^63`.
const CARRY_LIMIT: u32 = 1023;

/// Neal's small superaccumulator ("Fast exact summation using small and
/// large superaccumulators", arXiv:1505.05571): the exact sum of finite
/// terms as a fixed-point number of 67 signed 64-bit chunks. A term adds
/// its 53-bit mantissa, split at a chunk boundary, to two chunks, and
/// carries propagate only every [`CARRY_LIMIT`] additions. Non-finite terms
/// are summed apart, in `f64`, where their order cannot matter.
#[derive(Debug, Clone)]
struct Superaccumulator {
    chunks: [i64; CHUNKS],
    /// Additions (a merge counts the other's plus one) since carries last
    /// propagated.
    pending: u32,
    /// `+0.0`, or the sum of the non-finite terms: `±∞` or `NaN`.
    special: f64,
}

impl Superaccumulator {
    const ZERO: Self = Self {
        chunks: [0; CHUNKS],
        pending: 0,
        special: 0.0,
    };

    fn add(&mut self, term: f64) {
        if !term.is_finite() {
            self.special += term;
            return;
        }
        let bits = term.to_bits();
        let (biased, fraction) = ((bits >> 52) as u32 & 0x7ff, (bits & ((1 << 52) - 1)) as i64);
        // A subnormal has no implicit bit and the smallest normal exponent.
        let (biased, mantissa) = match biased {
            0 => (1, fraction),
            _ => (biased, fraction | 1 << 52),
        };
        if self.pending >= CARRY_LIMIT {
            normalize(&mut self.chunks);
            self.pending = 0;
        }
        self.pending += 1;
        let (shift, chunk) = (biased % CHUNK_BITS, (biased / CHUNK_BITS) as usize);
        let sign = if term < 0.0 { -1 } else { 1 };
        self.chunks[chunk] += sign * (((mantissa as u64) << shift) as i64 & CHUNK_MASK);
        self.chunks[chunk + 1] += sign * (mantissa >> (CHUNK_BITS - shift));
    }

    fn merge(&mut self, other: &Superaccumulator) {
        if self.pending + other.pending >= CARRY_LIMIT {
            normalize(&mut self.chunks);
            self.pending = 0;
        }
        self.pending += other.pending + 1;
        for (mine, theirs) in self.chunks.iter_mut().zip(&other.chunks) {
            *mine += theirs;
        }
        self.special += other.special;
    }

    /// The sum rounded to the nearest `f64`, ties to even; `+0.0` when it
    /// is zero.
    fn value(&self) -> f64 {
        if self.special != 0.0 {
            return canonical(self.special);
        }
        // Sign and magnitude: after a negation and another pass every chunk
        // is a digit in [0, 2^32) but the top one, which is non-negative.
        let mut chunks = self.chunks;
        normalize(&mut chunks);
        let negative = chunks[CHUNKS - 1] < 0;
        if negative {
            chunks.iter_mut().for_each(|c| *c = -*c);
            normalize(&mut chunks);
        }
        // The top three chunks hold at least 65 significant bits (or the
        // whole sum); a sticky bit below them breaks rounding ties, so one
        // correctly rounded cast rounds the sum. Scaling by a power of two
        // is then exact, down to subnormals, which this sum only reaches
        // when it fits the cast exactly.
        let top = chunks.iter().rposition(|&c| c != 0).unwrap_or(0);
        let bottom = top.saturating_sub(2);
        let digits = chunks[bottom..=top]
            .iter()
            .rev()
            .fold(0u128, |acc, &c| acc << CHUNK_BITS | c as u128);
        let sticky = chunks[..bottom].iter().any(|&c| c != 0);
        let exp = CHUNK_BITS as i32 * bottom as i32 - 1076;
        let magnitude =
            (digits << 1 | u128::from(sticky)) as f64 * pow2(exp / 2) * pow2(exp - exp / 2);
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// Propagates carries so that every chunk but the top one is a digit in
/// `[0, 2^32)`; the top one keeps the sign.
fn normalize(chunks: &mut [i64; CHUNKS]) {
    let mut carry = 0;
    for chunk in &mut chunks[..CHUNKS - 1] {
        let v = *chunk + carry;
        *chunk = v & CHUNK_MASK;
        carry = v >> CHUNK_BITS;
    }
    chunks[CHUNKS - 1] += carry;
}

/// `2^k` for a normal exponent `k`.
fn pow2(k: i32) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
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

    /// The term of the series at `series` over the ticks of `range` whose
    /// value passes `filter` once divided by `scaling`, without
    /// reconstructing the grid: for a monotone model
    /// ([`mdb_models::ModelType::monotone_value_at`]) the passing ticks are
    /// one sub-range ([`crossing_range`]), so their count is its length,
    /// their extremes are its end values, and their sum is the closed form
    /// over it. `None` when the model promises no monotone series (or has
    /// no closed form, or the scaling is `0` or not finite, which could make
    /// a value in the middle `NaN`): the caller then filters every point.
    pub(crate) fn crossing_term(
        &self,
        registry: &ModelRegistry,
        series: usize,
        range: (usize, usize),
        filter: &ValueInterval,
        scaling: f64,
    ) -> Option<RollupAcc> {
        if !scaling.is_finite() || scaling == 0.0 {
            return None;
        }
        let model = registry.get(self.segment.mid)?;
        let (params, n_series, count) = (self.segment.params, self.n_series, self.segment.len());
        let unscaled = |t| {
            let v = model.monotone_value_at(params, n_series, count, t, series)?;
            Some(f64::from(v) / scaling)
        };
        let Some(crossing) = crossing_range(range, filter, unscaled)? else {
            return Some(EMPTY_TERM);
        };
        let (a, b) = crossing.range;
        let sum = model.agg(params, n_series, count, (a, b), series)?.sum;
        Some(unscaled_term(
            (b - a + 1) as u64,
            sum / scaling,
            crossing.keys,
        ))
    }

    /// Aggregates the series at position-in-segment `series` over the tick
    /// index range `range` (inclusive), preferring the model's constant-time
    /// path and falling back to the reconstructed grid. `use_models = false`
    /// skips the constant-time model path and always reconstructs — the
    /// semantics of aggregates on the Data Point View, which the evaluation
    /// compares against the Segment View (Figures 19–20).
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

    /// The term of one point.
    fn point(v: f64) -> RollupAcc {
        RollupAcc {
            count: 1,
            sum: v,
            min: v,
            max: v,
        }
    }

    #[test]
    fn accumulator_finalizes_every_function() {
        let mut acc = Accumulator::new();
        for v in [1.0f32, 2.0, 3.0, 4.0] {
            acc.add(&point(f64::from(v)));
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
            whole.add(&point(f64::from(v)));
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &v in &values[..3] {
            left.add(&point(f64::from(v)));
        }
        for &v in &values[3..] {
            right.add(&point(f64::from(v)));
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn scaling_is_divided_out_in_iterate() {
        // Stored value 9.5 with scaling 4.75 is raw value 2.0 (Figure 6's
        // Scaling column).
        let mut acc = Accumulator::new();
        acc.add(&term(
            SegmentAgg {
                sum: 19.0,
                min: 9.5,
                max: 9.5,
            },
            2,
            4.75,
        ));
        assert_eq!(acc.finalize(AggFunc::Avg), Some(2.0));
        assert_eq!(acc.finalize(AggFunc::Min), Some(2.0));
    }

    #[test]
    fn negative_scaling_flips_extremes() {
        let mut acc = Accumulator::new();
        acc.add(&term(
            SegmentAgg {
                sum: 10.0,
                min: 1.0,
                max: 5.0,
            },
            2,
            -1.0,
        ));
        assert_eq!(acc.finalize(AggFunc::Min), Some(-5.0));
        assert_eq!(acc.finalize(AggFunc::Max), Some(-1.0));
    }

    /// A slot accumulator over `terms`, each one point.
    fn summed(terms: &[f64]) -> Accumulator {
        let mut acc = Accumulator::new();
        for &t in terms {
            acc.add(&point(t));
        }
        acc
    }

    /// `terms` permuted by `seed`, cut into pieces at `seed`'s choosing,
    /// each piece summed on its own, and the pieces merged in another
    /// order.
    fn scattered(terms: &[f64], seed: u64) -> Accumulator {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        let mut shuffled = terms.to_vec();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, next() % (i + 1));
        }
        let mut pieces = Vec::new();
        let mut rest = &shuffled[..];
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(1 + next() % rest.len());
            pieces.push(summed(piece));
            rest = tail;
        }
        let mut total = Accumulator::new();
        while !pieces.is_empty() {
            total.merge(&pieces.swap_remove(next() % pieces.len()));
        }
        total
    }

    /// A term of one of eight kinds: any bit pattern, a moderate value, a
    /// subnormal, a huge value, `±0.0`, an infinity, a `NaN` with some
    /// payload, or the negation of the previous term (cancellation).
    fn any_term(kind: u8, bits: u64, previous: Option<f64>) -> f64 {
        let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
        match kind {
            0 => f64::from_bits(bits),
            1 => (bits >> 11) as f64 * sign * 2f64.powi((bits % 64) as i32 - 32),
            2 => f64::from_bits(bits & ((1 << 52) - 1)) * sign,
            3 => f64::MAX / (1 + bits % 8) as f64 * sign,
            4 => 0.0 * sign,
            5 => f64::INFINITY * sign,
            6 => f64::from_bits(0x7ff0_0000_0000_0001 | bits >> 13),
            _ => previous.map_or(1.0, |p| -p),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn exact_sum_does_not_depend_on_partition_or_order(
            raw in proptest::collection::vec((0u8..8, proptest::num::u64::ANY), 1..48),
            seeds in proptest::collection::vec(proptest::num::u64::ANY, 3),
        ) {
            let mut terms: Vec<f64> = Vec::new();
            for &(kind, bits) in &raw {
                terms.push(any_term(kind, bits, terms.last().copied()));
            }
            let reference = summed(&terms);
            for &seed in &seeds {
                let other = scattered(&terms, seed);
                proptest::prop_assert_eq!(other.count, reference.count);
                proptest::prop_assert_eq!(other.sum().to_bits(), reference.sum().to_bits(), "{:?}", terms);
                proptest::prop_assert_eq!(other.min.to_bits(), reference.min.to_bits(), "{:?}", terms);
                proptest::prop_assert_eq!(other.max.to_bits(), reference.max.to_bits(), "{:?}", terms);
            }
            // Two finite terms round once, as one IEEE addition does (but
            // never to `-0.0`); and
            // `a + b − fl(a + b)` is the addition's exact error.
            if let [a, b, ..] = terms[..] {
                let s = a + b;
                if s.is_finite() {
                    proptest::prop_assert_eq!(summed(&[a, b]).sum().to_bits(), (0.0 + s).to_bits());
                    let bb = s - a;
                    let error = (a - (s - bb)) + (b - bb);
                    let exact = summed(&[a, b, -s]).sum();
                    proptest::prop_assert_eq!(exact.to_bits(), (0.0 + error).to_bits(), "{} {}", a, b);
                }
            }
        }

        #[test]
        fn integer_terms_sum_like_i128(
            ints in proptest::collection::vec(-(1i64 << 53) + 1..1i64 << 53, 1..200),
            seed in proptest::num::u64::ANY,
        ) {
            let terms: Vec<f64> = ints.iter().map(|&i| i as f64).collect();
            let exact: i128 = ints.iter().map(|&i| i128::from(i)).sum();
            proptest::prop_assert_eq!(summed(&terms).sum().to_bits(), (exact as f64).to_bits());
            proptest::prop_assert_eq!(scattered(&terms, seed).sum().to_bits(), (exact as f64).to_bits());
        }
    }

    #[test]
    fn exact_sum_rounds_once_to_nearest_even() {
        let half_ulp = 2f64.powi(-53);
        // A tie rounds to even; anything below the tie breaks it upwards.
        assert_eq!(summed(&[1.0, half_ulp]).sum(), 1.0);
        assert_eq!(
            summed(&[1.0, half_ulp, 2f64.powi(-200)]).sum(),
            1.0 + 2.0 * half_ulp
        );
        // No intermediate overflow, and cancellation down to subnormals.
        assert_eq!(summed(&[f64::MAX, f64::MAX, -f64::MAX]).sum(), f64::MAX);
        assert_eq!(summed(&[f64::MAX, f64::MAX]).sum(), f64::INFINITY);
        let tiny = f64::from_bits(1);
        assert_eq!(summed(&[1e300, tiny, -1e300]).sum(), tiny);
        assert_eq!(summed(&[-1e300, -tiny, 1e300]).sum(), -tiny);
        // Carries propagate past the limit without loss.
        let many = vec![0.1; 5000];
        let expected = (0..5000).map(|_| 0.1f64).fold(0.0, |a, b| a + b);
        assert!((summed(&many).sum() - expected).abs() < 1e-9);
        assert_eq!(summed(&many).sum(), scattered(&many, 7).sum());
        // Non-finite terms.
        assert!(summed(&[1.0, f64::INFINITY, f64::NEG_INFINITY])
            .sum()
            .is_nan());
        assert_eq!(summed(&[1.0, f64::NEG_INFINITY]).sum(), f64::NEG_INFINITY);
    }

    #[test]
    fn zero_sums_are_positive_and_extremes_ignore_order() {
        for terms in [
            &[0.0, -0.0][..],
            &[-0.0],
            &[-0.0, -0.0, -0.0],
            &[5.0, -5.0],
            &[1e300, 3.0, -1e300, -3.0],
        ] {
            let sum = summed(terms).finalize(AggFunc::Sum).unwrap();
            assert_eq!(sum.to_bits(), 0.0f64.to_bits(), "{terms:?}");
        }
        for (a, b) in [(0.0, -0.0), (-0.0, 0.0)] {
            let acc = summed(&[a, b, f64::NAN]);
            assert_eq!(acc.min.to_bits(), (-0.0f64).to_bits());
            assert_eq!(acc.max.to_bits(), 0.0f64.to_bits());
        }
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
        let agg = cursor.aggregate_with(&registry, 1, (0, 9), true).unwrap();
        assert_eq!(agg.sum, 25.0);
        // The constant-time path never materialized the grid.
        assert!(cursor.decoded.is_none());
        // Sub-range.
        let agg = cursor.aggregate_with(&registry, 0, (2, 4), true).unwrap();
        assert_eq!(agg.sum, 7.5);
        // Out-of-range is rejected.
        assert!(cursor.aggregate_with(&registry, 0, (5, 20), true).is_none());
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
        let agg = cursor.aggregate_with(&registry, 0, (0, 2), true).unwrap();
        assert_eq!(agg.sum, 9.0);
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 5.0);
        let agg = cursor.aggregate_with(&registry, 1, (1, 2), true).unwrap();
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
