//! Mergeable per-group sketches kept beside the block log (ROADMAP Open
//! item 2).
//!
//! Three sketches answer the query classes block statistics cannot —
//! quantiles, distinct counts, and heavy hitters — from statistics alone, so
//! a sketch query never fetches a segment body. A store keeps one running
//! sketch per group: every inserted segment's points go straight into it,
//! and the sidecar persists it.
//!
//! * [`QuantileSketch`] — a DDSketch-style fixed-γ logarithmic histogram
//!   (the non-collapsing core of UDDSketch) with relative value error
//!   [`QUANTILE_RELATIVE_ERROR`] at any rank;
//! * [`DistinctSketch`] — a HyperLogLog with 2^12 registers and
//!   linear-counting small-range correction, relative error
//!   [`DISTINCT_RELATIVE_ERROR`];
//! * [`TopKSketch`] — a count-min sketch plus an exact candidate key set;
//!   `top_k` selects by estimate through a heap, and estimates overcount by
//!   at most [`TOPK_COUNT_ERROR`] × total weight (never undercount).
//!
//! **Merge invariance is the load-bearing property.** Every sketch's state
//! is built exclusively from commutative, associative, keyed operations
//! (counter adds, register maxima, set unions) over canonical ordered maps,
//! and serialization is a pure function of that state. Merging *any*
//! partition of the same updates — any split points, any order, any nesting
//! — therefore yields bit-identical bytes, which is what makes scatter-
//! gather across workers, replica scoping, and block-boundary changes
//! (handoffs re-batch blocks) safe: the answer cannot depend on where the
//! data happened to live. This is also why the quantile sketch deliberately
//! does **not** adopt UDDSketch's adaptive bucket collapsing: collapse
//! timing depends on insertion order and would break the invariant.
//!
//! The crate has no dependencies (vendored-shim discipline) and no floats
//! in sketch *state* — floats appear only in estimates computed at query
//! time, so `Eq` is exact and serialized bytes are canonical.
//!
//! Memory: state is sparse (`BTreeMap`/`BTreeSet`), so a sketch over one
//! group's values costs O(occupied quantile buckets + distinct keys) — typically a few hundred entries, a few KiB serialized — not the
//! dense 2^12 + depth×width arrays the parameters suggest.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Relative value error of [`QuantileSketch::quantile`]: the returned value
/// `v` satisfies `|v − x| ≤ QUANTILE_RELATIVE_ERROR × |x|` where `x` is the
/// exact nearest-rank quantile (plus [`QUANTILE_ZERO_THRESHOLD`] absolute
/// slack for values collapsed into the zero bucket). Tests import this
/// constant, so the documented bound cannot drift from the tested one.
pub const QUANTILE_RELATIVE_ERROR: f64 = 0.01;

/// Magnitudes at or below this are stored in the exact zero bucket (a
/// logarithmic histogram cannot bucket 0 itself); it is also the absolute
/// error floor of quantile answers.
pub const QUANTILE_ZERO_THRESHOLD: f64 = 1e-9;

/// Relative error bound of [`DistinctSketch::estimate`] used by the
/// accuracy tests: `|estimate − n| ≤ max(1, DISTINCT_RELATIVE_ERROR × n)`.
/// With 2^12 registers the typical HyperLogLog error is 1.04/√4096 ≈ 1.6%;
/// 5% is the conservative bound we pin, and small cardinalities use
/// linear counting which is far more accurate still.
pub const DISTINCT_RELATIVE_ERROR: f64 = 0.05;

/// Overcount bound of [`TopKSketch::estimate`] as a fraction of the total
/// inserted weight: `true ≤ estimate ≤ true + TOPK_COUNT_ERROR × total`.
/// (Count-min never undercounts; the min over [`CM_DEPTH`] rows bounds the
/// collision overcount.)
pub const TOPK_COUNT_ERROR: f64 = CM_DEPTH as f64 / CM_WIDTH as f64;

/// HyperLogLog precision: 2^12 = 4096 registers.
pub const HLL_PRECISION: u32 = 12;
const HLL_REGISTERS: u64 = 1 << HLL_PRECISION;

/// Count-min rows (independent hash functions).
pub const CM_DEPTH: usize = 4;
/// Count-min columns per row.
pub const CM_WIDTH: usize = 1024;

/// SplitMix64: a strong, cheap, dependency-free mixer; the single hash
/// family behind both the HyperLogLog and the count-min rows.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-row seeds for the count-min hashes (arbitrary odd constants).
const CM_ROW_SEEDS: [u64; CM_DEPTH] = [
    0xA076_1D64_78BD_642F,
    0xE703_7ED1_A0B4_28DB,
    0x8EBC_6AF0_9C88_C6E3,
    0x5899_65CC_7537_4CC3,
];

// ------------------------------------------------------------ quantiles --

/// A fixed-γ logarithmic histogram over signed values: bucket `i > 0` holds
/// magnitudes in `(γ^(i−1), γ^i]` with γ = (1+α)/(1−α) and
/// α = [`QUANTILE_RELATIVE_ERROR`], so the bucket midpoint (in log space)
/// is within relative α of every member. Negative values mirror into their
/// own bucket map; near-zero values get an exact zero bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Values with `|v| ≤ QUANTILE_ZERO_THRESHOLD`.
    zero: u64,
    /// Bucket index → count for negative values (indexed by magnitude).
    neg: BTreeMap<i32, u64>,
    /// Bucket index → count for positive values.
    pos: BTreeMap<i32, u64>,
}

fn gamma() -> f64 {
    (1.0 + QUANTILE_RELATIVE_ERROR) / (1.0 - QUANTILE_RELATIVE_ERROR)
}

/// `ln γ`, computed once: the bucket index divides by it for every value.
fn ln_gamma() -> f64 {
    static LN_GAMMA: OnceLock<f64> = OnceLock::new();
    *LN_GAMMA.get_or_init(|| gamma().ln())
}

/// Bucket index of a magnitude `a > QUANTILE_ZERO_THRESHOLD`.
fn bucket_of(a: f64, ln_gamma: f64) -> i32 {
    (a.ln() / ln_gamma).ceil() as i32
}

/// How many buckets [`QuantileSketch::insert_run`] counts densely around a
/// run's first bucket: γ^64 ≈ 3.6, so a run whose magnitudes stay within
/// ×/÷3.6 of its first value never touches the bucket map per value.
const RUN_WINDOW: usize = 128;

/// Dense per-run bucket counts for one sign, flushed into the bucket map
/// once per occupied bucket.
struct RunWindow {
    /// Bucket index of `counts[0]`: the first counted bucket places the
    /// window around itself.
    base: Option<i32>,
    counts: [u64; RUN_WINDOW],
    /// The occupied counters lie in `occupied.0..=occupied.1`.
    occupied: (usize, usize),
}

impl RunWindow {
    fn new() -> Self {
        Self {
            base: None,
            counts: [0; RUN_WINDOW],
            occupied: (RUN_WINDOW, 0),
        }
    }

    /// Counts one value in `bucket`; `false` when it lies outside the window.
    fn count(&mut self, bucket: i32) -> bool {
        let base = *self
            .base
            .get_or_insert(bucket.saturating_sub(RUN_WINDOW as i32 / 2));
        // A bucket below the base wraps to a huge offset and misses too.
        let offset = bucket.wrapping_sub(base) as u32 as usize;
        let inside = offset < RUN_WINDOW;
        if inside {
            self.counts[offset] += 1;
            self.occupied = (self.occupied.0.min(offset), self.occupied.1.max(offset));
        }
        inside
    }

    /// Adds the window's counts to `map`. Buckets the map already holds
    /// are updated in one in-order walk over that key range — the steady
    /// state once a sketch has seen a series' usual magnitudes — and only
    /// new buckets pay a tree descent each.
    fn flush_into(mut self, map: &mut BTreeMap<i32, u64>) {
        let (lo, hi) = self.occupied;
        let Some(base) = self.base else {
            return;
        };
        let bucket_at = |offset: usize| base + offset as i32;
        for (&bucket, count) in map.range_mut(bucket_at(lo)..=bucket_at(hi)) {
            *count += std::mem::take(&mut self.counts[(bucket - base) as usize]);
        }
        for offset in lo..=hi {
            if self.counts[offset] > 0 {
                map.insert(bucket_at(offset), self.counts[offset]);
            }
        }
    }
}

/// Representative value of bucket `i`: the γ-midpoint of `(γ^(i−1), γ^i]`.
fn representative(i: i32) -> f64 {
    let g = gamma();
    ((f64::from(i) - 1.0) * g.ln()).exp() * (1.0 + g) / 2.0
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value. Non-finite values are ignored — they have no
    /// rank on the real line (reconstructed segment values are finite).
    pub fn insert(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let magnitude = value.abs();
        if magnitude <= QUANTILE_ZERO_THRESHOLD {
            self.zero += 1;
        } else if value > 0.0 {
            *self
                .pos
                .entry(bucket_of(magnitude, ln_gamma()))
                .or_insert(0) += 1;
        } else {
            *self
                .neg
                .entry(bucket_of(magnitude, ln_gamma()))
                .or_insert(0) += 1;
        }
    }

    /// Records a run of values — one series' reconstructed points, say —
    /// leaving the sketch exactly as [`QuantileSketch::insert`] on each
    /// value would. The bucket index is the same function of the value; the
    /// run only changes the bookkeeping: a value equal to its predecessor
    /// reuses that bucket without another logarithm, counts accumulate in a
    /// dense window around the run's first bucket, and the bucket map is
    /// touched once per occupied bucket instead of once per value. Buckets
    /// outside the window (a run spanning more than ×/÷3.6) fall back to the
    /// map per value.
    pub fn insert_run(&mut self, values: impl IntoIterator<Item = f64>) {
        let ln_gamma = ln_gamma();
        // Positive values count in the first window, negative in the second.
        let mut windows = [RunWindow::new(), RunWindow::new()];
        // The previous value's magnitude bits and bucket (a magnitude of 0.0
        // lands in the zero bucket above, so the initial entry never hits).
        let mut previous = (0u64, 0i32);
        for value in values {
            if !value.is_finite() {
                continue;
            }
            let magnitude = value.abs();
            if magnitude <= QUANTILE_ZERO_THRESHOLD {
                self.zero += 1;
                continue;
            }
            if magnitude.to_bits() != previous.0 {
                previous = (magnitude.to_bits(), bucket_of(magnitude, ln_gamma));
            }
            let bucket = previous.1;
            let negative = value < 0.0;
            if !windows[usize::from(negative)].count(bucket) {
                let map = if negative {
                    &mut self.neg
                } else {
                    &mut self.pos
                };
                *map.entry(bucket).or_insert(0) += 1;
            }
        }
        let [pos, neg] = windows;
        pos.flush_into(&mut self.pos);
        neg.flush_into(&mut self.neg);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.zero + self.neg.values().sum::<u64>() + self.pos.values().sum::<u64>()
    }

    /// The nearest-rank `q`-percentile (`q` in `[0, 100]`): the value at
    /// rank `⌈q/100 × n⌉` (clamped to `[1, n]`) in ascending order, within
    /// [`QUANTILE_RELATIVE_ERROR`] relative error. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 || !(0.0..=100.0).contains(&q) {
            return None;
        }
        let rank = ((q / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        // Ascending value order: most-negative first (negative buckets by
        // descending magnitude index), then zero, then positives ascending.
        for (&idx, &count) in self.neg.iter().rev() {
            cum += count;
            if cum >= rank {
                return Some(-representative(idx));
            }
        }
        cum += self.zero;
        if cum >= rank {
            return Some(0.0);
        }
        for (&idx, &count) in self.pos.iter() {
            cum += count;
            if cum >= rank {
                return Some(representative(idx));
            }
        }
        unreachable!("rank {rank} exceeds count {n}")
    }

    /// Adds `other`'s counts into `self` (commutative, associative).
    pub fn merge(&mut self, other: &Self) {
        self.zero += other.zero;
        for (&idx, &count) in &other.neg {
            *self.neg.entry(idx).or_insert(0) += count;
        }
        for (&idx, &count) in &other.pos {
            *self.pos.entry(idx).or_insert(0) += count;
        }
    }

    /// Occupied buckets (for memory accounting).
    pub fn buckets(&self) -> usize {
        self.neg.len() + self.pos.len() + usize::from(self.zero > 0)
    }
}

// ------------------------------------------------------- distinct count --

/// A sparse HyperLogLog over `u64` keys: 2^[`HLL_PRECISION`] registers,
/// each holding the maximum observed leading-zero rank of the hashed key's
/// suffix. Merge is a per-register maximum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistinctSketch {
    /// Register index → rank; absent registers are 0.
    registers: BTreeMap<u16, u8>,
}

impl DistinctSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one key (duplicates are free).
    pub fn insert(&mut self, key: u64) {
        let h = splitmix64(key);
        let idx = (h >> (64 - HLL_PRECISION)) as u16;
        let suffix = h << HLL_PRECISION;
        let rank = (suffix.leading_zeros() + 1).min(64 - HLL_PRECISION + 1) as u8;
        let slot = self.registers.entry(idx).or_insert(0);
        *slot = (*slot).max(rank);
    }

    /// Estimated number of distinct keys, with the standard linear-counting
    /// correction for small cardinalities.
    pub fn estimate(&self) -> f64 {
        let m = HLL_REGISTERS as f64;
        let occupied = self.registers.len() as f64;
        let zero_registers = m - occupied;
        let sum: f64 = zero_registers
            + self
                .registers
                .values()
                .map(|&r| (-f64::from(r)).exp2())
                .sum::<f64>();
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zero_registers > 0.0 {
            m * (m / zero_registers).ln()
        } else {
            raw
        }
    }

    /// Takes the per-register maximum of `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (&idx, &rank) in &other.registers {
            let slot = self.registers.entry(idx).or_insert(0);
            *slot = (*slot).max(rank);
        }
    }

    /// Occupied registers (for memory accounting).
    pub fn registers(&self) -> usize {
        self.registers.len()
    }
}

// ------------------------------------------------------------ heavy hits --

/// Count-min sketch plus an exact candidate key set. The counters bound
/// each key's weight from above (collisions only add); the candidate set —
/// a union-merged `BTreeSet`, bounded in this system by the keys per group
/// — lets `top_k` enumerate without external knowledge of the key universe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopKSketch {
    /// Flattened `row × CM_WIDTH + column` → weight; absent counters are 0.
    counters: BTreeMap<u32, u64>,
    /// Every key ever inserted.
    candidates: BTreeSet<u32>,
}

fn cm_cell(key: u32, row: usize) -> u32 {
    let h = splitmix64(u64::from(key) ^ CM_ROW_SEEDS[row]);
    (row * CM_WIDTH) as u32 + (h % CM_WIDTH as u64) as u32
}

impl TopKSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `weight` to `key`'s count.
    pub fn add(&mut self, key: u32, weight: u64) {
        for row in 0..CM_DEPTH {
            *self.counters.entry(cm_cell(key, row)).or_insert(0) += weight;
        }
        self.candidates.insert(key);
    }

    /// Upper-bound estimate of `key`'s total weight (exact when no key
    /// collides with it in every row).
    pub fn estimate(&self, key: u32) -> u64 {
        (0..CM_DEPTH)
            .map(|row| self.counters.get(&cm_cell(key, row)).copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
    }

    /// The `k` heaviest candidates as `(key, estimated weight)`, ordered by
    /// weight descending with ascending key as the deterministic tie-break.
    pub fn top_k(&self, k: usize) -> Vec<(u32, u64)> {
        // The candidate set is small (keys per group), so a full sort is
        // the clearest heap.
        let mut heap: Vec<(u32, u64)> = self
            .candidates
            .iter()
            .map(|&key| (key, self.estimate(key)))
            .collect();
        heap.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        heap.truncate(k);
        heap
    }

    /// Adds `other`'s counters and candidates into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (&cell, &weight) in &other.counters {
            *self.counters.entry(cell).or_insert(0) += weight;
        }
        self.candidates.extend(other.candidates.iter().copied());
    }

    /// Candidate keys tracked (for memory accounting).
    pub fn candidates(&self) -> usize {
        self.candidates.len()
    }
}

// ---------------------------------------------------------- block sketch --

/// Serialization format version of [`BlockSketch::to_bytes`].
pub const SKETCH_FORMAT_VERSION: u8 = 1;

/// The sketch triple one group carries (over one block, or running over
/// the whole log):
/// quantiles over reconstructed values, distinct keys, and per-key weights.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockSketch {
    /// Quantiles over every reconstructed data-point value.
    pub quantiles: QuantileSketch,
    /// Distinct inserted keys (time series ids).
    pub distinct: DistinctSketch,
    /// Per-key weights (data points per time series id).
    pub topk: TopKSketch,
}

impl BlockSketch {
    /// An empty sketch triple.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges `other` into `self`; commutative and associative, so any
    /// merge tree over the same updates produces identical state.
    pub fn merge(&mut self, other: &Self) {
        self.quantiles.merge(&other.quantiles);
        self.distinct.merge(&other.distinct);
        self.topk.merge(&other.topk);
    }

    /// Canonical serialization: a pure function of the (ordered) state, so
    /// equal sketches always produce identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![SKETCH_FORMAT_VERSION];
        let q = &self.quantiles;
        put_varint(&mut out, q.zero);
        put_varint(&mut out, q.neg.len() as u64);
        for (&idx, &count) in &q.neg {
            put_varint(&mut out, zigzag(i64::from(idx)));
            put_varint(&mut out, count);
        }
        put_varint(&mut out, q.pos.len() as u64);
        for (&idx, &count) in &q.pos {
            put_varint(&mut out, zigzag(i64::from(idx)));
            put_varint(&mut out, count);
        }
        let d = &self.distinct;
        put_varint(&mut out, d.registers.len() as u64);
        for (&idx, &rank) in &d.registers {
            put_varint(&mut out, u64::from(idx));
            out.push(rank);
        }
        let t = &self.topk;
        put_varint(&mut out, t.counters.len() as u64);
        for (&cell, &weight) in &t.counters {
            put_varint(&mut out, u64::from(cell));
            put_varint(&mut out, weight);
        }
        put_varint(&mut out, t.candidates.len() as u64);
        for &key in &t.candidates {
            put_varint(&mut out, u64::from(key));
        }
        out
    }

    /// Parses [`BlockSketch::to_bytes`] output. `None` on any structural
    /// problem: wrong version, truncation, trailing bytes, out-of-range
    /// indices, or non-canonical (unsorted/duplicate) entries — a parsed
    /// sketch always re-serializes to the identical bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut cur = Reader { bytes, pos: 0 };
        if cur.u8()? != SKETCH_FORMAT_VERSION {
            return None;
        }
        let mut sketch = BlockSketch::new();
        sketch.quantiles.zero = cur.varint()?;
        for map in [&mut sketch.quantiles.neg, &mut sketch.quantiles.pos] {
            let n = cur.varint()?;
            let mut prev: Option<i32> = None;
            for _ in 0..n {
                let idx = i32::try_from(unzigzag(cur.varint()?)).ok()?;
                if prev.is_some_and(|p| p >= idx) {
                    return None;
                }
                prev = Some(idx);
                let count = cur.varint()?;
                if count == 0 {
                    return None;
                }
                map.insert(idx, count);
            }
        }
        let n = cur.varint()?;
        let mut prev: Option<u16> = None;
        for _ in 0..n {
            let idx = u16::try_from(cur.varint()?).ok()?;
            if u64::from(idx) >= HLL_REGISTERS || prev.is_some_and(|p| p >= idx) {
                return None;
            }
            prev = Some(idx);
            let rank = cur.u8()?;
            if rank == 0 || u32::from(rank) > 64 - HLL_PRECISION + 1 {
                return None;
            }
            sketch.distinct.registers.insert(idx, rank);
        }
        let n = cur.varint()?;
        let mut prev: Option<u32> = None;
        for _ in 0..n {
            let cell = u32::try_from(cur.varint()?).ok()?;
            if cell as usize >= CM_DEPTH * CM_WIDTH || prev.is_some_and(|p| p >= cell) {
                return None;
            }
            prev = Some(cell);
            let weight = cur.varint()?;
            if weight == 0 {
                return None;
            }
            sketch.topk.counters.insert(cell, weight);
        }
        let n = cur.varint()?;
        let mut prev: Option<u32> = None;
        for _ in 0..n {
            let key = u32::try_from(cur.varint()?).ok()?;
            if prev.is_some_and(|p| p >= key) {
                return None;
            }
            prev = Some(key);
            sketch.topk.candidates.insert(key);
        }
        cur.at_end().then_some(sketch)
    }
}

// ------------------------------------------------------- varint helpers --

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return Some(v);
            }
        }
        None
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exact nearest-rank percentile over a sorted copy, mirroring the
    /// convention documented on [`QuantileSketch::quantile`].
    fn exact_quantile(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as u64;
        let rank = ((q / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        sorted[rank as usize - 1]
    }

    fn quantile_close(approx: f64, exact: f64) -> bool {
        (approx - exact).abs()
            <= QUANTILE_RELATIVE_ERROR * exact.abs() * (1.0 + 1e-9) + QUANTILE_ZERO_THRESHOLD
    }

    #[test]
    fn quantile_empty_is_none() {
        assert_eq!(QuantileSketch::new().quantile(50.0), None);
        assert_eq!(DistinctSketch::new().estimate().round(), 0.0);
        assert!(TopKSketch::new().top_k(3).is_empty());
    }

    #[test]
    fn quantile_single_value() {
        let mut s = QuantileSketch::new();
        s.insert(42.5);
        for q in [0.0, 50.0, 100.0] {
            assert!(quantile_close(s.quantile(q).unwrap(), 42.5));
        }
    }

    #[test]
    fn quantile_signed_and_zero_values() {
        let values: Vec<f64> = (-50..=50).map(|i| f64::from(i) * 0.7).collect();
        let mut s = QuantileSketch::new();
        for &v in &values {
            s.insert(v);
        }
        for q in [0.0, 1.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let exact = exact_quantile(&values, q);
            let approx = s.quantile(q).unwrap();
            assert!(
                quantile_close(approx, exact),
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn distinct_is_near_exact_for_small_cardinalities() {
        for n in [1u64, 10, 100, 1000, 4000] {
            let mut s = DistinctSketch::new();
            for key in 0..n {
                s.insert(key);
                s.insert(key); // duplicates must not count
            }
            let est = s.estimate();
            let err = (est - n as f64).abs();
            assert!(
                err <= (DISTINCT_RELATIVE_ERROR * n as f64).max(1.0),
                "n={n}: estimate {est}"
            );
        }
    }

    /// For key universes up to 4096, no two keys collide in *every*
    /// count-min row, so estimates — and therefore `top_k` — are exact.
    /// This pins the hash family: if the seeds change and a full collision
    /// appears, this fails loudly instead of silently degrading top-k.
    #[test]
    fn no_full_count_min_collisions_for_small_key_universes() {
        let cells: Vec<[u32; CM_DEPTH]> = (0u32..4096)
            .map(|key| std::array::from_fn(|row| cm_cell(key, row)))
            .collect();
        let mut by_row0: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, c) in cells.iter().enumerate() {
            by_row0.entry(c[0]).or_default().push(i);
        }
        for group in by_row0.values() {
            for (a, &i) in group.iter().enumerate() {
                for &j in &group[a + 1..] {
                    assert!(
                        (1..CM_DEPTH).any(|row| cells[i][row] != cells[j][row]),
                        "keys {i} and {j} collide in every row"
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_orders_by_weight_then_key() {
        let mut s = TopKSketch::new();
        s.add(7, 100);
        s.add(3, 250);
        s.add(9, 100);
        s.add(1, 5);
        assert_eq!(s.top_k(3), vec![(3, 250), (7, 100), (9, 100)]);
        assert_eq!(s.top_k(10).len(), 4);
        assert_eq!(s.estimate(3), 250);
    }

    #[test]
    fn serialization_round_trips_and_rejects_mutations() {
        let mut s = BlockSketch::new();
        for i in 0..200u32 {
            s.quantiles.insert(f64::from(i) - 55.5);
            s.distinct.insert(u64::from(i % 37));
            s.topk.add(i % 37, u64::from(i));
        }
        let bytes = s.to_bytes();
        let back = BlockSketch::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, s);
        assert_eq!(back.to_bytes(), bytes);
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x2C;
            if let Some(parsed) = BlockSketch::from_bytes(&bad) {
                // A surviving mutation must decode to a canonical sketch
                // that re-serializes to exactly the mutated bytes (the
                // mutation hit a value, not the structure).
                assert_eq!(parsed.to_bytes(), bad, "byte {pos}");
            }
        }
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(BlockSketch::from_bytes(&bytes[..cut]), None, "cut {cut}");
        }
    }

    /// One update stream applied through an arbitrary partition/merge tree.
    fn apply(updates: &[(f64, u32, u64)]) -> BlockSketch {
        let mut s = BlockSketch::new();
        for &(value, key, weight) in updates {
            s.quantiles.insert(value);
            s.distinct.insert(u64::from(key));
            s.topk.add(key, weight);
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn merging_any_partition_is_bit_identical(
            updates in proptest::collection::vec(
                (-1.0e4f64..1.0e4, 0u32..600, 1u64..50),
                1..200,
            ),
            cuts in proptest::collection::btree_set(1usize..199, 0..6),
            rotate in 0usize..200,
            pair_up in proptest::bool::ANY,
        ) {
            let reference = apply(&updates).to_bytes();

            // Random split points → chunks; random rotation of chunk order;
            // random merge nesting (fold vs pairwise tree).
            let mut bounds: Vec<usize> =
                cuts.into_iter().filter(|&c| c < updates.len()).collect();
            bounds.push(updates.len());
            let mut chunks = Vec::new();
            let mut start = 0;
            for b in bounds {
                chunks.push(apply(&updates[start..b]));
                start = b;
            }
            if !chunks.is_empty() {
                let r = rotate % chunks.len();
                chunks.rotate_left(r);
            }
            let merged = if pair_up {
                // Pairwise tree: merge adjacent pairs until one remains.
                let mut level = chunks;
                while level.len() > 1 {
                    let mut next = Vec::new();
                    for pair in level.chunks(2) {
                        let mut acc = pair[0].clone();
                        if let Some(rhs) = pair.get(1) {
                            acc.merge(rhs);
                        }
                        next.push(acc);
                    }
                    level = next;
                }
                level.pop().unwrap_or_default()
            } else {
                let mut acc = BlockSketch::new();
                for chunk in &chunks {
                    acc.merge(chunk);
                }
                acc
            };
            prop_assert_eq!(merged.to_bytes(), reference);
        }

        // The run insert is bookkeeping only: whatever mix of signs,
        // near-zero, non-finite and repeated values a run holds, and
        // however far it strays from the dense window around its first
        // bucket, the sketch equals the one built value by value.
        #[test]
        fn insert_run_equals_repeated_insert(
            runs in proptest::collection::vec(
                proptest::collection::vec(
                    (0usize..8, -1.0f64..1.0, -30i32..30, proptest::bool::ANY),
                    0..120,
                ),
                1..4,
            ),
        ) {
            let mut by_run = QuantileSketch::new();
            let mut by_value = QuantileSketch::new();
            for run in &runs {
                let mut previous = 0.0;
                let values: Vec<f64> = run
                    .iter()
                    .map(|&(kind, unit, exponent, repeat)| {
                        let value = match kind {
                            0 => f64::NAN,
                            1 => f64::INFINITY * unit.signum(),
                            2 => unit * QUANTILE_ZERO_THRESHOLD,
                            // Up to 60 decades apart: far outside the window.
                            3 => unit * 10f64.powi(exponent),
                            // Within a few buckets of 20, either sign.
                            _ => (20.0 + unit) * if exponent < 0 { -1.0 } else { 1.0 },
                        };
                        previous = if repeat { previous } else { value };
                        previous
                    })
                    .collect();
                by_run.insert_run(values.iter().copied());
                for &value in &values {
                    by_value.insert(value);
                }
            }
            prop_assert_eq!(by_run, by_value);
        }

        #[test]
        fn quantiles_stay_within_documented_error(
            values in proptest::collection::vec(-1.0e5f64..1.0e5, 1..400),
            q in 0.0f64..100.0,
        ) {
            let mut s = QuantileSketch::new();
            for &v in &values {
                s.insert(v);
            }
            let exact = exact_quantile(&values, q);
            let approx = s.quantile(q).unwrap();
            prop_assert!(
                quantile_close(approx, exact),
                "q={} approx={} exact={}", q, approx, exact
            );
        }

        #[test]
        fn top_k_never_undercounts_and_bounds_overcount(
            weights in proptest::collection::vec((0u32..300, 1u64..100), 1..150),
        ) {
            let mut s = TopKSketch::new();
            let mut exact: BTreeMap<u32, u64> = BTreeMap::new();
            let mut total = 0u64;
            for &(key, w) in &weights {
                s.add(key, w);
                *exact.entry(key).or_insert(0) += w;
                total += w;
            }
            let slack = (TOPK_COUNT_ERROR * total as f64).ceil() as u64;
            for (&key, &true_count) in &exact {
                let est = s.estimate(key);
                prop_assert!(est >= true_count, "key {} undercounted", key);
                prop_assert!(
                    est <= true_count + slack,
                    "key {} overcounted: {} vs {}", key, est, true_count
                );
            }
        }
    }
}
