//! Continuous aggregates: incrementally materialized time-hierarchy rollup
//! cells.
//!
//! A *cell* is one `(gid, level, tid, bucket_start)` accumulator holding the
//! SUM/COUNT/MIN/MAX of every data point the store has absorbed for that time
//! series inside that calendar bucket (AVG derives as SUM/COUNT at
//! finalization, exactly like the scan path). Cells are maintained by the
//! same insert-time pass ([`crate::digest`]) that feeds the
//! [`mdb_types::BlockMeta`] statistics and the group sketches: the store's
//! digester (configured through a [`RollupFeed`], typically
//! `mdb_query::rollup_feed` over the catalog and model registry) turns each
//! finalized segment into its per-bucket deltas, which are folded into the
//! cell map in segment order. Because the fold
//! applies *the same floating-point operations in the same order* as the
//! query engine's bucketed scan, a cell-served aggregate is bit-identical to
//! the re-aggregating scan — the invariant `tests/rollup_equivalence.rs`
//! pins.
//!
//! Like every other derived statistic in this store, rollups fail open: a
//! segment the digester cannot decode poisons the cell map
//! ([`RollupCells::poison`]) and queries transparently fall back to the scan
//! path. The store scans in insertion order, the order cells are fed in, so
//! no ingestion order can break the equivalence. Soundness (not freshness) is the contract — cells either serve the
//! exact scan answer or do not serve at all.
//!
//! Cells live in one bucket-sorted column per `(gid, level, tid)` series:
//! in-order ingestion appends to (or merges into) a column's last cell, and
//! a ranged walk is one binary search plus a contiguous run per series. The
//! sidecar stores each column compressed — bucket starts delta-of-delta
//! coded, counts run-length coded, sum/min/max as 64-bit XOR streams — so
//! a cell costs less on disk than the data points it summarizes (see
//! [`crate::sidecar`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use mdb_types::{Gid, Tid, TimeLevel, Timestamp};

use crate::digest::SegmentDigester;

/// Stable one-byte tag for a [`TimeLevel`], ordered coarse → fine, used as
/// the level component of cell keys and in the sidecar encoding.
pub fn level_tag(level: TimeLevel) -> u8 {
    match level {
        TimeLevel::Year => 0,
        TimeLevel::Month => 1,
        TimeLevel::Day => 2,
        TimeLevel::Hour => 3,
        TimeLevel::Minute => 4,
        TimeLevel::Second => 5,
    }
}

/// Inverse of [`level_tag`]; `None` for tags this version does not know.
pub fn level_from_tag(tag: u8) -> Option<TimeLevel> {
    match tag {
        0 => Some(TimeLevel::Year),
        1 => Some(TimeLevel::Month),
        2 => Some(TimeLevel::Day),
        3 => Some(TimeLevel::Hour),
        4 => Some(TimeLevel::Minute),
        5 => Some(TimeLevel::Second),
        _ => None,
    }
}

/// The finest (largest tag) of a set of maintained levels — the level whose
/// partial buckets are the edge tiles of the query engine's tiled plans.
pub fn finest_level(levels: &[TimeLevel]) -> Option<TimeLevel> {
    levels.iter().copied().max_by_key(|l| level_tag(*l))
}

/// One materialized cell: the accumulator state of every data point of one
/// time series inside one calendar bucket. A bucketed scan keeps its
/// `(tid, bucket)` entries as `RollupAcc`s too and folds them with the same
/// [`RollupAcc::merge`] — that is what makes cell-served results
/// bit-identical to scans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollupAcc {
    /// Number of data points.
    pub count: u64,
    /// Sum of reconstructed (descaled) values.
    pub sum: f64,
    /// Minimum reconstructed value.
    pub min: f64,
    /// Maximum reconstructed value.
    pub max: f64,
}

impl RollupAcc {
    /// Folds another accumulator in, in `f64`: cells and a bucketed scan's
    /// entries fold with it in the same order.
    pub fn merge(&mut self, other: &RollupAcc) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The contribution of one segment to one cell, as produced by a
/// [`SegmentDigester`]: the segment's data points falling in `bucket` at
/// `level`, pre-aggregated.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupDelta {
    /// The member time series the delta belongs to.
    pub tid: Tid,
    /// The hierarchy level of the bucket.
    pub level: TimeLevel,
    /// Bucket start (`mdb_types::time::truncate(level, ts)` of every covered
    /// point).
    pub bucket: Timestamp,
    /// Pre-aggregated contribution.
    pub acc: RollupAcc,
}

/// The rollup levels a store materializes, with the digester that derives
/// each segment's deltas at them — what stores are configured with.
#[derive(Clone)]
pub struct RollupFeed {
    /// The hierarchy levels cells are maintained at.
    pub levels: Vec<TimeLevel>,
    /// The one-pass digester producing the deltas (see [`crate::digest`]).
    pub digester: Arc<dyn SegmentDigester>,
}

impl std::fmt::Debug for RollupFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RollupFeed")
            .field("levels", &self.levels)
            .finish_non_exhaustive()
    }
}

/// A cell's full key, `(gid, level_tag, tid, bucket_start)`.
pub type CellKey = (Gid, u8, Tid, Timestamp);

/// One cell with its full key, as columns hold it.
pub type KeyedCell = (CellKey, RollupAcc);

/// One series' cells — every cell of one `(gid, level_tag, tid)` —
/// bucket-ascending. Each cell keeps its whole key, so [`RollupCells::iter`]
/// hands out borrowed keys.
pub type SeriesColumn = Vec<KeyedCell>;

/// The materialized cell map of one store: one bucket-sorted column per
/// `(gid, level_tag, tid)` series, for every maintained level, plus a
/// soundness flag.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupCells {
    levels: Vec<TimeLevel>,
    sound: bool,
    series: BTreeMap<(Gid, u8, Tid), SeriesColumn>,
}

impl RollupCells {
    /// An empty, sound cell map maintaining `levels`.
    pub fn new(levels: Vec<TimeLevel>) -> Self {
        Self::from_parts(levels, true, BTreeMap::new())
    }

    /// Rebuilds a cell map from previously serialized parts (sidecar load).
    /// Each column must be non-empty, bucket-ascending without duplicates,
    /// and keyed by its series.
    pub fn from_parts(
        levels: Vec<TimeLevel>,
        sound: bool,
        series: BTreeMap<(Gid, u8, Tid), SeriesColumn>,
    ) -> Self {
        Self {
            levels,
            sound,
            series,
        }
    }

    /// The levels this map maintains.
    pub fn levels(&self) -> &[TimeLevel] {
        &self.levels
    }

    /// True while the map still mirrors the scan path exactly.
    pub fn is_sound(&self) -> bool {
        self.sound
    }

    /// Marks the map unsound: queries fall back to the scan path from here
    /// on. Irreversible short of a full rebuild.
    pub fn poison(&mut self) {
        self.sound = false;
    }

    /// Number of materialized cells.
    pub fn len(&self) -> usize {
        self.series.values().map(Vec::len).sum()
    }

    /// True when no cell is materialized.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Folds one segment's deltas into the map, in delta order — the same
    /// left-fold the scan path performs when it merges per-segment partials
    /// in scan order. A delta for the series' last bucket merges, one past
    /// it appends (the in-order case); an earlier bucket is binary-searched.
    pub fn apply(&mut self, gid: Gid, deltas: &[RollupDelta]) {
        for d in deltas {
            let key = (gid, level_tag(d.level), d.tid, d.bucket);
            let column = self.series.entry((key.0, key.1, key.2)).or_default();
            match column.last_mut() {
                Some((last, acc)) if last.3 == d.bucket => acc.merge(&d.acc),
                Some((last, _)) if last.3 > d.bucket => {
                    match column.binary_search_by_key(&d.bucket, |(k, _)| k.3) {
                        Ok(i) => column[i].1.merge(&d.acc),
                        Err(i) => column.insert(i, (key, d.acc)),
                    }
                }
                _ => column.push((key, d.acc)),
            }
        }
    }

    /// Visits the cells of `level` whose bucket start lies in
    /// `[range.0, range.1]` (optionally restricted to `scope` groups,
    /// deduplicated), one `(gid, tid)` column at a time in `(gid, tid)`
    /// order: `f` gets each column's in-range cells as one bucket-ascending
    /// slice, never an empty one. Pass `(Timestamp::MIN, Timestamp::MAX)`
    /// for all time. Each visited series costs two binary searches, for its
    /// first cell at or after `range.0` and its last at or before
    /// `range.1`; buckets outside the range are never visited. Does not
    /// check soundness — callers gate on [`RollupCells::is_sound`].
    pub fn for_each(
        &self,
        level: TimeLevel,
        scope: Option<&[Gid]>,
        (from, to): (Timestamp, Timestamp),
        f: &mut dyn FnMut(&[KeyedCell]),
    ) {
        if from > to {
            return;
        }
        let tag = level_tag(level);
        let mut visit = |column: &SeriesColumn| {
            let lo = column.partition_point(|(k, _)| k.3 < from);
            let hi = column.partition_point(|(k, _)| k.3 <= to);
            if lo < hi {
                f(&column[lo..hi]);
            }
        };
        match scope {
            None => self
                .series
                .iter()
                .filter(|((_, t, _), _)| *t == tag)
                .for_each(|(_, column)| visit(column)),
            Some(gids) => {
                let mut gids = gids.to_vec();
                gids.sort_unstable();
                gids.dedup();
                for g in gids {
                    self.series
                        .range((g, tag, Tid::MIN)..=(g, tag, Tid::MAX))
                        .for_each(|(_, column)| visit(column));
                }
            }
        }
    }

    /// Iterates every cell in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&CellKey, &RollupAcc)> + '_ {
        self.series.values().flatten().map(|(key, acc)| (key, acc))
    }

    /// Iterates the series columns in key order (sidecar serialization).
    pub fn series(&self) -> impl Iterator<Item = (&(Gid, u8, Tid), &SeriesColumn)> + '_ {
        self.series.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_TIME: (Timestamp, Timestamp) = (Timestamp::MIN, Timestamp::MAX);

    fn acc(count: u64, sum: f64, min: f64, max: f64) -> RollupAcc {
        RollupAcc {
            count,
            sum,
            min,
            max,
        }
    }

    #[test]
    fn level_tags_round_trip_and_order_coarse_to_fine() {
        let levels = [
            TimeLevel::Year,
            TimeLevel::Month,
            TimeLevel::Day,
            TimeLevel::Hour,
            TimeLevel::Minute,
            TimeLevel::Second,
        ];
        for (i, level) in levels.iter().enumerate() {
            assert_eq!(level_tag(*level) as usize, i);
            assert_eq!(level_from_tag(i as u8), Some(*level));
        }
        assert_eq!(level_from_tag(6), None);
        assert_eq!(
            finest_level(&[TimeLevel::Hour, TimeLevel::Month, TimeLevel::Day]),
            Some(TimeLevel::Hour)
        );
        assert_eq!(finest_level(&[]), None);
    }

    #[test]
    fn apply_folds_in_delta_order() {
        let mut cells = RollupCells::new(vec![TimeLevel::Hour]);
        let d = |bucket, sum| RollupDelta {
            tid: 7,
            level: TimeLevel::Hour,
            bucket,
            acc: acc(2, sum, sum, sum),
        };
        cells.apply(1, &[d(0, 1.5), d(3_600_000, 2.5)]);
        cells.apply(1, &[d(0, 4.0)]);
        assert_eq!(cells.len(), 2);
        let mut seen = Vec::new();
        cells.for_each(TimeLevel::Hour, None, ALL_TIME, &mut |column| {
            seen.extend(
                column
                    .iter()
                    .map(|&((g, _, tid, bucket), a)| (g, tid, bucket, a)),
            )
        });
        assert_eq!(seen[0], (1, 7, 0, acc(4, 5.5, 1.5, 4.0)));
        assert_eq!(seen[1], (1, 7, 3_600_000, acc(2, 2.5, 2.5, 2.5)));
    }

    #[test]
    fn scope_filters_and_deduplicates() {
        let mut cells = RollupCells::new(vec![TimeLevel::Day]);
        let d = RollupDelta {
            tid: 1,
            level: TimeLevel::Day,
            bucket: 0,
            acc: acc(1, 1.0, 1.0, 1.0),
        };
        cells.apply(1, std::slice::from_ref(&d));
        cells.apply(2, std::slice::from_ref(&d));
        let mut n = 0;
        cells.for_each(TimeLevel::Day, Some(&[2, 2, 2]), ALL_TIME, &mut |column| {
            for ((g, ..), _) in column {
                assert_eq!(*g, 2);
                n += 1;
            }
        });
        assert_eq!(n, 1);
        let mut m = 0;
        cells.for_each(TimeLevel::Hour, None, ALL_TIME, &mut |column| {
            m += column.len()
        });
        assert_eq!(m, 0, "unmaintained level yields no cells");
    }

    /// Key components the range-walk property draws from: both ends of each
    /// integer domain (the seek cursor's increments must not overflow) and
    /// a few ordinary values. Scopes may also name gids no cell has.
    const GIDS: [Gid; 6] = [0, 1, 2, 9, Gid::MAX - 1, Gid::MAX];
    const SCOPE_GIDS: [Gid; 8] = [0, 1, 2, 3, 5, 9, Gid::MAX - 1, Gid::MAX];
    const TIDS: [Tid; 6] = [0, 1, 2, 7, Tid::MAX - 1, Tid::MAX];
    const BUCKETS: [Timestamp; 9] = [
        i64::MIN,
        i64::MIN + 1,
        -3_600_000,
        0,
        1,
        3_600_000,
        7_200_000,
        i64::MAX - 1,
        i64::MAX,
    ];
    /// Range ends: every bucket plus values between buckets.
    const ENDS: [Timestamp; 12] = [
        i64::MIN,
        i64::MIN + 1,
        -3_600_000,
        -1,
        0,
        1,
        3_599_999,
        3_600_000,
        5_000_000,
        7_200_000,
        i64::MAX - 1,
        i64::MAX,
    ];
    /// Stored levels are Month/Day/Hour; Year, Minute and Second are queried
    /// but never maintained, on both sides of the stored tags.
    const STORED: [TimeLevel; 3] = [TimeLevel::Month, TimeLevel::Day, TimeLevel::Hour];
    const QUERIED: [TimeLevel; 6] = [
        TimeLevel::Year,
        TimeLevel::Month,
        TimeLevel::Day,
        TimeLevel::Hour,
        TimeLevel::Minute,
        TimeLevel::Second,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6000))]

        // The skip-seeking walk visits exactly what a brute-force filter of
        // the whole map keeps, in the same key order.
        #[test]
        fn ranged_walk_matches_a_filtered_full_scan(
            keys in proptest::collection::vec((0usize..6, 0usize..3, 0usize..6, 0usize..9), 0..48),
            level in 0usize..6,
            scoped in proptest::bool::ANY,
            scope in proptest::collection::vec(0usize..8, 0..6),
            from in 0usize..12,
            to in 0usize..12,
        ) {
            let mut cells = RollupCells::new(STORED.to_vec());
            for (i, &(g, l, t, b)) in keys.iter().enumerate() {
                let x = i as f64;
                cells.apply(
                    GIDS[g],
                    &[RollupDelta {
                        tid: TIDS[t],
                        level: STORED[l],
                        bucket: BUCKETS[b],
                        acc: acc(1, x, x, x),
                    }],
                );
            }
            let level = QUERIED[level];
            let scope: Option<Vec<Gid>> = scoped.then(|| scope.iter().map(|&i| SCOPE_GIDS[i]).collect());
            let range = (ENDS[from], ENDS[to]);

            let expected: Vec<(Gid, Tid, Timestamp, RollupAcc)> = cells
                .iter()
                .filter(|(&(g, tag, _, b), _)| {
                    tag == level_tag(level)
                        && scope.as_ref().is_none_or(|s| s.contains(&g))
                        && range.0 <= b
                        && b <= range.1
                })
                .map(|(&(g, _, t, b), a)| (g, t, b, *a))
                .collect();
            let mut walked = Vec::new();
            cells.for_each(level, scope.as_deref(), range, &mut |column| {
                walked.extend(column.iter().map(|&((g, _, t, b), a)| (g, t, b, a)))
            });
            proptest::prop_assert_eq!(walked, expected);
        }
    }

    #[test]
    fn feed_failure_poisons() {
        use crate::digest::testing::TestDigester;
        use crate::digest::{Absorber, GroupSketches};
        use mdb_types::SegmentRecord;
        let mut cells = RollupCells::new(vec![TimeLevel::Hour]);
        let fail = TestDigester::default()
            .rollup(vec![TimeLevel::Hour], |_| None)
            .options();
        let mut absorber = Absorber::new(fail.value_bounds, fail.sketch_feed, fail.rollup_feed);
        let seg = SegmentRecord {
            gid: 1,
            start_time: 0,
            end_time: 900,
            sampling_interval: 100,
            mid: 0,
            params: bytes::Bytes::new(),
            gaps: mdb_types::GapsMask::EMPTY,
        };
        assert!(cells.is_sound());
        absorber.absorb(&seg, Some(&mut cells), &mut GroupSketches::default());
        assert!(!cells.is_sound());
    }
}
