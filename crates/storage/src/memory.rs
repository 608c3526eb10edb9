//! An in-memory segment store: the write path's staging area (the Main
//! Memory Segment Cache of Figure 4) and the store used by tests and
//! micro-benchmarks.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use mdb_types::{BlockSketch, Gid, Result, SegmentRecord, Tid, TimeLevel, Timestamp};

use crate::digest::{Absorber, DigestStats, OpenSketches, SketchFeed, ValueBounds};
use crate::rollup::{RollupAcc, RollupCells, RollupFeed};
use crate::zone::ZoneMap;
use crate::{SegmentPredicate, SegmentStore};

/// Heap-backed store, ordered by `(gid, end_time, gaps)` like the
/// Cassandra clustering key of Section 3.3. A [`ZoneMap`] is maintained on
/// every insert; scans consult it to skip whole groups and segment runs.
pub struct MemoryStore {
    segments: BTreeMap<(Gid, i64, u64), SegmentRecord>,
    logical_bytes: u64,
    zones: ZoneMap,
    /// The configured statistic providers and the one pass that runs them
    /// on every inserted segment. Without a value-bounds provider, runs
    /// are unbounded and only time statistics prune; without a sketch
    /// provider, sketch queries are unanswerable from this store; without a
    /// rollup feed, no cells are maintained.
    absorber: Absorber,
    /// Per-group sketches over every inserted segment (the in-memory
    /// analogue of the disk store's per-block sketches — one "block" that
    /// is never cut). They fail open when a segment could not be fed,
    /// mirroring a disk block with `sketches: None`, and on a rare
    /// duplicate-key overwrite: sketch counts are not subtractable, and
    /// the compression pipeline never produces duplicates.
    sketches: OpenSketches,
    /// Materialized rollup cells, present exactly when a feed is configured.
    /// Unlike the disk store (whose scan order *is* insert order), this
    /// store scans in `(gid, end_time, gaps)` key order — so the cells stay
    /// sound only while every gid's inserts arrive in ascending key order;
    /// an out-of-order or duplicate insert poisons the map (queries then
    /// fall back to the scan path, which remains exact).
    rollups: Option<RollupCells>,
    /// Highest `(end_time, gaps)` key inserted per gid — the out-of-order
    /// detector for the invariant above.
    rollup_max_key: BTreeMap<Gid, (Timestamp, u64)>,
    pruning: bool,
}

impl std::fmt::Debug for MemoryStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryStore")
            .field("segments", &self.segments.len())
            .field("logical_bytes", &self.logical_bytes)
            .field("zones", &self.zones.run_count())
            .field("pruning", &self.pruning)
            .finish()
    }
}

impl Default for MemoryStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryStore {
    /// An empty store (time-only zone statistics).
    pub fn new() -> Self {
        Self {
            segments: BTreeMap::new(),
            logical_bytes: 0,
            zones: ZoneMap::new(),
            absorber: Absorber::new(None, None, None),
            sketches: OpenSketches::default(),
            rollups: None,
            rollup_max_key: BTreeMap::new(),
            pruning: true,
        }
    }

    /// An empty store maintaining the statistics the given providers
    /// derive, all in one pass per inserted segment (see [`crate::digest`]):
    /// stored-value ranges in the zone map (`value_bounds`, typically
    /// `mdb_query::value_bounds_fn`), per-group sketches enabling
    /// [`SegmentStore::merge_sketches`] (`sketch_feed`, typically
    /// `mdb_query::sketch_feed`), and materialized rollup cells enabling
    /// [`SegmentStore::rollup_cells`] (`rollup_feed`, typically
    /// `mdb_query::rollup_feed`).
    pub fn with_feeds(
        value_bounds: Option<ValueBounds>,
        sketch_feed: Option<SketchFeed>,
        rollup_feed: Option<RollupFeed>,
    ) -> Self {
        Self {
            rollups: rollup_feed
                .as_ref()
                .map(|feed| RollupCells::new(feed.levels.clone())),
            absorber: Absorber::new(value_bounds, sketch_feed, rollup_feed),
            ..Self::new()
        }
    }

    /// Enables or disables zone-map pruning in [`SegmentStore::scan`] (the
    /// map is still maintained). Disabling yields the plain sequential scan —
    /// the baseline the `repro query` benchmark measures against.
    pub fn set_pruning(&mut self, pruning: bool) {
        self.pruning = pruning;
    }
}

impl SegmentStore for MemoryStore {
    fn insert(&mut self, segment: SegmentRecord) -> Result<()> {
        self.logical_bytes += segment.storage_bytes() as u64;
        if let Some(cells) = self.rollups.as_mut() {
            // Cells fold contributions in insert order, but this store scans
            // in key order: a non-ascending key within a gid (out-of-order
            // insert or duplicate overwrite) breaks the order equivalence,
            // so the map poisons and queries fall back to the exact scan.
            let key = (segment.end_time, segment.gaps.0);
            match self.rollup_max_key.entry(segment.gid) {
                Entry::Occupied(mut max) => {
                    if key <= *max.get() {
                        cells.poison();
                    } else {
                        max.insert(key);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(key);
                }
            }
        }
        self.absorber.absorb(
            &segment,
            &mut self.zones,
            self.rollups.as_mut(),
            &mut self.sketches,
        );
        let key = (segment.gid, segment.end_time, segment.gaps.0);
        if let Some(old) = self.segments.insert(key, segment) {
            self.logical_bytes -= old.storage_bytes() as u64;
            // The duplicate's first insertion was already sketched and
            // cannot be subtracted back out.
            self.sketches.poison();
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    fn scan(&self, predicate: &SegmentPredicate, f: &mut dyn FnMut(&SegmentRecord)) -> Result<()> {
        if !self.pruning {
            // The unpruned baseline: filter every segment individually.
            match &predicate.gids {
                Some(gids) => {
                    let mut sorted = gids.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    for gid in sorted {
                        // Range scan within one gid, using end_time >= from
                        // for the lower bound.
                        let lower = predicate.from.unwrap_or(i64::MIN);
                        for (_, segment) in self
                            .segments
                            .range((gid, lower, 0)..=(gid, i64::MAX, u64::MAX))
                        {
                            if predicate.matches(segment) {
                                f(segment);
                            }
                        }
                    }
                }
                None => {
                    for segment in self.segments.values() {
                        if predicate.matches(segment) {
                            f(segment);
                        }
                    }
                }
            }
            return Ok(());
        }
        // Pruned scan: resolve the candidate groups, then walk each group's
        // zone runs, range-scanning only runs whose statistics can match.
        // Groups ascend and runs within a group partition the end-time axis
        // in order, so the `(gid, end_time)` output order is preserved.
        let gids: Vec<Gid> = match &predicate.gids {
            Some(gids) => {
                let mut sorted = gids.clone();
                sorted.sort_unstable();
                sorted.dedup();
                sorted
            }
            None => self.zones.gids().collect(),
        };
        for gid in gids {
            let Some(zone) = self.zones.gid(gid) else {
                continue;
            };
            if zone.prunes(predicate) {
                continue;
            }
            for run in &zone.runs {
                if run.prunes(predicate) {
                    continue;
                }
                for (_, segment) in self
                    .segments
                    .range((gid, run.min_end, 0)..=(gid, run.max_end, u64::MAX))
                {
                    if predicate.matches(segment) {
                        f(segment);
                    }
                }
            }
        }
        Ok(())
    }

    fn merge_sketches(&self, scope: Option<&[Gid]>) -> Result<Option<BlockSketch>> {
        if !self.absorber.sketches() {
            return Ok(None);
        }
        let mut merged = BlockSketch::new();
        let in_scope = |gid: Gid| scope.is_none_or(|s| s.contains(&gid));
        Ok(self
            .sketches
            .merge_into(in_scope, &mut merged)
            .then_some(merged))
    }

    fn rollup_cells(
        &self,
        level: TimeLevel,
        scope: Option<&[Gid]>,
        range: (Timestamp, Timestamp),
        f: &mut dyn FnMut(Gid, Tid, Timestamp, &RollupAcc),
    ) -> Result<bool> {
        let Some(cells) = self.rollups.as_ref() else {
            return Ok(false);
        };
        if !cells.is_sound() || !cells.levels().contains(&level) {
            return Ok(false);
        }
        cells.for_each(level, scope, range, f);
        Ok(true)
    }

    fn zones(&self) -> Option<&ZoneMap> {
        Some(&self.zones)
    }

    fn len(&self) -> usize {
        self.segments.len()
    }

    fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    fn persistent_bytes(&self) -> u64 {
        0
    }

    fn digest_stats(&self) -> DigestStats {
        self.absorber.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_to_vec;
    use bytes::Bytes;
    use mdb_types::GapsMask;

    fn seg(gid: Gid, start: i64, end: i64, gaps: u64) -> SegmentRecord {
        SegmentRecord {
            gid,
            start_time: start,
            end_time: end,
            sampling_interval: 100,
            mid: 0,
            params: Bytes::from_static(&[0; 4]),
            gaps: GapsMask(gaps),
        }
    }

    #[test]
    fn scan_orders_by_gid_then_end_time() {
        let mut store = MemoryStore::new();
        store.insert(seg(2, 0, 900, 0)).unwrap();
        store.insert(seg(1, 1000, 1900, 0)).unwrap();
        store.insert(seg(1, 0, 900, 0)).unwrap();
        let all = scan_to_vec(&store, &SegmentPredicate::all()).unwrap();
        let keys: Vec<(Gid, i64)> = all.iter().map(|s| (s.gid, s.end_time)).collect();
        assert_eq!(keys, vec![(1, 900), (1, 1900), (2, 900)]);
    }

    #[test]
    fn gid_pushdown_restricts_scan() {
        let mut store = MemoryStore::new();
        for gid in 1..=5 {
            store.insert(seg(gid, 0, 900, 0)).unwrap();
        }
        let got = scan_to_vec(&store, &SegmentPredicate::for_gids(vec![2, 4])).unwrap();
        assert_eq!(got.iter().map(|s| s.gid).collect::<Vec<_>>(), vec![2, 4]);
        // Duplicate gids in the predicate do not duplicate results.
        let got = scan_to_vec(&store, &SegmentPredicate::for_gids(vec![2, 2])).unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn time_range_pushdown() {
        let mut store = MemoryStore::new();
        store.insert(seg(1, 0, 900, 0)).unwrap();
        store.insert(seg(1, 1000, 1900, 0)).unwrap();
        store.insert(seg(1, 2000, 2900, 0)).unwrap();
        let got = scan_to_vec(
            &store,
            &SegmentPredicate::for_gids(vec![1]).with_time_range(950, 1950),
        )
        .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start_time, 1000);
        // Overlap at the edges is inclusive.
        let got = scan_to_vec(&store, &SegmentPredicate::all().with_time_range(900, 1000)).unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn sibling_segments_with_same_end_time_coexist() {
        // Dynamic splitting produces same (gid, end_time) with different
        // gaps — the reason Gaps is part of the primary key (Section 3.3).
        let mut store = MemoryStore::new();
        store.insert(seg(1, 0, 900, 0b01)).unwrap();
        store.insert(seg(1, 0, 900, 0b10)).unwrap();
        assert_eq!(store.len(), 2);
        // True duplicates overwrite.
        store.insert(seg(1, 0, 900, 0b10)).unwrap();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn rollup_cells_serve_in_order_and_poison_out_of_order() {
        use crate::rollup::{RollupAcc, RollupDelta, RollupFeed};
        use std::sync::Arc;
        let feed = RollupFeed {
            levels: vec![TimeLevel::Hour],
            feed: Arc::new(|s: &SegmentRecord| {
                Some(vec![RollupDelta {
                    tid: s.gid * 10,
                    level: TimeLevel::Hour,
                    bucket: 0,
                    acc: RollupAcc {
                        count: 1,
                        sum: s.end_time as f64,
                        min: 0.0,
                        max: 1.0,
                    },
                }])
            }),
            fused: None,
        };
        let mut store = MemoryStore::with_feeds(None, None, Some(feed));
        store.insert(seg(1, 0, 900, 0)).unwrap();
        store.insert(seg(1, 1000, 1900, 0)).unwrap();
        let mut seen = Vec::new();
        assert!(store
            .rollup_cells(
                TimeLevel::Hour,
                None,
                (Timestamp::MIN, Timestamp::MAX),
                &mut |g, t, b, a| { seen.push((g, t, b, a.count, a.sum)) }
            )
            .unwrap());
        assert_eq!(seen, vec![(1, 10, 0, 2, 2800.0)]);
        assert!(
            !store
                .rollup_cells(
                    TimeLevel::Day,
                    None,
                    (Timestamp::MIN, Timestamp::MAX),
                    &mut |_, _, _, _| {}
                )
                .unwrap(),
            "unmaintained level is not served"
        );
        // An out-of-order insert within the gid breaks the insert-order ==
        // scan-order equivalence: the map poisons.
        store.insert(seg(1, 500, 950, 0)).unwrap();
        assert!(!store
            .rollup_cells(
                TimeLevel::Hour,
                None,
                (Timestamp::MIN, Timestamp::MAX),
                &mut |_, _, _, _| {}
            )
            .unwrap());
    }

    #[test]
    fn rollups_absent_without_a_feed() {
        let mut store = MemoryStore::new();
        store.insert(seg(1, 0, 900, 0)).unwrap();
        assert!(!store
            .rollup_cells(
                TimeLevel::Hour,
                None,
                (Timestamp::MIN, Timestamp::MAX),
                &mut |_, _, _, _| {}
            )
            .unwrap());
    }

    #[test]
    fn logical_bytes_tracks_inserts() {
        let mut store = MemoryStore::new();
        assert_eq!(store.logical_bytes(), 0);
        store.insert(seg(1, 0, 900, 0)).unwrap();
        assert_eq!(store.logical_bytes(), 29);
        store.insert(seg(1, 0, 900, 0)).unwrap(); // overwrite, not double
        assert_eq!(store.logical_bytes(), 29);
        assert_eq!(store.persistent_bytes(), 0);
    }
}
