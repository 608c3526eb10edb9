//! The segment-pruning zone map: per-group min/max statistics over *runs* of
//! segments, maintained on every write.
//!
//! This plays the role block statistics play in columnar formats (and that
//! the per-block gid/end-time ranges already play in the [`crate::disk`]
//! log): a query's push-down predicate is checked against a run's statistics
//! once, and a miss skips the whole run before a single segment is visited
//! or a single model decoded. Statistics only ever *over*-approximate —
//! unions widen, overwrites never shrink — so pruning is sound: a pruned run
//! provably contains no matching segment.
//!
//! Two statistic kinds are kept per run (and aggregated per group):
//!
//! * **time**: the minimum start time and minimum/maximum end time of the
//!   run's segments, pruning time-ranged scans;
//! * **values**: the union of the segments' stored-value ranges (computed by
//!   an optional caller-provided [`ValueBoundsFn`], typically
//!   `mdb_models::segment_value_range`), pruning `Value` predicates.
//!   Segments whose model has no closed form make the run *unbounded*, which
//!   disables value pruning for that run but keeps it correct.

use std::collections::BTreeMap;
use std::sync::Arc;

use mdb_types::{BlockSketch, Gid, SegmentRecord, Timestamp, ValueInterval};

use crate::SegmentPredicate;

/// Computes the stored-value range of a segment on the write path, or `None`
/// when it cannot be known cheaply (the run then becomes unbounded).
pub type ValueBoundsFn = Arc<dyn Fn(&SegmentRecord) -> Option<ValueInterval> + Send + Sync>;

/// Feeds one segment — its member time series ids and every reconstructed
/// data-point value — into its group's sketch on the write path (typically
/// `mdb_query::sketch_feed` closed over the catalog and model registry).
/// Returns `false` when the segment cannot be decoded; its group's sketch
/// then fails open to `None`, like every other statistic.
pub type SketchFeedFn = Arc<dyn Fn(&SegmentRecord, &mut BlockSketch) -> bool + Send + Sync>;

/// How many segments a run covers before a new one is started. Small enough
/// that a time-ranged query over months of data skips most runs; large
/// enough that run headers stay negligible next to the segments themselves.
pub const RUN_SEGMENTS: u32 = 32;

/// The value statistic of a run or group.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ZoneValues {
    /// No segment recorded yet.
    #[default]
    Empty,
    /// Every segment's values lie in this interval.
    Bounded(ValueInterval),
    /// At least one segment has unknown bounds: value pruning is disabled.
    Unbounded,
}

impl ZoneValues {
    /// Widens the statistic with one segment's (possibly unknown) range.
    pub fn absorb(&mut self, range: Option<ValueInterval>) {
        *self = match (*self, range) {
            (ZoneValues::Unbounded, _) | (_, None) => ZoneValues::Unbounded,
            (ZoneValues::Empty, Some(r)) => ZoneValues::Bounded(r),
            (ZoneValues::Bounded(mine), Some(r)) => ZoneValues::Bounded(mine.union(&r)),
        };
    }

    /// True when the statistic *proves* no stored value intersects `wanted`.
    pub fn excludes(&self, wanted: &ValueInterval) -> bool {
        match self {
            ZoneValues::Bounded(range) => !range.intersects(wanted),
            ZoneValues::Empty | ZoneValues::Unbounded => false,
        }
    }
}

/// Statistics over one run of segments of one group. Runs partition a
/// group's end-time axis: within a group, run end-time ranges are disjoint
/// and sorted, so a run maps to a contiguous range of the store's
/// `(gid, end_time, gaps)` clustering key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneRun {
    /// Minimum start time of the run's segments.
    pub min_start: Timestamp,
    /// Minimum end time of the run's segments (the run's key-range start).
    pub min_end: Timestamp,
    /// Maximum end time of the run's segments (the run's key-range end).
    pub max_end: Timestamp,
    /// Union of the segments' stored-value ranges.
    pub values: ZoneValues,
    /// Number of segments recorded (overwrites count twice; the count is
    /// informational, the ranges stay sound).
    pub segments: u32,
}

impl ZoneRun {
    fn for_segment(segment: &SegmentRecord, range: Option<ValueInterval>) -> Self {
        let mut values = ZoneValues::Empty;
        values.absorb(range);
        Self {
            min_start: segment.start_time,
            min_end: segment.end_time,
            max_end: segment.end_time,
            values,
            segments: 1,
        }
    }

    fn absorb(&mut self, segment: &SegmentRecord, range: Option<ValueInterval>) {
        self.min_start = self.min_start.min(segment.start_time);
        self.min_end = self.min_end.min(segment.end_time);
        self.max_end = self.max_end.max(segment.end_time);
        self.values.absorb(range);
        self.segments += 1;
    }

    /// True when the statistics prove no segment of the run matches
    /// `predicate` (gid restrictions are resolved by the caller).
    pub fn prunes(&self, predicate: &SegmentPredicate) -> bool {
        if let Some(from) = predicate.from {
            if self.max_end < from {
                return true;
            }
        }
        if let Some(to) = predicate.to {
            if self.min_start > to {
                return true;
            }
        }
        if let Some(values) = &predicate.values {
            if self.values.excludes(values) {
                return true;
            }
        }
        false
    }
}

/// The zone of one group: aggregate statistics plus the per-run breakdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GidZone {
    /// Minimum start time over all segments.
    pub min_start: Timestamp,
    /// Maximum end time over all segments.
    pub max_end: Timestamp,
    /// Union of all segments' stored-value ranges.
    pub values: ZoneValues,
    /// Segments recorded.
    pub segments: u64,
    /// The runs, sorted by `min_end` with disjoint `[min_end, max_end]`.
    pub runs: Vec<ZoneRun>,
}

impl GidZone {
    /// True when the group-level statistics prove no segment matches.
    pub fn prunes(&self, predicate: &SegmentPredicate) -> bool {
        if self.segments == 0 {
            return true;
        }
        if let Some(from) = predicate.from {
            if self.max_end < from {
                return true;
            }
        }
        if let Some(to) = predicate.to {
            if self.min_start > to {
                return true;
            }
        }
        if let Some(values) = &predicate.values {
            if self.values.excludes(values) {
                return true;
            }
        }
        false
    }

    fn insert(&mut self, segment: &SegmentRecord, range: Option<ValueInterval>) {
        if self.segments == 0 {
            self.min_start = segment.start_time;
            self.max_end = segment.end_time;
        } else {
            self.min_start = self.min_start.min(segment.start_time);
            self.max_end = self.max_end.max(segment.end_time);
        }
        self.values.absorb(range);
        self.segments += 1;

        match self.runs.last_mut() {
            None => self.runs.push(ZoneRun::for_segment(segment, range)),
            Some(last) if segment.end_time >= last.min_end => {
                // The common append case: the segment lands in or after the
                // newest run. Seal the run once it is full *and* the segment
                // extends past it, keeping run ranges disjoint.
                if last.segments >= RUN_SEGMENTS && segment.end_time > last.max_end {
                    self.runs.push(ZoneRun::for_segment(segment, range));
                } else {
                    last.absorb(segment, range);
                }
            }
            Some(_) => {
                // Out-of-order insert: widen the first run whose range ends
                // at or after this end time. Its predecessor ends strictly
                // earlier, so disjointness is preserved.
                let idx = self.runs.partition_point(|r| r.max_end < segment.end_time);
                debug_assert!(idx < self.runs.len());
                self.runs[idx].absorb(segment, range);
            }
        }
    }
}

/// The store-wide zone map: one [`GidZone`] per group that has segments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ZoneMap {
    gids: BTreeMap<Gid, GidZone>,
}

impl ZoneMap {
    /// An empty zone map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one inserted segment with its (possibly unknown) stored-value
    /// range.
    pub fn insert(&mut self, segment: &SegmentRecord, range: Option<ValueInterval>) {
        self.gids
            .entry(segment.gid)
            .or_default()
            .insert(segment, range);
    }

    /// The zone of one group, if any segment of it was recorded.
    pub fn gid(&self, gid: Gid) -> Option<&GidZone> {
        self.gids.get(&gid)
    }

    /// All groups with segments, ascending.
    pub fn gids(&self) -> impl Iterator<Item = Gid> + '_ {
        self.gids.keys().copied()
    }

    /// All `(gid, zone)` pairs, ascending by gid — the iteration the
    /// persistent sidecar index serializes.
    pub fn iter(&self) -> impl Iterator<Item = (Gid, &GidZone)> + '_ {
        self.gids.iter().map(|(g, z)| (*g, z))
    }

    /// Installs a fully-built zone for `gid`, replacing any existing one —
    /// the inverse of [`ZoneMap::iter`], used when the sidecar index is
    /// deserialized instead of replaying every insert.
    pub fn set_zone(&mut self, gid: Gid, zone: GidZone) {
        self.gids.insert(gid, zone);
    }

    /// Total runs across all groups (diagnostics).
    pub fn run_count(&self) -> usize {
        self.gids.values().map(|z| z.runs.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mdb_types::GapsMask;

    fn seg(gid: Gid, start: Timestamp, end: Timestamp) -> SegmentRecord {
        SegmentRecord {
            gid,
            start_time: start,
            end_time: end,
            sampling_interval: 100,
            mid: 0,
            params: Bytes::new(),
            gaps: GapsMask::EMPTY,
        }
    }

    fn pred(from: Timestamp, to: Timestamp) -> SegmentPredicate {
        SegmentPredicate::all().with_time_range(from, to)
    }

    #[test]
    fn runs_seal_and_stay_disjoint() {
        let mut zones = ZoneMap::new();
        for i in 0..(RUN_SEGMENTS as i64 * 3) {
            zones.insert(&seg(1, i * 1000, i * 1000 + 900), None);
        }
        let zone = zones.gid(1).unwrap();
        assert_eq!(zone.runs.len(), 3);
        assert_eq!(zone.segments, u64::from(RUN_SEGMENTS) * 3);
        for w in zone.runs.windows(2) {
            assert!(w[0].max_end < w[1].min_end, "overlapping runs: {w:?}");
        }
        // Group-level aggregates cover everything.
        assert_eq!(zone.min_start, 0);
        assert_eq!(zone.max_end, (RUN_SEGMENTS as i64 * 3 - 1) * 1000 + 900);
    }

    #[test]
    fn time_pruning_is_sound_and_effective() {
        let mut zones = ZoneMap::new();
        for i in 0..(RUN_SEGMENTS as i64 * 2) {
            zones.insert(&seg(1, i * 1000, i * 1000 + 900), None);
        }
        let zone = zones.gid(1).unwrap();
        // A range inside the second run prunes the first, not the second.
        let late = pred(
            RUN_SEGMENTS as i64 * 1000 + 50,
            RUN_SEGMENTS as i64 * 1000 + 60,
        );
        assert!(zone.runs[0].prunes(&late));
        assert!(!zone.runs[1].prunes(&late));
        assert!(!zone.prunes(&late));
        // A range before all data prunes the whole group.
        assert!(zone.prunes(&SegmentPredicate {
            to: Some(-1),
            ..SegmentPredicate::all()
        }));
        assert!(zone.prunes(&SegmentPredicate {
            from: Some(zone.max_end + 1),
            ..SegmentPredicate::all()
        }));
    }

    #[test]
    fn value_pruning_requires_bounded_runs() {
        let mut zones = ZoneMap::new();
        zones.insert(&seg(1, 0, 900), Some(ValueInterval::new(10.0, 20.0)));
        zones.insert(&seg(1, 1000, 1900), Some(ValueInterval::new(15.0, 30.0)));
        let wanted = SegmentPredicate {
            values: Some(ValueInterval::new(40.0, 50.0)),
            ..Default::default()
        };
        assert!(zones.gid(1).unwrap().prunes(&wanted));
        let overlapping = SegmentPredicate {
            values: Some(ValueInterval::new(25.0, 50.0)),
            ..Default::default()
        };
        assert!(!zones.gid(1).unwrap().prunes(&overlapping));
        // One unknown segment makes the zone unbounded: never pruned.
        zones.insert(&seg(1, 2000, 2900), None);
        assert!(!zones.gid(1).unwrap().prunes(&wanted));
    }

    #[test]
    fn out_of_order_inserts_widen_an_existing_run() {
        let mut zones = ZoneMap::new();
        for i in 0..(RUN_SEGMENTS as i64 * 2) {
            zones.insert(&seg(1, i * 1000, i * 1000 + 900), None);
        }
        // A late arrival whose end time falls into the first run.
        zones.insert(&seg(1, 100, 950), None);
        let zone = zones.gid(1).unwrap();
        assert_eq!(zone.runs.len(), 2);
        for w in zone.runs.windows(2) {
            assert!(w[0].max_end < w[1].min_end);
        }
        assert!(zone.runs[0].min_end <= 950 && zone.runs[0].max_end >= 950);
    }

    #[test]
    fn empty_zone_prunes_everything() {
        let zone = GidZone::default();
        assert!(zone.prunes(&SegmentPredicate::all()));
    }
}
