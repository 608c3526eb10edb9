//! Segment storage (Section 3.3): the schema of Figure 6 behind a uniform
//! interface with predicate push-down, playing the role Apache Cassandra
//! plays for the paper's system.
//!
//! * [`codec`] — binary encodings. Segments use the Cassandra-layout
//!   optimizations of Section 3.3: clustering by `(Gid, EndTime, Gaps)` and
//!   storing the segment *size in data points* instead of `StartTime`
//!   (recomputed as `StartTime = EndTime − (Size − 1) × SI`).
//! * [`catalog`] — the Time Series table, Model table, group membership and
//!   denormalized dimensions; the in-memory metadata cache of Figure 4.
//! * [`disk`] — the one segment store, an *out-of-core* block log whose
//!   bytes live in files or, for in-memory deployments, in RAM: per-block
//!   [`mdb_types::BlockMeta`] statistics (gid, time and stored-value
//!   ranges) — the store's only pruning statistics — for skipping blocks
//!   before they are fetched, bulk-buffered writes (Table 1's Bulk Write
//!   Size), checksums, crash-tolerant recovery that truncates a torn tail block, a persistent
//!   [`sidecar`] index so reopening is O(blocks) instead of O(log), and a
//!   memory-budgeted [`cache`] so resident memory is O(cache capacity)
//!   instead of O(total segments).
//! * [`sidecar`] — the checksummed, versioned `segments.idx` summary of the
//!   log (block statistics, per-group running sketches, rollup cells as
//!   compressed per-series columns) that makes fast reopen possible.
//! * [`cache`] — the sharded LRU [`BlockCache`] of fetched blocks, each one
//!   [`BlockView`] whatever the payload format it was read from.
//! * [`digest`] — the one insert-time pass inserts, imports and recovery
//!   derive stored-value ranges, rollup cells and per-group sketches
//!   through: the store's one [`SegmentDigester`], with one reconstruction
//!   per finalized segment.

mod backend;
pub mod cache;
pub mod catalog;
pub mod codec;
pub mod digest;
pub mod disk;
pub mod rollup;
pub mod sidecar;

use mdb_types::{
    BlockMeta, BlockSketch, BlockView, Gid, Result, SegmentRecord, SegmentView, TimeLevel,
    Timestamp, ValueInterval,
};

pub use cache::{BlockCache, CacheStats};
pub use catalog::Catalog;
pub use codec::{checksum, checksum_v2};
pub use digest::{Digest, DigestBuf, DigestStats, SegmentDigester};
pub use disk::{DiskStore, DiskStoreOptions};
pub use rollup::{RollupAcc, RollupCells, RollupDelta, RollupFeed};

/// Predicates pushed down to the segment store (Section 6.2: the store only
/// needs to index one id per segment — the Gid — plus the time interval).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentPredicate {
    /// Restrict to these groups; `None` scans all groups.
    pub gids: Option<Vec<Gid>>,
    /// Only segments whose interval ends at or after this time.
    pub from: Option<Timestamp>,
    /// Only segments whose interval starts at or before this time.
    pub to: Option<Timestamp>,
    /// Only segments whose interval ends at or before this time (an
    /// `EndTime <=` comparison); a block whose earliest end lies after it
    /// is skipped unfetched.
    pub ends_by: Option<Timestamp>,
    /// Only blocks whose *stored* (scaled) value range intersects this
    /// interval, checked against each block's [`mdb_types::BlockMeta`]
    /// statistics — the store cannot evaluate individual values without
    /// decoding models, so per-segment and per-point filtering stays in the
    /// query engine. `None` disables value pruning.
    pub values: Option<ValueInterval>,
}

impl SegmentPredicate {
    /// Match everything.
    pub fn all() -> Self {
        Self::default()
    }

    /// Restrict to a set of groups.
    pub fn for_gids(gids: Vec<Gid>) -> Self {
        Self {
            gids: Some(gids),
            ..Self::default()
        }
    }

    /// Further restrict to segments overlapping `[from, to]` (inclusive).
    pub fn with_time_range(mut self, from: Timestamp, to: Timestamp) -> Self {
        self.from = Some(from);
        self.to = Some(to);
        self
    }

    /// Further restrict to blocks whose stored-value range intersects
    /// `values` (block-granular pruning; see [`SegmentPredicate::values`]).
    pub fn with_values(mut self, values: ValueInterval) -> Self {
        self.values = Some(values);
        self
    }

    /// Whether every segment the `envelope` summarizes satisfies the gid
    /// and time parts of the predicate: the gid set holds every gid of the
    /// envelope's range (a set with a hole inside it does not), every
    /// segment ends at or after `from`, and every one ends — so starts — by
    /// `to` and by `ends_by`. Scans emit a covered block as one run without
    /// evaluating a view per segment. The block-granular `values` clause is
    /// irrelevant here; it prunes blocks, never individual segments.
    pub fn covers(&self, envelope: &SegmentEnvelope) -> bool {
        let gids_covered = self.gids.as_ref().is_none_or(|gids| {
            let (lo, hi) = (envelope.min_gid, envelope.max_gid);
            let inside = gids.iter().filter(|g| (lo..=hi).contains(*g)).count();
            // As many gids inside the range as it is wide cover it when no
            // gid repeats (a strictly ascending set); otherwise each gid of
            // the range is looked up.
            inside as u64 > u64::from(hi - lo)
                && (gids.is_sorted_by(|a, b| a < b) || (lo..=hi).all(|g| gids.contains(&g)))
        });
        gids_covered
            && self.from.is_none_or(|from| envelope.min_end >= from)
            && self.to.is_none_or(|to| envelope.max_end <= to)
            && self
                .ends_by
                .is_none_or(|ends_by| envelope.max_end <= ends_by)
    }

    /// Whether `segment` satisfies the gid and time parts of the predicate.
    /// The `values` part is block-granular: it cannot be decided per segment
    /// without decoding the model, so it is intentionally not checked here.
    pub fn matches(&self, segment: &SegmentView<'_>) -> bool {
        if let Some(gids) = &self.gids {
            if !gids.contains(&segment.gid) {
                return false;
            }
        }
        if let Some(from) = self.from {
            if segment.end_time < from {
                return false;
            }
        }
        if let Some(to) = self.to {
            if segment.start_time > to {
                return false;
            }
        }
        if let Some(ends_by) = self.ends_by {
            if segment.end_time > ends_by {
                return false;
            }
        }
        true
    }
}

/// The time envelope of a set of stored segments — one log block, or the
/// whole write buffer: their gid range and the extremes of their start and
/// end times, the statistics a `StartTime`/`EndTime` comparison can be
/// decided from without reading a segment body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEnvelope {
    /// Smallest group id.
    pub min_gid: Gid,
    /// Largest group id.
    pub max_gid: Gid,
    /// Smallest start time.
    pub min_start: Timestamp,
    /// Smallest end time.
    pub min_end: Timestamp,
    /// Largest end time.
    pub max_end: Timestamp,
}

impl SegmentEnvelope {
    /// The envelope of one segment.
    pub fn of(segment: &SegmentRecord) -> Self {
        Self {
            min_gid: segment.gid,
            max_gid: segment.gid,
            min_start: segment.start_time,
            min_end: segment.end_time,
            max_end: segment.end_time,
        }
    }

    /// Widens the envelope to cover `segment` too.
    pub fn include(&mut self, segment: &SegmentRecord) {
        self.min_gid = self.min_gid.min(segment.gid);
        self.max_gid = self.max_gid.max(segment.gid);
        self.min_start = self.min_start.min(segment.start_time);
        self.min_end = self.min_end.min(segment.end_time);
        self.max_end = self.max_end.max(segment.end_time);
    }
}

impl From<&BlockMeta> for SegmentEnvelope {
    fn from(meta: &BlockMeta) -> Self {
        Self {
            min_gid: meta.min_gid,
            max_gid: meta.max_gid,
            min_start: meta.min_start,
            min_end: meta.min_end,
            max_end: meta.max_end,
        }
    }
}

/// One contiguous run of matching segments as [`SegmentStore::scan_runs`]
/// yields it, borrowed for the callback: segments `lo..hi` of a fetched
/// block, or a slice of the write buffer. Either way its segments are read
/// as borrowed views with no per-segment allocation.
#[derive(Debug, Clone, Copy)]
pub enum SegmentRun<'a> {
    /// Segments `lo..hi` of a fetched on-disk block.
    Block {
        /// The block the run borrows from.
        block: &'a BlockView,
        /// First matching segment index (inclusive).
        lo: usize,
        /// One past the last matching segment index.
        hi: usize,
    },
    /// Buffered segments, not yet in a block.
    Buffered(&'a [SegmentRecord]),
}

impl<'a> SegmentRun<'a> {
    /// Iterates the run's segments in scan order.
    pub fn segments(self) -> impl Iterator<Item = SegmentView<'a>> {
        let range = match self {
            SegmentRun::Block { lo, hi, .. } => lo..hi,
            SegmentRun::Buffered(records) => 0..records.len(),
        };
        range.map(move |i| match self {
            SegmentRun::Block { block, .. } => block.segment(i),
            SegmentRun::Buffered(records) => records[i].view(),
        })
    }
}

/// The uniform storage interface of Figure 4 ("Storage Interface …
/// provides a uniform interface with predicate push-down for the persistent
/// segment group store").
///
/// Stores are `Send + Sync` so a shard can move into a cluster worker's
/// thread and concurrent readers can share one store; mutation stays
/// `&mut self`.
pub trait SegmentStore: Send + Sync {
    /// Appends one segment (buffered; durability on [`SegmentStore::flush`]).
    fn insert(&mut self, segment: SegmentRecord) -> Result<()>;

    /// Makes all buffered segments durable and queryable.
    fn flush(&mut self) -> Result<()>;

    /// Streams every segment matching `predicate` as contiguous
    /// [`SegmentRun`]s, in a **deterministic** order — [`DiskStore`] yields
    /// log (insertion) order, write buffer last. Scanning the same store
    /// state twice always yields the same sequence — the invariant the
    /// bit-identical query guarantees are built on. A run borrows the
    /// fetched block or the write buffer for the callback only, and its
    /// segments are read as borrowed [`SegmentView`]s, so the aggregate scan
    /// path materializes and copies no records. [`DiskStore`] checks each block's
    /// [`mdb_types::BlockMeta`] statistics here and skips, before fetching
    /// it, every block whose gid, time or stored-value range cannot match.
    fn scan_runs(
        &self,
        predicate: &SegmentPredicate,
        f: &mut dyn FnMut(SegmentRun<'_>),
    ) -> Result<()>;

    /// Collects every segment of the given groups, preserving the store's
    /// deterministic scan order and its run boundaries — the unit a cluster
    /// group handoff ships to the receiving worker. For [`DiskStore`] the
    /// runs follow block boundaries, so re-importing with
    /// [`SegmentStore::import_run`] reproduces the source's block structure.
    fn export_runs(&self, gids: &[Gid]) -> Result<Vec<Vec<SegmentRecord>>> {
        let mut runs = Vec::new();
        self.scan_runs(&SegmentPredicate::for_gids(gids.to_vec()), &mut |run| {
            runs.push(run.segments().map(|view| view.to_record()).collect())
        })?;
        Ok(runs)
    }

    /// Appends one exported run as a unit. The default inserts the segments
    /// one by one; the disk store additionally cuts a block at the run
    /// boundary, so a handoff target's log mirrors the source's block
    /// structure instead of merging runs by its own bulk-write size.
    /// Durability still requires [`SegmentStore::flush`].
    fn import_run(&mut self, run: Vec<SegmentRecord>) -> Result<()> {
        for segment in run {
            self.insert(segment)?;
        }
        Ok(())
    }

    /// Merges the per-group sketches covering every stored segment
    /// (optionally restricted to the groups in `scope`) **without touching
    /// segment bodies** — for the disk store this reads its per-group
    /// running sketches only, never the `BlockCache`. `Ok(None)` means
    /// sketch queries are unanswerable here: the store has no sketch feed
    /// configured, or some segment of a group in scope could not be fed
    /// (sketches fail open like every other statistic). `Ok(Some)` with an empty sketch means "maintained, but
    /// nothing stored in scope".
    fn merge_sketches(&self, _scope: Option<&[Gid]>) -> Result<Option<BlockSketch>> {
        Ok(None)
    }

    /// Visits the materialized rollup cells of `level` whose bucket *start*
    /// lies in `range` = `[from, to]` (optionally restricted to `scope`
    /// groups), **without touching segment bodies** — for the disk store
    /// this never reads the `BlockCache`. `f` is called once per `(gid,
    /// tid)` column, in `(gid, tid)` order, with that column's in-range
    /// cells as one bucket-ascending slice (never an empty one); each cell
    /// carries its full [`rollup::CellKey`] ([`rollup::KeyedCell`]). Buckets outside the range are
    /// not visited at all; a bucket that starts inside the range but runs
    /// past `to` still is, so callers filter partially covered edge buckets
    /// themselves. Pass `(Timestamp::MIN, Timestamp::MAX)` for every cell.
    /// Returns `Ok(false)` when cells cannot serve here: no rollup feed is
    /// configured, `level` is not maintained, or the cell map was poisoned
    /// (rollups fail open like sketches); the caller then falls back to the
    /// scan path. `Ok(true)` means every stored segment's contribution at
    /// `level` inside the range was visited.
    fn rollup_cells(
        &self,
        _level: TimeLevel,
        _scope: Option<&[Gid]>,
        _range: (Timestamp, Timestamp),
        _f: &mut dyn FnMut(&[rollup::KeyedCell]),
    ) -> Result<bool> {
        Ok(false)
    }

    /// Visits the [`SegmentEnvelope`] of every log block and of the write
    /// buffer that may hold a segment of the `scope` groups overlapping
    /// `range` = `[from, to]`, **without touching segment bodies**. No
    /// segment-time bound prunes them, so the envelopes meeting any part of
    /// the range summarize every segment there. Returns `Ok(false)` when the
    /// store cannot list them; the caller then scans.
    fn segment_envelopes(
        &self,
        _scope: Option<&[Gid]>,
        _range: (Timestamp, Timestamp),
        _f: &mut dyn FnMut(&SegmentEnvelope),
    ) -> Result<bool> {
        Ok(false)
    }

    /// Number of stored segments (including buffered ones).
    fn len(&self) -> usize;

    /// True when nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical size of the stored segments in bytes (the quantity compared
    /// across systems in Figures 14–15).
    fn logical_bytes(&self) -> u64;

    /// Bytes of the store's log — on disk, or in RAM for an in-memory
    /// [`DiskStore`]; the same count either way.
    fn persistent_bytes(&self) -> u64;

    /// Segments currently resident as fetched blocks or buffered records:
    /// for [`DiskStore`] the block cache plus the write buffer.
    fn resident_segments(&self) -> usize {
        self.len()
    }

    /// High-water mark of [`SegmentStore::resident_segments`] over the
    /// store's lifetime (an upper bound for stores that track cache and
    /// buffer peaks independently) — what shows a memory budget holds.
    fn resident_segment_peak(&self) -> usize {
        self.resident_segments()
    }

    /// Block-cache counters (reads, prefetches, decode validations). Stores
    /// without a block cache report all zeros; [`DiskStore`] reports its
    /// cache on either backend.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Counters of the insert-time statistics pass: segments digested,
    /// model reconstructions, points sketched.
    fn digest_stats(&self) -> DigestStats {
        DigestStats::default()
    }
}

/// Collects a scan into owned records (convenience for tests and listing).
pub fn scan_to_vec(
    store: &dyn SegmentStore,
    predicate: &SegmentPredicate,
) -> Result<Vec<SegmentRecord>> {
    let mut out = Vec::new();
    store.scan_runs(predicate, &mut |run| {
        out.extend(run.segments().map(|view| view.to_record()))
    })?;
    Ok(out)
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
            params: Bytes::from_static(&[1, 2, 3, 4]),
            gaps: GapsMask::EMPTY,
        }
    }

    #[test]
    fn predicate_matches_gid_and_interval_overlap() {
        let record = seg(3, 1_000, 2_000);
        let s = record.view();
        assert!(SegmentPredicate::all().matches(&s));
        assert!(SegmentPredicate::for_gids(vec![3]).matches(&s));
        assert!(!SegmentPredicate::for_gids(vec![4]).matches(&s));
        assert!(SegmentPredicate::all()
            .with_time_range(2_000, 3_000)
            .matches(&s));
        assert!(SegmentPredicate::all()
            .with_time_range(0, 1_000)
            .matches(&s));
        assert!(!SegmentPredicate::all()
            .with_time_range(2_100, 3_000)
            .matches(&s));
        assert!(!SegmentPredicate::all().with_time_range(0, 900).matches(&s));
        assert!(SegmentPredicate::for_gids(vec![3])
            .with_time_range(1_500, 1_600)
            .matches(&s));
    }
}
