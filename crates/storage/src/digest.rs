//! Insert-time maintenance of everything a store derives from a finalized
//! segment: its stored-value range (for the block summary), its rollup
//! deltas (continuous aggregates) and its data points in its group's running
//! sketch ([`GroupSketches`]).
//!
//! Inserts, the handoff import and the recovery rescan go through one
//! function (`Absorber::absorb`), so statistics persisted at write time and
//! statistics rebuilt from the log cannot diverge. The store knows nothing
//! about models: it runs one [`SegmentDigester`] — in every deployment the
//! one `mdb_query` builds over the catalog and the model registry — which
//! derives every configured statistic in **one pass over one
//! reconstruction** of the segment, into buffers the store owns and reuses.
//! The store decides which statistics are kept; the digester alone decides
//! what each one is.
//!
//! A segment's sketch updates go straight into its group's running sketch,
//! whether the segment sits in the write buffer or in a written block: sketch
//! merges are bit-identical under any partition of the updates (see the
//! `mdb_sketch` crate docs), so no per-block sketch set is needed.

use std::collections::BTreeMap;
use std::sync::Arc;

use mdb_types::{BlockSketch, Gid, SegmentRecord, TimeLevel, Timestamp, Value, ValueInterval};

use crate::rollup::{RollupAcc, RollupCells, RollupDelta, RollupFeed};

/// Derives every statistic a store keeps per segment in one pass (see the
/// module docs) — the store's only statistics interface. Implemented by
/// `mdb_query` over the catalog and the model registry.
pub trait SegmentDigester: Send + Sync {
    /// Digests `segment`: its stored-value range when `range` is set, its
    /// rollup deltas at `levels` (left in `buf.deltas`, in the order the
    /// query engine's bucketed scan visits them), and its data points into
    /// `sketch` when one is given.
    /// The segment is reconstructed at most once, into `buf.grid`.
    fn digest(
        &self,
        segment: &SegmentRecord,
        range: bool,
        levels: &[TimeLevel],
        sketch: Option<&mut BlockSketch>,
        buf: &mut DigestBuf,
    ) -> Digest;
}

/// What one [`SegmentDigester::digest`] call produced. Each statistic fails
/// open on its own.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Digest {
    /// The stored-value range; `None` when not asked for or unknown.
    pub range: Option<ValueInterval>,
    /// False when the segment could not be sketched (or no sketch was given).
    pub sketched: bool,
    /// False when the deltas could not be computed; `buf.deltas` is then
    /// meaningless.
    pub rolled_up: bool,
    /// Whether the model's values were reconstructed.
    pub reconstructed: bool,
    /// Data points fed to the quantile sketch.
    pub points_sketched: u64,
}

/// Store-owned buffers a [`SegmentDigester`] works in, reused from segment
/// to segment so the steady-state insert path allocates nothing.
#[derive(Debug, Default)]
pub struct DigestBuf {
    /// The segment's reconstructed values, timestamp-major.
    pub grid: Vec<Value>,
    /// The segment's rollup deltas.
    pub deltas: Vec<RollupDelta>,
    /// Digester scratch: the distinct tick sub-ranges the levels split the
    /// segment into.
    pub ranges: Vec<(usize, usize)>,
    /// Digester scratch: per `(level, bucket)` the index of its sub-range.
    pub cells: Vec<(TimeLevel, Timestamp, usize)>,
    /// Digester scratch: one series' aggregate per distinct sub-range.
    pub accs: Vec<RollupAcc>,
}

/// Counters of the insert-time pass, next to [`CacheStats`](crate::CacheStats)
/// on the read side. Plain counts, no timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestStats {
    /// Segments absorbed (inserts, imports and recovery rescans).
    pub digests: u64,
    /// Model reconstructions the digester reported — at most one per
    /// digest.
    pub reconstructions: u64,
    /// Data points the digester fed to quantile sketches.
    pub points_sketched: u64,
}

/// The store's running per-group sketches over every segment it holds, in
/// written blocks and in the write buffer alike. A group a segment of which
/// could not be sketched maps to `None`: its sketch fails open — and so does
/// every query whose scope contains it — while the other groups keep
/// answering.
///
/// Sketch merges are bit-identical under any partition of the updates (see
/// the `mdb_sketch` crate docs), so feeding every segment into one running
/// sketch per group answers exactly what merging per-block sketches at query
/// time would.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupSketches(pub(crate) BTreeMap<Gid, Option<BlockSketch>>);

impl GroupSketches {
    /// Every group's sketch in gid order; `None` marks a poisoned group.
    pub fn iter(&self) -> impl Iterator<Item = (Gid, Option<&BlockSketch>)> + '_ {
        self.0.iter().map(|(gid, sketch)| (*gid, sketch.as_ref()))
    }

    /// Merges the sketches of the groups `in_scope` accepts into `merged`;
    /// `false` when one of them is poisoned.
    pub(crate) fn merge_into(
        &self,
        in_scope: impl Fn(Gid) -> bool,
        merged: &mut BlockSketch,
    ) -> bool {
        for (gid, sketch) in &self.0 {
            if in_scope(*gid) {
                match sketch {
                    Some(sketch) => merged.merge(sketch),
                    None => return false,
                }
            }
        }
        true
    }
}

/// A store's one digester, the statistics it is configured to keep, and the
/// buffers and counters of the pass that runs it (see the module docs).
pub(crate) struct Absorber {
    digester: Option<Arc<dyn SegmentDigester>>,
    /// Whether stored-value ranges are kept.
    bounds_values: bool,
    /// Whether per-group sketches are kept.
    sketches: bool,
    /// The maintained rollup levels, when rollup cells are kept.
    rollup_levels: Option<Vec<TimeLevel>>,
    buf: DigestBuf,
    stats: DigestStats,
}

impl Absorber {
    /// Keeps each statistic a provider is given for and runs one of the
    /// providers' digesters for all of them. All providers given to one
    /// store must be built over the same catalog and registry.
    pub(crate) fn new(
        value_bounds: Option<Arc<dyn SegmentDigester>>,
        sketch_feed: Option<Arc<dyn SegmentDigester>>,
        rollup_feed: Option<RollupFeed>,
    ) -> Self {
        Self {
            bounds_values: value_bounds.is_some(),
            sketches: sketch_feed.is_some(),
            rollup_levels: rollup_feed.as_ref().map(|feed| feed.levels.clone()),
            digester: sketch_feed
                .or(rollup_feed.map(|feed| feed.digester))
                .or(value_bounds),
            buf: DigestBuf::default(),
            stats: DigestStats::default(),
        }
    }

    pub(crate) fn bounds_values(&self) -> bool {
        self.bounds_values
    }

    pub(crate) fn sketches(&self) -> bool {
        self.sketches
    }

    pub(crate) fn rollup_levels(&self) -> Option<&[TimeLevel]> {
        self.rollup_levels.as_deref()
    }

    pub(crate) fn stats(&self) -> DigestStats {
        self.stats
    }

    /// Derives and records every configured statistic of one finalized
    /// segment — its rollup cells and its points in its group's running
    /// sketch — and returns its stored-value range for the block summary.
    /// Statistics that already failed open (poisoned `rollups`, the
    /// segment's poisoned group in `sketches`) are not computed.
    pub(crate) fn absorb(
        &mut self,
        segment: &SegmentRecord,
        rollups: Option<&mut RollupCells>,
        sketches: &mut GroupSketches,
    ) -> Option<ValueInterval> {
        self.stats.digests += 1;
        let digester = self.digester.as_ref()?;
        let sketch = if self.sketches {
            let entry = sketches.0.entry(segment.gid);
            entry.or_insert_with(|| Some(BlockSketch::new())).as_mut()
        } else {
            None
        };
        let sketching = sketch.is_some();
        let rollups = rollups.filter(|cells| cells.is_sound());
        let levels = match (&rollups, &self.rollup_levels) {
            (Some(_), Some(levels)) => levels.as_slice(),
            _ => &[],
        };
        let digest = if self.bounds_values || sketching || !levels.is_empty() {
            let digest =
                digester.digest(segment, self.bounds_values, levels, sketch, &mut self.buf);
            self.stats.reconstructions += u64::from(digest.reconstructed);
            self.stats.points_sketched += digest.points_sketched;
            digest
        } else {
            Digest::default()
        };
        if sketching && !digest.sketched {
            sketches.0.insert(segment.gid, None);
        }
        if let Some(cells) = rollups {
            if digest.rolled_up {
                cells.apply(segment.gid, &self.buf.deltas);
            } else {
                cells.poison();
            }
        }
        digest.range
    }
}

/// A digester over hand-written closures, for tests that need statistics
/// without models.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::DiskStoreOptions;

    type RangeFn = dyn Fn(&SegmentRecord) -> Option<ValueInterval> + Send + Sync;
    type SketchFn = dyn Fn(&SegmentRecord, &mut BlockSketch) -> bool + Send + Sync;
    type RollupFn = dyn Fn(&SegmentRecord) -> Option<Vec<RollupDelta>> + Send + Sync;

    /// One closure per statistic; a statistic without one is not kept by
    /// the store [`TestDigester::options`] configures.
    #[derive(Default)]
    pub(crate) struct TestDigester {
        range: Option<Arc<RangeFn>>,
        sketch: Option<Arc<SketchFn>>,
        rollup: Option<(Vec<TimeLevel>, Arc<RollupFn>)>,
    }

    impl TestDigester {
        /// The stored-value range of a segment, `None` when unknown.
        pub(crate) fn range(
            mut self,
            f: impl Fn(&SegmentRecord) -> Option<ValueInterval> + Send + Sync + 'static,
        ) -> Self {
            self.range = Some(Arc::new(f));
            self
        }

        /// Feeds a segment into its group's sketch; `false` poisons it.
        pub(crate) fn sketch(
            mut self,
            f: impl Fn(&SegmentRecord, &mut BlockSketch) -> bool + Send + Sync + 'static,
        ) -> Self {
            self.sketch = Some(Arc::new(f));
            self
        }

        /// A segment's rollup deltas at `levels`; `None` poisons the cells.
        pub(crate) fn rollup(
            mut self,
            levels: Vec<TimeLevel>,
            f: impl Fn(&SegmentRecord) -> Option<Vec<RollupDelta>> + Send + Sync + 'static,
        ) -> Self {
            self.rollup = Some((levels, Arc::new(f)));
            self
        }

        /// Default store options keeping exactly the statistics defined.
        pub(crate) fn options(self) -> DiskStoreOptions {
            let levels = self.rollup.as_ref().map(|(levels, _)| levels.clone());
            let (range, sketch) = (self.range.is_some(), self.sketch.is_some());
            let digester: Arc<dyn SegmentDigester> = Arc::new(self);
            DiskStoreOptions {
                value_bounds: range.then(|| Arc::clone(&digester)),
                sketch_feed: sketch.then(|| Arc::clone(&digester)),
                rollup_feed: levels.map(|levels| RollupFeed { levels, digester }),
                ..DiskStoreOptions::default()
            }
        }
    }

    impl SegmentDigester for TestDigester {
        fn digest(
            &self,
            segment: &SegmentRecord,
            range: bool,
            levels: &[TimeLevel],
            sketch: Option<&mut BlockSketch>,
            buf: &mut DigestBuf,
        ) -> Digest {
            let mut digest = Digest {
                rolled_up: true,
                ..Digest::default()
            };
            if range {
                digest.range = self.range.as_ref().and_then(|f| f(segment));
            }
            if let Some(sketch) = sketch {
                digest.sketched = self.sketch.as_ref().is_some_and(|f| f(segment, sketch));
            }
            buf.deltas.clear();
            if !levels.is_empty() {
                match self.rollup.as_ref().and_then(|(_, f)| f(segment)) {
                    Some(deltas) => buf.deltas = deltas,
                    None => digest.rolled_up = false,
                }
            }
            digest
        }
    }
}
