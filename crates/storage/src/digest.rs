//! Insert-time maintenance of everything a store derives from a finalized
//! segment: its stored-value range (for the block summary), its rollup
//! deltas (continuous aggregates) and its share of the open block's
//! per-group sketch, which the block's cut merges into the store's running
//! per-group sketches ([`GroupSketches`]).
//!
//! Inserts, the handoff import and the recovery rescan go through one
//! function (`Absorber::absorb`), so statistics persisted at write time and
//! statistics rebuilt from the log cannot diverge. The store knows nothing
//! about models: the providers it is configured with decode segments for
//! it. A provider is a plain closure ([`ValueBoundsFn`], [`SketchFeedFn`],
//! [`RollupFeedFn`](crate::RollupFeedFn)), and the ones `mdb_query` builds
//! also carry a [`SegmentDigester`] that derives all three statistics in
//! **one pass over one reconstruction** of the segment, into buffers the
//! store owns and reuses. The closures remain the definition of each
//! statistic — the fused pass must equal them bit for bit — and the only
//! path for hand-written providers.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use mdb_types::{BlockSketch, Gid, SegmentRecord, TimeLevel, Timestamp, Value, ValueInterval};

use crate::rollup::{RollupAcc, RollupCells, RollupDelta, RollupFeed};

/// Derives every statistic a store keeps per segment in one pass (see the
/// module docs). Implemented by `mdb_query` over the catalog and the model
/// registry.
pub trait SegmentDigester: Send + Sync {
    /// Digests `segment`: its stored-value range when `range` is set, its
    /// rollup deltas at `levels` (left in `buf.deltas`, in the rollup
    /// feed's order), and its data points into `sketch` when one is given.
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
/// open on its own, exactly as its closure would.
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

/// A statistic provider as a store is configured with it: the closure that
/// defines the statistic and, for providers built by `mdb_query`, the fused
/// digester computing the same thing. A bare closure converts with `into()`.
/// All fused providers given to one store must be built over the same
/// catalog and registry (the store runs one of their digesters for all).
pub struct Feed<F: ?Sized> {
    /// The per-segment closure — used when `fused` is `None`, and the
    /// reference `fused` is tested against.
    pub feed: Arc<F>,
    /// The one-pass digester, if the provider has one.
    pub fused: Option<Arc<dyn SegmentDigester>>,
}

impl<F: ?Sized> Clone for Feed<F> {
    fn clone(&self) -> Self {
        Self {
            feed: Arc::clone(&self.feed),
            fused: self.fused.clone(),
        }
    }
}

impl<F: ?Sized> From<Arc<F>> for Feed<F> {
    fn from(feed: Arc<F>) -> Self {
        Self { feed, fused: None }
    }
}

/// Computes the stored-value range of a segment on the write path, or `None`
/// when it cannot be known cheaply (its block's value range then becomes
/// unknown, and value predicates never prune that block).
pub type ValueBoundsFn = Arc<dyn Fn(&SegmentRecord) -> Option<ValueInterval> + Send + Sync>;

/// Feeds one segment — its member time series ids and every reconstructed
/// data-point value — into its group's sketch on the write path (typically
/// `mdb_query::sketch_feed` closed over the catalog and model registry).
/// Returns `false` when the segment cannot be decoded; its group's sketch
/// then fails open to `None`, like every other statistic.
pub type SketchFeedFn = Arc<dyn Fn(&SegmentRecord, &mut BlockSketch) -> bool + Send + Sync>;

/// The stored-value range provider of a store (see [`ValueBoundsFn`]).
pub type ValueBounds = Feed<dyn Fn(&SegmentRecord) -> Option<ValueInterval> + Send + Sync>;

/// The sketch provider of a store (see [`SketchFeedFn`]).
pub type SketchFeed = Feed<dyn Fn(&SegmentRecord, &mut BlockSketch) -> bool + Send + Sync>;

/// Counters of the insert-time pass, next to [`CacheStats`](crate::CacheStats)
/// on the read side. Plain counts, no timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestStats {
    /// Segments absorbed (inserts, imports and recovery rescans).
    pub digests: u64,
    /// Model reconstructions by the fused pass — at most one per digest.
    /// Closures reconstruct out of the store's sight and are not counted.
    pub reconstructions: u64,
    /// Data points the fused pass fed to quantile sketches.
    pub points_sketched: u64,
}

/// Per-group sketches: those of the open block (segments not yet in a
/// written block), or the store's running sketches over every written
/// block. A group a segment of which could not be sketched maps to `None`:
/// its sketches fail open — and so does every query whose scope contains
/// it — while the other groups keep answering.
///
/// Sketch merges are bit-identical under any partition of the updates (see
/// the `mdb_sketch` crate docs), so merging each written block into one
/// running sketch per group answers exactly what merging every block's
/// sketches at query time would.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupSketches(pub(crate) BTreeMap<Gid, Option<BlockSketch>>);

impl GroupSketches {
    /// Every group's sketch in gid order; `None` marks a poisoned group.
    pub fn iter(&self) -> impl Iterator<Item = (Gid, Option<&BlockSketch>)> + '_ {
        self.0.iter().map(|(gid, sketch)| (*gid, sketch.as_ref()))
    }

    /// Merges an ended block's sketches into these running ones, leaving
    /// `block` empty for the next block. A group poisoned on either side
    /// stays poisoned.
    pub(crate) fn merge_block(&mut self, block: &mut GroupSketches) {
        for (gid, sketch) in std::mem::take(&mut block.0) {
            match self.0.entry(gid) {
                Entry::Vacant(vacant) => {
                    vacant.insert(sketch);
                }
                Entry::Occupied(mut running) => match (running.get_mut(), sketch) {
                    (Some(running), Some(sketch)) => running.merge(&sketch),
                    (running, _) => *running = None,
                },
            }
        }
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

/// A store's configured providers plus the buffers and counters of the pass
/// that runs them (see the module docs).
pub(crate) struct Absorber {
    value_bounds: Option<ValueBounds>,
    sketch_feed: Option<SketchFeed>,
    rollup_feed: Option<RollupFeed>,
    /// The digester run for every provider that has one.
    digester: Option<Arc<dyn SegmentDigester>>,
    buf: DigestBuf,
    stats: DigestStats,
}

impl Absorber {
    pub(crate) fn new(
        value_bounds: Option<ValueBounds>,
        sketch_feed: Option<SketchFeed>,
        rollup_feed: Option<RollupFeed>,
    ) -> Self {
        let digester = None
            .or(sketch_feed.as_ref().and_then(|f| f.fused.clone()))
            .or(rollup_feed.as_ref().and_then(|f| f.fused.clone()))
            .or(value_bounds.as_ref().and_then(|f| f.fused.clone()));
        Self {
            value_bounds,
            sketch_feed,
            rollup_feed,
            digester,
            buf: DigestBuf::default(),
            stats: DigestStats::default(),
        }
    }

    pub(crate) fn bounds_values(&self) -> bool {
        self.value_bounds.is_some()
    }

    pub(crate) fn sketches(&self) -> bool {
        self.sketch_feed.is_some()
    }

    pub(crate) fn rollup_feed(&self) -> Option<&RollupFeed> {
        self.rollup_feed.as_ref()
    }

    pub(crate) fn stats(&self) -> DigestStats {
        self.stats
    }

    /// Derives and records every configured statistic of one finalized
    /// segment — its rollup cells and its share of the `open` block's
    /// sketches — and returns its stored-value range for the block summary.
    /// Statistics that already failed open (poisoned `rollups`, the
    /// segment's poisoned group in `open`) are not computed.
    pub(crate) fn absorb(
        &mut self,
        segment: &SegmentRecord,
        rollups: Option<&mut RollupCells>,
        open: &mut GroupSketches,
    ) -> Option<ValueInterval> {
        self.stats.digests += 1;
        let bounds = self.value_bounds.as_ref();
        let mut sketch = self.sketch_feed.as_ref().and_then(|_| {
            open.0
                .entry(segment.gid)
                .or_insert_with(|| Some(BlockSketch::new()))
                .as_mut()
        });
        let sketch_feed = self.sketch_feed.as_ref().filter(|_| sketch.is_some());
        let rollup = self
            .rollup_feed
            .as_ref()
            .zip(rollups.filter(|cells| cells.is_sound()));

        let fused_range = bounds.is_some_and(|f| f.fused.is_some());
        let fused_sketch = sketch_feed.is_some_and(|f| f.fused.is_some());
        let fused_levels = match &rollup {
            Some((feed, _)) if feed.fused.is_some() => feed.levels.as_slice(),
            _ => &[],
        };
        let digest = match &self.digester {
            Some(digester) if fused_range || fused_sketch || !fused_levels.is_empty() => {
                let digest = digester.digest(
                    segment,
                    fused_range,
                    fused_levels,
                    sketch.as_deref_mut().filter(|_| fused_sketch),
                    &mut self.buf,
                );
                self.stats.reconstructions += u64::from(digest.reconstructed);
                self.stats.points_sketched += digest.points_sketched;
                digest
            }
            _ => Digest::default(),
        };

        let range = match bounds {
            Some(_) if fused_range => digest.range,
            Some(bounds) => (bounds.feed)(segment),
            None => None,
        };
        if let (Some(feed), Some(sketch)) = (sketch_feed, sketch) {
            let fed = if fused_sketch {
                digest.sketched
            } else {
                (feed.feed)(segment, sketch)
            };
            if !fed {
                open.0.insert(segment.gid, None);
            }
        }
        if let Some((feed, cells)) = rollup {
            if feed.fused.is_none() {
                cells.feed_segment(&feed.feed, segment);
            } else if digest.rolled_up {
                cells.apply(segment.gid, &self.buf.deltas);
            } else {
                cells.poison();
            }
        }
        range
    }
}
