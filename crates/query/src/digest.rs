//! The ingest-time statistic providers a segment store is configured with —
//! stored-value ranges ([`value_bounds_fn`]), per-group sketches
//! ([`sketch_feed`]) and continuous-aggregate deltas ([`rollup_feed`]) — and
//! the fused pass ([`mdb_storage::SegmentDigester`]) that derives all three
//! from **one** reconstruction of each finalized segment.
//!
//! Each constructor returns the closure that *defines* its statistic with
//! the arithmetic of the query path it mirrors, plus a handle to the fused
//! pass. A store runs the fused pass; the closures are what
//! `tests/fused_digest.rs` holds it to, bit for bit.

use std::collections::HashMap;
use std::sync::Arc;

use mdb_models::{segment_value_range, ModelRegistry};
use mdb_storage::{
    Catalog, Digest, DigestBuf, RollupAcc, RollupDelta, RollupFeed, SegmentDigester, SketchFeed,
    ValueBounds,
};
use mdb_types::{BlockSketch, Gid, SegmentRecord, Tid, TimeLevel, Value};

use crate::aggregate::{grid_aggregate, Accumulator, SegmentCursor};
use crate::engine::BoundarySplits;

/// The stored-value range provider behind the store's block statistics: the
/// models' constant-time aggregate over a segment's full range, closed over
/// the registry and the catalog's group sizes. `None` for models without a
/// closed form (Gorilla), whose blocks then have an unknown value range and
/// are never pruned by value.
pub fn value_bounds_fn(catalog: &Arc<Catalog>, registry: &Arc<ModelRegistry>) -> ValueBounds {
    let sizes: HashMap<Gid, usize> = catalog.groups.iter().map(|g| (g.gid, g.size())).collect();
    let closure_registry = Arc::clone(registry);
    ValueBounds {
        feed: Arc::new(move |segment| {
            segment_value_range(&closure_registry, segment, *sizes.get(&segment.gid)?)
        }),
        fused: Some(ModelDigester::shared(catalog, registry)),
    }
}

/// Builds the ingest-time sketch feed for a store: reconstructs every data
/// point of a segment with exactly the arithmetic the Data Point View uses —
/// `grid[idx × n_present + series_pos] / scaling` — and feeds the values
/// into the quantile sketch, each present Tid into the distinct sketch, and
/// each series' point count into the top-k sketch. Returns `false` (sketches
/// fail open) when the segment references an unknown group or cannot be
/// decoded.
pub fn sketch_feed(catalog: &Arc<Catalog>, registry: &Arc<ModelRegistry>) -> SketchFeed {
    let closure_catalog = Arc::clone(catalog);
    let closure_registry = Arc::clone(registry);
    SketchFeed {
        feed: Arc::new(move |segment, sketch| {
            let Some(group) = closure_catalog.group(segment.gid) else {
                return false;
            };
            let group_size = group.size();
            let n_present = segment.gaps.count_present(group_size);
            if n_present == 0 {
                return true;
            }
            let mut buffer = Vec::new();
            let mut cursor = SegmentCursor::new(segment.view(), n_present, &mut buffer);
            let Some(grid) = cursor.grid(&closure_registry) else {
                return false;
            };
            let ticks = grid.len() / n_present;
            for (series_pos, member_pos) in segment.gaps.present_positions(group_size).enumerate() {
                let tid = group.tids[member_pos];
                let scaling = closure_catalog.scaling_of(tid);
                sketch.distinct.insert(u64::from(tid));
                sketch.topk.add(tid, ticks as u64);
                for idx in 0..ticks {
                    sketch
                        .quantiles
                        .insert(f64::from(grid[idx * n_present + series_pos]) / scaling);
                }
            }
            true
        }),
        fused: Some(ModelDigester::shared(catalog, registry)),
    }
}

/// Builds the ingest-time rollup feed for a store: for every present series
/// of a finalized segment and every configured time level, the segment's
/// tick range is split at calendar boundaries (Algorithm 6) and
/// each sub-range is aggregated with **exactly** the arithmetic the Segment
/// View's bucketed scan uses — a fresh [`Accumulator`] folded with
/// [`Accumulator::add_segment_agg`] over the model's constant-time
/// aggregate — so a cell built incrementally from these deltas is
/// bit-identical to the per-(tid, bucket) partial a scan would produce.
/// Returns `None` (poisoning the cells; queries fall back to scanning)
/// when the segment references an unknown group or cannot be aggregated.
pub fn rollup_feed(
    catalog: &Arc<Catalog>,
    registry: &Arc<ModelRegistry>,
    levels: &[TimeLevel],
) -> RollupFeed {
    let closure_catalog = Arc::clone(catalog);
    let closure_registry = Arc::clone(registry);
    let feed_levels = levels.to_vec();
    RollupFeed {
        levels: levels.to_vec(),
        feed: Arc::new(move |segment: &SegmentRecord| {
            let group = closure_catalog.group(segment.gid)?;
            let group_size = group.size();
            let n_present = segment.gaps.count_present(group_size);
            if n_present == 0 {
                return Some(Vec::new());
            }
            let mut grid = Vec::new();
            let mut cursor = SegmentCursor::new(segment.view(), n_present, &mut grid);
            let last_tick = cursor.segment.len() - 1;
            let mut deltas = Vec::new();
            for (series_pos, member_pos) in segment.gaps.present_positions(group_size).enumerate() {
                let tid = group.tids[member_pos];
                let scaling = closure_catalog.scaling_of(tid);
                for &level in &feed_levels {
                    for (bucket, sub) in BoundarySplits::new(segment.view(), (0, last_tick), level)
                    {
                        let agg =
                            cursor.aggregate_with(&closure_registry, series_pos, sub, true)?;
                        deltas.push(RollupDelta {
                            tid,
                            level,
                            bucket,
                            acc: rollup_acc(agg, sub, scaling),
                        });
                    }
                }
            }
            Some(deltas)
        }),
        fused: Some(ModelDigester::shared(catalog, registry)),
    }
}

/// One sub-range's aggregate as a rollup accumulator — the fold a bucketed
/// scan starts a `(tid, bucket)` partial with.
fn rollup_acc(agg: mdb_models::SegmentAgg, sub: (usize, usize), scaling: f64) -> RollupAcc {
    let mut acc = Accumulator::new();
    acc.add_segment_agg(agg, (sub.1 - sub.0 + 1) as u64, scaling);
    RollupAcc {
        count: acc.count,
        sum: acc.sum,
        min: acc.min,
        max: acc.max,
    }
}

/// The fused pass over the catalog's groups and the model registry. What it
/// shares between the three statistics is the reconstruction: a segment's
/// values are decoded at most once, into the store's buffer, for the sketch
/// and for every rollup sub-range of a model without a closed form. What it
/// does not repeat per series is the calendar arithmetic: the levels' splits
/// are computed once per segment, and a sub-range several levels share
/// (a segment inside one hour is also inside one day and one month) is
/// aggregated once.
struct ModelDigester {
    registry: Arc<ModelRegistry>,
    /// Per group, its member series in member order with their scaling.
    groups: HashMap<Gid, Vec<(Tid, f64)>>,
}

impl ModelDigester {
    fn shared(catalog: &Catalog, registry: &Arc<ModelRegistry>) -> Arc<dyn SegmentDigester> {
        let mut groups = HashMap::new();
        for group in &catalog.groups {
            // First wins, as `Catalog::group` resolves a gid.
            groups.entry(group.gid).or_insert_with(|| {
                let scaled = |tid: &Tid| (*tid, catalog.scaling_of(*tid));
                group.tids.iter().map(scaled).collect()
            });
        }
        Arc::new(Self {
            registry: Arc::clone(registry),
            groups,
        })
    }
}

impl SegmentDigester for ModelDigester {
    fn digest(
        &self,
        segment: &SegmentRecord,
        range: bool,
        levels: &[TimeLevel],
        mut sketch: Option<&mut BlockSketch>,
        buf: &mut DigestBuf,
    ) -> Digest {
        let mut digest = Digest::default();
        buf.deltas.clear();
        let Some(members) = self.groups.get(&segment.gid) else {
            return digest;
        };
        let n_present = segment.gaps.count_present(members.len());
        if n_present == 0 {
            // Nothing to sketch or roll up, and no range to speak of.
            digest.sketched = sketch.is_some();
            digest.rolled_up = true;
            return digest;
        }
        let Some(model) = self.registry.get(segment.mid) else {
            return digest;
        };
        if range {
            digest.range = segment_value_range(&self.registry, segment, members.len());
        }
        let count = segment.len();

        // The sub-ranges to aggregate, once for all series: each level's
        // split of the segment, with sub-ranges shared between levels
        // stored (and later aggregated) once.
        buf.ranges.clear();
        buf.cells.clear();
        for &level in levels {
            for (bucket, sub) in BoundarySplits::new(segment.view(), (0, count - 1), level) {
                let slot = buf
                    .ranges
                    .iter()
                    .position(|r| *r == sub)
                    .unwrap_or_else(|| {
                        buf.ranges.push(sub);
                        buf.ranges.len() - 1
                    });
                buf.cells.push((level, bucket, slot));
            }
        }

        // The one reconstruction: up front for a sketch, which reads every
        // value; otherwise on the first sub-range without a closed form.
        let mut grid_ok = None;
        let mut reconstruct = |grid: &mut Vec<Value>| {
            *grid_ok.get_or_insert_with(|| model.grid_into(&segment.params, n_present, count, grid))
        };
        let ticks = match &sketch {
            Some(_) if reconstruct(&mut buf.grid) => buf.grid.len() / n_present,
            _ => {
                sketch = None;
                0
            }
        };
        digest.sketched = sketch.is_some();
        digest.points_sketched = (ticks * n_present) as u64;
        digest.rolled_up = true;

        for (series, member) in segment.gaps.present_positions(members.len()).enumerate() {
            let (tid, scaling) = members[member];
            if digest.rolled_up {
                buf.accs.clear();
                for &sub in &buf.ranges {
                    let closed = model.agg(&segment.params, n_present, count, sub, series);
                    let agg = match closed {
                        Some(agg) => agg,
                        None if reconstruct(&mut buf.grid)
                            && buf.grid.len() >= count * n_present =>
                        {
                            grid_aggregate(&buf.grid, n_present, series, sub)
                        }
                        None => {
                            digest.rolled_up = false;
                            break;
                        }
                    };
                    buf.accs.push(rollup_acc(agg, sub, scaling));
                }
            }
            if digest.rolled_up {
                for &(level, bucket, slot) in &buf.cells {
                    buf.deltas.push(RollupDelta {
                        tid,
                        level,
                        bucket,
                        acc: buf.accs[slot],
                    });
                }
            }
            if let Some(sketch) = sketch.as_deref_mut() {
                sketch.distinct.insert(u64::from(tid));
                sketch.topk.add(tid, ticks as u64);
                let column = (0..ticks).map(|idx| buf.grid[idx * n_present + series]);
                sketch
                    .quantiles
                    .insert_run(column.map(|value| f64::from(value) / scaling));
            }
        }
        digest.reconstructed = grid_ok.is_some();
        digest
    }
}
