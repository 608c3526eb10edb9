//! The ingest-time statistics a segment store keeps — stored-value ranges
//! ([`value_bounds_fn`]), per-group sketches ([`sketch_feed`]) and
//! continuous-aggregate deltas ([`rollup_feed`]) — and the one digester
//! ([`mdb_storage::SegmentDigester`]) that derives all three from **one**
//! reconstruction of each finalized segment.
//!
//! Each constructor configures a store to keep its statistic and hands it
//! the same digester; the store runs one of them for all. What each
//! statistic *is* — the arithmetic of the query path it mirrors — is written
//! down once more, one statistic at a time, in this module's tests, which
//! hold the digester to it bit for bit.

use std::collections::HashMap;
use std::sync::Arc;

use mdb_models::{segment_value_range, ModelRegistry};
use mdb_storage::{Catalog, Digest, DigestBuf, RollupDelta, RollupFeed, SegmentDigester};
use mdb_types::{BlockSketch, Gid, SegmentRecord, Tid, TimeLevel, Value, ValueInterval};

use crate::aggregate::{grid_aggregate, term};
use crate::tile::Tiling;

/// Keeps a store's stored-value ranges, behind its block statistics: the
/// models' constant-time aggregate over a segment's full range, per present
/// series, and for a model without a closed form (Gorilla) the extremes of
/// its reconstructed values. A segment that cannot be decoded, or holds a
/// `NaN`, has no range, so its block's value range is unknown and the block
/// is never pruned by value.
pub fn value_bounds_fn(
    catalog: &Arc<Catalog>,
    registry: &Arc<ModelRegistry>,
) -> Arc<dyn SegmentDigester> {
    ModelDigester::shared(catalog, registry)
}

/// Keeps a store's per-group sketches: every data point of a segment,
/// reconstructed with exactly the arithmetic the Data Point View uses —
/// `grid[idx × n_present + series_pos] / scaling` — goes into the quantile
/// sketch, each present Tid into the distinct sketch, and each series' point
/// count into the top-k sketch. A segment of an unknown group, or one that
/// cannot be decoded, poisons its group's sketch (it fails open).
pub fn sketch_feed(
    catalog: &Arc<Catalog>,
    registry: &Arc<ModelRegistry>,
) -> Arc<dyn SegmentDigester> {
    ModelDigester::shared(catalog, registry)
}

/// Keeps a store's rollup cells at `levels`: for every present series of a
/// finalized segment and every level, the segment's tick range is split at
/// calendar boundaries (Algorithm 6) and each sub-range is aggregated with
/// **exactly** the arithmetic the Segment View's bucketed scan uses — one
/// `term` of the model's constant-time aggregate — so a cell built
/// incrementally from these deltas is bit-identical to the per-(tid,
/// bucket) partial a scan would produce. A segment of an unknown group, or
/// one that cannot be aggregated, poisons the cells (queries fall back to
/// scanning).
pub fn rollup_feed(
    catalog: &Arc<Catalog>,
    registry: &Arc<ModelRegistry>,
    levels: &[TimeLevel],
) -> RollupFeed {
    RollupFeed {
        levels: levels.to_vec(),
        digester: ModelDigester::shared(catalog, registry),
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
pub(crate) struct ModelDigester {
    registry: Arc<ModelRegistry>,
    /// Per group, its member series in member order with their scaling.
    groups: HashMap<Gid, Vec<(Tid, f64)>>,
}

impl ModelDigester {
    pub(crate) fn shared(
        catalog: &Catalog,
        registry: &Arc<ModelRegistry>,
    ) -> Arc<dyn SegmentDigester> {
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
        let values = count * n_present;

        // The sub-ranges to aggregate, once for all series: each level's
        // split of the segment, with sub-ranges shared between levels
        // stored (and later aggregated) once.
        buf.ranges.clear();
        buf.cells.clear();
        for &level in levels {
            let tiles = Tiling::whole(level);
            for (bucket, sub) in tiles.splits(
                segment.start_time,
                segment.sampling_interval,
                (0, count - 1),
            ) {
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
                        None if reconstruct(&mut buf.grid) && buf.grid.len() >= values => {
                            grid_aggregate(&buf.grid, n_present, series, sub)
                        }
                        None => {
                            digest.rolled_up = false;
                            break;
                        }
                    };
                    buf.accs
                        .push(term(agg, (sub.1 - sub.0 + 1) as u64, scaling));
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
        // Without a closed form, the range is the grid's, reconstructed
        // above for a sketch or a rollup, or here for the range alone.
        if range && digest.range.is_none() && reconstruct(&mut buf.grid) {
            digest.range = buf.grid.get(..values).and_then(grid_range);
        }
        digest.reconstructed = grid_ok.is_some();
        digest
    }
}

/// The range of reconstructed values, `None` when one is `NaN`.
fn grid_range(values: &[Value]) -> Option<ValueInterval> {
    let (mut lo, mut hi, mut nan) = (Value::INFINITY, Value::NEG_INFINITY, false);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
        nan |= v.is_nan();
    }
    (!nan).then(|| ValueInterval::new(f64::from(lo), f64::from(hi)))
}

#[cfg(test)]
mod tests {
    //! The digester against its definition. [`Reference`] defines each
    //! statistic on its own, with the arithmetic of the query path it
    //! mirrors; the digester reconstructs a segment once and derives all
    //! three in one pass. These tests hold it to the reference, bit for bit:
    //!
    //! * per segment, over PMC-Mean, Swing and Gorilla segments with gaps,
    //!   scaled series, calendar-straddling ranges and undecodable input;
    //! * per store, by writing the same segments through a store running the
    //!   digester and one running the reference and comparing `segments.log`
    //!   and `segments.idx` byte for byte — and the answers of
    //!   `merge_sketches` and `rollup_cells` before a flush, after it, after a
    //!   sidecar reopen and after a rescan;
    //! * per reconstruction, with a counting model type: one `grid` call per
    //!   inserted segment that needs one, none when a block is written or a
    //!   sketch query is answered.

    use std::sync::atomic::{AtomicUsize, Ordering};

    use bytes::Bytes;
    use mdb_models::{Fitter, ModelType, SegmentAgg, MID_GORILLA, MID_PMC_MEAN, MID_SWING};
    use mdb_storage::{DiskStore, DiskStoreOptions, SegmentPredicate, SegmentStore};
    use mdb_testutil::TempDir;
    use mdb_types::{ErrorBound, GapsMask, GroupMeta, TimeSeriesMeta, Timestamp, ValueInterval};
    use proptest::prelude::*;

    use super::*;
    use crate::aggregate::SegmentCursor;

    /// Each statistic's definition, one statistic at a time, and a digester
    /// that runs them one after the other: the reference the one-pass
    /// digester is held to, in a store as well as per segment.
    struct Reference {
        catalog: Arc<Catalog>,
        registry: Arc<ModelRegistry>,
    }

    impl Reference {
        fn new(catalog: &Arc<Catalog>, registry: &Arc<ModelRegistry>) -> Self {
            Self {
                catalog: Arc::clone(catalog),
                registry: Arc::clone(registry),
            }
        }

        /// The models' constant-time aggregate over the segment's full
        /// range; without one, the extremes of the reconstructed values
        /// (none when one is `NaN`).
        fn range(&self, segment: &SegmentRecord) -> Option<ValueInterval> {
            let group = self.catalog.group(segment.gid)?;
            let closed = segment_value_range(&self.registry, segment, group.size());
            let n_present = segment.gaps.count_present(group.size());
            if closed.is_some() || n_present == 0 {
                return closed;
            }
            let mut buffer = Vec::new();
            let mut cursor = SegmentCursor::new(segment.view(), n_present, &mut buffer);
            let grid = cursor.grid(&self.registry)?;
            let grid = &grid[..segment.len() * n_present];
            let lo = grid.iter().copied().fold(Value::INFINITY, Value::min);
            let hi = grid.iter().copied().fold(Value::NEG_INFINITY, Value::max);
            let nan = grid.iter().any(|v| v.is_nan());
            (!nan).then(|| ValueInterval::new(f64::from(lo), f64::from(hi)))
        }

        /// Every data point as the Data Point View reconstructs it —
        /// `grid[idx × n_present + series_pos] / scaling` — into the quantile
        /// sketch, each present Tid into the distinct sketch, each series'
        /// point count into the top-k sketch; `false` when the segment
        /// cannot be decoded.
        fn sketch(&self, segment: &SegmentRecord, sketch: &mut BlockSketch) -> bool {
            let Some(group) = self.catalog.group(segment.gid) else {
                return false;
            };
            let group_size = group.size();
            let n_present = segment.gaps.count_present(group_size);
            if n_present == 0 {
                return true;
            }
            let mut buffer = Vec::new();
            let mut cursor = SegmentCursor::new(segment.view(), n_present, &mut buffer);
            let Some(grid) = cursor.grid(&self.registry) else {
                return false;
            };
            let ticks = grid.len() / n_present;
            for (series_pos, member_pos) in segment.gaps.present_positions(group_size).enumerate() {
                let tid = group.tids[member_pos];
                let scaling = self.catalog.scaling_of(tid);
                sketch.distinct.insert(u64::from(tid));
                sketch.topk.add(tid, ticks as u64);
                for idx in 0..ticks {
                    sketch
                        .quantiles
                        .insert(f64::from(grid[idx * n_present + series_pos]) / scaling);
                }
            }
            true
        }

        /// Per present series and level, the segment split at calendar
        /// boundaries and each sub-range aggregated as the Segment View's
        /// bucketed scan starts a `(tid, bucket)` partial; `None` when the
        /// segment cannot be aggregated.
        fn deltas(
            &self,
            segment: &SegmentRecord,
            levels: &[TimeLevel],
        ) -> Option<Vec<RollupDelta>> {
            let group = self.catalog.group(segment.gid)?;
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
                let scaling = self.catalog.scaling_of(tid);
                for &level in levels {
                    let (start, si) = (segment.start_time, segment.sampling_interval);
                    for (bucket, sub) in Tiling::whole(level).splits(start, si, (0, last_tick)) {
                        let agg = cursor.aggregate_with(&self.registry, series_pos, sub, true)?;
                        deltas.push(RollupDelta {
                            tid,
                            level,
                            bucket,
                            acc: term(agg, (sub.1 - sub.0 + 1) as u64, scaling),
                        });
                    }
                }
            }
            Some(deltas)
        }
    }

    impl SegmentDigester for Reference {
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
                digest.range = self.range(segment);
            }
            if let Some(sketch) = sketch {
                digest.sketched = self.sketch(segment, sketch);
            }
            buf.deltas.clear();
            if !levels.is_empty() {
                match self.deltas(segment, levels) {
                    Some(deltas) => buf.deltas = deltas,
                    None => digest.rolled_up = false,
                }
            }
            digest
        }
    }

    /// 2021-02-01T00:00:00Z: an hour, day and month boundary at once.
    const BOUNDARY_MS: i64 = 1_612_137_600_000;
    const LEVELS: [TimeLevel; 3] = [TimeLevel::Hour, TimeLevel::Day, TimeLevel::Month];

    /// Two groups: gid 1 holds four series with mixed (one negative) scaling,
    /// gid 2 a single series.
    fn catalog() -> Arc<Catalog> {
        let mut catalog = Catalog::new();
        let scalings = [1.0, 2.0, -0.5, 1.0, 4.0];
        catalog.series = (1..=5)
            .map(|tid| TimeSeriesMeta {
                tid,
                sampling_interval: 100,
                scaling: scalings[tid as usize - 1],
                gid: if tid <= 4 { 1 } else { 2 },
            })
            .collect();
        catalog.groups = vec![
            GroupMeta {
                gid: 1,
                tids: vec![1, 2, 3, 4],
                sampling_interval: 100,
            },
            GroupMeta {
                gid: 2,
                tids: vec![5],
                sampling_interval: 100,
            },
        ];
        catalog.model_names = ModelRegistry::standard()
            .names()
            .iter()
            .map(|name| name.to_string())
            .collect();
        Arc::new(catalog)
    }

    /// What a generated segment is made from.
    #[derive(Debug, Clone)]
    struct Shape {
        /// 0 PMC-Mean, 1 Swing, 2 Gorilla, 3 truncated parameters, 4 unknown
        /// model, 5 unknown group.
        kind: usize,
        second_group: bool,
        gaps: u64,
        ticks: usize,
        /// 0: 100 ms, 1: one minute, 2: one hour.
        si: usize,
        /// How many ticks before [`BOUNDARY_MS`] the segment starts.
        lead: usize,
        base: f32,
        seed: u64,
    }

    /// A [`Shape`]'s fields as the strategy below draws them.
    type RawShape = ((usize, bool, u64, usize), (usize, usize, f32, u64));

    fn raw_shape() -> impl Strategy<Value = RawShape> {
        (
            (0usize..6, proptest::bool::ANY, 0u64..16, 1usize..90),
            (0usize..3, 0usize..90, -40.0f32..40.0, 0u64..u64::MAX),
        )
    }

    impl From<RawShape> for Shape {
        fn from(((kind, second_group, gaps, ticks), (si, lead, base, seed)): RawShape) -> Self {
            Shape {
                kind,
                second_group,
                gaps,
                ticks,
                si,
                lead,
                base,
                seed,
            }
        }
    }

    /// Fits a segment of the wanted model to generated values; the fitted
    /// length may be shorter than asked (a fitter may refuse a value).
    fn segment(registry: &ModelRegistry, shape: &Shape) -> SegmentRecord {
        let (gid, group_size) = if shape.second_group { (2, 1) } else { (1, 4) };
        let gaps = GapsMask(shape.gaps);
        let n_present = gaps.count_present(group_size).max(1);
        let mid = match shape.kind {
            0 => MID_PMC_MEAN,
            1 => MID_SWING,
            _ => MID_GORILLA,
        };
        let bound = match mid {
            MID_GORILLA => ErrorBound::Lossless,
            _ => ErrorBound::absolute(0.5),
        };
        let mut fitter = registry.get(mid).unwrap().fitter(bound, n_present, 200);
        let mut state = shape.seed | 1;
        let mut noise = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        };
        for tick in 0..shape.ticks {
            let values: Vec<Value> = (0..n_present)
                .map(|_| match mid {
                    MID_PMC_MEAN => shape.base + 0.2 * noise(),
                    MID_SWING => shape.base + 0.125 * tick as f32 + 0.2 * noise(),
                    // Crosses zero and spans decades, so a run leaves the
                    // quantile sketch's dense window.
                    _ => shape.base * noise() * if tick % 7 == 0 { 1e-4 } else { 1.0 },
                })
                .collect();
            if !fitter.append(tick as i64, &values) {
                break;
            }
        }
        let si = [100, 60_000, 3_600_000][shape.si];
        let start_time = BOUNDARY_MS - shape.lead as i64 * si;
        let mut params = fitter.params();
        if shape.kind == 3 {
            params.truncate(params.len() / 2);
        }
        SegmentRecord {
            gid: if shape.kind == 5 { 99 } else { gid },
            start_time,
            end_time: start_time + (fitter.len() as i64 - 1) * si,
            sampling_interval: si,
            mid: if shape.kind == 4 { 9 } else { mid },
            params: Bytes::from(params),
            gaps,
        }
    }

    /// A delta with its floats as raw bits, so "equal" means bit-identical.
    type FlatDelta = (Tid, TimeLevel, Timestamp, u64, u64, u64, u64);

    fn flat(deltas: &[RollupDelta]) -> Vec<FlatDelta> {
        deltas
            .iter()
            .map(|d| {
                (
                    d.tid,
                    d.level,
                    d.bucket,
                    d.acc.count,
                    d.acc.sum.to_bits(),
                    d.acc.min.to_bits(),
                    d.acc.max.to_bits(),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // One digester, one buffer and one accumulating sketch over a run of
        // segments, against the three reference definitions segment by
        // segment.
        #[test]
        fn fused_pass_equals_the_closures(shapes in proptest::collection::vec(raw_shape(), 1..6)) {
            let catalog = catalog();
            let registry = Arc::new(ModelRegistry::standard());
            let reference = Reference::new(&catalog, &registry);
            let digester = sketch_feed(&catalog, &registry);

            let mut buf = DigestBuf::default();
            let (mut fused_sketch, mut reference_sketch) = (BlockSketch::new(), BlockSketch::new());
            for shape in shapes.into_iter().map(Shape::from) {
                let shape = &shape;
                let segment = segment(&registry, shape);
                let digest =
                    digester.digest(&segment, true, &LEVELS, Some(&mut fused_sketch), &mut buf);

                let range = reference.range(&segment);
                prop_assert_eq!(
                    digest.range.map(|r| (r.lo.to_bits(), r.hi.to_bits())),
                    range.map(|r| (r.lo.to_bits(), r.hi.to_bits())),
                    "value range of {:?}", shape
                );
                let sketched = reference.sketch(&segment, &mut reference_sketch);
                prop_assert_eq!(digest.sketched, sketched, "sketch outcome of {:?}", shape);
                prop_assert_eq!(&fused_sketch, &reference_sketch, "sketch after {:?}", shape);
                let deltas = reference.deltas(&segment, &LEVELS);
                prop_assert_eq!(digest.rolled_up, deltas.is_some(), "rollup outcome of {:?}", shape);
                if let Some(deltas) = deltas {
                    prop_assert_eq!(flat(&buf.deltas), flat(&deltas), "deltas of {:?}", shape);
                }
                prop_assert!(u64::from(digest.reconstructed) <= 1);
            }
            prop_assert_eq!(fused_sketch.to_bytes(), reference_sketch.to_bytes());
        }
    }

    /// A deterministic mix of decodable segments of all three models in both
    /// groups, in ascending time per group.
    fn workload(registry: &ModelRegistry, n: usize) -> Vec<SegmentRecord> {
        let mut next_start = [BOUNDARY_MS - 40 * 60_000; 2];
        (0..n)
            .map(|i| {
                let second_group = i % 3 == 2;
                let mut segment = segment(
                    registry,
                    &Shape {
                        kind: i % 3,
                        second_group,
                        gaps: [0, 0b0100, 0, 0b1001][i % 4],
                        ticks: 5 + (i * 7) % 40,
                        si: 1,
                        lead: 0,
                        base: 3.0 + i as f32,
                        seed: i as u64 + 1,
                    },
                );
                let start = &mut next_start[usize::from(second_group)];
                let span = segment.end_time - segment.start_time;
                segment.start_time = *start;
                segment.end_time = *start + span;
                *start = segment.end_time + segment.sampling_interval;
                segment
            })
            .collect()
    }

    struct Feeds {
        value_bounds: Arc<dyn SegmentDigester>,
        sketch_feed: Arc<dyn SegmentDigester>,
        rollup_feed: RollupFeed,
    }

    impl Feeds {
        fn fused(catalog: &Arc<Catalog>, registry: &Arc<ModelRegistry>) -> Self {
            Self {
                value_bounds: value_bounds_fn(catalog, registry),
                sketch_feed: sketch_feed(catalog, registry),
                rollup_feed: rollup_feed(catalog, registry, &LEVELS),
            }
        }

        /// The same statistics derived by their reference definitions, one
        /// statistic at a time, through [`Reference`]'s digester.
        fn closures_only(catalog: &Arc<Catalog>, registry: &Arc<ModelRegistry>) -> Self {
            let reference: Arc<dyn SegmentDigester> = Arc::new(Reference::new(catalog, registry));
            Self {
                value_bounds: Arc::clone(&reference),
                sketch_feed: Arc::clone(&reference),
                rollup_feed: RollupFeed {
                    levels: LEVELS.to_vec(),
                    digester: reference,
                },
            }
        }

        fn open(&self, dir: &std::path::Path) -> DiskStore {
            DiskStore::open_with(
                dir,
                DiskStoreOptions {
                    bulk_write_size: 16,
                    value_bounds: Some(self.value_bounds.clone()),
                    sketch_feed: Some(self.sketch_feed.clone()),
                    rollup_feed: Some(self.rollup_feed.clone()),
                    ..Default::default()
                },
            )
            .unwrap()
        }
    }

    /// One rollup cell with its floats as raw bits.
    type FlatCell = (TimeLevel, Gid, Tid, Timestamp, u64, u64, u64, u64);

    /// Everything the store answers from derived statistics alone.
    #[derive(Debug, PartialEq)]
    struct Answers {
        whole_sketch: Vec<u8>,
        scoped_sketch: Vec<u8>,
        cells: Vec<FlatCell>,
    }

    fn answers(store: &DiskStore) -> Answers {
        let sketch = |scope: Option<&[Gid]>| {
            let sketch = store.merge_sketches(scope).unwrap();
            sketch.expect("sketches are maintained").to_bytes()
        };
        let mut cells = Vec::new();
        for level in LEVELS {
            let served = store.rollup_cells(
                level,
                None,
                (Timestamp::MIN, Timestamp::MAX),
                &mut |column| {
                    for &((gid, _, tid, bucket), acc) in column {
                        cells.push((
                            level,
                            gid,
                            tid,
                            bucket,
                            acc.count,
                            acc.sum.to_bits(),
                            acc.min.to_bits(),
                            acc.max.to_bits(),
                        ));
                    }
                },
            );
            assert!(served.unwrap(), "{level:?} cells are maintained");
        }
        Answers {
            whole_sketch: sketch(None),
            scoped_sketch: sketch(Some(&[2])),
            cells,
        }
    }

    #[test]
    fn store_answers_survive_flush_reopen_and_rescan_and_match_the_closures_byte_for_byte() {
        let catalog = catalog();
        let registry = Arc::new(ModelRegistry::standard());
        let segments = workload(&registry, 50);
        let (fused_dir, reference_dir) =
            (TempDir::new("fused-store"), TempDir::new("closure-store"));

        let fused = Feeds::fused(&catalog, &registry);
        let mut store = fused.open(fused_dir.path());
        for segment in &segments {
            store.insert(segment.clone()).unwrap();
        }
        // Three blocks are on disk and two segments sit in the write buffer.
        assert_eq!(store.block_count(), 3);
        let before_flush = answers(&store);
        assert!(!before_flush.cells.is_empty() && before_flush.scoped_sketch.len() > 8);
        store.flush().unwrap();
        assert_eq!(answers(&store), before_flush, "after flush");
        drop(store);
        assert_eq!(
            answers(&fused.open(fused_dir.path())),
            before_flush,
            "sidecar reopen"
        );
        let sidecar = std::fs::read(fused_dir.join("segments.idx")).unwrap();
        std::fs::remove_file(fused_dir.join("segments.idx")).unwrap();
        assert_eq!(
            answers(&fused.open(fused_dir.path())),
            before_flush,
            "rescan"
        );
        assert_eq!(
            std::fs::read(fused_dir.join("segments.idx")).unwrap(),
            sidecar,
            "the rescan rebuilds the sidecar it was written with"
        );

        // The store running the reference definitions writes the very same
        // bytes.
        let mut reference = Feeds::closures_only(&catalog, &registry).open(reference_dir.path());
        for segment in &segments {
            reference.insert(segment.clone()).unwrap();
        }
        assert_eq!(answers(&reference), before_flush, "closures, before flush");
        reference.flush().unwrap();
        for file in ["segments.log", "segments.idx"] {
            assert_eq!(
                std::fs::read(reference_dir.join(file)).unwrap(),
                std::fs::read(fused_dir.join(file)).unwrap(),
                "{file} differs between the fused pass and the closures"
            );
        }
        assert_eq!(
            reference.digest_stats().reconstructions,
            0,
            "closures are not counted"
        );
    }

    #[test]
    fn gorilla_blocks_are_pruned_by_value_unfetched() {
        let catalog = catalog();
        let registry = Arc::new(ModelRegistry::standard());
        let dir = TempDir::new("gorilla-ranges");
        // Two blocks of Gorilla segments only, their values within ±40.
        let gorilla = |i: u64| {
            let shape = Shape {
                kind: 2,
                second_group: i.is_multiple_of(2),
                gaps: 0,
                ticks: 60,
                si: 1,
                lead: 30 + i as usize,
                base: 40.0,
                seed: i,
            };
            segment(&registry, &shape)
        };
        {
            let mut store = Feeds::fused(&catalog, &registry).open(dir.path());
            for i in 0..32 {
                store.insert(gorilla(i)).unwrap();
            }
            store.flush().unwrap();
            assert_eq!(store.block_count(), 2);
        }
        // Each scan on a cold reopen: `misses` counts the blocks fetched.
        let scan = |values: ValueInterval| {
            let store = Feeds::fused(&catalog, &registry).open(dir.path());
            let predicate = SegmentPredicate {
                values: Some(values),
                ..SegmentPredicate::all()
            };
            let kept = mdb_storage::scan_to_vec(&store, &predicate).unwrap().len();
            (kept, store.cache_stats().misses)
        };
        assert_eq!(scan(ValueInterval::new(1000.0, f64::INFINITY)), (0, 0));
        assert_eq!(scan(ValueInterval::new(f64::NEG_INFINITY, -1000.0)), (0, 0));
        assert_eq!(scan(ValueInterval::new(-1.0, 1.0)), (32, 2));
    }

    /// Delegates to a built-in model and counts reconstructions.
    struct Counting {
        inner: Arc<dyn ModelType>,
        grids: Arc<AtomicUsize>,
    }

    impl ModelType for Counting {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn fitter(&self, bound: ErrorBound, n_series: usize, limit: usize) -> Box<dyn Fitter> {
            self.inner.fitter(bound, n_series, limit)
        }

        fn grid(&self, params: &[u8], n_series: usize, count: usize) -> Option<Vec<Value>> {
            self.grids.fetch_add(1, Ordering::Relaxed);
            self.inner.grid(params, n_series, count)
        }

        fn agg(
            &self,
            params: &[u8],
            n_series: usize,
            count: usize,
            range: (usize, usize),
            series: usize,
        ) -> Option<SegmentAgg> {
            self.inner.agg(params, n_series, count, range, series)
        }
    }

    #[test]
    fn one_reconstruction_per_inserted_segment_and_none_at_block_write() {
        let catalog = catalog();
        let standard = ModelRegistry::standard();
        let grids = Arc::new(AtomicUsize::new(0));
        let mut counting = ModelRegistry::empty();
        for mid in [MID_PMC_MEAN, MID_SWING, MID_GORILLA] {
            counting.register(Arc::new(Counting {
                inner: Arc::clone(standard.get(mid).unwrap()),
                grids: Arc::clone(&grids),
            }));
        }
        let registry = Arc::new(counting);
        let segments = workload(&standard, 40);
        // A segment whose every series is in a gap has no values to decode.
        let present = |s: &SegmentRecord| s.gaps.count_present(if s.gid == 1 { 4 } else { 1 });
        let populated: Vec<&SegmentRecord> = segments.iter().filter(|s| present(s) > 0).collect();
        let gorillas = populated.iter().filter(|s| s.mid == MID_GORILLA).count();
        assert!(gorillas > 0 && gorillas < populated.len() && populated.len() < segments.len());

        // Sketches read every value: each segment is reconstructed exactly
        // once, shared with the rollups of the models without a closed form.
        let dir = TempDir::new("count-all");
        let mut store = Feeds::fused(&catalog, &registry).open(dir.path());
        for segment in &segments {
            store.insert(segment.clone()).unwrap();
        }
        assert!(store.block_count() > 0, "blocks were written along the way");
        assert_eq!(grids.load(Ordering::Relaxed), populated.len());
        store.merge_sketches(None).unwrap().expect("sketched");
        store.flush().unwrap();
        store.merge_sketches(None).unwrap().expect("sketched");
        assert_eq!(
            grids.load(Ordering::Relaxed),
            populated.len(),
            "writing blocks and answering sketch queries decodes nothing"
        );
        let stats = store.digest_stats();
        assert_eq!(stats.digests, segments.len() as u64);
        assert_eq!(stats.reconstructions, populated.len() as u64);
        let points: usize = segments.iter().map(|s| s.len() * present(s)).sum();
        assert_eq!(stats.points_sketched, points as u64);

        // Without a sketch, only the Gorilla segments need their values.
        grids.store(0, Ordering::Relaxed);
        let dir = TempDir::new("count-rollups");
        let mut feeds = Feeds::fused(&catalog, &registry);
        let mut store = DiskStore::open_with(
            dir.path(),
            DiskStoreOptions {
                bulk_write_size: 16,
                value_bounds: Some(feeds.value_bounds.clone()),
                rollup_feed: Some(feeds.rollup_feed.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        for segment in &segments {
            store.insert(segment.clone()).unwrap();
        }
        store.flush().unwrap();
        assert_eq!(grids.load(Ordering::Relaxed), gorillas);
        assert_eq!(store.digest_stats().reconstructions, gorillas as u64);

        // The reference, for contrast, reconstructs once per statistic that
        // needs the values: range, sketch and rollup each decode a Gorilla
        // segment.
        grids.store(0, Ordering::Relaxed);
        let dir = TempDir::new("count-closures");
        feeds = Feeds::closures_only(&catalog, &registry);
        let mut store = feeds.open(dir.path());
        for segment in &segments {
            store.insert(segment.clone()).unwrap();
        }
        store.flush().unwrap();
        assert_eq!(
            grids.load(Ordering::Relaxed),
            populated.len() + 2 * gorillas
        );
    }
}
