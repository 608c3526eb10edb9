//! The insert-time statistics pass against its definition.
//!
//! A store derives three statistics from every finalized segment — the
//! stored-value range, the rollup deltas and the block sketch — and the
//! per-statistic closures of `value_bounds_fn`, `sketch_feed` and
//! `rollup_feed` define what each one is. Stores run the fused digester
//! those constructors also carry, which reconstructs the segment once and
//! derives all three in one pass. This suite holds the fused pass to the
//! closures, bit for bit:
//!
//! * per segment, over PMC-Mean, Swing and Gorilla segments with gaps,
//!   scaled series, calendar-straddling ranges and undecodable input;
//! * per store, by writing the same segments through a fused store and a
//!   closures-only store and comparing `segments.log` and `segments.idx`
//!   byte for byte — and the answers of `merge_sketches` and `rollup_cells`
//!   before a flush, after it, after a sidecar reopen and after a rescan;
//! * per reconstruction, with a counting model type: one `grid` call per
//!   inserted segment that needs one, none when a block is written or a
//!   sketch query is answered.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use mdb_testutil::TempDir;
use proptest::prelude::*;

use modelardb::{
    rollup_feed, sketch_feed, value_bounds_fn, BlockSketch, Catalog, DigestBuf, DiskStore,
    DiskStoreOptions, ErrorBound, Fitter, GapsMask, Gid, GroupMeta, ModelRegistry, ModelType,
    RollupDelta, RollupFeed, SegmentAgg, SegmentRecord, SegmentStore, SketchFeed, Tid, TimeLevel,
    TimeSeriesMeta, Timestamp, Value, ValueBounds, MID_GORILLA, MID_PMC_MEAN, MID_SWING,
};

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
    // segments, against the three closures segment by segment.
    #[test]
    fn fused_pass_equals_the_closures(shapes in proptest::collection::vec(raw_shape(), 1..6)) {
        let catalog = catalog();
        let registry = Arc::new(ModelRegistry::standard());
        let bounds = value_bounds_fn(&catalog, &registry);
        let sketches = sketch_feed(&catalog, &registry);
        let rollups = rollup_feed(&catalog, &registry, &LEVELS);
        let digester = sketches.fused.clone().expect("built with a fused pass");

        let mut buf = DigestBuf::default();
        let (mut fused_sketch, mut reference_sketch) = (BlockSketch::new(), BlockSketch::new());
        for shape in shapes.into_iter().map(Shape::from) {
            let shape = &shape;
            let segment = segment(&registry, shape);
            let digest =
                digester.digest(&segment, true, &LEVELS, Some(&mut fused_sketch), &mut buf);

            let range = (bounds.feed)(&segment);
            prop_assert_eq!(
                digest.range.map(|r| (r.lo.to_bits(), r.hi.to_bits())),
                range.map(|r| (r.lo.to_bits(), r.hi.to_bits())),
                "value range of {:?}", shape
            );
            let sketched = (sketches.feed)(&segment, &mut reference_sketch);
            prop_assert_eq!(digest.sketched, sketched, "sketch outcome of {:?}", shape);
            prop_assert_eq!(&fused_sketch, &reference_sketch, "sketch after {:?}", shape);
            let deltas = (rollups.feed)(&segment);
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
    value_bounds: ValueBounds,
    sketch_feed: SketchFeed,
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

    /// The same providers with the fused pass stripped: the store then runs
    /// the three closures, as every store did before the pass existed.
    fn closures_only(catalog: &Arc<Catalog>, registry: &Arc<ModelRegistry>) -> Self {
        let mut feeds = Self::fused(catalog, registry);
        feeds.value_bounds.fused = None;
        feeds.sketch_feed.fused = None;
        feeds.rollup_feed.fused = None;
        feeds
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
            &mut |gid, tid, bucket, acc| {
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
    let (fused_dir, reference_dir) = (TempDir::new("fused-store"), TempDir::new("closure-store"));

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

    // The closures-only store writes the very same bytes.
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

    // The closures, for contrast, reconstruct once per statistic that
    // needs the values: sketch and rollup each decode a Gorilla segment.
    grids.store(0, Ordering::Relaxed);
    let dir = TempDir::new("count-closures");
    feeds = Feeds::closures_only(&catalog, &registry);
    let mut store = feeds.open(dir.path());
    for segment in &segments {
        store.insert(segment.clone()).unwrap();
    }
    store.flush().unwrap();
    assert_eq!(grids.load(Ordering::Relaxed), populated.len() + gorillas);
}
