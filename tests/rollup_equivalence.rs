//! The continuous-aggregate pinning harness: serving a bucketed aggregate
//! from the incrementally materialized rollup cells must be **bit-identical**
//! to scanning the segments — for any query shape, any ingestion cadence,
//! any restart, and any cluster layout. The cells are maintained with the
//! same per-(tid, bucket) left fold the bucketed scan uses, so toggling
//! `rollup_serve` may change how many segment bodies are read but never a
//! single output bit. Fully covered buckets are answered without touching
//! the block cache at all (asserted on [`modelardb::CacheStats`]).

use std::sync::Arc;

use proptest::prelude::*;

use mdb_bench::{build_disk_engine, build_engine, catalog_from_dataset, ingest_engine};
use mdb_datagen::{ep, Dataset, Scale};
use mdb_testutil::TempDir;
use modelardb::{
    Cell, Cluster, ClusterConfig, CompressionConfig, Config, ErrorBound, ModelRegistry, ModelarDb,
    QueryResult, StorageSpec,
};

const TICKS: u64 = 400;
const HOUR_MS: i64 = 3_600_000;

/// Bit-level equality: floats compare by `to_bits`, so a `-0.0` vs `0.0` or
/// an association drift that ordinary `==` would forgive still fails.
fn assert_bit_identical(a: &QueryResult, b: &QueryResult, label: &str) {
    assert_eq!(a.columns, b.columns, "{label}: columns");
    assert_eq!(a.rows.len(), b.rows.len(), "{label}: row count");
    for (i, (ra, rb)) in a.rows.iter().zip(&b.rows).enumerate() {
        for (x, y) in ra.iter().zip(rb) {
            match (x, y) {
                (Cell::Float(fa), Cell::Float(fb)) => {
                    assert_eq!(fa.to_bits(), fb.to_bits(), "{label}: row {i}, {fa} vs {fb}")
                }
                _ => assert_eq!(x, y, "{label}: row {i}"),
            }
        }
    }
}

/// The query panel every fixture is checked against: explicit `CUBE_*`
/// roll-ups at several levels and group-bys, plain aggregates over the whole
/// store, and `TS`-ranged plain aggregates both bucket-aligned (served
/// entirely from cells) and unaligned (cells plus scanned edge buckets).
fn panel(ds: &Dataset) -> Vec<String> {
    let aligned_from = ds.start + HOUR_MS;
    let aligned_to = ds.start + 4 * HOUR_MS - 1;
    let ragged_from = ds.timestamp(37);
    let ragged_to = ds.timestamp(TICKS - 23);
    vec![
        "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment GROUP BY Tid ORDER BY Tid".into(),
        "SELECT CUBE_AVG_HOUR(*) FROM Segment".into(),
        "SELECT Entity, CUBE_MIN_DAY(*), CUBE_MAX_DAY(*) FROM Segment \
         GROUP BY Entity ORDER BY Entity"
            .into(),
        "SELECT CUBE_COUNT_HOUR(*) FROM Segment WHERE Tid IN (1, 3, 5)".into(),
        "SELECT SUM_S(*) FROM Segment".into(),
        "SELECT Tid, AVG_S(*) FROM Segment GROUP BY Tid ORDER BY Tid".into(),
        format!(
            "SELECT Tid, SUM_S(*), COUNT_S(*) FROM Segment \
             WHERE TS >= {aligned_from} AND TS <= {aligned_to} GROUP BY Tid ORDER BY Tid"
        ),
        format!(
            "SELECT Tid, MIN_S(*), MAX_S(*) FROM Segment \
             WHERE TS >= {ragged_from} AND TS <= {ragged_to} GROUP BY Tid ORDER BY Tid"
        ),
    ]
}

/// Runs `queries` twice on the same engine — rollup serving on, then off —
/// and demands bit-identity, returning the served results.
fn served_equals_scanned(db: &mut ModelarDb, queries: &[String], label: &str) -> Vec<QueryResult> {
    let mut served = Vec::new();
    for q in queries {
        db.set_rollup_serve(true);
        let on = db.sql(q).unwrap();
        db.set_rollup_serve(false);
        let off = db.sql(q).unwrap();
        assert_bit_identical(&on, &off, &format!("{label}: {q}"));
        served.push(on);
    }
    db.set_rollup_serve(true);
    served
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Any aggregate shape, any TS window (aligned or ragged), any flush
    // cadence: the materialized path and the scan produce the same bits.
    #[test]
    fn served_aggregates_are_bit_identical_to_scans(
        func_idx in 0usize..5,
        cube in proptest::bool::ANY,
        level_idx in 0usize..2,
        tids in proptest::collection::btree_set(1u32..=6, 1..4),
        window in 0u64..300,
        span in 1u64..400,
        align in proptest::bool::ANY,
        group_by_tid in proptest::bool::ANY,
        flush_every in 40u64..400,
    ) {
        let ds = ep(7, Scale::tiny()).unwrap();
        let mut db = build_engine(&ds, true, 5.0);
        for tick in 0..TICKS {
            db.ingest_row(ds.timestamp(tick), &ds.row(tick)).unwrap();
            if tick % flush_every == flush_every - 1 {
                db.flush().unwrap();
            }
        }
        db.flush().unwrap();

        let func = ["COUNT", "MIN", "MAX", "SUM", "AVG"][func_idx];
        let agg = if cube {
            let level = ["HOUR", "DAY"][level_idx];
            format!("CUBE_{func}_{level}(*)")
        } else {
            format!("{func}_S(*)")
        };
        let tid_list = tids.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ");
        let mut from = ds.timestamp(window);
        let mut to = ds.timestamp((window + span).min(TICKS - 1));
        if align {
            // Snap to hour boundaries so every surviving bucket is fully
            // covered and the serve path reads no segment at all.
            from -= from.rem_euclid(HOUR_MS);
            to = to - to.rem_euclid(HOUR_MS) + HOUR_MS - 1;
        }
        let sql = if group_by_tid {
            format!(
                "SELECT Tid, {agg} FROM Segment WHERE Tid IN ({tid_list}) \
                 AND TS >= {from} AND TS <= {to} GROUP BY Tid ORDER BY Tid"
            )
        } else {
            format!(
                "SELECT {agg} FROM Segment WHERE Tid IN ({tid_list}) \
                 AND TS >= {from} AND TS <= {to}"
            )
        };
        db.set_rollup_serve(true);
        let on = db.sql(&sql).unwrap();
        db.set_rollup_serve(false);
        let off = db.sql(&sql).unwrap();
        assert_bit_identical(&on, &off, &sql);
    }
}

#[test]
fn panel_is_served_bit_identically() {
    let ds = ep(7, Scale::tiny()).unwrap();
    let mut db = build_engine(&ds, true, 5.0);
    ingest_engine(&mut db, &ds, TICKS);
    served_equals_scanned(&mut db, &panel(&ds), "memory engine");
}

#[test]
fn restarts_preserve_rollup_answers() {
    // Reopening through the sidecar's rollups section, and through the
    // streaming rescan when the sidecar is gone, must both reproduce the
    // writer's served results bit-for-bit — and keep agreeing with a scan.
    let case = TempDir::new("rollup-restart");
    let dir = case.path();
    let ds = ep(7, Scale::tiny()).unwrap();
    let mut db = build_disk_engine(&ds, dir, 5.0, 32, None);
    for tick in 0..TICKS {
        db.ingest_row(ds.timestamp(tick), &ds.row(tick)).unwrap();
        if tick % 150 == 149 {
            db.flush().unwrap();
        }
    }
    db.flush().unwrap();
    let queries = panel(&ds);
    let want = served_equals_scanned(&mut db, &queries, "writer");
    drop(db);

    let registry = Arc::new(ModelRegistry::standard());
    let config = || {
        let mut config = Config::default();
        config.compression.error_bound = ErrorBound::relative(5.0);
        config.storage = StorageSpec::Disk(dir.to_path_buf());
        config.bulk_write_size = 32;
        config
    };

    // Sidecar intact: the rollup cells are adopted, not rebuilt.
    let mut reopened = ModelarDb::reopen(dir, Arc::clone(&registry), config()).unwrap();
    for (q, want) in queries.iter().zip(&want) {
        assert_bit_identical(
            &reopened.sql(q).unwrap(),
            want,
            &format!("sidecar reopen: {q}"),
        );
    }
    served_equals_scanned(&mut reopened, &queries, "sidecar reopen");
    drop(reopened);

    // Sidecar deleted: the streaming rescan rebuilds the cells from the log.
    std::fs::remove_file(dir.join("segments.idx")).unwrap();
    let mut rebuilt = ModelarDb::reopen(dir, registry, config()).unwrap();
    for (q, want) in queries.iter().zip(&want) {
        assert_bit_identical(
            &rebuilt.sql(q).unwrap(),
            want,
            &format!("rescan reopen: {q}"),
        );
    }
    served_equals_scanned(&mut rebuilt, &queries, "rescan reopen");
}

#[test]
fn fully_covered_queries_read_no_segment_bodies() {
    // A cold reopened disk engine answers whole-bucket aggregates without a
    // single block-cache fetch; the scan path for the same queries fetches.
    let case = TempDir::new("rollup-zero-fetch");
    let dir = case.path();
    let ds = ep(7, Scale::tiny()).unwrap();
    let mut db = build_disk_engine(&ds, dir, 5.0, 32, None);
    ingest_engine(&mut db, &ds, TICKS);
    drop(db);

    let mut config = Config::default();
    config.compression.error_bound = ErrorBound::relative(5.0);
    config.storage = StorageSpec::Disk(dir.to_path_buf());
    config.bulk_write_size = 32;
    let mut db = ModelarDb::reopen(dir, Arc::new(ModelRegistry::standard()), config).unwrap();

    let covered = [
        "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment GROUP BY Tid ORDER BY Tid".to_string(),
        "SELECT CUBE_AVG_DAY(*) FROM Segment".to_string(),
        "SELECT SUM_S(*) FROM Segment".to_string(),
        format!(
            "SELECT Tid, SUM_S(*) FROM Segment WHERE TS >= {} AND TS <= {} \
             GROUP BY Tid ORDER BY Tid",
            ds.start + HOUR_MS,
            ds.start + 3 * HOUR_MS - 1
        ),
    ];
    let before = db.cache_stats();
    let served: Vec<QueryResult> = covered.iter().map(|q| db.sql(q).unwrap()).collect();
    let after = db.cache_stats();
    assert_eq!(
        after.hits, before.hits,
        "served queries must not hit the cache"
    );
    assert_eq!(
        after.misses, before.misses,
        "served queries must not fetch blocks"
    );
    assert_eq!(
        after.bytes_read, before.bytes_read,
        "served queries must not read the log"
    );

    db.set_rollup_serve(false);
    for (q, want) in covered.iter().zip(&served) {
        assert_bit_identical(&db.sql(q).unwrap(), want, q);
    }
    let post = db.cache_stats();
    assert!(
        post.hits + post.misses > after.hits + after.misses,
        "the scan path control must actually fetch blocks"
    );
    assert!(
        !served[0].rows.is_empty(),
        "the served results must be non-trivial"
    );
}

/// Starts a cluster over `catalog` with the shared compression settings and
/// the given worker count / replication factor.
fn start_cluster(
    catalog: &Arc<modelardb::Catalog>,
    n_workers: usize,
    replication_factor: usize,
) -> Cluster {
    let mut config = ClusterConfig::with_compression(CompressionConfig {
        error_bound: ErrorBound::relative(5.0),
        ..Default::default()
    });
    config.replication_factor = replication_factor;
    Cluster::start_with(
        Arc::clone(catalog),
        Arc::new(ModelRegistry::standard()),
        config,
        n_workers,
    )
    .unwrap()
}

fn ingest_cluster(cluster: &Cluster, ds: &Dataset) {
    for tick in 0..TICKS {
        cluster
            .ingest_row(ds.timestamp(tick), &ds.row(tick))
            .unwrap();
    }
    cluster.flush().unwrap();
}

#[test]
fn cluster_serving_matches_the_embedded_scan_at_any_layout() {
    // The embedded engine with serving OFF is the ground truth: a cluster
    // with serving ON (the default) must reproduce it bit-for-bit at every
    // worker count — a (tid, bucket)'s entries come from its group's one
    // primary in scan order, so placement never leaks into the float
    // association.
    let ds = ep(13, Scale::tiny()).unwrap();
    let mut embedded = build_engine(&ds, true, 5.0);
    ingest_engine(&mut embedded, &ds, TICKS);
    let queries = panel(&ds);
    let want = served_equals_scanned(&mut embedded, &queries, "embedded");

    for n_workers in [1usize, 2, 4] {
        let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
        let cluster = start_cluster(&catalog, n_workers, 1);
        ingest_cluster(&cluster, &ds);
        for (q, want) in queries.iter().zip(&want) {
            assert_bit_identical(
                &cluster.sql(q).unwrap(),
                want,
                &format!("{q} ({n_workers} workers)"),
            );
        }
        cluster.shutdown().unwrap();
    }
}

#[test]
fn cluster_rollups_survive_replication_failover_and_membership_changes() {
    let ds = ep(13, Scale::tiny()).unwrap();
    let mut embedded = build_engine(&ds, true, 5.0);
    ingest_engine(&mut embedded, &ds, TICKS);
    let queries = panel(&ds);
    let want = served_equals_scanned(&mut embedded, &queries, "embedded");

    // RF=2: killing a worker promotes replicas; the promoted copies carry
    // the same cells, so served results stay bit-identical to the reference.
    let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
    let cluster = start_cluster(&catalog, 3, 2);
    ingest_cluster(&cluster, &ds);
    assert!(cluster.kill_worker(1));
    for (q, want) in queries.iter().zip(&want) {
        assert_bit_identical(&cluster.sql(q).unwrap(), want, &format!("{q} (after kill)"));
    }
    cluster.shutdown().unwrap();

    // Grow then shrink: group handoff re-feeds the receiving store's cells
    // through the ordinary insert path, so answers never change.
    let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
    let cluster = start_cluster(&catalog, 2, 1);
    ingest_cluster(&cluster, &ds);
    let added = cluster.add_worker().unwrap();
    for (q, want) in queries.iter().zip(&want) {
        assert_bit_identical(&cluster.sql(q).unwrap(), want, &format!("{q} (after grow)"));
    }
    cluster.remove_worker(added).unwrap();
    for (q, want) in queries.iter().zip(&want) {
        assert_bit_identical(
            &cluster.sql(q).unwrap(),
            want,
            &format!("{q} (after shrink)"),
        );
    }
    cluster.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Tiled plans: whole months, days and hours from their cells, segment-time
// comparisons decided per tile.

/// 2021-02-01T00:00:00Z: an hour, day and month boundary at once.
const FEB_1_2021: i64 = 1_612_137_600_000;
const DAY_MS: i64 = 24 * HOUR_MS;

/// `ep(seed, tiny)` sampled every 10 minutes from two days before
/// February 1st: 500 ticks span January 30th to February 2nd, so ranges
/// cut across hour, day and month boundaries.
fn across_february(seed: u64) -> Dataset {
    let mut ds = ep(seed, Scale::tiny()).unwrap();
    let si = 600_000;
    ds.profile.si_ms = si;
    for meta in &mut ds.series {
        meta.sampling_interval = si;
    }
    ds.start = FEB_1_2021 - 2 * DAY_MS;
    ds
}

/// An embedded engine over `ds` with `levels` of rollups and scalings
/// other than 1 (so a change of tiling shows in the bits).
fn scaled_engine(
    ds: &Dataset,
    levels: &[modelardb::TimeLevel],
    bulk_write_size: usize,
) -> ModelarDb {
    let mut catalog = (*catalog_from_dataset(ds, &ds.correlation_spec()).unwrap()).clone();
    for (meta, scaling) in catalog
        .series
        .iter_mut()
        .zip([2.0, 0.5, 4.75, -1.5, 3.0].iter().cycle())
    {
        meta.scaling = *scaling;
    }
    let mut config = Config::default();
    config.compression.error_bound = ErrorBound::relative(5.0);
    config.bulk_write_size = bulk_write_size;
    config.rollup_levels = levels.to_vec();
    ModelarDb::from_catalog(
        Arc::new(catalog),
        Arc::new(ModelRegistry::standard()),
        config,
    )
    .unwrap()
}

/// Plain and `CUBE_*` aggregates with segment-time comparisons cutting
/// through the data at `cut`, and ragged `TS` ranges across day and month
/// boundaries.
fn tiled_panel(ds: &Dataset, cut: i64) -> Vec<String> {
    let from = FEB_1_2021 - DAY_MS - 5 * HOUR_MS - 17 * 60_000 - 3;
    let to = FEB_1_2021 + DAY_MS + 7 * HOUR_MS + 43 * 60_000 + 11;
    let last = ds.timestamp(TICKS - 1);
    vec![
        format!("SELECT Tid, SUM_S(*), COUNT_S(*) FROM Segment WHERE EndTime <= {cut} GROUP BY Tid ORDER BY Tid"),
        format!("SELECT Entity, AVG_S(*), MIN_S(*) FROM Segment WHERE StartTime >= {cut} GROUP BY Entity ORDER BY Entity"),
        format!("SELECT SUM_S(*), MAX_S(*) FROM Segment WHERE EndTime > {cut} AND StartTime < {last}"),
        format!("SELECT Tid, SUM_S(*) FROM Segment WHERE StartTime <= {cut} AND TS >= {from} GROUP BY Tid ORDER BY Tid"),
        format!("SELECT COUNT_S(*), SUM_S(*) FROM Segment WHERE EndTime = {cut}"),
        format!("SELECT Tid, CUBE_SUM_DAY(*) FROM Segment WHERE EndTime <= {cut} GROUP BY Tid ORDER BY Tid"),
        format!("SELECT Tid, SUM_S(*), AVG_S(*) FROM Segment WHERE TS >= {from} AND TS <= {to} GROUP BY Tid ORDER BY Tid"),
        format!("SELECT Entity, CUBE_AVG_DAY(*) FROM Segment WHERE TS >= {from} AND TS <= {to} GROUP BY Entity ORDER BY Entity"),
        format!("SELECT CUBE_SUM_MONTH(*), CUBE_COUNT_MONTH(*) FROM Segment WHERE TS >= {from}"),
        format!("SELECT CUBE_MAX_HOUR(*) FROM Segment WHERE TS >= {from} AND TS <= {to} AND EndTime <= {cut}"),
        "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid".into(),
    ]
}

#[test]
fn segment_time_cuts_through_the_store_are_served_bit_identically() {
    let ds = across_february(11);
    let mut db = scaled_engine(
        &ds,
        &[
            modelardb::TimeLevel::Hour,
            modelardb::TimeLevel::Day,
            modelardb::TimeLevel::Month,
        ],
        32,
    );
    for tick in 0..TICKS {
        db.ingest_row(ds.timestamp(tick), &ds.row(tick)).unwrap();
        if tick % 97 == 96 {
            db.flush().unwrap();
        }
    }
    db.flush().unwrap();
    for cut_tick in [1, TICKS / 3, TICKS / 2, TICKS - 2] {
        let cut = ds.timestamp(cut_tick) + 7;
        let results = served_equals_scanned(&mut db, &tiled_panel(&ds, cut), "blocks");
        if cut_tick >= TICKS / 3 {
            assert!(!results[0].rows.is_empty(), "the cut keeps segments");
        }
    }
}

#[test]
fn buffered_segments_on_both_sides_of_a_cut_are_decided_soundly() {
    // The first half goes to a block; the second half stays in the write
    // buffer, which the cut runs through. Every cut leaves segments on both
    // sides of it in the buffer or in the blocks.
    let ds = across_february(12);
    let mut db = scaled_engine(
        &ds,
        &[
            modelardb::TimeLevel::Hour,
            modelardb::TimeLevel::Day,
            modelardb::TimeLevel::Month,
        ],
        50_000,
    );
    for tick in 0..TICKS / 2 {
        db.ingest_row(ds.timestamp(tick), &ds.row(tick)).unwrap();
    }
    db.flush().unwrap();
    for tick in TICKS / 2..TICKS {
        db.ingest_row(ds.timestamp(tick), &ds.row(tick)).unwrap();
    }
    for cut_tick in [TICKS / 4, TICKS / 2 - 1, TICKS / 2 + 40, (TICKS * 7) / 8] {
        let cut = ds.timestamp(cut_tick);
        served_equals_scanned(&mut db, &tiled_panel(&ds, cut), "buffer");
    }
}

#[test]
fn tiles_without_cells_fall_back_to_the_same_bits() {
    // An engine tiling at Month, Day and Hour over a store that keeps only
    // Day and Hour cells: the Month tiles are scanned, split at the same
    // boundaries, and answer what the all-scan path answers.
    use modelardb::TimeLevel::{Day, Hour, Month};
    let ds = across_february(13);
    let mut db = scaled_engine(&ds, &[Hour, Day, Month], 64);
    ingest_engine(&mut db, &ds, TICKS);
    let store = mdb_storage::DiskStore::in_memory(mdb_storage::DiskStoreOptions {
        bulk_write_size: 64,
        rollup_feed: Some(mdb_query::rollup_feed(
            &Arc::new(db.catalog().clone()),
            &Arc::new(db.registry().clone()),
            &[Day, Hour],
        )),
        ..Default::default()
    });
    let mut store = store.unwrap();
    for segment in db.segments().unwrap() {
        mdb_storage::SegmentStore::insert(&mut store, segment).unwrap();
    }
    mdb_storage::SegmentStore::flush(&mut store).unwrap();
    let levels = [Hour, Day, Month];
    let queries = tiled_panel(&ds, ds.timestamp(TICKS / 2));
    for q in &queries {
        let answer = |serve: bool| {
            mdb_query::QueryEngine::new(db.catalog(), db.registry(), &store)
                .with_rollups(&levels, serve)
                .sql(q)
                .unwrap()
        };
        let want = db.sql(q).unwrap();
        assert_bit_identical(&answer(true), &want, &format!("Month cells missing: {q}"));
        assert_bit_identical(&answer(false), &want, &format!("serving off: {q}"));
    }
    // Serving off on the engine itself: every tile scanned.
    served_equals_scanned(&mut db, &queries, "all levels");
}

#[test]
fn frozen_store_answers_segment_time_bounds_without_segment_bodies() {
    // The dashboard's broad shape on a cold reopened disk engine: `EndTime
    // <= <last>` keeps every segment, so every tile is served from its cell
    // and no block is fetched; the scan path answers the same bits.
    let case = TempDir::new("rollup-segment-time-zero-fetch");
    let dir = case.path();
    let ds = across_february(14);
    let mut db = build_disk_engine(&ds, dir, 5.0, 32, None);
    ingest_engine(&mut db, &ds, TICKS);
    drop(db);

    let mut config = Config::default();
    config.compression.error_bound = ErrorBound::relative(5.0);
    config.storage = StorageSpec::Disk(dir.to_path_buf());
    config.bulk_write_size = 32;
    let mut db = ModelarDb::reopen(dir, Arc::new(ModelRegistry::standard()), config).unwrap();

    let last = ds.timestamp(TICKS - 1);
    let first = ds.timestamp(0);
    let broad = [
        format!("SELECT Entity, SUM_S(*) FROM Segment WHERE EndTime <= {last} GROUP BY Entity ORDER BY Entity"),
        format!("SELECT Category, AVG_S(*) FROM Segment WHERE EndTime <= {last} GROUP BY Category ORDER BY Category"),
        format!("SELECT SUM_S(*), COUNT_S(*) FROM Segment WHERE StartTime >= {first}"),
        // Past the data: every tile is skipped.
        format!("SELECT SUM_S(*) FROM Segment WHERE StartTime > {last}"),
    ];
    let before = db.cache_stats();
    let served: Vec<QueryResult> = broad.iter().map(|q| db.sql(q).unwrap()).collect();
    let after = db.cache_stats();
    assert_eq!(
        after.hits, before.hits,
        "served queries must not hit the cache"
    );
    assert_eq!(
        after.misses, before.misses,
        "served queries must not fetch blocks"
    );
    assert_eq!(
        after.bytes_read, before.bytes_read,
        "served queries must not read the log"
    );
    assert!(!served[0].rows.is_empty());
    assert!(served[3].rows.is_empty());

    db.set_rollup_serve(false);
    for (q, want) in broad.iter().zip(&served) {
        assert_bit_identical(&db.sql(q).unwrap(), want, q);
    }
    let post = db.cache_stats();
    assert!(
        post.hits + post.misses > after.hits + after.misses,
        "the scan path control must actually fetch blocks"
    );
}

// ---------------------------------------------------------------------------
// Value filters: each whole hour decided per (tid, hour) from its cell —
// served when every point passes, skipped when none does, scanned for that
// series otherwise.

/// [`scaled_engine`]'s catalog, but with one scaling per group (−1.5 among
/// them), so PMC-Mean and Swing fit the scaled series.
fn group_scaled_catalog(ds: &Dataset) -> Arc<modelardb::Catalog> {
    let mut catalog = (*catalog_from_dataset(ds, &ds.correlation_spec()).unwrap()).clone();
    let scalings = [-1.5, 2.0, 0.5, 4.75, 3.0];
    for (group, scaling) in catalog.groups.clone().iter().zip(scalings.iter().cycle()) {
        for meta in &mut catalog.series {
            if group.tids.contains(&meta.tid) {
                meta.scaling = *scaling;
            }
        }
    }
    Arc::new(catalog)
}

/// An engine over `catalog` at a 5 % bound with Hour, Day and Month cells,
/// in memory or in `dir`.
fn value_engine(catalog: &Arc<modelardb::Catalog>, dir: Option<&std::path::Path>) -> ModelarDb {
    use modelardb::TimeLevel::{Day, Hour, Month};
    let mut config = Config::default();
    config.compression.error_bound = ErrorBound::relative(5.0);
    config.bulk_write_size = 32;
    config.rollup_levels = vec![Hour, Day, Month];
    if let Some(dir) = dir {
        config.storage = StorageSpec::Disk(dir.to_path_buf());
    }
    let registry = Arc::new(ModelRegistry::standard());
    ModelarDb::from_catalog(Arc::clone(catalog), registry, config).unwrap()
}

/// Thresholds on cell extremes: the smallest and largest value of some
/// `(tid, hour)`s as the Data Point View answers them — what the cells hold
/// — each exactly and one ulp either side.
fn cell_extremes(db: &ModelarDb) -> Vec<f64> {
    let points = db.sql("SELECT Tid, TS, Value FROM DataPoint").unwrap();
    let mut cells: std::collections::BTreeMap<(i64, i64), (f64, f64)> = Default::default();
    for row in &points.rows {
        let (tid, ts, v) = (
            row[0].as_i64().unwrap(),
            row[1].as_i64().unwrap(),
            row[2].as_f64().unwrap(),
        );
        let cell = cells
            .entry((tid, ts.div_euclid(HOUR_MS)))
            .or_insert((f64::INFINITY, f64::NEG_INFINITY));
        *cell = (cell.0.min(v), cell.1.max(v));
    }
    let picked = cells.values().step_by(cells.len() / 3 + 1);
    let extremes = picked.flat_map(|&(lo, hi)| [lo, hi]);
    extremes
        .flat_map(|x| [x, x.next_up(), x.next_down()])
        .collect()
}

/// `Value` filters at `x` alone, with `EndTime`/`StartTime` cuts at `cut`,
/// with a ragged `TS` range, and rolled up per hour.
fn value_panel(ds: &Dataset, x: f64, cut: i64) -> Vec<String> {
    let from = ds.timestamp(37) + 11;
    let to = ds.timestamp(TICKS - 23) - 5;
    vec![
        format!("SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment WHERE Value > {x} GROUP BY Tid ORDER BY Tid"),
        format!("SELECT Entity, AVG_S(*), COUNT_S(*) FROM Segment WHERE Value <= {x} AND EndTime <= {cut} GROUP BY Entity ORDER BY Entity"),
        format!("SELECT SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment WHERE Value >= {x} AND StartTime >= {cut}"),
        format!("SELECT Tid, AVG_S(*), MAX_S(*) FROM Segment WHERE Value < {x} AND TS >= {from} AND TS <= {to} GROUP BY Tid ORDER BY Tid"),
        format!("SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment WHERE Value > {x} AND TS >= {from} GROUP BY Tid ORDER BY Tid"),
        format!("SELECT COUNT_S(*), SUM_S(*) FROM Segment WHERE Value = {x}"),
    ]
}

#[test]
fn value_filters_on_cell_extremes_are_served_bit_identically() {
    let ds = across_february(15);
    let cut = ds.timestamp(TICKS / 2) + 7;
    let per_series = scaled_engine(
        &ds,
        &[
            modelardb::TimeLevel::Hour,
            modelardb::TimeLevel::Day,
            modelardb::TimeLevel::Month,
        ],
        32,
    );
    let per_group = value_engine(&group_scaled_catalog(&ds), None);
    for (label, mut db) in [("per-series", per_series), ("per-group", per_group)] {
        for tick in 0..TICKS {
            db.ingest_row(ds.timestamp(tick), &ds.row(tick)).unwrap();
            if tick % 97 == 96 {
                db.flush().unwrap();
            }
        }
        db.flush().unwrap();
        // The cluster cuts segments where the engine does: same flushes.
        let catalog = Arc::new(db.catalog().clone());
        let cluster = start_cluster(&catalog, 2, 1);
        for tick in 0..TICKS {
            cluster
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
            if tick % 97 == 96 {
                cluster.flush().unwrap();
            }
        }
        cluster.flush().unwrap();
        let mut kept = 0;
        for x in cell_extremes(&db) {
            let queries = value_panel(&ds, x, cut);
            let served = served_equals_scanned(&mut db, &queries, label);
            kept += served[0].rows.len();
            for (q, want) in queries.iter().zip(&served) {
                let got = cluster.sql(q).unwrap();
                assert_bit_identical(&got, want, &format!("{label}, 2-worker cluster: {q}"));
            }
        }
        assert!(kept > 0, "{label}: the thresholds keep points");
        cluster.shutdown().unwrap();
    }
}

/// Fails every `nth` segment's rollup, which poisons the store's cells.
struct Poisoning {
    inner: Arc<dyn mdb_storage::SegmentDigester>,
    seen: std::sync::atomic::AtomicUsize,
    nth: usize,
}

impl mdb_storage::SegmentDigester for Poisoning {
    fn digest(
        &self,
        segment: &modelardb::SegmentRecord,
        range: bool,
        levels: &[modelardb::TimeLevel],
        sketch: Option<&mut modelardb::BlockSketch>,
        buf: &mut mdb_storage::DigestBuf,
    ) -> mdb_storage::Digest {
        let mut digest = self.inner.digest(segment, range, levels, sketch, buf);
        let seen = self.seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        digest.rolled_up &= seen % self.nth != self.nth - 1;
        digest
    }
}

#[test]
fn value_filters_survive_restarts_and_poisoned_cells() {
    use modelardb::TimeLevel::{Day, Hour, Month};
    let case = TempDir::new("rollup-value-restart");
    let dir = case.path();
    let ds = across_february(16);
    let catalog = group_scaled_catalog(&ds);
    let mut db = value_engine(&catalog, Some(dir));
    ingest_engine(&mut db, &ds, TICKS);
    let cut = ds.timestamp(TICKS / 3);
    let queries: Vec<String> = cell_extremes(&db)
        .into_iter()
        .step_by(2)
        .flat_map(|x| value_panel(&ds, x, cut))
        .collect();
    let want = served_equals_scanned(&mut db, &queries, "writer");

    // Poisoned cells: the store serves none, so every tile is scanned.
    let levels = [Hour, Day, Month];
    let feed = mdb_query::rollup_feed(
        &Arc::new(db.catalog().clone()),
        &Arc::new(db.registry().clone()),
        &levels,
    );
    let poisoning = Poisoning {
        inner: feed.digester,
        seen: Default::default(),
        nth: 5,
    };
    let mut store = mdb_storage::DiskStore::in_memory(mdb_storage::DiskStoreOptions {
        rollup_feed: Some(mdb_storage::RollupFeed {
            levels: levels.to_vec(),
            digester: Arc::new(poisoning),
        }),
        ..Default::default()
    })
    .unwrap();
    for segment in db.segments().unwrap() {
        mdb_storage::SegmentStore::insert(&mut store, segment).unwrap();
    }
    mdb_storage::SegmentStore::flush(&mut store).unwrap();
    let served = mdb_storage::SegmentStore::rollup_cells(
        &store,
        Hour,
        None,
        (i64::MIN, i64::MAX),
        &mut |_| {},
    );
    assert!(!served.unwrap(), "the cells are poisoned");
    for (q, want) in queries.iter().zip(&want) {
        let got = mdb_query::QueryEngine::new(db.catalog(), db.registry(), &store)
            .with_rollups(&levels, true)
            .sql(q)
            .unwrap();
        assert_bit_identical(&got, want, &format!("poisoned cells: {q}"));
    }
    drop(db);

    // Reopened through the sidecar, and rebuilt by a rescan without it.
    let config = || {
        let mut config = Config::default();
        config.compression.error_bound = ErrorBound::relative(5.0);
        config.bulk_write_size = 32;
        config.rollup_levels = levels.to_vec();
        config.storage = StorageSpec::Disk(dir.to_path_buf());
        config
    };
    for label in ["sidecar reopen", "rescan"] {
        let registry = Arc::new(ModelRegistry::standard());
        let mut reopened = ModelarDb::reopen(dir, registry, config()).unwrap();
        for (q, want) in queries.iter().zip(&want) {
            assert_bit_identical(&reopened.sql(q).unwrap(), want, &format!("{label}: {q}"));
        }
        served_equals_scanned(&mut reopened, &queries, label);
        drop(reopened);
        std::fs::remove_file(dir.join("segments.idx")).unwrap();
    }
}

/// A read-only store wrapper counting the scans the engine starts.
struct ScanCounter<'s> {
    inner: &'s mdb_storage::DiskStore,
    scans: std::sync::atomic::AtomicUsize,
}

impl mdb_storage::SegmentStore for ScanCounter<'_> {
    fn insert(&mut self, _segment: modelardb::SegmentRecord) -> modelardb::Result<()> {
        unreachable!("the wrapper is read-only")
    }

    fn flush(&mut self) -> modelardb::Result<()> {
        Ok(())
    }

    fn scan_runs(
        &self,
        predicate: &mdb_storage::SegmentPredicate,
        f: &mut dyn FnMut(mdb_storage::SegmentRun<'_>),
    ) -> modelardb::Result<()> {
        self.scans
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.scan_runs(predicate, f)
    }

    fn rollup_cells(
        &self,
        level: modelardb::TimeLevel,
        scope: Option<&[modelardb::Gid]>,
        range: (i64, i64),
        f: &mut dyn FnMut(&[mdb_storage::rollup::KeyedCell]),
    ) -> modelardb::Result<bool> {
        self.inner.rollup_cells(level, scope, range, f)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn logical_bytes(&self) -> u64 {
        self.inner.logical_bytes()
    }

    fn persistent_bytes(&self) -> u64 {
        self.inner.persistent_bytes()
    }
}

#[test]
fn decided_hours_evaluate_no_segment() {
    // Whole hours only: a threshold below every value serves each hour from
    // its cell, one above every value skips it, and neither starts a scan.
    // A threshold inside the data scans the hours it straddles, and serving
    // off scans everything; all four agree with the scan bit for bit.
    use modelardb::TimeLevel::{Day, Hour, Month};
    let ds = across_february(17);
    let mut db = value_engine(&group_scaled_catalog(&ds), None);
    ingest_engine(&mut db, &ds, TICKS);
    let store = mdb_storage::DiskStore::in_memory(mdb_storage::DiskStoreOptions {
        bulk_write_size: 32,
        rollup_feed: Some(mdb_query::rollup_feed(
            &Arc::new(db.catalog().clone()),
            &Arc::new(db.registry().clone()),
            &[Hour, Day, Month],
        )),
        ..Default::default()
    });
    let mut store = store.unwrap();
    for segment in db.segments().unwrap() {
        mdb_storage::SegmentStore::insert(&mut store, segment).unwrap();
    }
    mdb_storage::SegmentStore::flush(&mut store).unwrap();
    let values: Vec<f64> = db
        .sql("SELECT Value FROM DataPoint")
        .unwrap()
        .rows
        .iter()
        .filter_map(|row| row[0].as_f64())
        .collect();
    let lowest = values.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let from = ds.start + 2 * HOUR_MS;
    let to = ds.start + 40 * HOUR_MS - 1;
    let counter = ScanCounter {
        inner: &store,
        scans: Default::default(),
    };
    let levels = [Hour, Day, Month];
    for (x, serve, scanned) in [
        (lowest - 1.0, true, false),
        (highest, true, false),
        (values[values.len() / 2], true, true),
        (lowest - 1.0, false, true),
    ] {
        let sql = format!(
            "SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment \
             WHERE Value > {x} AND TS >= {from} AND TS <= {to} GROUP BY Tid ORDER BY Tid"
        );
        let engine = |serve: bool| {
            mdb_query::QueryEngine::new(db.catalog(), db.registry(), &counter)
                .with_rollups(&levels, serve)
                .sql(&sql)
                .unwrap()
        };
        let before = counter.scans.load(std::sync::atomic::Ordering::Relaxed);
        let answer = engine(serve);
        let scans = counter.scans.load(std::sync::atomic::Ordering::Relaxed) - before;
        assert_eq!(scans > 0, scanned, "{scans} scans (serving {serve}): {sql}");
        assert_bit_identical(&answer, &engine(false), &sql);
        assert_eq!(answer.rows.is_empty(), x >= highest, "{sql}");
    }
}
