//! Accuracy pins for the sketch-answered functions (`P50_S`/`P99_S`/
//! `PCTL_S`, `COUNT_DISTINCT`, `TOP_K_S`): their answers must stay within
//! the error bounds `mdb_sketch` documents — imported here as constants, so
//! the docs, the implementation, and this suite cannot drift apart — when
//! compared against exact answers computed by a full Data Point View scan.
//! Separately, the sketch path must be *placement-invariant*: an embedded
//! engine and a replicated cluster must return bit-identical sketch
//! answers. And on a disk-backed store the whole point
//! of the feature is pinned: sketch queries resolve from block metadata
//! without fetching a single segment body.

use std::sync::Arc;

use mdb_bench::{
    build_disk_engine, build_engine, catalog_from_dataset, ingest_cluster, ingest_engine, scalar,
};
use mdb_datagen::{ep, Scale};
use mdb_sketch::{DISTINCT_RELATIVE_ERROR, QUANTILE_RELATIVE_ERROR, QUANTILE_ZERO_THRESHOLD};
use mdb_testutil::TempDir;
use proptest::prelude::*;

use modelardb::{
    sketch_feed, value_bounds_fn, Cluster, ClusterConfig, CompressionConfig, DiskStore,
    DiskStoreOptions, ErrorBound, ModelRegistry, ModelarDb, QueryEngine, SegmentStore,
};

/// Exact reconstructed values of every stored data point, via the Data
/// Point View — the same values the ingest-time sketch feed saw.
fn exact_values(db: &ModelarDb) -> Vec<f64> {
    db.sql("SELECT Value FROM DataPoint")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_f64().unwrap())
        .collect()
}

/// Exact per-series point counts, heaviest first with ties broken by Tid —
/// the order `TOP_K_S` documents.
fn exact_counts(db: &ModelarDb) -> Vec<(i64, i64)> {
    let result = db
        .sql("SELECT Tid, COUNT(*) FROM DataPoint GROUP BY Tid")
        .unwrap();
    let mut counts: Vec<(i64, i64)> = result
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts
}

/// The exact nearest-rank percentile (the definition `PCTL_S` approximates).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The documented quantile guarantee: relative error at most
/// [`QUANTILE_RELATIVE_ERROR`] (plus the zero-bucket threshold), with a few
/// ulps of slack for the float round trip.
fn quantile_close(approx: f64, exact: f64) -> bool {
    (approx - exact).abs()
        <= QUANTILE_RELATIVE_ERROR * exact.abs() * (1.0 + 1e-9) + QUANTILE_ZERO_THRESHOLD
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Sketch answers vs. exact full-scan answers, within the documented
    // bounds, across datasets and ingest lengths.
    #[test]
    fn sketch_answers_stay_within_documented_error(
        seed in 0u64..256,
        ticks in 60u64..300,
        k in 1usize..6,
    ) {
        let ds = ep(seed, Scale::tiny()).unwrap();
        let mut db = build_engine(&ds, true, 5.0);
        ingest_engine(&mut db, &ds, ticks);

        let mut values = exact_values(&db);
        prop_assert!(!values.is_empty());
        values.sort_by(f64::total_cmp);

        // Percentiles: P50_S / P99_S sugar and the general PCTL_S form.
        for (sql, q) in [
            ("SELECT P50_S(*) FROM Segment", 50.0),
            ("SELECT P99_S(*) FROM Segment", 99.0),
            ("SELECT PCTL_S(25.5) FROM Segment", 25.5),
        ] {
            let approx = scalar(&db.sql(sql).unwrap());
            let exact = nearest_rank(&values, q);
            prop_assert!(
                quantile_close(approx, exact),
                "{sql}: approx {approx} vs exact {exact}"
            );
        }

        // Distinct series: within the documented relative error (and never
        // off by less than one for the tiny cardinalities of this scale).
        let approx = scalar(&db.sql("SELECT COUNT_DISTINCT(Tid) FROM Segment").unwrap());
        let exact = exact_counts(&db).len() as f64;
        prop_assert!(
            (approx - exact).abs() <= (DISTINCT_RELATIVE_ERROR * exact).max(1.0),
            "COUNT_DISTINCT: approx {approx} vs exact {exact}"
        );

        // Top-k: the count-min hash family has no fully-colliding key pair
        // below 4096 (pinned in mdb_sketch), so for these Tids the heavy
        // hitters and their counts are exact — a superset-ordered match.
        let truth: Vec<(i64, i64)> = exact_counts(&db).into_iter().take(k).collect();
        let got: Vec<(i64, i64)> = db
            .sql(&format!("SELECT TOP_K_S({k}) FROM Segment"))
            .unwrap()
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        prop_assert_eq!(got, truth);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Sketch answers are placement-invariant: an embedded engine and an
    // rf=2 cluster (any worker count) agree exactly — sketch merging is
    // commutative and associative over integer state, so every merge tree
    // produces the same bits.
    #[test]
    fn engine_and_replicated_cluster_agree_exactly(
        seed in 0u64..64,
        ticks in 60u64..200,
        n_workers in 2usize..5,
    ) {
        let ds = ep(seed, Scale::tiny()).unwrap();
        let mut engine = build_engine(&ds, true, 5.0);
        ingest_engine(&mut engine, &ds, ticks);

        let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
        let cluster = Cluster::start_with(
            catalog,
            Arc::new(ModelRegistry::standard()),
            ClusterConfig {
                replication_factor: 2,
                ..ClusterConfig::with_compression(CompressionConfig {
                    error_bound: ErrorBound::relative(5.0),
                    ..Default::default()
                })
            },
            n_workers,
        )
        .unwrap();
        ingest_cluster(&cluster, &ds, ticks);

        for sql in [
            "SELECT P50_S(*) FROM Segment",
            "SELECT P99_S(*), COUNT_DISTINCT(Tid) FROM Segment",
            "SELECT PCTL_S(10) FROM Segment",
            "SELECT TOP_K_S(3) FROM Segment",
        ] {
            let expected = engine.sql(sql).unwrap();
            prop_assert_eq!(
                &cluster.sql(sql).unwrap(),
                &expected,
                "{} ({} workers, rf=2)",
                sql,
                n_workers
            );
        }
        cluster.shutdown().unwrap();
    }
}

/// The tentpole guarantee on a disk-backed store: sketch queries resolve
/// from block metadata alone — zero block-cache traffic — and a reopened
/// store answers them identically from the sidecar-persisted sketches.
#[test]
fn disk_sketch_queries_fetch_no_block_bodies() {
    let ds = ep(5, Scale::tiny()).unwrap();
    let case = TempDir::new("sketch-disk");
    let dir = case.path();
    let mut db = build_disk_engine(&ds, dir, 5.0, 16, None);
    ingest_engine(&mut db, &ds, 400);
    let expected = [
        db.sql("SELECT P50_S(*), P99_S(*) FROM Segment").unwrap(),
        db.sql("SELECT COUNT_DISTINCT(Tid) FROM Segment").unwrap(),
        db.sql("SELECT TOP_K_S(3) FROM Segment").unwrap(),
    ];
    drop(db);

    // Reopen at the store level so the cache counters are observable.
    let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
    let registry = Arc::new(ModelRegistry::standard());
    let store = DiskStore::open_with(
        dir,
        DiskStoreOptions {
            bulk_write_size: 16,
            memory_budget_bytes: None,
            value_bounds: Some(value_bounds_fn(&catalog, &registry)),
            sketch_feed: Some(sketch_feed(&catalog, &registry)),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        store.block_count() > 1,
        "need several blocks to be meaningful"
    );
    let engine = QueryEngine::new(&catalog, &registry, &store);
    let got = [
        engine
            .sql("SELECT P50_S(*), P99_S(*) FROM Segment")
            .unwrap(),
        engine
            .sql("SELECT COUNT_DISTINCT(Tid) FROM Segment")
            .unwrap(),
        engine.sql("SELECT TOP_K_S(3) FROM Segment").unwrap(),
    ];
    assert_eq!(
        got, expected,
        "sidecar-restored sketches answer identically"
    );
    let stats = store.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 0),
        "sketch queries must not touch the block cache"
    );

    // Control: an exact aggregate over the same store *does* fetch bodies,
    // proving the counters would have caught any sketch-path fetch.
    engine.sql("SELECT AVG(Value) FROM DataPoint").unwrap();
    let stats = store.cache_stats();
    assert!(
        stats.hits + stats.misses > 0,
        "control query fetches blocks"
    );
}

/// Sketch queries are whole-store statistics: filtering, grouping, mixing
/// with exact aggregates, and sketch-less stores are rejected with clear
/// errors instead of silently answering something else.
#[test]
fn invalid_sketch_queries_and_sketchless_stores_error() {
    let ds = ep(3, Scale::tiny()).unwrap();
    let mut db = build_engine(&ds, true, 5.0);
    ingest_engine(&mut db, &ds, 100);
    for sql in [
        "SELECT P50_S(*) FROM Segment WHERE Tid = 1",
        "SELECT P50_S(*) FROM Segment GROUP BY Tid",
        "SELECT P50_S(*), AVG_S(*) FROM Segment",
        "SELECT Tid, P50_S(*) FROM Segment",
        "SELECT P50_S(*) FROM DataPoint",
        "SELECT TOP_K_S(2), COUNT_DISTINCT(Tid) FROM Segment",
    ] {
        assert!(db.sql(sql).is_err(), "{sql} must be rejected");
    }

    // A store built without a sketch feed cannot answer sketch queries.
    let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
    let registry = Arc::new(ModelRegistry::standard());
    let store = DiskStore::in_memory(DiskStoreOptions::default()).unwrap();
    let engine = QueryEngine::new(&catalog, &registry, &store);
    let err = engine.sql("SELECT P50_S(*) FROM Segment").unwrap_err();
    assert!(err.to_string().contains("sketch"), "unhelpful error: {err}");
}
