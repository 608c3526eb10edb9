//! Integration: the cluster runtime must agree with the embedded engine, bit
//! for bit, on every query class, at any worker count — the distributed
//! execution of Algorithms 5 and 6 (scatter partials, merge at the master)
//! is an implementation detail, never a semantic one.

use std::sync::Arc;

use mdb_bench::{build_engine, catalog_from_dataset, ingest_engine};
use modelardb::{Cluster, CompressionConfig, Datastore, ErrorBound, ModelRegistry};

const TICKS: u64 = 400;

fn queries() -> Vec<String> {
    vec![
        "SELECT COUNT_S(*) FROM Segment".into(),
        "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid".into(),
        "SELECT Type, AVG_S(*) FROM Segment GROUP BY Type ORDER BY Type".into(),
        "SELECT Entity, MIN_S(*), MAX_S(*) FROM Segment GROUP BY Entity ORDER BY Entity".into(),
        "SELECT Tid, CUBE_SUM_DAY(*) FROM Segment WHERE Tid IN (1,2,5) GROUP BY Tid".into(),
        "SELECT CUBE_AVG_HOUR(*) FROM Segment WHERE Category = 'ProductionMWh'".into(),
        "SELECT SUM(Value) FROM DataPoint WHERE Tid = 3".into(),
        // Listings without ORDER BY over several groups: every deployment
        // lists the groups in ascending gid order, each group's rows in
        // scan order, so LIMIT keeps the same rows everywhere.
        "SELECT Tid, TS, Value FROM DataPoint".into(),
        "SELECT * FROM DataPoint WHERE Tid IN (1, 2, 5)".into(),
        "SELECT Tid, TS, Value FROM DataPoint LIMIT 40".into(),
        "SELECT Tid, StartTime, EndTime FROM Segment".into(),
        "SELECT * FROM Segment".into(),
        "SELECT Tid, StartTime FROM Segment LIMIT 12".into(),
    ]
}

#[test]
fn cluster_agrees_with_embedded_engine() {
    let ds = mdb_datagen::ep(13, mdb_datagen::Scale::tiny()).unwrap();

    // Embedded reference.
    let mut embedded = build_engine(&ds, true, 5.0);
    ingest_engine(&mut embedded, &ds, TICKS);

    for n_workers in [1usize, 2, 4] {
        let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
        let cluster = Cluster::start(
            catalog,
            Arc::new(ModelRegistry::standard()),
            CompressionConfig {
                error_bound: ErrorBound::relative(5.0),
                ..Default::default()
            },
            n_workers,
        )
        .unwrap();
        for tick in 0..TICKS {
            cluster
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
        }
        cluster.flush().unwrap();

        for q in queries() {
            let expected = embedded.sql(&q).unwrap();
            let got = cluster.sql(&q).unwrap();
            assert_eq!(got.columns, expected.columns, "{q} ({n_workers} workers)");
            assert_eq!(
                got.rows.len(),
                expected.rows.len(),
                "{q} ({n_workers} workers)"
            );
            for (a, b) in got.rows.iter().zip(&expected.rows) {
                for (x, y) in a.iter().zip(b) {
                    match (x.as_f64(), y.as_f64()) {
                        (Some(x), Some(y)) => assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{q} ({n_workers} workers): {x} vs {y}"
                        ),
                        _ => assert_eq!(x, y, "{q} ({n_workers} workers)"),
                    }
                }
            }
        }
        cluster.shutdown().unwrap();
    }
}

#[test]
fn ts_bounds_at_the_i64_limits_keep_nothing() {
    // `TS > i64::MAX` and `TS < i64::MIN` admit no timestamp: the rewrite
    // must not wrap `value ± 1` around to an unbounded range.
    let ds = mdb_datagen::ep(3, mdb_datagen::Scale::tiny()).unwrap();
    let mut embedded = build_engine(&ds, true, 5.0);
    ingest_engine(&mut embedded, &ds, TICKS);
    let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
    let cluster = Cluster::start(
        catalog,
        Arc::new(ModelRegistry::standard()),
        CompressionConfig {
            error_bound: ErrorBound::relative(5.0),
            ..Default::default()
        },
        2,
    )
    .unwrap();
    for tick in 0..TICKS {
        cluster
            .ingest_row(ds.timestamp(tick), &ds.row(tick))
            .unwrap();
    }
    cluster.flush().unwrap();

    let total = embedded.sql("SELECT COUNT_S(*) FROM Segment").unwrap();
    let total = total.rows[0][0].as_i64().unwrap();
    assert!(total > 0);
    let (max, min) = (i64::MAX, i64::MIN);
    for empty in [format!("TS > {max}"), format!("TS < {min}")] {
        for sql in [
            format!("SELECT COUNT_S(*) FROM Segment WHERE {empty}"),
            format!("SELECT Tid, TS, Value FROM DataPoint WHERE {empty}"),
        ] {
            let local = embedded.sql(&sql).unwrap();
            let remote = cluster.sql(&sql).unwrap();
            assert!(local.rows.is_empty(), "{sql}: {:?}", local.rows);
            assert_eq!(remote.columns, local.columns, "{sql}");
            assert!(remote.rows.is_empty(), "{sql}: {:?}", remote.rows);
        }
    }
    // The inclusive bounds at the same limits keep every point.
    for full in [format!("TS <= {max}"), format!("TS >= {min}")] {
        let count = format!("SELECT COUNT_S(*) FROM Segment WHERE {full}");
        let listing = format!("SELECT Tid, TS, Value FROM DataPoint WHERE {full}");
        for db in [embedded.sql(&count).unwrap(), cluster.sql(&count).unwrap()] {
            assert_eq!(db.rows[0][0].as_i64(), Some(total), "{count}");
        }
        for db in [
            embedded.sql(&listing).unwrap(),
            cluster.sql(&listing).unwrap(),
        ] {
            assert_eq!(db.rows.len() as i64, total, "{listing}");
        }
    }
    cluster.shutdown().unwrap();
}

#[test]
fn cluster_storage_equals_embedded_storage() {
    // The same groups produce the same segments regardless of placement.
    let ds = mdb_datagen::ep(13, mdb_datagen::Scale::tiny()).unwrap();
    let mut embedded = build_engine(&ds, true, 5.0);
    ingest_engine(&mut embedded, &ds, TICKS);

    let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
    let cluster = Cluster::start(
        catalog,
        Arc::new(ModelRegistry::standard()),
        CompressionConfig {
            error_bound: ErrorBound::relative(5.0),
            ..Default::default()
        },
        3,
    )
    .unwrap();
    for tick in 0..TICKS {
        cluster
            .ingest_row(ds.timestamp(tick), &ds.row(tick))
            .unwrap();
    }
    cluster.flush().unwrap();
    let (stats, bytes, segments) = cluster.stats().unwrap();
    assert_eq!(bytes, embedded.storage_bytes());
    assert_eq!(segments, embedded.segment_count());
    assert_eq!(stats.data_points, embedded.stats().data_points);
    cluster.shutdown().unwrap();
}

#[test]
fn unknown_group_by_column_errors_whatever_the_data() {
    // The error must not depend on whether any segment survives pruning,
    // nor on whether the rewrite proves the answer empty.
    let ds = mdb_datagen::ep(13, mdb_datagen::Scale::tiny()).unwrap();
    let mut embedded = build_engine(&ds, true, 5.0);
    ingest_engine(&mut embedded, &ds, TICKS);
    let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
    let cluster = Cluster::start(
        catalog,
        Arc::new(ModelRegistry::standard()),
        CompressionConfig {
            error_bound: ErrorBound::relative(5.0),
            ..Default::default()
        },
        2,
    )
    .unwrap();
    for tick in 0..TICKS {
        cluster
            .ingest_row(ds.timestamp(tick), &ds.row(tick))
            .unwrap();
    }
    cluster.flush().unwrap();

    for filter in [
        "EndTime <= 9999999999999",
        "EndTime <= 0",
        "TS <= 0",
        "Tid = 99",
    ] {
        let sql = format!("SELECT Nope, SUM_S(*) FROM Segment WHERE {filter} GROUP BY Nope");
        for (deployment, answer) in [
            ("engine", embedded.sql(&sql)),
            ("cluster", cluster.sql(&sql)),
        ] {
            let error = answer
                .expect_err(&format!("{deployment}: {sql}"))
                .to_string();
            assert!(
                error.contains("unknown GROUP BY column Nope"),
                "{deployment}: {sql}: {error}"
            );
        }
    }
    cluster.shutdown().unwrap();
}

#[test]
fn points_streamed_one_per_call_store_the_same_rows_everywhere() {
    // `ingest_points` assembles rows across calls on every deployment: a
    // point stream cut into one call per point stores what the engine
    // stores, gaps included.
    let ds = mdb_datagen::ep(13, mdb_datagen::Scale::tiny()).unwrap();
    let ticks = 60;
    let stream = |store: &mut dyn Datastore| {
        for tick in 0..ticks {
            for (i, value) in ds.row(tick).into_iter().enumerate() {
                if let Some(value) = value {
                    let point = (i as u32 + 1, ds.timestamp(tick), value);
                    store.ingest_points(&[point]).unwrap();
                }
            }
        }
        store.flush().unwrap();
    };
    let per_tid = |store: &dyn Datastore| {
        store
            .sql("SELECT Tid, COUNT_S(*), SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
            .unwrap()
    };
    let mut engine = build_engine(&ds, true, 5.0);
    stream(&mut engine);
    let expected = per_tid(&engine);
    assert_eq!(expected.rows.len(), ds.n_series());
    for n_workers in [1usize, 2] {
        let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
        let mut cluster = Cluster::start(
            catalog,
            Arc::new(ModelRegistry::standard()),
            CompressionConfig {
                error_bound: ErrorBound::relative(5.0),
                ..Default::default()
            },
            n_workers,
        )
        .unwrap();
        stream(&mut cluster);
        let got = per_tid(&cluster);
        assert_eq!(got.rows.len(), expected.rows.len(), "{n_workers} workers");
        for (a, b) in got.rows.iter().zip(&expected.rows) {
            assert_eq!(a[0], b[0], "{n_workers} workers");
            assert_eq!(
                a[1], b[1],
                "COUNT_S of tid {:?} ({n_workers} workers)",
                b[0]
            );
            let (x, y) = (a[2].as_f64().unwrap(), b[2].as_f64().unwrap());
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "SUM_S of tid {:?} ({n_workers} workers): {x} vs {y}",
                b[0]
            );
        }
        cluster.shutdown().unwrap();
    }
}
