//! Restart equivalence: `ModelarDb::reopen` over a flushed disk directory
//! must be indistinguishable from the engine that wrote it — identical
//! segment sequence, block statistics that still prune, and bit-identical
//! SQL results — whether the reopen goes through the sidecar index or
//! (sidecar deleted) through the streaming log rebuild.

use std::sync::Arc;

use mdb_testutil::TempDir;

use modelardb::{
    Config, DimensionSchema, ErrorBound, ModelRegistry, ModelarDb, ModelarDbBuilder, SeriesSpec,
    StorageSpec,
};

const TICKS: i64 = 900;
const BULK_WRITE: usize = 32;

const QUERIES: [&str; 6] = [
    "SELECT COUNT_S(*) FROM Segment",
    "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
    "SELECT Tid, AVG_S(*) FROM Segment WHERE TS >= 20000 AND TS <= 70000 GROUP BY Tid ORDER BY Tid",
    "SELECT Tid, SUM_S(*), COUNT_S(*) FROM Segment WHERE Value >= 5.05 GROUP BY Tid ORDER BY Tid",
    "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment GROUP BY Tid ORDER BY Tid",
    "SELECT Tid, TS, Value FROM DataPoint WHERE TS >= 30000 AND TS <= 42000",
];

/// Reads no block of the fixture: the time clause skips the blocks holding
/// the decorrelation episode, whose Gorilla segments have no value range,
/// and every later block stores values near 5 only, so its value range
/// excludes the value clause.
const MISSES_EVERY_BLOCK: &str =
    "SELECT COUNT_S(*) FROM Segment WHERE TS >= 60000 AND Value >= 1000";

/// A scoped case directory, removed on drop — on failure too, so a broken
/// run never poisons the next (see `mdb_testutil::TempDir`).
fn dir_for(tag: &str) -> TempDir {
    TempDir::new(&format!("restart-{tag}"))
}

fn config(dir: &std::path::Path) -> Config {
    let mut config = Config::default();
    config.compression.error_bound = ErrorBound::absolute(0.5);
    config.compression.split_fraction = 2.0;
    config.bulk_write_size = BULK_WRITE;
    config.storage = StorageSpec::Disk(dir.to_path_buf());
    config
}

/// A disk-backed engine over two correlated series, ingested with per-series
/// gaps, whole-group gap ticks, and a decorrelation episode that forces
/// dynamic split and join (the same pattern the query-equivalence suite
/// uses), flushed so everything is durable.
fn populated_engine(dir: &std::path::Path) -> ModelarDb {
    let mut b = ModelarDbBuilder::new();
    *b.config_mut() = config(dir);
    b.add_dimension(
        DimensionSchema::from_leaf_up("Location", vec!["Turbine".into(), "Park".into()]).unwrap(),
    )
    .add_series(SeriesSpec::new("a", 100).with_members("Location", &["Aalborg", "1"]))
    .add_series(SeriesSpec::new("b", 100).with_members("Location", &["Aalborg", "2"]))
    .correlate("Location 1");
    let mut db = b.build().unwrap();
    let mut x = 99u32;
    for t in 0..TICKS {
        x = x.wrapping_mul(1103515245).wrapping_add(12345);
        let noise = (x >> 16) as f32 / 65536.0;
        let row = if (150..320).contains(&t) {
            [Some(5.0 + noise * 0.2), Some(500.0 + noise * 120.0)]
        } else if t % 97 == 13 {
            [None, None]
        } else {
            [(t % 37 != 0).then_some(5.0), Some(5.1)]
        };
        db.ingest_row(t * 100, &row).unwrap();
    }
    db.flush().unwrap();
    let stats = db.stats();
    assert!(stats.splits >= 1, "fixture must exercise dynamic splits");
    assert!(stats.joins >= 1, "fixture must exercise dynamic joins");
    db
}

fn assert_equivalent(before: &ModelarDb, after: &ModelarDb, label: &str) {
    assert_eq!(
        before.segments().unwrap(),
        after.segments().unwrap(),
        "{label}: segment sequence"
    );
    for db in [before, after] {
        let fetched = || {
            let stats = db.cache_stats();
            stats.hits + stats.misses
        };
        let start = fetched();
        db.sql(MISSES_EVERY_BLOCK).unwrap();
        assert_eq!(
            fetched(),
            start,
            "{label}: a value-pruned query read a block"
        );
    }
    for q in QUERIES {
        let a = before.sql(q).unwrap();
        let b = after.sql(q).unwrap();
        assert_eq!(a.columns, b.columns, "{label}: {q}");
        assert_eq!(a.rows, b.rows, "{label}: {q}");
    }
}

#[test]
fn reopen_with_sidecar_is_equivalent() {
    let case = dir_for("with-sidecar");
    let dir = case.path();
    let before = populated_engine(dir);
    assert!(dir.join("segments.idx").exists(), "flush wrote the sidecar");
    let after = ModelarDb::reopen(dir, Arc::new(ModelRegistry::standard()), config(dir)).unwrap();
    assert_equivalent(&before, &after, "sidecar reopen");
}

#[test]
fn reopen_without_sidecar_is_equivalent() {
    let case = dir_for("without-sidecar");
    let dir = case.path();
    let before = populated_engine(dir);
    std::fs::remove_file(dir.join("segments.idx")).unwrap();
    let after = ModelarDb::reopen(dir, Arc::new(ModelRegistry::standard()), config(dir)).unwrap();
    assert_equivalent(&before, &after, "log-rebuild reopen");
    assert!(
        dir.join("segments.idx").exists(),
        "the rebuild rewrote the sidecar"
    );
}

#[test]
fn reopen_chain_stays_equivalent_under_a_bounded_cache() {
    // reopen → reopen again with a tiny block-cache budget: the second
    // engine re-reads blocks on demand yet answers identically.
    let case = dir_for("chain");
    let dir = case.path();
    let before = populated_engine(dir);
    let registry = Arc::new(ModelRegistry::standard());
    let middle = ModelarDb::reopen(dir, Arc::clone(&registry), config(dir)).unwrap();
    assert_equivalent(&before, &middle, "first reopen");
    drop(middle);
    let mut bounded = config(dir);
    bounded.memory_budget_bytes = Some(0);
    let after = ModelarDb::reopen(dir, registry, bounded).unwrap();
    assert_equivalent(&before, &after, "bounded reopen");
    assert_eq!(
        after.resident_segments(),
        0,
        "budget 0 keeps nothing parked"
    );
}
