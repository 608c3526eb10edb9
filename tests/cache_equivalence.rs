//! Cache equivalence: the block cache, the prefetcher, and the block format
//! are performance knobs, never semantics knobs. Twelve disk-backed engines
//! over byte-identical segments — every combination of cache capacity zero
//! (every scan re-reads disk), roughly one block per shard (constant
//! eviction), and unbounded (everything stays resident), × prefetch off/on,
//! × v1 row-major and v2 columnar block layouts — must return
//! **bit-identical** SQL aggregates and DataPoint listings for arbitrary
//! time ranges and value predicates, over data with per-series gaps,
//! whole-group gap ticks, and dynamic split/join episodes (the same ingest
//! pattern as `tests/query_equivalence.rs`). Three fixed cases pin the full
//! scan itself: both block formats answer the full-span probes identically,
//! a v1 log reopened with v2 appends and a non-empty write buffer answers
//! like an all-v2 one, and a cold prefetching scan reads every block
//! exactly once.

use std::sync::Arc;

use mdb_testutil::TempDir;
use proptest::prelude::*;

use modelardb::{
    BlockFormat, DimensionSchema, DiskStore, DiskStoreOptions, ErrorBound, ModelRegistry,
    ModelarDb, ModelarDbBuilder, SegmentStore, SeriesSpec, StorageSpec,
};

/// Ticks ingested by [`engines`] (timestamps `t * 100`).
const SJ_TICKS: i64 = 900;
/// Segments per log block.
const BULK_WRITE: usize = 32;

/// The deterministic ingest row for tick `t` given the PRNG state `x`:
/// per-series gaps, whole-group gap ticks, and a decorrelation phase noisy
/// enough to force dynamic split and join episodes (asserted in `engines`).
fn row(t: i64, x: &mut u32) -> [Option<f32>; 2] {
    *x = x.wrapping_mul(1103515245).wrapping_add(12345);
    let noise = (*x >> 16) as f32 / 65536.0;
    if (150..320).contains(&t) {
        [Some(5.0 + noise * 0.2), Some(500.0 + noise * 120.0)]
    } else if t % 97 == 13 {
        [None, None]
    } else {
        [(t % 37 != 0).then_some(5.0), Some(5.1)]
    }
}

fn build(dir: &TempDir, budget: Option<u64>, prefetch: usize, format: BlockFormat) -> ModelarDb {
    let mut b = ModelarDbBuilder::new();
    b.config_mut().compression.error_bound = ErrorBound::absolute(0.5);
    b.config_mut().compression.split_fraction = 2.0;
    b.config_mut().bulk_write_size = BULK_WRITE;
    b.config_mut().storage = StorageSpec::Disk(dir.path().to_path_buf());
    b.config_mut().memory_budget_bytes = budget;
    b.config_mut().prefetch_depth = prefetch;
    b.config_mut().block_format = format;
    b.add_dimension(
        DimensionSchema::from_leaf_up("Location", vec!["Turbine".into(), "Park".into()]).unwrap(),
    )
    .add_series(SeriesSpec::new("a", 100).with_members("Location", &["Aalborg", "1"]))
    .add_series(SeriesSpec::new("b", 100).with_members("Location", &["Aalborg", "2"]))
    .correlate("Location 1");
    b.build().unwrap()
}

fn ingest(db: &mut ModelarDb) {
    let mut x = 99u32;
    for t in 0..SJ_TICKS {
        let r = row(t, &mut x);
        db.ingest_row(t * 100, &r).unwrap();
    }
    db.flush().unwrap();
}

/// Twelve engines over byte-identical segments: cache budget {0, ~one block
/// per shard, unbounded} × prefetch {off, on} × block format {v1, v2}. The
/// one-block budget is derived from the reference engine's actual on-disk
/// bytes — cache accounting charges stored file bytes, so the budget must be
/// in the same unit to mean "hit/evict churn" rather than "cache nothing" or
/// "cache everything". The returned `TempDir`s own the engines' directories:
/// keep them alive as long as the engines, drop the engines first.
fn engines() -> (Vec<TempDir>, Vec<ModelarDb>) {
    // The reference engine is built first so the churn budget below can be
    // measured from its segment log instead of guessed from record sizes.
    let reference_dir = TempDir::new("cache-eq");
    let mut reference = build(&reference_dir, None, 0, BlockFormat::V2);
    ingest(&mut reference);
    let stats = reference.stats();
    assert!(stats.splits >= 1, "fixture must exercise dynamic splits");
    assert!(stats.joins >= 1, "fixture must exercise dynamic joins");
    let log_len = std::fs::metadata(reference_dir.path().join("segments.log"))
        .unwrap()
        .len();
    let segments = reference.segments().unwrap();
    // ~8 blocks of stored bytes: one per cache shard, so every scan cycles
    // through hits and evictions without degenerating to either extreme.
    let one_block_budget = 8 * log_len * BULK_WRITE as u64 / segments.len() as u64;

    let mut dirs = vec![reference_dir];
    let mut engines = vec![reference];
    for budget in [Some(0u64), Some(one_block_budget), None] {
        for prefetch in [0usize, 2] {
            for format in [BlockFormat::V1, BlockFormat::V2] {
                if (budget, prefetch, format) == (None, 0, BlockFormat::V2) {
                    continue; // the reference engine already covers this cell
                }
                let dir = TempDir::new("cache-eq");
                let mut db = build(&dir, budget, prefetch, format);
                ingest(&mut db);
                assert_eq!(
                    db.segments().unwrap(),
                    segments,
                    "all engines must hold byte-identical segments"
                );
                dirs.push(dir);
                engines.push(db);
            }
        }
    }
    (dirs, engines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn aggregates_are_bit_identical_across_cache_capacities(
        func_idx in 0usize..5,
        tids in proptest::collection::btree_set(1u32..=2, 1..3),
        window in 0i64..850,
        span in 1i64..600,
        group_by_tid in proptest::bool::ANY,
    ) {
        let (_dirs, engines) = engines();
        let func = ["COUNT", "MIN", "MAX", "SUM", "AVG"][func_idx];
        let tid_list = tids.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ");
        let from = window * 100;
        let to = (window + span).min(SJ_TICKS - 1) * 100;
        let sql = if group_by_tid {
            format!(
                "SELECT Tid, {func}_S(*) FROM Segment WHERE Tid IN ({tid_list}) \
                 AND TS >= {from} AND TS <= {to} GROUP BY Tid ORDER BY Tid"
            )
        } else {
            format!(
                "SELECT {func}_S(*) FROM Segment WHERE Tid IN ({tid_list}) \
                 AND TS >= {from} AND TS <= {to}"
            )
        };
        let reference = engines[0].sql(&sql).unwrap();
        for db in &engines[1..] {
            let got = db.sql(&sql).unwrap();
            prop_assert_eq!(&got.columns, &reference.columns);
            prop_assert_eq!(&got.rows, &reference.rows, "{}", sql);
        }
        // A second pass must agree with the first: the zero-capacity engine
        // re-reads disk, the bounded one hits a churned cache.
        for db in &engines {
            prop_assert_eq!(&db.sql(&sql).unwrap().rows, &reference.rows, "second pass: {}", sql);
        }
        drop(engines);
    }

    #[test]
    fn value_filters_and_listings_are_bit_identical_across_cache_capacities(
        bound in -20.0f64..520.0,
        ge in proptest::bool::ANY,
        window in 0i64..850,
        span in 1i64..300,
    ) {
        let (_dirs, engines) = engines();
        let from = window * 100;
        let to = (window + span).min(SJ_TICKS - 1) * 100;
        let op = if ge { ">=" } else { "<" };
        for sql in [
            format!(
                "SELECT Tid, SUM_S(*), COUNT_S(*) FROM Segment WHERE Value {op} {bound:.3} \
                 AND TS >= {from} GROUP BY Tid ORDER BY Tid"
            ),
            format!(
                "SELECT Tid, TS, Value FROM DataPoint WHERE TS >= {from} AND TS <= {to}"
            ),
            format!(
                "SELECT Tid, TS, Value FROM DataPoint WHERE Value {op} {bound:.3} \
                 AND TS >= {from} AND TS <= {to}"
            ),
        ] {
            let reference = engines[0].sql(&sql).unwrap();
            for db in &engines[1..] {
                let got = db.sql(&sql).unwrap();
                prop_assert_eq!(&got.columns, &reference.columns);
                prop_assert_eq!(&got.rows, &reference.rows, "{}", sql);
            }
        }
        drop(engines);
    }
}

/// Full-span probes that scan every block: all five whole-store aggregates,
/// and a per-series sum.
const SCAN_PROBES: [&str; 2] = [
    "SELECT COUNT_S(*), SUM_S(*), AVG_S(*), MIN_S(*), MAX_S(*) FROM Segment",
    "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
];

/// Reopens `db`'s directory under its own configuration, so its block
/// cache starts cold.
fn reopen_cold(dir: &TempDir, db: ModelarDb) -> ModelarDb {
    let config = db.config().clone();
    drop(db);
    ModelarDb::reopen(dir.path(), Arc::new(ModelRegistry::standard()), config).unwrap()
}

/// Scans every block of `db` and asserts that none was read from the log:
/// the blocks it wrote are parked in its cache.
fn assert_scans_warm(db: &mut ModelarDb) {
    db.set_rollup_serve(false);
    db.sql(SCAN_PROBES[0]).unwrap();
    let stats = db.cache_stats();
    assert_eq!((stats.misses, stats.bytes_read), (0, 0), "{stats:?}");
}

/// A v1 and a v2 store over the same ingest answer the scan probes
/// bit-identically, served from rollup cells and scanned alike; the scan
/// decodes every v1 block once and re-lays it out as v2, and decodes no v2
/// block into records.
#[test]
fn v1_and_v2_stores_answer_the_scan_probes_identically() {
    let (v1_dir, v2_dir) = (TempDir::new("cache-eq-v1"), TempDir::new("cache-eq-v2"));
    let mut v1 = build(&v1_dir, None, 0, BlockFormat::V1);
    let mut v2 = build(&v2_dir, None, 0, BlockFormat::V2);
    ingest(&mut v1);
    ingest(&mut v2);
    // Warm right after the flush; cold (every block read once) reopened.
    assert_scans_warm(&mut v1);
    assert_scans_warm(&mut v2);
    let (mut v1, mut v2) = (reopen_cold(&v1_dir, v1), reopen_cold(&v2_dir, v2));
    for serve in [true, false] {
        v1.set_rollup_serve(serve);
        v2.set_rollup_serve(serve);
        for probe in SCAN_PROBES {
            assert_eq!(v1.sql(probe).unwrap(), v2.sql(probe).unwrap(), "{probe}");
        }
    }
    let blocks = |dir: &TempDir| {
        DiskStore::open_with(
            dir.path(),
            DiskStoreOptions {
                bulk_write_size: BULK_WRITE,
                ..Default::default()
            },
        )
        .unwrap()
        .block_count() as u64
    };
    assert_eq!(v1.cache_stats().owned_decodes, blocks(&v1_dir));
    assert_eq!(v2.cache_stats().owned_decodes, 0);
}

/// Ticks [`reopened_engine`] ingests before it reopens the store; the rest
/// of [`SJ_TICKS`] is appended after the reopen.
const REOPEN_AT: i64 = 500;

/// The tick before which [`reopened_engine`] reopens the store a second
/// time, so the blocks its v2 writer appended are read back cold.
const COLD_AT: i64 = 850;

/// Written in `first` format up to [`REOPEN_AT`], then reopened with v2
/// writes, `budget` and `pruning`, and appended to until [`SJ_TICKS`]. A
/// flush every 100 ticks cuts blocks on both sides of the reopen. The store
/// is reopened once more at [`COLD_AT`], after its last flush, so no block
/// it holds was parked by its own write; the last 50 ticks are not
/// flushed, so their segments wait in the write buffer.
fn reopened_engine(
    dir: &TempDir,
    first: BlockFormat,
    budget: Option<u64>,
    pruning: bool,
) -> ModelarDb {
    let mut x = 99u32;
    let mut config = {
        let mut db = build(dir, None, 0, first);
        for t in 0..REOPEN_AT {
            db.ingest_row(t * 100, &row(t, &mut x)).unwrap();
            if t % 100 == 49 {
                db.flush().unwrap();
            }
        }
        db.flush().unwrap();
        db.config().clone()
    };
    config.block_format = BlockFormat::V2;
    config.memory_budget_bytes = budget;
    config.zone_pruning = pruning;
    let mut db =
        ModelarDb::reopen(dir.path(), Arc::new(ModelRegistry::standard()), config).unwrap();
    for t in REOPEN_AT..COLD_AT {
        db.ingest_row(t * 100, &row(t, &mut x)).unwrap();
        if t % 100 == 49 {
            db.flush().unwrap();
        }
    }
    let mut db = reopen_cold(dir, db);
    for t in COLD_AT..SJ_TICKS {
        db.ingest_row(t * 100, &row(t, &mut x)).unwrap();
    }
    db
}

/// A log written in v1, reopened with v2 writes and appended to, with
/// segments still in the write buffer, answers the scan probes, a value
/// filter and a Data Point listing bit-identically to an all-v2 store over
/// the same ingest — pruning on and off, served from cells and scanned, at
/// a zero cache budget (every fetch re-reads the block) and an unbounded
/// one.
#[test]
fn mixed_format_logs_with_buffered_segments_answer_like_all_v2_logs() {
    let queries = [
        SCAN_PROBES[0],
        SCAN_PROBES[1],
        "SELECT Tid, SUM_S(*), COUNT_S(*) FROM Segment WHERE Value > 5.05 GROUP BY Tid ORDER BY Tid",
        "SELECT Tid, TS, Value FROM DataPoint WHERE TS >= 30000",
    ];
    for budget in [Some(0u64), None] {
        for pruning in [true, false] {
            let (mixed_dir, v2_dir) = (TempDir::new("cache-eq-mixed"), TempDir::new("cache-eq-v2"));
            let mut mixed = reopened_engine(&mixed_dir, BlockFormat::V1, budget, pruning);
            let mut v2 = reopened_engine(&v2_dir, BlockFormat::V2, budget, pruning);
            assert!(
                mixed.resident_segments() > mixed.cache_stats().resident_segments,
                "the fixture must leave segments in the write buffer"
            );
            assert_eq!(mixed.segments().unwrap(), v2.segments().unwrap());
            for serve in [true, false] {
                mixed.set_rollup_serve(serve);
                v2.set_rollup_serve(serve);
                for sql in queries {
                    let label =
                        format!("{sql} (budget {budget:?}, pruning {pruning}, serve {serve})");
                    assert_eq!(mixed.sql(sql).unwrap(), v2.sql(sql).unwrap(), "{label}");
                }
            }
            let stats = mixed.cache_stats();
            assert!(
                stats.owned_decodes > 0 && stats.decode_validations > 0,
                "{stats:?}"
            );
            assert_eq!(v2.cache_stats().owned_decodes, 0);
            if budget.is_none() {
                // Warm: the block that flushing the write buffer appends is
                // parked, so reading the ticks it holds reads nothing.
                mixed.flush().unwrap();
                mixed
                    .sql("SELECT Tid, TS, Value FROM DataPoint WHERE TS >= 85000")
                    .unwrap();
                let warm = mixed.cache_stats();
                assert_eq!(
                    (warm.misses, warm.bytes_read),
                    (stats.misses, stats.bytes_read)
                );
            }
        }
    }
}

/// A cold full scan with the prefetcher on brings every block in exactly
/// once, through a prefetch or a demand miss, and reads exactly the log's
/// persistent bytes — over a v2 log, where no block is decoded into
/// records, and over a v1 log, where every block is decoded once and
/// re-laid out as v2.
#[test]
fn cold_prefetching_scan_reads_every_block_once() {
    for format in [BlockFormat::V1, BlockFormat::V2] {
        let dir = TempDir::new("cache-eq-cold");
        {
            // A flush every 50 ticks cuts a block each time, so the
            // prefetcher has many blocks to read ahead of the scan.
            let mut db = build(&dir, None, 0, format);
            let mut x = 99u32;
            for t in 0..SJ_TICKS {
                db.ingest_row(t * 100, &row(t, &mut x)).unwrap();
                if t % 50 == 49 {
                    db.flush().unwrap();
                }
            }
            db.flush().unwrap();
        }
        let store = DiskStore::open_with(
            dir.path(),
            DiskStoreOptions {
                bulk_write_size: BULK_WRITE,
                ..Default::default()
            },
        )
        .unwrap();
        let (blocks, persistent) = (store.block_count() as u64, store.persistent_bytes());
        drop(store);
        assert!(
            blocks >= 8,
            "the fixture must span many blocks, got {blocks}"
        );

        let mut db = build(&dir, None, 256, format);
        db.set_rollup_serve(false);
        for probe in SCAN_PROBES {
            db.sql(probe).unwrap();
        }
        let stats = db.cache_stats();
        assert_eq!(stats.prefetch_issued + stats.misses, blocks);
        assert_eq!(stats.bytes_read, persistent);
        match format {
            BlockFormat::V1 => assert_eq!(stats.owned_decodes, blocks),
            BlockFormat::V2 => assert_eq!(stats.owned_decodes, 0),
        }
    }
}
