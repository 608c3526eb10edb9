//! Golden answer bits: a fixed panel of aggregate queries over two fixed
//! data sets, pinned to a digest of every output bit. The equivalence
//! suites compare one execution path with another; this test compares every
//! path with a recorded answer, so a change to the float association of the
//! fold (which accumulators meet in which order) fails here even when every
//! path changes the same way.
//!
//! Each panel runs two ways over byte-identical segments: the embedded
//! engine, and a query engine over a shard whose store is rebuilt from the
//! embedded engine's segments. Both must produce the recorded digest.
//!
//! The first two panels run at scaling 1, where every term is an
//! `f32`-valued closed form and every partial sum fits in 53 bits, so any
//! association gives the same bits. The third runs over a catalog whose
//! scalings are not 1 (built as `tests/raw_oracle.rs` builds one), where
//! `stored / scaling` terms round: it pins the association itself. The
//! fourth scales each group by one constant, so PMC-Mean and Swing fit the
//! scaled series, and adds `Value` filters on stored values: it pins their
//! closed forms under scaling.

use std::sync::Arc;

use mdb_bench::{build_engine, catalog_from_dataset, ingest_engine};
use mdb_datagen::{eh, ep, Dataset, Scale};
use mdb_query::Shard;
use modelardb::{
    BlockFormat, Catalog, Cell, Config, ErrorBound, Gid, ModelRegistry, ModelarDb, QueryResult,
    StorageSpec,
};

const HOUR_MS: i64 = 3_600_000;
const DAY_MS: i64 = 24 * HOUR_MS;
/// 2021-02-01T00:00:00Z: an hour, day and month boundary at once.
const FEB_1_2021: i64 = 1_612_137_600_000;

/// The query panel: the dashboard's broad shapes (dimension group-bys with a
/// segment-time bound, and the ungrouped total), `Value` filters grouped by
/// series and by dimension, a narrow unaligned `TS` range, and explicit
/// `CUBE_*` roll-ups, one with ragged edges.
fn panel(ds: &Dataset) -> Vec<String> {
    let ticks = ds.scale.ticks;
    let last = ds.timestamp(ticks - 1);
    let from = ds.timestamp(ticks / 3) + 7;
    let to = ds.timestamp(ticks / 2) + 13;
    // A threshold inside the data: the mean of tid 1's first 64 values.
    let values: Vec<f64> = (0..64)
        .filter_map(|t| ds.value(1, t))
        .map(f64::from)
        .collect();
    let mid = values.iter().sum::<f64>() / values.len() as f64;
    vec![
        format!(
            "SELECT Entity, SUM_S(*) FROM Segment WHERE EndTime <= {last} \
             GROUP BY Entity ORDER BY Entity"
        ),
        format!(
            "SELECT Category, AVG_S(*) FROM Segment WHERE EndTime <= {last} \
             GROUP BY Category ORDER BY Category"
        ),
        format!(
            "SELECT Concrete, SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment \
             WHERE EndTime <= {last} GROUP BY Concrete ORDER BY Concrete"
        ),
        format!("SELECT SUM_S(*), AVG_S(*), COUNT_S(*) FROM Segment WHERE EndTime <= {last}"),
        "SELECT SUM_S(*), AVG_S(*) FROM Segment".into(),
        format!(
            "SELECT Tid, COUNT_S(*), SUM_S(*) FROM Segment WHERE Value > {mid:.1} \
             AND TS <= {last} GROUP BY Tid ORDER BY Tid"
        ),
        format!(
            "SELECT Entity, AVG_S(*), MAX_S(*) FROM Segment WHERE Value < {mid:.1} \
             GROUP BY Entity ORDER BY Entity"
        ),
        format!(
            "SELECT Tid, AVG_S(*) FROM Segment WHERE TS >= {from} AND TS <= {to} \
             GROUP BY Tid ORDER BY Tid"
        ),
        "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment WHERE Entity = 'entity0' \
         GROUP BY Tid ORDER BY Tid"
            .into(),
        "SELECT Entity, CUBE_AVG_DAY(*) FROM Segment GROUP BY Entity ORDER BY Entity".into(),
        format!(
            "SELECT Category, CUBE_SUM_HOUR(*) FROM Segment WHERE TS >= {from} AND TS <= {to} \
             GROUP BY Category"
        ),
    ]
}

/// The scaled panel: [`panel`] plus the shapes whose association depends on
/// which calendar buckets a range is cut into — a ragged `TS` range across
/// day and month boundaries, ragged `CUBE_*` at Day and Month, and a
/// segment-time cut through the middle of the data.
fn scaled_panel(ds: &Dataset) -> Vec<String> {
    let ticks = ds.scale.ticks;
    let from = FEB_1_2021 - DAY_MS - 5 * HOUR_MS - 17 * 60_000 - 3;
    let to = FEB_1_2021 + DAY_MS + 7 * HOUR_MS + 43 * 60_000 + 11;
    let cut = ds.timestamp(ticks / 2);
    let mut queries = panel(ds);
    queries.extend([
        format!(
            "SELECT Tid, SUM_S(*), AVG_S(*) FROM Segment WHERE TS >= {from} AND TS <= {to} \
             GROUP BY Tid ORDER BY Tid"
        ),
        format!(
            "SELECT Entity, CUBE_SUM_DAY(*) FROM Segment WHERE TS >= {from} AND TS <= {to} \
             GROUP BY Entity ORDER BY Entity"
        ),
        format!("SELECT CUBE_AVG_MONTH(*), CUBE_SUM_MONTH(*) FROM Segment WHERE TS >= {from}"),
        format!(
            "SELECT Category, SUM_S(*) FROM Segment WHERE EndTime <= {cut} \
             GROUP BY Category ORDER BY Category"
        ),
        format!("SELECT SUM_S(*), COUNT_S(*) FROM Segment WHERE StartTime >= {cut}"),
    ]);
    queries
}

/// The group-scaled panel: [`scaled_panel`] plus `Value` filters on stored
/// values (a PMC-Mean constant or a Swing endpoint when those models fit),
/// one with a `CUBE_*` roll-up and one with a segment-time cut.
fn group_scaled_panel(ds: &Dataset, db: &ModelarDb) -> Vec<String> {
    let cut = ds.timestamp(ds.scale.ticks / 2);
    let listing = db
        .sql("SELECT TS, Value FROM DataPoint WHERE Tid = 1 ORDER BY TS LIMIT 64")
        .unwrap();
    let stored: Vec<f64> = listing.rows.iter().filter_map(|r| r[1].as_f64()).collect();
    let (low, high) = (stored[7], stored[40]);
    let mut queries = scaled_panel(ds);
    queries.extend([
        format!(
            "SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment \
             WHERE Value >= {low} GROUP BY Tid ORDER BY Tid"
        ),
        format!(
            "SELECT Entity, CUBE_SUM_DAY(*) FROM Segment WHERE Value < {high} \
             GROUP BY Entity ORDER BY Entity"
        ),
        format!(
            "SELECT Category, AVG_S(*), COUNT_S(*) FROM Segment WHERE Value > {low} \
             AND EndTime <= {cut} GROUP BY Category ORDER BY Category"
        ),
    ]);
    queries
}

/// FNV-1a over the result's column names and every cell, floats by their
/// exact bits.
fn digest(result: &QueryResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for column in &result.columns {
        eat(column.as_bytes());
        eat(&[0xff]);
    }
    for row in &result.rows {
        for cell in row {
            match cell {
                Cell::Int(v) => {
                    eat(b"i");
                    eat(&v.to_le_bytes());
                }
                Cell::Float(v) => {
                    eat(b"f");
                    eat(&v.to_bits().to_le_bytes());
                }
                Cell::Str(s) => {
                    eat(b"s");
                    eat(s.as_bytes());
                    eat(&[0xff]);
                }
                Cell::Timestamp(v) => {
                    eat(b"t");
                    eat(&v.to_le_bytes());
                }
                Cell::Null => eat(b"n"),
            }
        }
        eat(b"\n");
    }
    h
}

/// Runs the panel on `ds` both ways and checks each answer's row count and
/// digest against `expected`.
fn check(ds: &Dataset, expected: &[(usize, u64)]) {
    let mut db = build_engine(ds, true, 5.0);
    ingest_engine(&mut db, ds, ds.scale.ticks);
    check_engine(db, ds, &panel(ds), expected);
}

/// Runs `panel` on the loaded `db` both ways and checks each answer's row
/// count and digest against `expected`.
fn check_engine(db: ModelarDb, ds: &Dataset, panel: &[String], expected: &[(usize, u64)]) {
    // The same segments in a shard of their own.
    let options = Config::default().common;
    let catalog = Arc::new(db.catalog().clone());
    let registry = Arc::new(db.registry().clone());
    let no_groups: [Gid; 0] = [];
    let mut shard = Shard::open(
        catalog,
        registry,
        &options,
        None,
        BlockFormat::V2,
        true,
        &no_groups,
    )
    .unwrap();
    for segment in db.segments().unwrap() {
        shard.store_mut().insert(segment).unwrap();
    }
    shard.store_mut().flush().unwrap();

    let mut got = Vec::new();
    for sql in panel {
        let embedded = db.sql(sql).unwrap();
        let inline = shard.engine(None).sql(sql).unwrap();
        got.push((embedded.rows.len(), digest(&embedded)));
        assert_eq!(
            digest(&inline),
            digest(&embedded),
            "inline vs embedded: {sql}"
        );
    }
    assert_eq!(
        got.as_slice(),
        expected,
        "{}: (rows, digest) per query of {panel:#?}",
        ds.name
    );
}

/// `(rows, digest)` per panel query on `ep(3, Scale::small())`.
const EP_SMALL: [(usize, u64); 11] = [
    (8, 0xa2032e87260d3815),
    (1, 0x311c6eb5c6375e61),
    (4, 0xbf1f8f95a3161877),
    (1, 0xd88d3a4e7dcd1640),
    (1, 0x9c979bf9ee86ed09),
    (32, 0x68f9851d43bd7944),
    (8, 0x2bafb9f4ac29abec),
    (32, 0x61cc3519c435cd43),
    (96, 0x3c566d076ae4b27f),
    (32, 0x8c9f8e10dc316c17),
    (15, 0x09057e9944341f63),
];

/// `(rows, digest)` per panel query on `eh(3, Scale::tiny())`.
const EH_TINY: [(usize, u64); 11] = [
    (2, 0x9bc4f673857b6008),
    (1, 0xcf1c73537ffa6d87),
    (3, 0x0ac64634d67ee481),
    (1, 0x64cc43dec3daab17),
    (1, 0xaa0fd26370e99cba),
    (6, 0xafdd36dea61ccb5d),
    (1, 0xfcd094d34cc12502),
    (6, 0xf1cbee8a749c8fa3),
    (3, 0x6e086ea01782a4a0),
    (2, 0x34c2347008a2670e),
    (1, 0x0e638eef1289e5f5),
];

/// `(rows, digest)` per scaled-panel query on `ep(3, Scale::small())` ending
/// across February 1st, scalings cycling through 2, 0.5, 4.75, −1.5 and 3.
const EP_SCALED: [(usize, u64); 16] = [
    (8, 0x1d97f96ae682c384),
    (1, 0x291276d0db334d97),
    (4, 0x7059218b63725039),
    (1, 0x6014b7f2359e5826),
    (1, 0x605d683f2cedde8f),
    (32, 0x9272daeedfa72013),
    (8, 0x2e9c61c479bdaf5f),
    (32, 0xf21cc67f89f70156),
    (96, 0x10c9186cdb8897a3),
    (32, 0x38938b8633ebe22a),
    (15, 0xdffc65d38f92d6ff),
    (32, 0xcf556ae50267fa05),
    (32, 0x2600cc2dc5e140c0),
    (2, 0xb20af7619296d41f),
    (1, 0x3877a3f8a3c8051b),
    (1, 0x032c8d480ffdb2d1),
];

/// `(rows, digest)` per group-scaled-panel query on `ep(3, Scale::small())`
/// ending across February 1st, the groups' scalings cycling through 2, 0.5,
/// 4.75, −1.5 and 3.
const EP_GROUP_SCALED: [(usize, u64); 19] = [
    (8, 0x3b08932c1de85b7a),
    (1, 0x77fbcea5b248618c),
    (4, 0xd683bdeff7a9b37d),
    (1, 0xb76df57433b0bea5),
    (1, 0x4a718ff5654b6b32),
    (32, 0x202e394953a562e6),
    (8, 0x4da01a7ab2b684c1),
    (32, 0xa0e27b454ce10224),
    (96, 0x3c566d076ae4b27f),
    (32, 0x629fce74ec721da5),
    (15, 0x61c0323c51fac899),
    (32, 0xcb875be97d46a516),
    (32, 0x24a6d104e20e57af),
    (2, 0x86a9e1a687d3abd4),
    (1, 0xb4bc508c62ee5bca),
    (1, 0x659f02946b006fa8),
    (32, 0xd2a88331a53e53eb),
    (13, 0xd0787d2cfbe61a11),
    (1, 0xd88f96fb4b32c7ce),
];

#[test]
fn ep_small_answers_are_pinned() {
    check(&ep(3, Scale::small()).unwrap(), &EP_SMALL);
}

#[test]
fn eh_tiny_answers_are_pinned() {
    check(&eh(3, Scale::tiny()).unwrap(), &EH_TINY);
}

#[test]
fn scaled_answers_are_pinned() {
    let ds = scaled_dataset();
    let mut catalog = (*catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap()).clone();
    for (meta, scaling) in catalog.series.iter_mut().zip(SCALINGS.iter().cycle()) {
        meta.scaling = *scaling;
    }
    let db = scaled_engine(&ds, catalog);
    check_engine(db, &ds, &scaled_panel(&ds), &EP_SCALED);
}

#[test]
fn group_scaled_answers_are_pinned() {
    let ds = scaled_dataset();
    let mut catalog = (*catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap()).clone();
    for (group, scaling) in catalog.groups.clone().iter().zip(SCALINGS.iter().cycle()) {
        for meta in &mut catalog.series {
            if group.tids.contains(&meta.tid) {
                meta.scaling = *scaling;
            }
        }
    }
    let db = scaled_engine(&ds, catalog);
    let panel = group_scaled_panel(&ds, &db);
    check_engine(db, &ds, &panel, &EP_GROUP_SCALED);
}

/// The scalings the scaled panels cycle through.
const SCALINGS: [f64; 5] = [2.0, 0.5, 4.75, -1.5, 3.0];

/// `ep(3, Scale::small())` ending across February 1st.
fn scaled_dataset() -> Dataset {
    let mut ds = ep(3, Scale::small()).unwrap();
    ds.start = FEB_1_2021 - 2 * DAY_MS;
    ds
}

/// An in-memory engine over `catalog` at a 5 % bound with `ds` loaded.
fn scaled_engine(ds: &Dataset, catalog: Catalog) -> ModelarDb {
    let mut config = Config::default();
    config.compression.error_bound = ErrorBound::relative(5.0);
    config.storage = StorageSpec::Memory;
    let registry = Arc::new(ModelRegistry::standard());
    let mut db = ModelarDb::from_catalog(Arc::new(catalog), registry, config).unwrap();
    ingest_engine(&mut db, ds, ds.scale.ticks);
    db
}
