//! Property-based equivalence of the two query interfaces (Section 6): for
//! any aggregate over any tid subset and time range, executing on *models*
//! via the Segment View must agree with executing on *reconstructed points*
//! via the Data Point View — that is the paper's licence to answer OLAP
//! queries from segments in constant time per segment.
//!
//! The count-only suite ([`count_only_aggregates_agree_on_ep_like_data`],
//! [`count_only_aggregates_agree_on_eh_like_data`]) checks every `COUNT_S`
//! and `CUBE_COUNT_*` shape against the same query with `SUM_S` added and
//! against the Data Point View's `COUNT`, on the engine with pruning and
//! rollup serving on and off and on a two-worker rf=2 cluster, and
//! [`count_only_segment_view_queries_reconstruct_nothing`] counts the
//! reconstructions those counts make: none.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use mdb_bench::{build_engine, catalog_from_dataset, ingest_engine};
use mdb_datagen::{eh, ep, Dataset, Scale};
use mdb_models::{MID_GORILLA, MID_PMC_MEAN, MID_SWING};
use modelardb::{
    Catalog, Cell, Cluster, ClusterConfig, CompressionConfig, Config, CorrelationSpec, Datastore,
    DimensionSchema, ErrorBound, Fitter, ModelRegistry, ModelType, ModelarDb, ModelarDbBuilder,
    QueryResult, ScalingHint, SegmentAgg, SeriesSpec, Value,
};

const TICKS: u64 = 300;

fn database() -> ModelarDb {
    // One shared instance per test run would race proptest's shrinking, so
    // build fresh per case — the scale is tiny.
    let ds = ep(7, Scale::tiny()).unwrap();
    let mut db = build_engine(&ds, true, 5.0);
    ingest_engine(&mut db, &ds, TICKS);
    db
}

/// Two engines over byte-identical segments: the plain scan that fetches
/// every block (pruning off) and the pruned scan that skips blocks by their
/// statistics (pruning on). The ingest pattern mixes per-series gaps,
/// whole-group gap ticks, and a decorrelation phase noisy enough to force
/// dynamic split and join episodes (asserted below).
fn unpruned_and_pruned() -> (ModelarDb, ModelarDb) {
    let build = |pruning: bool| {
        let mut b = ModelarDbBuilder::new();
        b.config_mut().compression.error_bound = ErrorBound::absolute(0.5);
        b.config_mut().compression.split_fraction = 2.0;
        b.config_mut().zone_pruning = pruning;
        b.add_dimension(
            DimensionSchema::from_leaf_up("Location", vec!["Turbine".into(), "Park".into()])
                .unwrap(),
        )
        .add_series(SeriesSpec::new("a", 100).with_members("Location", &["Aalborg", "1"]))
        .add_series(SeriesSpec::new("b", 100).with_members("Location", &["Aalborg", "2"]))
        .correlate("Location 1");
        b.build().unwrap()
    };
    let mut unpruned = build(false);
    let mut pruned = build(true);
    let mut x = 99u32;
    for t in 0..SJ_TICKS {
        x = x.wrapping_mul(1103515245).wrapping_add(12345);
        let noise = (x >> 16) as f32 / 65536.0;
        // Correlated → series b decorrelates wildly (split) → correlated
        // again (join), with per-series gaps and whole-group gap ticks.
        let row = if (150..320).contains(&t) {
            [Some(5.0 + noise * 0.2), Some(500.0 + noise * 120.0)]
        } else if t % 97 == 13 {
            [None, None]
        } else {
            [(t % 37 != 0).then_some(5.0), Some(5.1)]
        };
        unpruned.ingest_row(t * 100, &row).unwrap();
        pruned.ingest_row(t * 100, &row).unwrap();
    }
    unpruned.flush().unwrap();
    pruned.flush().unwrap();
    let stats = unpruned.stats();
    assert!(stats.splits >= 1, "fixture must exercise dynamic splits");
    assert!(stats.joins >= 1, "fixture must exercise dynamic joins");
    assert_eq!(
        unpruned.segments().unwrap(),
        pruned.segments().unwrap(),
        "both engines must hold byte-identical segments"
    );
    (unpruned, pruned)
}

/// Ticks ingested by [`unpruned_and_pruned`] (timestamps `t * 100`).
const SJ_TICKS: i64 = 900;

/// Each row with floats as their exact bits, so `-0.0` vs `0.0` or a
/// last-ulp drift fails a comparison that `==` on `f64` would forgive.
fn bits(result: &QueryResult) -> Vec<Vec<String>> {
    result
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|cell| match cell {
                    Cell::Float(v) => format!("{:016x}", v.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The values [`unpruned_and_pruned`] stores with a closed form: every
/// PMC-Mean constant and Swing endpoint, as raw values (both series have
/// scaling 1), sorted and deduplicated — where a value filter's boundary
/// decides whether a whole segment is skipped or reconstructed.
fn closed_form_values(db: &ModelarDb) -> Vec<f64> {
    let mut values: Vec<f64> = db
        .segments()
        .unwrap()
        .iter()
        .flat_map(|segment| {
            let stored = match segment.mid {
                MID_PMC_MEAN | MID_SWING => &segment.params[..],
                _ => &[],
            };
            stored
                .chunks_exact(4)
                .map(|b| f64::from(f32::from_le_bytes(b.try_into().unwrap())))
                .collect::<Vec<_>>()
        })
        .collect();
    values.sort_by(f64::total_cmp);
    values.dedup();
    values
}

/// Two engines as in [`unpruned_and_pruned`], over two groups whose
/// scalings are not 1: Aalborg's series `a` and `b` scaled by −1.5 and
/// Skive's `c` and `d` by 4.75. Each group alternates plateaus (PMC-Mean)
/// with rising and falling sine stretches (Swing), with per-series gaps and
/// whole-group gap ticks.
fn scaled_unpruned_and_pruned() -> (ModelarDb, ModelarDb) {
    let build = |pruning: bool| {
        let mut b = ModelarDbBuilder::new();
        b.config_mut().compression.error_bound = ErrorBound::absolute(0.5);
        b.config_mut().zone_pruning = pruning;
        b.add_dimension(
            DimensionSchema::from_leaf_up("Location", vec!["Turbine".into(), "Park".into()])
                .unwrap(),
        );
        let mut spec = CorrelationSpec::none();
        spec.add_clause("Location 1").unwrap();
        for (name, park, turbine, factor) in [
            ("a", "Aalborg", "1", -1.5),
            ("b", "Aalborg", "2", -1.5),
            ("c", "Skive", "3", 4.75),
            ("d", "Skive", "4", 4.75),
        ] {
            b.add_series(SeriesSpec::new(name, 100).with_members("Location", &[park, turbine]));
            spec.scaling.push(ScalingHint::Series {
                name: name.into(),
                factor,
            });
        }
        b.with_correlation(spec);
        b.build().unwrap()
    };
    let mut unpruned = build(false);
    let mut pruned = build(true);
    for t in 0..SJ_TICKS {
        let wave = |period: f32, plateau: i64| {
            if (t / 60) % 3 == plateau {
                0.0
            } else {
                (t as f32 / period).sin()
            }
        };
        let a = 5.0 + 2.0 * wave(30.0, 0);
        let c = 20.0 + 3.0 * wave(40.0, 1);
        let row = if t % 97 == 13 {
            [None; 4]
        } else {
            [
                (t % 37 != 0).then_some(a),
                Some(a + 0.01),
                Some(c),
                Some(c + 0.02),
            ]
        };
        unpruned.ingest_row(t * 100, &row).unwrap();
        pruned.ingest_row(t * 100, &row).unwrap();
    }
    unpruned.flush().unwrap();
    pruned.flush().unwrap();
    assert_eq!(
        unpruned.segments().unwrap(),
        pruned.segments().unwrap(),
        "both engines must hold byte-identical segments"
    );
    (unpruned, pruned)
}

/// The values a `Value` filter is compared with where a monotone model's
/// run may start or stop passing it: every PMC-Mean constant and Swing
/// endpoint divided by its series' scaling, sorted and deduplicated.
fn scaled_closed_form_values(db: &ModelarDb) -> Vec<f64> {
    let catalog = db.catalog();
    let mut values: Vec<f64> = db
        .segments()
        .unwrap()
        .iter()
        .filter(|segment| matches!(segment.mid, MID_PMC_MEAN | MID_SWING))
        .flat_map(|segment| {
            let tids = &catalog.group(segment.gid).unwrap().tids;
            let scalings: Vec<f64> = tids.iter().map(|&tid| catalog.scaling_of(tid)).collect();
            segment
                .params
                .chunks_exact(4)
                .map(|b| f64::from(f32::from_le_bytes(b.try_into().unwrap())))
                .flat_map(move |v| scalings.clone().into_iter().map(move |s| v / s))
                .collect::<Vec<_>>()
        })
        .collect();
    values.sort_by(f64::total_cmp);
    values.dedup();
    values
}

/// `x` as an SQL float literal that parses back to exactly `x`.
fn literal(x: f64) -> String {
    let text = x.to_string();
    if text.contains('.') {
        text
    } else {
        format!("{text}.0")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn value_filter_boundaries_are_exact(
        pick in 0usize..100_000,
        other in 0usize..100_000,
        nudge in 0usize..3,
        op_idx in 0usize..6,
    ) {
        // Thresholds drawn from the stored values themselves, exactly and
        // one ulp either side, so a filter's edge lands on a closed-form
        // extreme: the skip must never drop a point the per-point filter
        // keeps, and the pruned scan must equal the unpruned one bit for
        // bit.
        let (unpruned, pruned) = unpruned_and_pruned();
        let values = closed_form_values(&unpruned);
        prop_assert!(values.len() > 2, "fixture must store PMC and Swing segments");
        let nudged = |i: usize| {
            let x = values[i % values.len()];
            [x, x.next_down(), x.next_up()][nudge]
        };
        let (x, y) = (nudged(pick), nudged(other));
        let filter = match op_idx {
            0 => format!("Value > {}", literal(x)),
            1 => format!("Value >= {}", literal(x)),
            2 => format!("Value < {}", literal(x)),
            3 => format!("Value <= {}", literal(x)),
            4 => format!("Value = {}", literal(x)),
            _ => format!("Value > {} AND Value <= {}", literal(x.min(y)), literal(x.max(y))),
        };
        let per_tid = format!(
            "SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment \
             WHERE {filter} GROUP BY Tid ORDER BY Tid"
        );
        for sql in [
            per_tid.clone(),
            format!("SELECT Park, AVG_S(*), COUNT_S(*) FROM Segment WHERE {filter} GROUP BY Park"),
            format!(
                "SELECT Turbine, SUM_S(*), MAX_S(*) FROM Segment WHERE {filter} \
                 GROUP BY Turbine ORDER BY Turbine"
            ),
            format!("SELECT Tid, CUBE_SUM_MINUTE(*) FROM Segment WHERE {filter} GROUP BY Tid"),
        ] {
            let a = unpruned.sql(&sql).unwrap();
            let b = pruned.sql(&sql).unwrap();
            prop_assert_eq!(&a.columns, &b.columns);
            prop_assert_eq!(bits(&a), bits(&b), "{}", sql);
        }
        // Every tid's COUNT_S is the number of points the Data Point View
        // lists under the same filter (the listing never skips).
        let counts = unpruned.sql(&per_tid).unwrap();
        let listing = unpruned
            .sql(&format!("SELECT Tid, TS FROM DataPoint WHERE {filter}"))
            .unwrap();
        for tid in 1..=2i64 {
            let count = counts
                .rows
                .iter()
                .find(|row| row[0].as_i64() == Some(tid))
                .and_then(|row| row[1].as_i64())
                .unwrap_or(0);
            let listed = listing.rows.iter().filter(|row| row[0].as_i64() == Some(tid)).count();
            prop_assert_eq!(count as usize, listed, "tid {} under {}", tid, filter);
        }
    }

    #[test]
    fn monotone_value_filters_match_the_point_listing(
        pick in 0usize..100_000,
        other in 0usize..100_000,
        nudge in 0usize..3,
        op_idx in 0usize..6,
    ) {
        // Thresholds at the un-scaled PMC-Mean constants and Swing
        // endpoints, exactly and one ulp either side, where a monotone
        // model's run starts or stops passing. Per tid, the Segment View's
        // COUNT, MIN and MAX must be the listing's bit for bit, and its SUM
        // (the closed form over the passing sub-range) within the f32
        // rounding of the listed points.
        let (unpruned, pruned) = scaled_unpruned_and_pruned();
        let mids: Vec<u8> = unpruned.segments().unwrap().iter().map(|s| s.mid).collect();
        prop_assert!(mids.contains(&MID_PMC_MEAN) && mids.contains(&MID_SWING));
        let values = scaled_closed_form_values(&unpruned);
        let nudged = |i: usize| {
            let x = values[i % values.len()];
            [x, x.next_down(), x.next_up()][nudge]
        };
        let (x, y) = (nudged(pick), nudged(other));
        let filter = match op_idx {
            0 => format!("Value > {}", literal(x)),
            1 => format!("Value >= {}", literal(x)),
            2 => format!("Value < {}", literal(x)),
            3 => format!("Value <= {}", literal(x)),
            4 => format!("Value = {}", literal(x)),
            _ => format!("Value >= {} AND Value < {}", literal(x.min(y)), literal(x.max(y))),
        };
        let per_tid = format!(
            "SELECT Tid, COUNT_S(*), MIN_S(*), MAX_S(*), SUM_S(*) FROM Segment \
             WHERE {filter} GROUP BY Tid ORDER BY Tid"
        );
        for sql in [
            per_tid.clone(),
            format!("SELECT Park, AVG_S(*), MIN_S(*) FROM Segment WHERE {filter} GROUP BY Park"),
            format!("SELECT Tid, CUBE_SUM_MINUTE(*) FROM Segment WHERE {filter} GROUP BY Tid"),
        ] {
            let a = unpruned.sql(&sql).unwrap();
            let b = pruned.sql(&sql).unwrap();
            prop_assert_eq!(bits(&a), bits(&b), "{}", sql);
        }
        let answers = unpruned.sql(&per_tid).unwrap();
        let listing = unpruned
            .sql(&format!("SELECT Tid, Value FROM DataPoint WHERE {filter}"))
            .unwrap();
        for tid in 1..=4i64 {
            let listed: Vec<f64> = listing
                .rows
                .iter()
                .filter(|row| row[0].as_i64() == Some(tid))
                .map(|row| row[1].as_f64().unwrap())
                .collect();
            let row = answers.rows.iter().find(|row| row[0].as_i64() == Some(tid));
            let Some(row) = row else {
                prop_assert!(listed.is_empty(), "tid {} under {}: no answer row", tid, filter);
                continue;
            };
            let (count, min, max, sum) = (
                row[1].as_i64().unwrap(),
                row[2].as_f64().unwrap(),
                row[3].as_f64().unwrap(),
                row[4].as_f64().unwrap(),
            );
            let least = listed.iter().copied().fold(f64::INFINITY, f64::min);
            let most = listed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(count as usize, listed.len(), "tid {} under {}", tid, filter);
            prop_assert_eq!(min.to_bits(), least.to_bits(), "MIN of tid {} under {}", tid, filter);
            prop_assert_eq!(max.to_bits(), most.to_bits(), "MAX of tid {} under {}", tid, filter);
            // Each listed point is the f32 rounding of the model line,
            // within one f32 ulp of the closed form's line.
            let exact: f64 = listed.iter().sum();
            let magnitude: f64 = listed.iter().map(|v| v.abs()).sum();
            prop_assert!(
                (sum - exact).abs() <= magnitude * 2f64.powi(-22),
                "SUM of tid {} under {}: {} vs listed {}", tid, filter, sum, exact
            );
        }
    }

    #[test]
    fn aggregates_agree_between_views(
        func_idx in 0usize..5,
        tids in proptest::collection::btree_set(1u32..=6, 1..4),
        window in 0u64..250,
        span in 10u64..200,
    ) {
        let db = database();
        let ds = ep(7, Scale::tiny()).unwrap();
        let func = ["COUNT", "MIN", "MAX", "SUM", "AVG"][func_idx];
        let tid_list = tids.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ");
        let from = ds.timestamp(window);
        let to = ds.timestamp((window + span).min(TICKS - 1));
        let sv = db
            .sql(&format!(
                "SELECT {func}_S(*) FROM Segment WHERE Tid IN ({tid_list}) AND TS >= {from} AND TS <= {to}"
            ))
            .unwrap();
        let dpv = db
            .sql(&format!(
                "SELECT {func}(Value) FROM DataPoint WHERE Tid IN ({tid_list}) AND TS >= {from} AND TS <= {to}"
            ))
            .unwrap();
        prop_assert_eq!(sv.rows.len(), dpv.rows.len());
        if sv.rows.is_empty() {
            return Ok(());
        }
        match (sv.rows[0][0].as_f64(), dpv.rows[0][0].as_f64()) {
            (Some(a), Some(b)) => {
                // The Segment View may use closed-form sums over the ideal
                // model line; tolerance covers the f32 reconstruction delta.
                prop_assert!(
                    (a - b).abs() <= 1e-3 * b.abs().max(1.0),
                    "{} over {:?}: segment {} vs data point {}", func, tids, a, b
                );
            }
            (a, b) => prop_assert_eq!(a, b),
        }
    }

    #[test]
    fn group_by_tid_partitions_the_global_aggregate(
        window in 0u64..200,
        span in 20u64..250,
    ) {
        let db = database();
        let ds = ep(7, Scale::tiny()).unwrap();
        let from = ds.timestamp(window);
        let to = ds.timestamp((window + span).min(TICKS - 1));
        let total = db
            .sql(&format!("SELECT SUM_S(*) FROM Segment WHERE TS >= {from} AND TS <= {to}"))
            .unwrap();
        let per_tid = db
            .sql(&format!(
                "SELECT Tid, SUM_S(*) FROM Segment WHERE TS >= {from} AND TS <= {to} GROUP BY Tid"
            ))
            .unwrap();
        let total = total.rows.first().and_then(|r| r[0].as_f64()).unwrap_or(0.0);
        let sum: f64 = per_tid.rows.iter().filter_map(|r| r[1].as_f64()).sum();
        prop_assert!((sum - total).abs() <= 1e-6 * total.abs().max(1.0), "{sum} vs {total}");
    }

    #[test]
    fn pruned_parallel_aggregates_are_bit_identical(
        func_idx in 0usize..5,
        tids in proptest::collection::btree_set(1u32..=2, 1..3),
        window in 0i64..850,
        span in 1i64..600,
        group_by_tid in proptest::bool::ANY,
    ) {
        let (unpruned, pruned) = unpruned_and_pruned();
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
        let a = unpruned.sql(&sql).unwrap();
        let b = pruned.sql(&sql).unwrap();
        // Bit-identical, not approximately equal: slot sums are exact and
        // rounded once, so whichever blocks pruning skips the pruned scan
        // lands on the unpruned scan's bits.
        prop_assert_eq!(a.columns, b.columns);
        prop_assert_eq!(a.rows, b.rows, "{}", sql);
    }

    #[test]
    fn pruned_parallel_value_filters_are_bit_identical(
        bound in -20.0f64..520.0,
        ge in proptest::bool::ANY,
        window in 0i64..850,
    ) {
        let (unpruned, pruned) = unpruned_and_pruned();
        let from = window * 100;
        let op = if ge { ">=" } else { "<" };
        let sql = format!(
            "SELECT Tid, SUM_S(*), COUNT_S(*) FROM Segment WHERE Value {op} {bound:.3} \
             AND TS >= {from} GROUP BY Tid ORDER BY Tid"
        );
        let a = unpruned.sql(&sql).unwrap();
        let b = pruned.sql(&sql).unwrap();
        prop_assert_eq!(a.rows, b.rows, "{}", sql);
    }

    #[test]
    fn pruned_parallel_dimension_groups_are_bit_identical(
        func_idx in 0usize..5,
        bound in -20.0f64..520.0,
        end in 1i64..900,
    ) {
        // Several tids per group key: `Park` folds both series into one
        // key, `Turbine` keeps one per key — each under a segment-time bound
        // (model aggregates) and under a Value filter (per-point filtering,
        // one tick-order subtotal per segment and series).
        let (unpruned, pruned) = unpruned_and_pruned();
        let func = ["COUNT", "MIN", "MAX", "SUM", "AVG"][func_idx];
        let end = end * 100;
        for column in ["Park", "Turbine"] {
            for filter in [format!("EndTime <= {end}"), format!("Value >= {bound:.3}")] {
                let sql = format!(
                    "SELECT {column}, {func}_S(*) FROM Segment WHERE {filter} \
                     GROUP BY {column} ORDER BY {column}"
                );
                let a = unpruned.sql(&sql).unwrap();
                let b = pruned.sql(&sql).unwrap();
                prop_assert_eq!(&a.columns, &b.columns);
                prop_assert_eq!(bits(&a), bits(&b), "{}", sql);
            }
        }
    }

    #[test]
    fn count_matches_point_listing(
        tid in 1u32..=6,
        window in 0u64..250,
        span in 1u64..100,
    ) {
        let db = database();
        let ds = ep(7, Scale::tiny()).unwrap();
        let from = ds.timestamp(window);
        let to = ds.timestamp((window + span).min(TICKS - 1));
        let count = db
            .sql(&format!("SELECT COUNT_S(*) FROM Segment WHERE Tid = {tid} AND TS >= {from} AND TS <= {to}"))
            .unwrap();
        let listing = db
            .sql(&format!("SELECT TS FROM DataPoint WHERE Tid = {tid} AND TS >= {from} AND TS <= {to}"))
            .unwrap();
        let count = count.rows.first().and_then(|r| r[0].as_i64()).unwrap_or(0);
        prop_assert_eq!(count as usize, listing.rows.len());
    }
}

const HOUR_MS: i64 = 3_600_000;
/// 2021-02-01T00:00:00Z: an hour, day and month boundary at once.
const FEB_1_2021: i64 = 1_612_137_600_000;

/// The scalings the count-only fixtures assign, one negative.
const SCALINGS: [f64; 4] = [-1.5, 4.75, 1.0, 0.5];

/// A count-only fixture: EP- or EH-like data over `ticks` ticks whose
/// middle tick is the hour, day and month boundary of February 1st, with
/// series dropping out in windows of 40 ticks far more often than the
/// generators' defaults, and every series scaled (one scaling negative):
/// per group on EP, so PMC-Mean and Swing still fit, and per series on the
/// lossless EH, which leaves Gorilla.
struct CountFixture {
    ds: Dataset,
    catalog: Arc<Catalog>,
    bound: ErrorBound,
    ticks: u64,
}

impl CountFixture {
    /// An engine over `registry` loaded with the fixture, 16 segments per
    /// block, with block pruning on or off.
    fn engine(&self, registry: ModelRegistry, pruning: bool) -> ModelarDb {
        let mut config = Config::default();
        config.compression.error_bound = self.bound;
        config.bulk_write_size = 16;
        config.zone_pruning = pruning;
        let catalog = Arc::clone(&self.catalog);
        let mut db = ModelarDb::from_catalog(catalog, Arc::new(registry), config).unwrap();
        for batch in self.ds.batches(self.ticks, 64) {
            db.ingest_batch(&batch).unwrap();
        }
        db.flush().unwrap();
        db
    }
}

/// The EH-like fixture (720 ticks) or the EP-like one (400 ticks).
fn count_fixture(eh_like: bool) -> CountFixture {
    let ticks = if eh_like { 720 } else { 400 };
    let mut ds = if eh_like {
        eh(5, Scale::tiny())
    } else {
        ep(5, Scale::tiny())
    }
    .unwrap();
    ds.start = FEB_1_2021 - ds.profile.si_ms * (ticks / 2) as i64;
    ds.profile.gap_probability = 0.3;
    ds.profile.gap_window = 40;
    let mut catalog = (*catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap()).clone();
    let groups: Vec<Vec<u32>> = catalog.groups.iter().map(|g| g.tids.clone()).collect();
    for meta in &mut catalog.series {
        let group = groups
            .iter()
            .position(|tids| tids.contains(&meta.tid))
            .unwrap();
        let pick = if eh_like { meta.tid as usize } else { group };
        meta.scaling = SCALINGS[pick % SCALINGS.len()];
    }
    let bound = if eh_like {
        ErrorBound::Lossless
    } else {
        ErrorBound::relative(5.0)
    };
    CountFixture {
        ds,
        catalog: Arc::new(catalog),
        bound,
        ticks,
    }
}

/// Every deployment the count-only suite compares, loaded with the same
/// batches: the engine with block pruning on and off, each with rollup
/// serving on and off, and a two-worker cluster at replication factor 2.
fn count_systems(f: &CountFixture) -> Vec<(String, Box<dyn Datastore>)> {
    let mut systems: Vec<(String, Box<dyn Datastore>)> = Vec::new();
    for pruning in [true, false] {
        for serve in [true, false] {
            let mut db = f.engine(ModelRegistry::standard(), pruning);
            db.set_rollup_serve(serve);
            let label = format!("engine, pruning {pruning}, serving {serve}");
            systems.push((label, Box::new(db)));
        }
    }
    let mut config = ClusterConfig::with_compression(CompressionConfig {
        error_bound: f.bound,
        ..Default::default()
    });
    config.replication_factor = 2;
    config.bulk_write_size = 16;
    let registry = Arc::new(ModelRegistry::standard());
    let mut cluster = Cluster::start_with(Arc::clone(&f.catalog), registry, config, 2).unwrap();
    for batch in f.ds.batches(f.ticks, 64) {
        cluster.ingest_batch(&batch).unwrap();
    }
    Datastore::flush(&mut cluster).unwrap();
    systems.push(("cluster, 2 workers, rf=2".into(), Box::new(cluster)));
    systems
}

/// The count-only panel over a fixture: `(head, level, tail)` makes
/// `SELECT {head}{aggregates} FROM {view} {tail}`, the aggregates being
/// `COUNT_S(*)`, or `CUBE_COUNT_{level}(*)` with a level. `member` is a
/// member predicate and `column` a dimension level to group by; the `TS`
/// windows cut segments and hour edges, and the `StartTime`/`EndTime`
/// comparisons cut through segments.
fn count_panel(
    f: &CountFixture,
    member: &str,
    column: &str,
) -> Vec<(String, Option<&'static str>, String)> {
    let (ds, ticks) = (&f.ds, f.ticks);
    let si = ds.profile.si_ms;
    let mid = ds.timestamp(ticks / 3) + si / 2;
    let filters = [
        String::new(),
        format!(
            "TS >= {} AND TS <= {}",
            ds.timestamp(37) + 1,
            ds.timestamp(ticks - 23) - 1
        ),
        format!(
            "TS >= {} AND TS < {}",
            FEB_1_2021 - 7 * si - 1,
            FEB_1_2021 + 11 * si
        ),
        format!(
            "TS >= {} AND TS <= {}",
            FEB_1_2021 - HOUR_MS,
            FEB_1_2021 + HOUR_MS - 1
        ),
        format!("StartTime >= {mid}"),
        format!("EndTime <= {mid}"),
        format!(
            "StartTime > {} AND EndTime < {} AND TS >= {}",
            ds.timestamp(10),
            ds.timestamp(ticks - 10),
            ds.timestamp(ticks / 4) + 1
        ),
        "Tid IN (1, 4, 5)".into(),
        member.into(),
    ];
    let mut panel = Vec::new();
    for filter in &filters {
        let filter = if filter.is_empty() {
            String::new()
        } else {
            format!("WHERE {filter}")
        };
        panel.push((String::new(), None, filter.clone()));
        for group in ["Tid", "Entity", column] {
            let tail = format!("{filter} GROUP BY {group} ORDER BY {group}");
            panel.push((format!("{group}, "), None, tail));
        }
        for level in ["HOUR", "DAY"] {
            panel.push((String::new(), Some(level), filter.clone()));
            panel.push((
                "Tid, ".into(),
                Some(level),
                format!("{filter} GROUP BY Tid"),
            ));
        }
    }
    panel
}

/// Runs the count-only panel on every deployment. On each, a count-only
/// query's rows are, bit for bit, the same query's with `SUM_S` added, its
/// last column dropped, and the Data Point View's `COUNT`; every deployment
/// gives the first one's rows.
fn check_count_panel(eh_like: bool, member: &str, column: &str) {
    let fixture = count_fixture(eh_like);
    let systems = count_systems(&fixture);
    let panel = count_panel(&fixture, member, column);
    let mut reference: Vec<Vec<Vec<Cell>>> = Vec::new();
    let mut non_empty = 0;
    for (label, system) in &systems {
        for (i, (head, level, tail)) in panel.iter().enumerate() {
            let (count, sum, point) = match level {
                None => (
                    "COUNT_S(*)".to_string(),
                    "SUM_S(*)".to_string(),
                    "COUNT(Value)".to_string(),
                ),
                Some(l) => (
                    format!("CUBE_COUNT_{l}(*)"),
                    format!("CUBE_SUM_{l}(*)"),
                    format!("CUBE_COUNT_{l}(Value)"),
                ),
            };
            let sql = format!("SELECT {head}{count} FROM Segment {tail}");
            let counts = system.sql(&sql).unwrap();
            let with_sum = system
                .sql(&format!("SELECT {head}{count}, {sum} FROM Segment {tail}"))
                .unwrap();
            let points = system
                .sql(&format!("SELECT {head}{point} FROM DataPoint {tail}"))
                .unwrap();
            let width = counts.columns.len();
            let summed: Vec<Vec<Cell>> = with_sum
                .rows
                .iter()
                .map(|row| row[..width].to_vec())
                .collect();
            assert_eq!(counts.rows, summed, "{label}: {sql} against SUM_S added");
            assert_eq!(counts.columns, points.columns, "{label}: {sql}");
            assert_eq!(
                counts.rows, points.rows,
                "{label}: {sql} against the Data Point View"
            );
            if reference.len() == i {
                non_empty += usize::from(!counts.rows.is_empty());
                reference.push(counts.rows);
            } else {
                assert_eq!(
                    counts.rows, reference[i],
                    "{label}: {sql} against {}",
                    systems[0].0
                );
            }
        }
    }
    assert!(
        non_empty * 10 >= panel.len() * 9,
        "the panel counts points: {non_empty} of {}",
        panel.len()
    );
}

/// The count-only suite's data, checked once: EP-like segments mix
/// PMC-Mean and Swing with Gorilla, EH-like ones are mostly Gorilla, and
/// both hold gaps.
#[test]
fn count_fixtures_hold_gaps_and_their_data_sets_models() {
    for eh_like in [false, true] {
        let fixture = count_fixture(eh_like);
        let segments = fixture
            .engine(ModelRegistry::standard(), true)
            .segments()
            .unwrap();
        let gorilla = segments.iter().filter(|s| s.mid == MID_GORILLA).count();
        assert!(
            segments.iter().any(|s| s.gaps.count_missing() > 0),
            "{}: gaps",
            fixture.ds.name
        );
        if eh_like {
            assert!(
                gorilla * 2 > segments.len(),
                "EH: {gorilla} of {} Gorilla",
                segments.len()
            );
        } else {
            let closed = segments
                .iter()
                .filter(|s| matches!(s.mid, MID_PMC_MEAN | MID_SWING));
            assert!(
                closed.count() * 2 > segments.len(),
                "EP: mostly closed forms"
            );
        }
    }
}

#[test]
fn count_only_aggregates_agree_on_ep_like_data() {
    check_count_panel(false, "Entity = 'entity1'", "Type");
}

#[test]
fn count_only_aggregates_agree_on_eh_like_data() {
    check_count_panel(true, "Park = 'park0'", "Park");
}

/// Delegates to a standard model and counts its reconstructions.
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

    fn grid_into(&self, params: &[u8], n: usize, count: usize, out: &mut Vec<Value>) -> bool {
        self.grids.fetch_add(1, Ordering::Relaxed);
        self.inner.grid_into(params, n, count, out)
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

    fn monotone_value_at(
        &self,
        params: &[u8],
        n_series: usize,
        count: usize,
        t: usize,
        series: usize,
    ) -> Option<Value> {
        self.inner
            .monotone_value_at(params, n_series, count, t, series)
    }

    fn attained_extremes(&self) -> bool {
        self.inner.attained_extremes()
    }
}

/// Count-only Segment View queries read segment metadata alone: on
/// EH-like (Gorilla) data, the count-only panel reconstructs nothing with
/// rollup serving on or off, while adding `SUM_S`, a `Value` filter, or
/// asking the Data Point View still reconstructs.
#[test]
fn count_only_segment_view_queries_reconstruct_nothing() {
    let fixture = count_fixture(true);
    let grids = Arc::new(AtomicUsize::new(0));
    let mut counting = ModelRegistry::empty();
    for (_, model) in ModelRegistry::standard().iter() {
        counting.register(Arc::new(Counting {
            inner: Arc::clone(model),
            grids: Arc::clone(&grids),
        }));
    }
    let mut db = fixture.engine(counting, true);
    let decodes = |db: &ModelarDb, sql: &str| {
        grids.store(0, Ordering::Relaxed);
        db.sql(sql).unwrap();
        grids.load(Ordering::Relaxed)
    };
    for serve in [true, false] {
        db.set_rollup_serve(serve);
        for (head, level, tail) in count_panel(&fixture, "Park = 'park0'", "Park") {
            let count = level.map_or("COUNT_S(*)".into(), |l| format!("CUBE_COUNT_{l}(*)"));
            let sql = format!("SELECT {head}{count} FROM Segment {tail}");
            assert_eq!(decodes(&db, &sql), 0, "{sql} (serving {serve})");
        }
    }
    db.set_rollup_serve(false);
    for sql in [
        "SELECT COUNT_S(*), SUM_S(*) FROM Segment",
        "SELECT Tid, CUBE_COUNT_HOUR(*), CUBE_SUM_HOUR(*) FROM Segment GROUP BY Tid",
        "SELECT COUNT_S(*) FROM Segment WHERE Value > 0.0",
        "SELECT COUNT(Value) FROM DataPoint",
    ] {
        assert!(decodes(&db, sql) > 0, "{sql}");
    }
}
