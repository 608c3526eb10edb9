//! Integration checks for the *shapes* of the paper's evaluation (Section
//! 7): who wins and in which regime, on the synthetic EP/EH data sets. The
//! `repro` binary prints the measured factors; these tests pin the
//! qualitative claims so regressions in any crate show up as failures here.

use mdb_bench::{baseline_stores, build_engine, ingest_baseline, ingest_engine};
use mdb_datagen::{eh, ep, Scale};

fn scale() -> Scale {
    Scale {
        clusters: 3,
        series_per_cluster: 4,
        ticks: 1_500,
    }
}

/// Figure 14's headline: on the correlated EP data set with a bound,
/// ModelarDBv2 (MMGC) stores less than every baseline format and less than
/// ModelarDBv1 (MMC).
#[test]
fn ep_storage_shape_mmgc_wins() {
    let ds = ep(42, scale()).unwrap();
    let ticks = ds.scale.ticks;
    let mut v2 = build_engine(&ds, true, 10.0);
    ingest_engine(&mut v2, &ds, ticks);
    let mut v1 = build_engine(&ds, false, 10.0);
    ingest_engine(&mut v1, &ds, ticks);
    assert!(
        v2.storage_bytes() < v1.storage_bytes(),
        "MMGC {} must beat MMC {}",
        v2.storage_bytes(),
        v1.storage_bytes()
    );
    for mut store in baseline_stores() {
        ingest_baseline(store.as_mut(), &ds, ticks);
        assert!(
            v2.storage_bytes() < store.size_bytes(),
            "MMGC {} must beat {} at {}",
            v2.storage_bytes(),
            store.name(),
            store.size_bytes()
        );
    }
}

/// Figure 14/15: higher error bounds never cost more storage.
#[test]
fn storage_is_monotone_in_the_error_bound() {
    for ds in [ep(42, scale()).unwrap(), eh(42, scale()).unwrap()] {
        let mut previous = u64::MAX;
        for pct in [0.0, 1.0, 5.0, 10.0] {
            let mut db = build_engine(&ds, true, pct);
            ingest_engine(&mut db, &ds, ds.scale.ticks);
            assert!(
                db.storage_bytes() <= previous,
                "{}: {pct}% grew the store: {} > {previous}",
                ds.name,
                db.storage_bytes()
            );
            previous = db.storage_bytes();
        }
    }
}

/// Figure 15's contrast: on the weakly correlated EH data set with a low
/// bound, grouping buys little — v1 and v2 are close (the paper reports v1
/// slightly ahead below 10%) — while EP shows a large MMGC advantage.
#[test]
fn eh_grouping_advantage_is_small_at_low_bounds() {
    let ds = eh(42, scale()).unwrap();
    let ticks = ds.scale.ticks;
    let mut v2 = build_engine(&ds, true, 1.0);
    ingest_engine(&mut v2, &ds, ticks);
    let mut v1 = build_engine(&ds, false, 1.0);
    ingest_engine(&mut v1, &ds, ticks);
    let ratio = v2.storage_bytes() as f64 / v1.storage_bytes() as f64;
    assert!(
        (0.6..=1.6).contains(&ratio),
        "EH at 1% should be near parity, got v2/v1 = {ratio:.2}"
    );

    let ds = ep(42, scale()).unwrap();
    let mut v2 = build_engine(&ds, true, 10.0);
    ingest_engine(&mut v2, &ds, ticks);
    let mut v1 = build_engine(&ds, false, 10.0);
    ingest_engine(&mut v1, &ds, ticks);
    let ep_ratio = v2.storage_bytes() as f64 / v1.storage_bytes() as f64;
    assert!(
        ep_ratio < 0.75,
        "EP at 10% should show a clear MMGC win, got {ep_ratio:.2}"
    );
}

/// Figures 16–17: the model mix shifts with the error bound — lossless
/// Gorilla dominates at 0% and the lossy models take over as the bound
/// grows (PMC/Swing shares strictly increase from 0% to 10% on EP).
#[test]
fn model_mix_shifts_with_the_bound() {
    let ds = ep(42, scale()).unwrap();
    let share_of = |pct: f64| -> (f64, f64) {
        let mut db = build_engine(&ds, true, pct);
        ingest_engine(&mut db, &ds, ds.scale.ticks);
        let shares = db.stats().model_shares();
        let gorilla = shares.iter().find(|(n, _)| n == "Gorilla").unwrap().1;
        let lossy: f64 = shares
            .iter()
            .filter(|(n, _)| n != "Gorilla")
            .map(|(_, s)| *s)
            .sum();
        (gorilla, lossy)
    };
    let (g0, l0) = share_of(0.0);
    let (g10, l10) = share_of(10.0);
    assert!(
        g0 > 50.0,
        "lossless bound must rely on Gorilla, got {g0:.1}%"
    );
    assert!(
        l10 > l0,
        "lossy models must gain share with the bound: {l0:.1}% -> {l10:.1}%"
    );
    assert!(
        g10 < g0,
        "Gorilla must lose share with the bound: {g0:.1}% -> {g10:.1}%"
    );
}

/// Figure 13's online-analytics column: ModelarDB and the stores that
/// support it answer queries mid-ingestion; the columnar files do not.
#[test]
fn online_analytics_support_matches_the_paper() {
    let expectations = [
        ("InfluxDB-like", true),
        ("Cassandra-like", true),
        ("Parquet-like", false),
        ("ORC-like", false),
    ];
    for (store, &(name, online)) in baseline_stores().iter().zip(&expectations) {
        assert_eq!(store.name(), name);
        assert_eq!(store.supports_online_analytics(), online, "{name}");
    }
    // ModelarDB itself: segments emitted so far are queryable before flush.
    let ds = ep(42, Scale::tiny()).unwrap();
    let mut db = build_engine(&ds, true, 5.0);
    for tick in 0..400 {
        db.ingest_row(ds.timestamp(tick), &ds.row(tick)).unwrap();
    }
    // No flush: finished segments are already visible.
    let r = db.sql("SELECT COUNT_S(*) FROM Segment").unwrap();
    assert!(r.rows[0][0].as_i64().unwrap() > 0);
}

/// The Section 5.2 experiment shape: group compression reduces storage for
/// correlated series, and the reduction grows with the error bound.
#[test]
fn mgc_reduction_grows_with_the_bound() {
    let ds = ep(
        42,
        Scale {
            clusters: 1,
            series_per_cluster: 3,
            ticks: 4_000,
        },
    )
    .unwrap();
    let mut reductions = Vec::new();
    for pct in [1.0, 5.0, 10.0] {
        let mut v1 = build_engine(&ds, false, pct);
        ingest_engine(&mut v1, &ds, ds.scale.ticks);
        let mut v2 = build_engine(&ds, true, pct);
        ingest_engine(&mut v2, &ds, ds.scale.ticks);
        reductions.push(1.0 - v2.storage_bytes() as f64 / v1.storage_bytes() as f64);
    }
    assert!(
        reductions[0] > 0.0,
        "even 1% must show a reduction: {reductions:?}"
    );
    assert!(
        reductions[2] >= reductions[0] - 0.05,
        "reduction should not shrink materially with the bound: {reductions:?}"
    );
}
