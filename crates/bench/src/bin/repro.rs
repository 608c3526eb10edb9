//! `repro` — regenerates every table and figure of the paper's evaluation
//! (Section 7) on the synthetic EP/EH data sets, plus two robustness
//! demonstrations: the cluster failover drill and the server soak.
//!
//! ```text
//! repro [<experiment>] [--scale tiny|small|medium]
//!
//! experiments (default: all):
//!   table1  fig13  fig14  fig15  fig16  fig17  fig18  fig19  fig20
//!   fig21   fig22  fig23  fig24  fig25  fig26  fig27  fig28  mgc
//!   serve   chaos  all
//! ```
//!
//! Unknown experiments, scales, or options exit non-zero with a usage
//! message instead of being silently ignored.
//!
//! `chaos` kills a replicated cluster worker mid-ingest and `serve` soaks
//! the networked front-end with concurrent connections; both assert that
//! every answer is bit-identical to a never-failed, in-process reference,
//! so a divergence exits non-zero. Performance across commits is measured
//! end to end by the separate `benchmark/` package, not here.
//!
//! Absolute numbers will differ from the paper (its substrate was a 7-node
//! cluster over 339–582 GiB of proprietary data; this is a laptop-scale
//! simulation) — the *shape* is what is reproduced: who wins, by roughly
//! what factor, and where the crossovers sit.

use std::sync::Arc;
use std::time::Duration;

use mdb_bench::*;
use mdb_cluster::{Cluster, ClusterConfig, WorkerState};
use mdb_datagen::{eh, ep, Dataset, Scale, Workloads};
use mdb_partitioner::CorrelationSpec;
use mdb_testutil::TempDir;
use modelardb::{
    Client, CommonOptions, CompressionConfig, ErrorBound, ModelRegistry, QueryResult, RowBatch,
    Server, ServerOptions, SharedDatastore,
};

const SEED: u64 = 42;
const BOUNDS: [f64; 4] = [0.0, 1.0, 5.0, 10.0];

const EXPERIMENTS: [&str; 20] = [
    "table1", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
    "fig22", "fig23", "fig24", "fig25", "fig26", "fig27", "fig28", "mgc", "serve", "chaos",
];

fn usage() -> String {
    format!(
        "usage: repro [<experiment>] [--scale tiny|small|medium]\n\
         \n\
         experiments (default: all):\n  all {}\n",
        EXPERIMENTS.join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = dispatch(&args) {
        eprintln!("error: {message}\n");
        eprint!("{}", usage());
        std::process::exit(2);
    }
}

/// Parses the command line strictly — unknown experiments, scales, or
/// options are errors, not no-ops — and runs the selection.
fn dispatch(args: &[String]) -> Result<(), String> {
    let mut experiment: Option<String> = None;
    let mut scale = Scale::small();
    let mut scale_name = "small".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| "--scale requires a value (tiny|small|medium)".to_string())?;
                scale = match value.as_str() {
                    "tiny" => Scale::tiny(),
                    "small" => Scale::small(),
                    "medium" => Scale::medium(),
                    other => return Err(format!("unknown scale {other:?} (tiny|small|medium)")),
                };
                scale_name = value.clone();
                i += 2;
            }
            option if option.starts_with('-') => {
                return Err(format!("unknown option {option:?}"));
            }
            name => {
                if experiment.is_some() {
                    return Err(format!("unexpected extra argument {name:?}"));
                }
                if name != "all" && !EXPERIMENTS.contains(&name) {
                    return Err(format!("unknown experiment {name:?}"));
                }
                experiment = Some(name.to_string());
                i += 1;
            }
        }
    }
    let experiment = experiment.unwrap_or_else(|| "all".to_string());
    run_experiments(&experiment, scale, &scale_name);
    Ok(())
}

fn run_experiments(experiment: &str, scale: Scale, scale_name: &str) {
    let run = |name: &str| experiment == "all" || experiment == name;

    if run("table1") {
        table1();
    }
    if run("fig13") {
        fig13(scale);
    }
    if run("fig14") {
        storage_figure("Figure 14: Storage, EP", &ep(SEED, scale).unwrap(), scale);
    }
    if run("fig15") {
        storage_figure("Figure 15: Storage, EH", &eh(SEED, scale).unwrap(), scale);
    }
    if run("fig16") {
        models_figure(
            "Figure 16: Models used, EP",
            &ep(SEED, scale).unwrap(),
            scale,
        );
    }
    if run("fig17") {
        models_figure(
            "Figure 17: Models used, EH",
            &eh(SEED, scale).unwrap(),
            scale,
        );
    }
    if run("fig18") {
        fig18(scale);
    }
    if run("fig19") {
        fig19(scale);
    }
    if run("fig20") {
        fig20(scale);
    }
    if run("fig21") {
        s_agg_figure("Figure 21: S-AGG, EP", &ep(SEED, scale).unwrap(), scale);
    }
    if run("fig22") {
        s_agg_figure("Figure 22: S-AGG, EH", &eh(SEED, scale).unwrap(), scale);
    }
    if run("fig23") {
        pr_figure("Figure 23: P/R, EP", &ep(SEED, scale).unwrap(), scale);
    }
    if run("fig24") {
        pr_figure("Figure 24: P/R, EH", &eh(SEED, scale).unwrap(), scale);
    }
    if run("fig25") {
        m_agg_figure(
            "Figure 25: M-AGG-One, EP",
            &ep(SEED, scale).unwrap(),
            scale,
            false,
        );
    }
    if run("fig26") {
        m_agg_figure(
            "Figure 26: M-AGG-Two, EP",
            &ep(SEED, scale).unwrap(),
            scale,
            true,
        );
    }
    if run("fig27") {
        m_agg_figure(
            "Figure 27: M-AGG-One, EH",
            &eh(SEED, scale).unwrap(),
            scale,
            false,
        );
    }
    if run("fig28") {
        m_agg_figure(
            "Figure 28: M-AGG-Two, EH",
            &eh(SEED, scale).unwrap(),
            scale,
            true,
        );
    }
    if run("mgc") {
        mgc_ablation();
    }
    if run("serve") {
        serve(scale, scale_name);
    }
    if run("chaos") {
        chaos(scale);
    }
}

/// `chaos`: the failover demonstration — a replicated disk-backed cluster
/// loses a worker *silently* mid-ingest; every probe query must match a
/// never-failed run bit-for-bit, the health report must name the casualty
/// with zero groups lost, and a restart over the failed-over directory must
/// answer identically. Plain asserts: any divergence exits non-zero, which
/// is exactly what the CI smoke step relies on.
fn chaos(scale: Scale) {
    const WORKERS: usize = 4;
    const VICTIM: usize = 1;
    let ds = ep(SEED, scale).unwrap();
    let ticks = ds.scale.ticks;
    let queries = [
        "SELECT COUNT_S(*) FROM Segment",
        "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
        "SELECT Entity, AVG_S(*) FROM Segment GROUP BY Entity ORDER BY Entity",
    ];
    let start = |dir: &std::path::Path| {
        Cluster::start_with(
            catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap(),
            Arc::new(ModelRegistry::standard()),
            ClusterConfig {
                common: CommonOptions {
                    compression: CompressionConfig {
                        error_bound: ErrorBound::relative(10.0),
                        ..Default::default()
                    },
                    storage_dir: Some(dir.to_path_buf()),
                    bulk_write_size: 64,
                    ..CommonOptions::default()
                },
                replication_factor: 2,
                ..ClusterConfig::default()
            },
            WORKERS,
        )
        .unwrap()
    };
    let ingest = |cluster: &Cluster, range: std::ops::Range<u64>| {
        for tick in range {
            cluster
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
        }
    };

    let baseline_dir = TempDir::new("repro-chaos-baseline");
    let baseline = start(baseline_dir.path());
    ingest(&baseline, 0..ticks);
    baseline.flush().unwrap();
    let want: Vec<_> = queries.iter().map(|q| baseline.sql(q).unwrap()).collect();
    baseline.shutdown().unwrap();

    let chaos_dir = TempDir::new("repro-chaos");
    let cluster = start(chaos_dir.path());
    ingest(&cluster, 0..ticks / 3);
    assert!(cluster.crash_worker(VICTIM), "victim must be active");
    ingest(&cluster, ticks / 3..ticks);
    // The first flush may be the one that *reports* the silent death.
    if cluster.flush().is_err() {
        cluster.flush().unwrap();
    }
    let health = cluster.health();
    assert_eq!(health.workers[VICTIM].state, WorkerState::Dead);
    assert!(health.lost_gids.is_empty(), "rf=2 must lose nothing");
    for (q, want) in queries.iter().zip(&want) {
        assert_eq!(
            &cluster.sql(q).unwrap(),
            want,
            "{q} diverged after failover"
        );
    }
    cluster.shutdown().unwrap();

    // A restart over the same directory adopts the failed-over placement:
    // the crashed slot comes back empty (its stale log is routed around)
    // and results still match the never-failed run.
    let reopened = start(chaos_dir.path());
    let snapshot = reopened.health();
    assert!(
        snapshot.workers[VICTIM].hosted_gids.is_empty(),
        "the failed slot must not get its groups back on restart"
    );
    assert!(snapshot.lost_gids.is_empty());
    for (q, want) in queries.iter().zip(&want) {
        assert_eq!(
            &reopened.sql(q).unwrap(),
            want,
            "{q} diverged after restart"
        );
    }
    reopened.shutdown().unwrap();

    print_figure(
        "Chaos: replicated failover parity",
        &["Check", "Status"],
        &[
            vec![
                format!("worker {VICTIM} killed mid-ingest: results bit-identical"),
                "ok".into(),
            ],
            vec![
                format!("worker {VICTIM} reported dead, 0 groups lost"),
                "ok".into(),
            ],
            vec!["restart over failed-over directory".into(), "ok".into()],
        ],
    );
}

/// The mixed query panel the `serve` experiment replays: time-ranged S-AGG
/// plus two grouped full-span aggregates, the dashboard-shaped workload a
/// network front-end serves.
fn serve_queries(ds: &Dataset, ticks: u64) -> Vec<String> {
    let mut queries = time_ranged_queries(ds, ticks, "SUM_S", 8);
    queries.push("SELECT Tid, COUNT_S(*), AVG_S(*) FROM Segment GROUP BY Tid ORDER BY Tid".into());
    queries
        .push("SELECT Category, AVG_S(*) FROM Segment GROUP BY Category ORDER BY Category".into());
    queries
}

/// `serve`: the networked front-end under `connections` concurrent client
/// connections (32 at tiny, 128 at small, 256 at medium). For each data
/// set, a twin of an in-process engine is put behind `mdb_server`, ingested
/// over the wire by one writer, and every panel query must answer
/// **bit-identically** to the in-process engine — first from the writer's
/// connection, then from every soak client on every round. Prints
/// throughput and the p50/p99 query latency under that load; plain asserts,
/// so any divergence exits non-zero.
fn serve(scale: Scale, scale_name: &str) {
    const ROUNDS: usize = 2; // panel replays per concurrent client
    let connections: usize = match scale_name {
        "tiny" => 32,
        "medium" => 256,
        _ => 128,
    };
    let mut rows = Vec::new();
    for ds in [ep(SEED, scale).unwrap(), eh(SEED, scale).unwrap()] {
        let ticks = ds.scale.ticks;
        let queries = serve_queries(&ds, ticks);

        // In-process reference results.
        let mut local = build_engine(&ds, true, 10.0);
        ingest_engine_batched(&mut local, &ds, ticks, 512);
        let expected: Vec<QueryResult> = queries
            .iter()
            .map(|q| local.sql(q).expect("local"))
            .collect();

        // The served twin, ingested over the wire by one writer.
        let server = Server::start(
            SharedDatastore::new(build_engine(&ds, true, 10.0)),
            ServerOptions {
                max_connections: connections + 8,
                ..ServerOptions::default()
            },
        )
        .expect("server");
        let addr = server.local_addr();
        let mut writer = Client::connect(addr).expect("writer");
        let mut batch = RowBatch::with_capacity(ds.n_series(), 512);
        let mut tick = 0;
        while tick < ticks {
            let len = 512.min(ticks - tick);
            ds.fill_batch(tick, len, &mut batch);
            writer.ingest_batch(&batch).expect("wire ingest");
            tick += len;
        }
        writer.flush().expect("wire flush");
        for (q, want) in queries.iter().zip(&expected) {
            assert_eq!(&writer.sql(q).expect("remote"), want, "{q}");
        }
        writer.close().expect("writer close");

        // The soak: `connections` concurrent clients replaying the panel,
        // every result still bit-identical.
        let (latencies, wall) = timed(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..connections)
                    .map(|c| {
                        let queries = &queries;
                        let expected = &expected;
                        scope.spawn(move || {
                            let mut client = Client::connect(addr).expect("soak connect");
                            let mut latencies = Vec::with_capacity(ROUNDS * queries.len());
                            for i in 0..ROUNDS * queries.len() {
                                let at = (c + i) % queries.len();
                                let (got, elapsed) =
                                    timed(|| client.sql(&queries[at]).expect("soak query"));
                                assert_eq!(got, expected[at], "client {c}: {}", queries[at]);
                                latencies.push(elapsed);
                            }
                            client.close().expect("soak close");
                            latencies
                        })
                    })
                    .collect();
                let mut all = Vec::new();
                for handle in handles {
                    all.extend(handle.join().expect("soak client"));
                }
                all
            })
        });
        server.shutdown().expect("server shutdown");

        let total = latencies.len() as f64;
        let qps = total / wall.as_secs_f64().max(1e-9);
        let mut sorted = latencies;
        sorted.sort_unstable();
        let percentile = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
        let p50 = percentile(0.50);
        let p99 = percentile(0.99);
        rows.push(vec![
            ds.name.clone(),
            format!("{connections}"),
            format!("{qps:.0} q/s"),
            fmt_ms(p50),
            fmt_ms(p99),
        ]);
    }
    print_figure(
        "Networked front-end: concurrent soak, bit-identical to the in-process engine",
        &["Data set", "Conns", "Throughput", "p50", "p99"],
        &rows,
    );
}

/// Table 1: the configuration actually used.
fn table1() {
    let config = modelardb::Config::default();
    print_figure(
        "Table 1: Evaluation environment (this reproduction)",
        &["Setting", "Value"],
        &[
            vec![
                "System".into(),
                "ModelarDB+ reproduction (Rust, this repo)".into(),
            ],
            vec!["Model Error Bound".into(), "0%, 1%, 5%, 10%".into()],
            vec![
                "Model Length Limit".into(),
                config.compression.length_limit.to_string(),
            ],
            vec![
                "Dynamic Split Fraction".into(),
                format!("{}", config.compression.split_fraction),
            ],
            vec!["Bulk Write Size".into(), config.bulk_write_size.to_string()],
            vec![
                "Baselines".into(),
                "InfluxDB-like, Cassandra-like, Parquet-like, ORC-like".into(),
            ],
            vec![
                "Data sets".into(),
                "synthetic EP (SI=60s), EH (SI=100ms); mdb-datagen, seed 42".into(),
            ],
        ],
    );
}

/// Figure 13: ingestion rate, EP (single node per system + cluster B-6/O-6).
fn fig13(scale: Scale) {
    let ds = ep(SEED, scale).unwrap();
    let ticks = ds.scale.ticks;
    let points = ds.count_data_points(ticks);
    let mut rows = Vec::new();

    for mut store in baseline_stores() {
        let elapsed = ingest_baseline(store.as_mut(), &ds, ticks);
        rows.push(vec![
            format!("B-1 {}", store.name()),
            fmt_rate(points, elapsed),
        ]);
    }
    for (label, correlated) in [("B-1 ModelarDBv1", false), ("B-1 ModelarDBv2", true)] {
        let mut db = build_engine(&ds, correlated, 10.0);
        let elapsed = ingest_engine(&mut db, &ds, ticks);
        rows.push(vec![label.into(), fmt_rate(points, elapsed)]);
    }
    // B-6 / O-6: six workers, bulk vs online analytics.
    for (label, with_queries) in [("B-6 ModelarDBv2", false), ("O-6 ModelarDBv2", true)] {
        let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
        let cluster = Cluster::start(
            catalog,
            Arc::new(ModelRegistry::standard()),
            CompressionConfig {
                error_bound: ErrorBound::relative(10.0),
                ..Default::default()
            },
            6,
        )
        .unwrap();
        let (_, elapsed) = timed(|| {
            for tick in 0..ticks {
                cluster
                    .ingest_row(ds.timestamp(tick), &ds.row(tick))
                    .unwrap();
                if with_queries && tick % 500 == 0 {
                    let tid = tick % ds.n_series() as u64 + 1;
                    let _ =
                        cluster.sql(&format!("SELECT COUNT_S(*) FROM Segment WHERE Tid = {tid}"));
                }
            }
            cluster.flush().unwrap();
        });
        rows.push(vec![label.into(), fmt_rate(points, elapsed)]);
        cluster.shutdown().unwrap();
    }
    print_figure(
        "Figure 13: Ingestion rate, EP",
        &["Scenario", "Rate"],
        &rows,
    );
}

/// Figures 14 and 15: storage per system and error bound.
fn storage_figure(title: &str, ds: &Dataset, _scale: Scale) {
    let ticks = ds.scale.ticks;
    let mut rows = Vec::new();
    for mut store in baseline_stores() {
        ingest_baseline(store.as_mut(), ds, ticks);
        rows.push(vec![
            store.name().into(),
            "0%".into(),
            fmt_bytes(store.size_bytes()),
        ]);
    }
    for pct in BOUNDS {
        let mut v1 = build_engine(ds, false, pct);
        ingest_engine(&mut v1, ds, ticks);
        rows.push(vec![
            "ModelarDBv1".into(),
            format!("{pct}%"),
            fmt_bytes(v1.storage_bytes()),
        ]);
        let mut v2 = build_engine(ds, true, pct);
        ingest_engine(&mut v2, ds, ticks);
        rows.push(vec![
            "ModelarDBv2".into(),
            format!("{pct}%"),
            fmt_bytes(v2.storage_bytes()),
        ]);
    }
    print_figure(title, &["System", "Error bound", "Size"], &rows);
}

/// Figures 16 and 17: which models MMGC selects per error bound.
fn models_figure(title: &str, ds: &Dataset, _scale: Scale) {
    let ticks = ds.scale.ticks;
    let mut rows = Vec::new();
    for pct in BOUNDS {
        let mut db = build_engine(ds, true, pct);
        ingest_engine(&mut db, ds, ticks);
        let shares = db.stats().model_shares();
        let mut row = vec![format!("{pct}%")];
        for (_, share) in &shares {
            row.push(format!("{share:.2}%"));
        }
        rows.push(row);
    }
    let registry = ModelRegistry::standard();
    let names = registry.names();
    let mut header: Vec<&str> = vec!["Bound"];
    header.extend(names.iter().copied());
    print_figure(title, &header, &rows);
}

/// Figure 18: storage vs correlation distance.
fn fig18(scale: Scale) {
    let mut rows = Vec::new();
    for (name, ds) in [
        ("EP", ep(SEED, scale).unwrap()),
        ("EH", eh(SEED, scale).unwrap()),
    ] {
        let lowest = mdb_partitioner::lowest_distance(&ds.dimensions);
        let mut distances = vec![0.0, lowest, 0.25, 0.34, 0.42, 0.50];
        distances.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        distances.sort_by(|a, b| a.partial_cmp(b).unwrap());
        distances.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        for distance in distances {
            for pct in [0.0, 10.0] {
                let spec = CorrelationSpec::distance(distance);
                let catalog = catalog_from_dataset(&ds, &spec).unwrap();
                let mut config = modelardb::Config::default();
                config.compression.error_bound = ErrorBound::relative(pct);
                let mut db = modelardb::ModelarDb::from_catalog(
                    catalog,
                    Arc::new(ModelRegistry::standard()),
                    config,
                )
                .unwrap();
                ingest_engine(&mut db, &ds, ds.scale.ticks);
                rows.push(vec![
                    format!("{name} ({pct}%)"),
                    format!("{distance:.3}"),
                    fmt_bytes(db.storage_bytes()),
                ]);
            }
        }
    }
    print_figure(
        "Figure 18: Storage vs maximum distance",
        &["Data set", "Distance", "Size"],
        &rows,
    );
}

/// Figure 19: L-AGG runtime, EP, per system (SV and DPV for ModelarDB).
fn fig19(scale: Scale) {
    let ds = ep(SEED, scale).unwrap();
    let ticks = ds.scale.ticks;
    let mut rows = Vec::new();
    // Baselines: full-store aggregate scans.
    for mut store in baseline_stores() {
        ingest_baseline(store.as_mut(), &ds, ticks);
        let (_, elapsed) = timed(|| {
            for _ in 0..4 {
                store.aggregate(None, i64::MIN, i64::MAX).unwrap();
            }
        });
        rows.push(vec![format!("S {}", store.name()), fmt_ms(elapsed)]);
    }
    for (label, correlated) in [("ModelarDBv1", false), ("ModelarDBv2", true)] {
        let mut db = build_engine(&ds, correlated, 10.0);
        ingest_engine(&mut db, &ds, ticks);
        let mut w = Workloads::new(&ds, ticks, 7);
        let sv = run_queries(&db, &w.l_agg(4));
        rows.push(vec![format!("SV {label}"), fmt_ms(sv)]);
        let dpv = run_queries(&db, &w.l_agg_data_point(4));
        rows.push(vec![format!("DPV {label}"), fmt_ms(dpv)]);
    }
    print_figure(
        "Figure 19: L-AGG, EP",
        &["Interface/System", "Runtime"],
        &rows,
    );
}

/// Figure 20: scale-out 1–32 nodes, weak scaling, Segment vs Data Point
/// View. Per-worker times are measured; the cluster latency is the slowest
/// worker (no shuffling, Section 7.3), so the relative increase is
/// `nodes × t(1-node unit) / max(worker times)`.
fn fig20(scale: Scale) {
    let mut rows = Vec::new();
    for nodes in [1usize, 2, 4, 8, 16, 32] {
        // Weak scaling: data grows with the node count.
        let ds = ep(
            SEED,
            Scale {
                clusters: scale.clusters * nodes,
                ..scale
            },
        )
        .unwrap();
        let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
        let cluster = Cluster::start(
            catalog,
            Arc::new(ModelRegistry::standard()),
            CompressionConfig {
                error_bound: ErrorBound::relative(10.0),
                ..Default::default()
            },
            nodes,
        )
        .unwrap();
        for tick in 0..ds.scale.ticks {
            cluster
                .ingest_row(ds.timestamp(tick), &ds.row(tick))
                .unwrap();
        }
        cluster.flush().unwrap();
        // Warm up, then take the per-worker minimum over repetitions so OS
        // scheduling noise does not masquerade as a slow node; the cluster
        // latency is the max over workers of those steady-state times.
        let steady = |sql: &str| -> Vec<Duration> {
            let mut best: Vec<Duration> = cluster.worker_times_isolated(sql).unwrap();
            for _ in 0..4 {
                for (b, t) in best
                    .iter_mut()
                    .zip(cluster.worker_times_isolated(sql).unwrap())
                {
                    *b = (*b).min(t);
                }
            }
            best
        };
        let _ = cluster.sql("SELECT COUNT_S(*) FROM Segment"); // warm-up
        let sv_times = steady("SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid");
        let dpv_times = steady("SELECT Tid, SUM(Value) FROM DataPoint GROUP BY Tid");
        let sv_max = sv_times.iter().max().copied().unwrap_or_default();
        let dpv_max = dpv_times.iter().max().copied().unwrap_or_default();
        rows.push((nodes, sv_max, dpv_max));
        cluster.shutdown().unwrap();
    }
    let (base_sv, base_dpv) = (rows[0].1, rows[0].2);
    let rel = |nodes: usize, t: Duration, base: Duration| {
        nodes as f64 * base.as_secs_f64() / t.as_secs_f64().max(1e-9)
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(n, sv, dpv)| {
            vec![
                n.to_string(),
                format!("{:.2}x", rel(*n, *sv, base_sv)),
                format!("{:.2}x", rel(*n, *dpv, base_dpv)),
            ]
        })
        .collect();
    print_figure(
        "Figure 20: Scale-out (relative increase, weak scaling)",
        &["Nodes", "Segment View", "Data Point View"],
        &table,
    );
}

/// Figures 21 and 22: S-AGG runtimes.
fn s_agg_figure(title: &str, ds: &Dataset, _scale: Scale) {
    let ticks = ds.scale.ticks;
    let n_queries = 20;
    let mut rows = Vec::new();
    for mut store in baseline_stores() {
        ingest_baseline(store.as_mut(), ds, ticks);
        // The S-AGG shape for the baselines: single-tid + 5-tid aggregates.
        let (_, elapsed) = timed(|| {
            for i in 0..n_queries as u32 {
                let tid = i % ds.n_series() as u32 + 1;
                if i % 2 == 0 {
                    store.aggregate(Some(&[tid]), i64::MIN, i64::MAX).unwrap();
                } else {
                    let tids: Vec<u32> = (0..5)
                        .map(|k| (tid + k - 1) % ds.n_series() as u32 + 1)
                        .collect();
                    store.aggregate(Some(&tids), i64::MIN, i64::MAX).unwrap();
                }
            }
        });
        rows.push(vec![format!("S {}", store.name()), fmt_ms(elapsed)]);
    }
    for (label, correlated) in [("ModelarDBv1", false), ("ModelarDBv2", true)] {
        let mut db = build_engine(ds, correlated, 10.0);
        ingest_engine(&mut db, ds, ticks);
        let queries = Workloads::new(ds, ticks, 7).s_agg(n_queries);
        let elapsed = run_queries(&db, &queries);
        rows.push(vec![format!("SV {label}"), fmt_ms(elapsed)]);
    }
    print_figure(title, &["Interface/System", "Runtime"], &rows);
}

/// Figures 23 and 24: point/range extraction runtimes.
fn pr_figure(title: &str, ds: &Dataset, _scale: Scale) {
    let ticks = ds.scale.ticks;
    let n_queries = 30;
    let mut rows = Vec::new();
    for mut store in baseline_stores() {
        ingest_baseline(store.as_mut(), ds, ticks);
        let (_, elapsed) = timed(|| {
            for i in 0..n_queries as u64 {
                let tid = (i % ds.n_series() as u64) as u32 + 1;
                let tick = i * 37 % ticks;
                let from = ds.timestamp(tick);
                let to = ds.timestamp((tick + 100).min(ticks - 1));
                let mut sink = 0usize;
                store
                    .scan_points(tid, from, to, &mut |_, _| sink += 1)
                    .unwrap();
                std::hint::black_box(sink);
            }
        });
        rows.push(vec![format!("S {}", store.name()), fmt_ms(elapsed)]);
    }
    for (label, correlated) in [("ModelarDBv1", false), ("ModelarDBv2", true)] {
        let mut db = build_engine(ds, correlated, 10.0);
        ingest_engine(&mut db, ds, ticks);
        let queries = Workloads::new(ds, ticks, 7).point_range(n_queries);
        let elapsed = run_queries(&db, &queries);
        rows.push(vec![format!("DPV {label}"), fmt_ms(elapsed)]);
    }
    print_figure(title, &["Interface/System", "Runtime"], &rows);
}

/// Figures 25–28: multi-dimensional aggregates (Algorithm 6).
fn m_agg_figure(title: &str, ds: &Dataset, _scale: Scale, drill_down: bool) {
    let ticks = ds.scale.ticks;
    let n_queries = 6;
    let mut rows = Vec::new();
    let level_name = match (ds.name.as_str(), drill_down) {
        ("EP", false) => "Type",
        ("EP", true) => "Entity",
        (_, false) => "Park",
        (_, true) => "Entity",
    };
    let level = ds.dimensions.resolve_level(level_name).unwrap();
    for mut store in baseline_stores() {
        ingest_baseline(store.as_mut(), ds, ticks);
        let (_, elapsed) = timed(|| {
            for _ in 0..n_queries {
                std::hint::black_box(baseline_m_agg(
                    store.as_ref(),
                    ds,
                    level,
                    i64::MIN,
                    i64::MAX,
                ));
            }
        });
        rows.push(vec![format!("S {}", store.name()), fmt_ms(elapsed)]);
    }
    let mut db = build_engine(ds, true, 10.0);
    ingest_engine(&mut db, ds, ticks);
    let queries = Workloads::new(ds, ticks, 7).m_agg(n_queries, drill_down);
    let elapsed = run_queries(&db, &queries);
    rows.push(vec!["SV ModelarDBv2".into(), fmt_ms(elapsed)]);
    print_figure(title, &["Interface/System", "Runtime"], &rows);
}

/// The Section 5.2 experiment: MMC vs MMGC on three correlated
/// turbine-temperature series, per error bound.
fn mgc_ablation() {
    let ds = ep(
        SEED,
        Scale {
            clusters: 1,
            series_per_cluster: 3,
            ticks: 20_000,
        },
    )
    .unwrap();
    let mut rows = Vec::new();
    for pct in BOUNDS {
        let mut mmc = build_engine(&ds, false, pct);
        ingest_engine(&mut mmc, &ds, ds.scale.ticks);
        let mut mmgc = build_engine(&ds, true, pct);
        ingest_engine(&mut mmgc, &ds, ds.scale.ticks);
        let reduction = (1.0 - mmgc.storage_bytes() as f64 / mmc.storage_bytes() as f64) * 100.0;
        rows.push(vec![
            format!("{pct}%"),
            fmt_bytes(mmc.storage_bytes()),
            fmt_bytes(mmgc.storage_bytes()),
            format!("{reduction:.2}%"),
        ]);
    }
    print_figure(
        "Section 5.2: MMC vs MMGC on three correlated series",
        &["Bound", "MMC (v1)", "MMGC (v2)", "Reduction"],
        &rows,
    );
}
