//! `repro` — regenerates every table and figure of the paper's evaluation
//! (Section 7) on the synthetic EP/EH data sets.
//!
//! ```text
//! repro <experiment> [--scale tiny|small|medium]
//! repro gate --baseline <file> --current <file> [--tolerance <factor>]
//!
//! experiments:
//!   table1  fig13  fig14  fig15  fig16  fig17  fig18  fig19  fig20
//!   fig21   fig22  fig23  fig24  fig25  fig26  fig27  fig28  mgc
//!   ingest  query  storage  scan  sketch  rollup  serve  chaos  all
//! ```
//!
//! Unknown experiments, scales, or options exit non-zero with a usage
//! message instead of being silently ignored.
//!
//! `ingest` additionally writes `BENCH_ingest.json` (rows/sec and points/sec
//! for the tick-at-a-time vs batched ingestion paths), `query` writes
//! `BENCH_query.json` (time-ranged `SUM_S`/`AVG_S` latency for the plain
//! sequential scan vs the pruned-parallel path), and `storage` writes
//! `BENCH_storage.json` (sidecar-assisted vs full-log-scan reopen time and
//! the resident-segment peak under a bounded memory budget), `scan` writes
//! `BENCH_scan.json` (cold-cache full-span aggregate scans over the v1
//! decode path vs the zero-copy v2 view path, prefetch off and on), and
//! `sketch` writes `BENCH_sketch.json` (metadata-only sketch queries vs
//! their exact full-scan equivalents), `rollup` writes `BENCH_rollup.json`
//! (whole-bucket time-hierarchy aggregates served from the incrementally
//! materialized rollup cells vs the full bucketed scan — bit-identical
//! answers, checked in-run), and `serve` writes `BENCH_serve.json`
//! (the networked front-end: remote-vs-in-process query efficiency plus
//! throughput and tail latency under concurrent connections) so the perf
//! trajectory is machine-readable across commits. `gate` compares a freshly produced
//! `BENCH_*.json` against a committed baseline and fails (exit 1) on more
//! than `--tolerance`-fold regression — of the machine-portable speedup
//! ratios by default, and also of raw rates/latencies under `--absolute` —
//! the CI perf-regression step.
//!
//! Absolute numbers will differ from the paper (its substrate was a 7-node
//! cluster over 339–582 GiB of proprietary data; this is a laptop-scale
//! simulation) — the *shape* is what is reproduced: who wins, by roughly
//! what factor, and where the crossovers sit. EXPERIMENTS.md records both.

use std::sync::Arc;
use std::time::Duration;

use mdb_bench::*;
use mdb_cluster::{Cluster, ClusterConfig, WorkerState};
use mdb_datagen::{eh, ep, Dataset, Scale, Workloads};
use mdb_partitioner::CorrelationSpec;
use mdb_testutil::TempDir;
use modelardb::{
    Client, CommonOptions, CompressionConfig, ErrorBound, ModelRegistry, QueryResult, RowBatch,
    SegmentStore, Server, ServerOptions, SharedDatastore,
};

const SEED: u64 = 42;
const BOUNDS: [f64; 4] = [0.0, 1.0, 5.0, 10.0];

const EXPERIMENTS: [&str; 26] = [
    "table1", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
    "fig22", "fig23", "fig24", "fig25", "fig26", "fig27", "fig28", "mgc", "ingest", "query",
    "storage", "scan", "sketch", "rollup", "serve", "chaos",
];

fn usage() -> String {
    format!(
        "usage: repro [<experiment>] [--scale tiny|small|medium]\n\
         \x20      repro gate --baseline <file> --current <file> [--tolerance <factor>] [--absolute]\n\
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
    if args.first().map(String::as_str) == Some("gate") {
        return gate(&args[1..]);
    }
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
    if run("ingest") {
        ingest_rates(scale, scale_name);
    }
    if run("query") {
        query_rates(scale, scale_name);
    }
    if run("storage") {
        storage_rates(scale, scale_name);
    }
    if run("scan") {
        scan_rates(scale, scale_name);
    }
    if run("sketch") {
        sketch_rates(scale, scale_name);
    }
    if run("rollup") {
        rollup_rates(scale, scale_name);
    }
    if run("serve") {
        serve_rates(scale, scale_name);
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
                common: CommonOptions::builder()
                    .compression(CompressionConfig {
                        error_bound: ErrorBound::relative(10.0),
                        ..Default::default()
                    })
                    .storage_dir(Some(dir.to_path_buf()))
                    .bulk_write_size(64)
                    .query_parallelism(1)
                    .build(),
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

/// `storage`: restart time and resident memory of the out-of-core disk
/// store, written to `BENCH_storage.json`. One log is ingested per data set
/// (sixteen times the scale's ticks, small blocks so even the tiny scale
/// has dozens of them); then two reopen paths are timed in interleaved
/// repetitions (fastest wins): `sidecar` loads block summaries and the zone
/// map from `segments.idx`, `logscan` deletes the sidecar first and pays
/// the streaming block-by-block rebuild. The gated `reopen_speedup` is
/// their ratio. The bounded-cache pass reopens with a small
/// `memory_budget_bytes`, scans everything, and reports the *store's*
/// resident segment high-water mark (cache + write buffer) — O(cache
/// capacity), not O(total segments). Consumers that materialize the scan
/// (this pass's own collect, or the query engine's collect phase) hold
/// their surviving segments on top of that; the metric bounds the store,
/// not the whole process.
fn storage_rates(scale: Scale, scale_name: &str) {
    const REPS: usize = 7;
    /// Segments per block: small enough that even `--scale tiny` produces
    /// dozens of blocks for the sidecar to summarize.
    const BULK: usize = 64;
    /// Block-cache budget for the bounded-resident pass.
    const BUDGET: u64 = 96 * 1024;
    let mut rows = Vec::new();
    let mut cache_rows = Vec::new();
    let mut entries = Vec::new();
    for ds in [ep(SEED, scale).unwrap(), eh(SEED, scale).unwrap()] {
        let ticks = (ds.scale.ticks * 16).max(20_000);
        let dir = std::env::temp_dir().join(format!(
            "mdb-repro-storage-{}-{}",
            std::process::id(),
            ds.name
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut db = build_disk_engine(&ds, &dir, 10.0, BULK, None);
        ingest_engine_batched(&mut db, &ds, ticks, 512);
        let segments = db.segment_count();
        drop(db);

        // Reopen at the store level, value-bounded exactly like the engine.
        let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
        let registry = Arc::new(ModelRegistry::standard());
        let bounds = modelardb::value_bounds_fn(&catalog, &registry);
        let open = |budget: Option<u64>, prefetch: usize| {
            modelardb::DiskStore::open_with(
                &dir,
                modelardb::DiskStoreOptions {
                    bulk_write_size: BULK,
                    memory_budget_bytes: budget,
                    value_bounds: Some(bounds.clone()),
                    prefetch_depth: prefetch,
                    ..Default::default()
                },
            )
            .expect("reopen")
        };
        let blocks = open(None, 0).block_count();
        // Sanity: both reopen paths must recover identical segments.
        let via_sidecar = store_segments(&open(None, 0));
        std::fs::remove_file(dir.join("segments.idx")).expect("sidecar present");
        let rebuilt = open(None, 0);
        assert_eq!(via_sidecar, store_segments(&rebuilt), "{}", ds.name);
        drop(rebuilt); // its open rewrote the sidecar
        let mut sidecar_elapsed = Duration::MAX;
        let mut logscan_elapsed = Duration::MAX;
        for _ in 0..REPS {
            // Interleaved so machine-load drift cannot bias one path.
            let (_, elapsed) = timed(|| std::hint::black_box(open(None, 0).len()));
            sidecar_elapsed = sidecar_elapsed.min(elapsed);
            std::fs::remove_file(dir.join("segments.idx")).expect("sidecar present");
            let (_, elapsed) = timed(|| std::hint::black_box(open(None, 0).len()));
            logscan_elapsed = logscan_elapsed.min(elapsed);
        }
        let speedup = logscan_elapsed.as_secs_f64() / sidecar_elapsed.as_secs_f64().max(1e-9);

        // Bounded-cache pass: scan the whole store with the prefetcher on
        // and record the resident high-water mark plus the cache counters.
        let bounded = open(Some(BUDGET), 2);
        let all = store_segments(&bounded);
        assert_eq!(all.len(), segments, "{}", ds.name);
        let peak = bounded.resident_segment_peak();
        let cache = bounded.cache_stats();
        drop(bounded);

        rows.push(vec![
            ds.name.clone(),
            segments.to_string(),
            blocks.to_string(),
            fmt_ms(sidecar_elapsed),
            fmt_ms(logscan_elapsed),
            format!("{speedup:.2}x"),
            format!("{peak}/{segments}"),
        ]);
        cache_rows.push(vec![
            ds.name.clone(),
            fmt_bytes(cache.bytes_read),
            cache.prefetch_issued.to_string(),
            cache.prefetch_hits.to_string(),
            cache.decode_validations.to_string(),
            cache.owned_decodes.to_string(),
        ]);
        entries.push(format!(
            concat!(
                "    {{\"dataset\": \"{}\", \"ticks\": {}, \"segments\": {}, \"blocks\": {}, ",
                "\"sidecar_reopen_ms\": {:.3}, \"logscan_reopen_ms\": {:.3}, ",
                "\"reopen_speedup\": {:.3}, \"budget_bytes\": {}, ",
                "\"peak_resident_segments\": {}, \"bytes_read\": {}, ",
                "\"prefetch_issued\": {}, \"prefetch_hits\": {}, ",
                "\"decode_validations\": {}}}"
            ),
            ds.name,
            ticks,
            segments,
            blocks,
            sidecar_elapsed.as_secs_f64() * 1e3,
            logscan_elapsed.as_secs_f64() * 1e3,
            speedup,
            BUDGET,
            peak,
            cache.bytes_read,
            cache.prefetch_issued,
            cache.prefetch_hits,
            cache.decode_validations,
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
    print_figure(
        "Storage engine: sidecar-assisted vs full-log-scan reopen, bounded-cache residency",
        &[
            "Data set",
            "Segments",
            "Blocks",
            "Sidecar reopen",
            "Log-scan reopen",
            "Speedup",
            "Peak resident",
        ],
        &rows,
    );
    print_figure(
        "Block cache counters (bounded-cache pass, prefetch depth 2)",
        &[
            "Data set",
            "Bytes read",
            "Prefetch issued",
            "Prefetch hits",
            "Decode validations",
            "Owned decodes",
        ],
        &cache_rows,
    );
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"datasets\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write("BENCH_storage.json", &json) {
        Ok(()) => println!("\nwrote BENCH_storage.json"),
        Err(e) => eprintln!("\nfailed to write BENCH_storage.json: {e}"),
    }
}

/// `scan`: cold-cache full-span aggregate scans, written to
/// `BENCH_scan.json` — the headline of the zero-copy block layout. Each
/// data set is ingested twice into separate directories, once per on-disk
/// block format; every repetition then reopens the engine so the block
/// cache starts empty and each block is read from disk. Three paths are
/// interleaved (fastest repetition wins): the v1 decode path (every block
/// decoded into owned segment records), the v2 view path (blocks validated
/// once, segments folded through borrowed views, zero per-segment
/// allocation), and the v2 view path with the prefetcher reading ahead of
/// the fold. The gated `scan_speedup` is v1 time over v2-with-prefetch
/// time; `EXPECT >= 2x`. Before timing, the two formats must answer the
/// probe queries bit-identically, and the v2 counters must prove the
/// claims: zero owned decodes, bytes read equal to the log's persistent
/// bytes, and every block touched exactly once via demand misses plus
/// prefetches. The adaptive scan shape (fold-group size and pool bypass
/// threshold) is recorded alongside the timings.
fn scan_rates(scale: Scale, scale_name: &str) {
    const REPS: usize = 5;
    /// Segments per block — small blocks so even `--scale tiny` gives the
    /// prefetcher dozens of blocks to read ahead of the fold.
    const BULK: usize = 64;
    const PREFETCH: usize = 256;
    let probes = [
        "SELECT COUNT_S(*), SUM_S(*), AVG_S(*), MIN_S(*), MAX_S(*) FROM Segment".to_string(),
        "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid".to_string(),
    ];
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for ds in [ep(SEED, scale).unwrap(), eh(SEED, scale).unwrap()] {
        let ticks = (ds.scale.ticks * 16).max(20_000);
        let dir_for = |format: &str| {
            std::env::temp_dir().join(format!(
                "mdb-repro-scan-{}-{}-{format}",
                std::process::id(),
                ds.name
            ))
        };
        let (v1_dir, v2_dir) = (dir_for("v1"), dir_for("v2"));
        let mut segments = 0;
        for (dir, format) in [
            (&v1_dir, modelardb::BlockFormat::V1),
            (&v2_dir, modelardb::BlockFormat::V2),
        ] {
            std::fs::remove_dir_all(dir).ok();
            let mut db = build_disk_engine_with(&ds, dir, 10.0, BULK, None, 0, format);
            ingest_engine_batched(&mut db, &ds, ticks, 512);
            segments = db.segment_count();
        }
        // Block count and log size, read cheaply through the sidecar.
        let probe_store = modelardb::DiskStore::open_with(
            &v2_dir,
            modelardb::DiskStoreOptions {
                bulk_write_size: BULK,
                ..Default::default()
            },
        )
        .expect("reopen");
        let blocks = probe_store.block_count();
        let persistent = modelardb::SegmentStore::persistent_bytes(&probe_store);
        drop(probe_store);

        // Parity and counter checks on a dedicated cold pair of opens: the
        // formats must be indistinguishable in results, and the v2 counters
        // must prove the zero-copy claims the timings rest on.
        let mut v1_db = build_disk_engine_with(
            &ds,
            &v1_dir,
            10.0,
            BULK,
            None,
            0,
            modelardb::BlockFormat::V1,
        );
        let mut v2_db = build_disk_engine_with(
            &ds,
            &v2_dir,
            10.0,
            BULK,
            None,
            PREFETCH,
            modelardb::BlockFormat::V2,
        );
        // Whole-store aggregates are otherwise answered from rollup cells
        // without reading a block; the counters below are about the scan.
        v1_db.set_rollup_serve(false);
        v2_db.set_rollup_serve(false);
        for probe in &probes {
            assert_eq!(
                v1_db.sql(probe).unwrap(),
                v2_db.sql(probe).unwrap(),
                "{}: v1 and v2 diverged on {probe}",
                ds.name
            );
        }
        let v2_stats = v2_db.cache_stats();
        assert_eq!(
            v2_stats.owned_decodes, 0,
            "{}: a v2 scan must not decode owned segments",
            ds.name
        );
        assert_eq!(
            v2_stats.bytes_read, persistent,
            "{}: a full cold scan must read exactly the log once",
            ds.name
        );
        assert_eq!(
            v2_stats.prefetch_issued + v2_stats.misses,
            blocks as u64,
            "{}: every block must arrive via one prefetch or one miss",
            ds.name
        );
        let v1_stats = v1_db.cache_stats();
        assert_eq!(
            v1_stats.owned_decodes, blocks as u64,
            "{}: the v1 path must decode every block into owned records",
            ds.name
        );
        drop((v1_db, v2_db));

        // The timed unit: a full-span aggregate folded in one pass over the
        // store — count, time extent, represented points, and a sum over
        // every parameter byte (so both paths must actually touch the model
        // parameters, like any value aggregate does).
        let fold = |acc: &mut (u64, i64, i64, u64, u64), v: &modelardb::SegmentView<'_>| {
            acc.0 += 1;
            acc.1 = acc.1.min(v.start_time);
            acc.2 = acc.2.max(v.end_time);
            acc.3 += v.len() as u64;
            acc.4 += v.params.iter().map(|&b| u64::from(b)).sum::<u64>();
        };
        let empty = (0u64, i64::MAX, i64::MIN, 0u64, 0u64);
        let open_store = |dir: &std::path::Path, prefetch: usize| {
            modelardb::DiskStore::open_with(
                dir,
                modelardb::DiskStoreOptions {
                    bulk_write_size: BULK,
                    prefetch_depth: prefetch,
                    ..Default::default()
                },
            )
            .expect("reopen")
        };
        let pred = modelardb::SegmentPredicate::all();
        // The v1 owned-decode scan: every block is decoded into owned
        // `SegmentRecord`s before the fold sees it. The store is reopened
        // per pass so the block cache is cold, but the reopen itself (a
        // sidecar read, identical for both formats) stays outside the
        // timed region — the metric is scan throughput.
        let v1_pass = || {
            let store = open_store(&v1_dir, 0);
            timed(|| {
                let mut acc = empty;
                modelardb::SegmentStore::scan_runs(&store, &pred, &mut |run| {
                    for v in run.segments() {
                        fold(&mut acc, &v);
                    }
                })
                .expect("scan");
                acc
            })
        };
        // The v2 view scan: blocks validated once, folded through borrowed
        // views, optionally with the prefetcher reading ahead.
        let v2_pass = |prefetch: usize| {
            let store = open_store(&v2_dir, prefetch);
            timed(|| {
                let mut acc = empty;
                modelardb::SegmentStore::scan_runs(&store, &pred, &mut |run| {
                    for v in run.segments() {
                        fold(&mut acc, &v);
                    }
                })
                .expect("scan");
                acc
            })
        };
        let (want, _) = v1_pass();
        assert_eq!(want, v2_pass(0).0, "{}", ds.name);
        assert_eq!(want, v2_pass(PREFETCH).0, "{}", ds.name);
        let mut v1_elapsed = Duration::MAX;
        let mut v2_elapsed = Duration::MAX;
        let mut v2_prefetch_elapsed = Duration::MAX;
        for _ in 0..REPS {
            // Interleaved so machine-load drift cannot bias one path.
            let (acc, elapsed) = v1_pass();
            std::hint::black_box(acc);
            v1_elapsed = v1_elapsed.min(elapsed);
            let (acc, elapsed) = v2_pass(0);
            std::hint::black_box(acc);
            v2_elapsed = v2_elapsed.min(elapsed);
            let (acc, elapsed) = v2_pass(PREFETCH);
            std::hint::black_box(acc);
            v2_prefetch_elapsed = v2_prefetch_elapsed.min(elapsed);
        }
        let speedup = v1_elapsed.as_secs_f64() / v2_prefetch_elapsed.as_secs_f64().max(1e-9);

        // The adaptive scan shape these timings ran under (full span, no
        // value filter, auto parallelism).
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shape = modelardb::scan_shape(segments, false, workers);

        rows.push(vec![
            ds.name.clone(),
            segments.to_string(),
            blocks.to_string(),
            fmt_ms(v1_elapsed),
            fmt_ms(v2_elapsed),
            fmt_ms(v2_prefetch_elapsed),
            format!("{speedup:.2}x"),
            format!("{}/{}", shape.fold_size, shape.bypass_threshold),
        ]);
        entries.push(format!(
            concat!(
                "    {{\"dataset\": \"{}\", \"ticks\": {}, \"segments\": {}, \"blocks\": {}, ",
                "\"fold_size\": {}, \"bypass_threshold\": {}, ",
                "\"v1_scan_ms\": {:.3}, \"v2_scan_ms\": {:.3}, ",
                "\"v2_prefetch_scan_ms\": {:.3}, \"scan_speedup\": {:.3}}}"
            ),
            ds.name,
            ticks,
            segments,
            blocks,
            shape.fold_size,
            shape.bypass_threshold,
            v1_elapsed.as_secs_f64() * 1e3,
            v2_elapsed.as_secs_f64() * 1e3,
            v2_prefetch_elapsed.as_secs_f64() * 1e3,
            speedup,
        ));
        std::fs::remove_dir_all(&v1_dir).ok();
        std::fs::remove_dir_all(&v2_dir).ok();
    }
    print_figure(
        "Scan path: cold-cache full-span aggregates, v1 decode vs zero-copy v2 views",
        &[
            "Data set",
            "Segments",
            "Blocks",
            "v1 decode",
            "v2 views",
            "v2 + prefetch",
            "Speedup",
            "Shape",
        ],
        &rows,
    );
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"datasets\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write("BENCH_scan.json", &json) {
        Ok(()) => println!("\nwrote BENCH_scan.json"),
        Err(e) => eprintln!("\nfailed to write BENCH_scan.json: {e}"),
    }
}

/// Collects every stored segment of a store in scan order.
fn store_segments(store: &modelardb::DiskStore) -> Vec<modelardb::SegmentRecord> {
    modelardb::scan_to_vec(store, &modelardb::SegmentPredicate::all()).expect("scan")
}

/// `sketch`: the metadata-only sketch path vs exact full scans, on a
/// disk-backed store, written to `BENCH_sketch.json`. Both paths answer the
/// same four questions — the 50th and 99th percentile of every stored
/// value, the distinct series count, and the five heaviest series. The
/// sketch path runs `P50_S`/`P99_S`/`COUNT_DISTINCT`/`TOP_K_S` SQL, which
/// resolves from per-group running sketches without fetching a single
/// segment body;
/// the exact path reconstructs every data point through the Data Point View
/// and computes nearest-rank percentiles and per-series counts from the
/// rows. The two paths are interleaved (fastest repetition wins) and the
/// gated `sketch_speedup` is their ratio.
fn sketch_rates(scale: Scale, scale_name: &str) {
    const REPS: usize = 7;
    const BULK: usize = 64;
    const K: usize = 5;
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for ds in [ep(SEED, scale).unwrap(), eh(SEED, scale).unwrap()] {
        let ticks = (ds.scale.ticks * 16).max(20_000);
        let dir = std::env::temp_dir().join(format!(
            "mdb-repro-sketch-{}-{}",
            std::process::id(),
            ds.name
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut db = build_disk_engine(&ds, &dir, 10.0, BULK, None);
        ingest_engine_batched(&mut db, &ds, ticks, 512);
        let segments = db.segment_count();

        let sketch_queries: Vec<String> = [
            "SELECT P50_S(*) FROM Segment".to_string(),
            "SELECT P99_S(*) FROM Segment".to_string(),
            "SELECT COUNT_DISTINCT(Tid) FROM Segment".to_string(),
            format!("SELECT TOP_K_S({K}) FROM Segment"),
        ]
        .to_vec();
        // The exact equivalents: reconstruct every point, sort for the
        // nearest-rank percentiles, and group for the distinct/top-k part.
        let exact_pass = |db: &modelardb::ModelarDb| {
            let mut values: Vec<f64> = db
                .sql("SELECT Value FROM DataPoint")
                .expect("value scan")
                .rows
                .iter()
                .map(|r| r[0].as_f64().expect("value"))
                .collect();
            values.sort_by(f64::total_cmp);
            let rank = |q: f64| {
                let r = (q / 100.0 * values.len() as f64).ceil() as usize;
                values[r.clamp(1, values.len()) - 1]
            };
            let counts = db
                .sql("SELECT Tid, COUNT(*) FROM DataPoint GROUP BY Tid")
                .expect("count scan");
            let mut per_tid: Vec<(i64, i64)> = counts
                .rows
                .iter()
                .map(|r| (r[0].as_i64().expect("tid"), r[1].as_i64().expect("count")))
                .collect();
            per_tid.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let top: i64 = per_tid.iter().take(K).map(|(_, c)| c).sum();
            (rank(50.0), rank(99.0), per_tid.len(), top)
        };

        let _ = run_queries(&db, &sketch_queries); // warm-up
        let _ = std::hint::black_box(exact_pass(&db));
        let mut sketch_elapsed = Duration::MAX;
        let mut exact_elapsed = Duration::MAX;
        for _ in 0..REPS {
            // Interleaved so machine-load drift cannot bias one path.
            sketch_elapsed = sketch_elapsed.min(run_queries(&db, &sketch_queries));
            let (_, elapsed) = timed(|| std::hint::black_box(exact_pass(&db)));
            exact_elapsed = exact_elapsed.min(elapsed);
        }
        let speedup = exact_elapsed.as_secs_f64() / sketch_elapsed.as_secs_f64().max(1e-9);

        rows.push(vec![
            ds.name.clone(),
            segments.to_string(),
            fmt_ms(sketch_elapsed),
            fmt_ms(exact_elapsed),
            format!("{speedup:.2}x"),
        ]);
        entries.push(format!(
            concat!(
                "    {{\"dataset\": \"{}\", \"ticks\": {}, \"segments\": {}, ",
                "\"sketch_ms\": {:.3}, \"exact_scan_ms\": {:.3}, \"sketch_speedup\": {:.3}}}"
            ),
            ds.name,
            ticks,
            segments,
            sketch_elapsed.as_secs_f64() * 1e3,
            exact_elapsed.as_secs_f64() * 1e3,
            speedup,
        ));
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    print_figure(
        "Sketch functions: metadata-only sketches vs exact full scans",
        &[
            "Data set",
            "Segments",
            "Sketch path",
            "Exact scan",
            "Speedup",
        ],
        &rows,
    );
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"datasets\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write("BENCH_sketch.json", &json) {
        Ok(()) => println!("\nwrote BENCH_sketch.json"),
        Err(e) => eprintln!("\nfailed to write BENCH_sketch.json: {e}"),
    }
}

/// `rollup`: whole-bucket time-hierarchy aggregates served from the
/// incrementally materialized rollup cells vs the full bucketed scan, on a
/// disk-backed store, written to `BENCH_rollup.json`. The two paths are the
/// *same query on the same engine* with serving toggled — they are
/// bit-identical by construction (asserted in-run), so the gated
/// `*_speedup` is a pure read-path ratio. The served pass is additionally
/// checked to perform **zero** block-cache fetches: a fully covered bucket
/// is answered from cells without touching a segment body.
fn rollup_rates(scale: Scale, scale_name: &str) {
    const REPS: usize = 7;
    const BULK: usize = 64;
    const N_QUERIES: usize = 20;
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for ds in [ep(SEED, scale).unwrap(), eh(SEED, scale).unwrap()] {
        let ticks = (ds.scale.ticks * 16).max(20_000);
        let dir = std::env::temp_dir().join(format!(
            "mdb-repro-rollup-{}-{}",
            std::process::id(),
            ds.name
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut db = build_disk_engine(&ds, &dir, 10.0, BULK, None);
        ingest_engine_batched(&mut db, &ds, ticks, 512);
        let segments = db.segment_count();
        let mut entry = format!(
            "    {{\"dataset\": \"{}\", \"ticks\": {ticks}, \"segments\": {segments}",
            ds.name
        );

        let classes: [(&str, String); 2] = [
            (
                "CUBE_SUM_HOUR",
                "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment GROUP BY Tid".to_string(),
            ),
            (
                "CUBE_AVG_DAY",
                "SELECT Tid, CUBE_AVG_DAY(*) FROM Segment GROUP BY Tid".to_string(),
            ),
        ];
        for (class, query) in &classes {
            let queries = vec![query.clone(); N_QUERIES];
            // Correctness choke before any timing: the served answer is the
            // scanned answer, and serving fetches no segment bodies.
            db.set_rollup_serve(true);
            let served = db.sql(query).expect("served query");
            let before = db.cache_stats();
            let _ = db.sql(query).expect("served query");
            let after = db.cache_stats();
            assert_eq!(
                (after.hits, after.misses, after.bytes_read),
                (before.hits, before.misses, before.bytes_read),
                "{}/{class}: the served pass must not fetch segment bodies",
                ds.name
            );
            db.set_rollup_serve(false);
            let scanned = db.sql(query).expect("scanned query");
            assert_eq!(
                served, scanned,
                "{}/{class}: served and scanned answers must be identical",
                ds.name
            );

            let mut served_elapsed = Duration::MAX;
            let mut scan_elapsed = Duration::MAX;
            for _ in 0..REPS {
                // Interleaved so machine-load drift cannot bias one path.
                db.set_rollup_serve(true);
                served_elapsed = served_elapsed.min(run_queries(&db, &queries));
                db.set_rollup_serve(false);
                scan_elapsed = scan_elapsed.min(run_queries(&db, &queries));
            }
            let speedup = scan_elapsed.as_secs_f64() / served_elapsed.as_secs_f64().max(1e-9);
            rows.push(vec![
                ds.name.clone(),
                (*class).into(),
                fmt_ms(served_elapsed),
                fmt_ms(scan_elapsed),
                format!("{speedup:.2}x"),
            ]);
            let key = class.to_ascii_lowercase();
            entry.push_str(&format!(
                ", \"{key}_served_ms\": {:.3}, \"{key}_scan_ms\": {:.3}, \"{key}_speedup\": {speedup:.3}",
                served_elapsed.as_secs_f64() * 1e3,
                scan_elapsed.as_secs_f64() * 1e3,
            ));
        }
        entry.push('}');
        entries.push(entry);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    print_figure(
        "Continuous aggregates: materialized rollup cells vs bucketed scans",
        &["Data set", "Aggregate", "Served", "Scanned", "Speedup"],
        &rows,
    );
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"datasets\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write("BENCH_rollup.json", &json) {
        Ok(()) => println!("\nwrote BENCH_rollup.json"),
        Err(e) => eprintln!("\nfailed to write BENCH_rollup.json: {e}"),
    }
}

/// `query`: time-ranged `SUM_S`/`AVG_S` latency, plain sequential scan vs
/// the pruned-parallel path, on both data sets; written to
/// `BENCH_query.json`. Sixteen times the scale's ticks (at least 20,000)
/// are ingested so the zone map has runs to skip even at `--scale tiny`;
/// the two paths are measured in interleaved repetitions (so slow drift in
/// machine load cannot bias one side) and the fastest repetition per path
/// is reported.
fn query_rates(scale: Scale, scale_name: &str) {
    const REPS: usize = 7;
    const N_QUERIES: usize = 50;
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for ds in [ep(SEED, scale).unwrap(), eh(SEED, scale).unwrap()] {
        let ticks = (ds.scale.ticks * 16).max(20_000);
        // The baseline: no zone-map pruning, sequential scan. The candidate:
        // pruned runs, auto parallelism.
        let mut sequential = build_engine_with(&ds, true, 10.0, 1, false);
        ingest_engine_batched(&mut sequential, &ds, ticks, 512);
        let mut pruned = build_engine_with(&ds, true, 10.0, 0, true);
        ingest_engine_batched(&mut pruned, &ds, ticks, 512);
        // This experiment measures the *scan* paths: with rollup serving
        // left on, both engines would answer the whole-bucket interior of
        // every window from materialized cells and the gated speedups would
        // track cell lookups instead (the `rollup` experiment covers those).
        sequential.set_rollup_serve(false);
        pruned.set_rollup_serve(false);
        let segments = pruned.segment_count();
        let mut entry = format!(
            "    {{\"dataset\": \"{}\", \"ticks\": {ticks}, \"segments\": {segments}, \"queries_per_class\": {N_QUERIES}",
            ds.name
        );
        // Narrow time-ranged S-AGG (pruning does the work) plus full-span
        // L-AGG (the scan-pool parallelism does the work). Only the
        // time-ranged classes land in the JSON the CI gate compares:
        // full-span latency is dominated by the shared collect phase and
        // scheduler noise at tiny scale, which would make the gate flaky
        // (run the `query_latency` criterion bench for the L-AGG trend).
        let classes: [(&str, bool, Vec<String>); 3] = [
            (
                "SUM_S",
                true,
                time_ranged_queries(&ds, ticks, "SUM_S", N_QUERIES),
            ),
            (
                "AVG_S",
                true,
                time_ranged_queries(&ds, ticks, "AVG_S", N_QUERIES),
            ),
            (
                "L-AGG",
                false,
                vec!["SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid".to_string(); N_QUERIES / 10],
            ),
        ];
        for (class, gated, queries) in &classes {
            let _ = run_queries(&sequential, queries); // warm-up
            let _ = run_queries(&pruned, queries);
            let mut seq_elapsed = Duration::MAX;
            let mut pruned_elapsed = Duration::MAX;
            for _ in 0..REPS {
                seq_elapsed = seq_elapsed.min(run_queries(&sequential, queries));
                pruned_elapsed = pruned_elapsed.min(run_queries(&pruned, queries));
            }
            let speedup = seq_elapsed.as_secs_f64() / pruned_elapsed.as_secs_f64().max(1e-9);
            rows.push(vec![
                ds.name.clone(),
                (*class).into(),
                fmt_ms(seq_elapsed),
                fmt_ms(pruned_elapsed),
                format!("{speedup:.2}x"),
            ]);
            if *gated {
                let key = class.to_ascii_lowercase().replace('-', "_");
                entry.push_str(&format!(
                    ", \"{key}_sequential_ms\": {:.3}, \"{key}_pruned_parallel_ms\": {:.3}, \"{key}_speedup\": {speedup:.3}",
                    seq_elapsed.as_secs_f64() * 1e3,
                    pruned_elapsed.as_secs_f64() * 1e3,
                ));
            }
        }
        entry.push('}');
        entries.push(entry);
    }
    print_figure(
        "Query latency: sequential scan vs pruned-parallel (time-ranged S-AGG)",
        &[
            "Data set",
            "Aggregate",
            "Sequential",
            "Pruned-parallel",
            "Speedup",
        ],
        &rows,
    );
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"datasets\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write("BENCH_query.json", &json) {
        Ok(()) => println!("\nwrote BENCH_query.json"),
        Err(e) => eprintln!("\nfailed to write BENCH_query.json: {e}"),
    }
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

/// `serve`: the networked front-end vs the in-process engine, written to
/// `BENCH_serve.json`. For each data set, a twin of the in-process engine
/// is put behind `mdb_server`, ingested over the wire, and checked for
/// **bit-identical** results on every panel query — single-client and under
/// the full concurrent load. Reported per data set:
///
/// * `serve_efficiency_speedup` — in-process panel time over single-client
///   remote panel time (a ratio of two same-machine runs, so it transfers
///   between machines; the CI gate compares it),
/// * `queries_per_sec`, `p50_ms`, `p99_ms` — throughput and latency with
///   `connections` concurrent client threads (32 at tiny, 128 at small,
///   256 at medium; ungated by default — they are hardware numbers),
/// * `concurrency_scaling` — concurrent throughput over single-client
///   throughput (reported, not gated: it tracks the core count).
fn serve_rates(scale: Scale, scale_name: &str) {
    const REPS: usize = 5;
    const ROUNDS: usize = 2; // panel replays per concurrent client
    let connections: usize = match scale_name {
        "tiny" => 32,
        "medium" => 256,
        _ => 128,
    };
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for ds in [ep(SEED, scale).unwrap(), eh(SEED, scale).unwrap()] {
        let ticks = ds.scale.ticks;
        let queries = serve_queries(&ds, ticks);

        // In-process reference: engine, results, and best panel time. Both
        // twins scan (rollup serving off) so the efficiency ratio keeps
        // measuring the front-end against real query work, not cell reads.
        let mut local = build_engine(&ds, true, 10.0);
        local.set_rollup_serve(false);
        ingest_engine_batched(&mut local, &ds, ticks, 512);
        let expected: Vec<QueryResult> = queries
            .iter()
            .map(|q| local.sql(q).expect("local"))
            .collect();
        let _ = run_queries(&local, &queries); // warm-up
        let mut local_elapsed = Duration::MAX;
        for _ in 0..REPS {
            local_elapsed = local_elapsed.min(run_queries(&local, &queries));
        }

        // The served twin, ingested over the wire by one writer.
        let mut remote_engine = build_engine(&ds, true, 10.0);
        remote_engine.set_rollup_serve(false);
        let server = Server::start(
            SharedDatastore::new(remote_engine),
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

        // Single client: verify bit-identity, then time the panel.
        for (q, want) in queries.iter().zip(&expected) {
            assert_eq!(&writer.sql(q).expect("remote"), want, "{q}");
        }
        let mut remote_elapsed = Duration::MAX;
        for _ in 0..REPS {
            let (_, elapsed) = timed(|| {
                for q in &queries {
                    let _ = writer.sql(q).expect("remote");
                }
            });
            remote_elapsed = remote_elapsed.min(elapsed);
        }
        writer.close().expect("writer close");
        let efficiency = local_elapsed.as_secs_f64() / remote_elapsed.as_secs_f64().max(1e-9);
        let single_qps = queries.len() as f64 / remote_elapsed.as_secs_f64().max(1e-9);

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
        let scaling = qps / single_qps.max(1e-9);

        rows.push(vec![
            ds.name.clone(),
            format!("{connections}"),
            fmt_ms(local_elapsed),
            fmt_ms(remote_elapsed),
            format!("{efficiency:.2}x"),
            format!("{qps:.0} q/s"),
            fmt_ms(p50),
            fmt_ms(p99),
            format!("{scaling:.2}x"),
        ]);
        entries.push(format!(
            "    {{\"dataset\": \"{}\", \"ticks\": {ticks}, \"connections\": {connections}, \
             \"panel_queries\": {}, \"local_panel_ms\": {:.3}, \"remote_panel_ms\": {:.3}, \
             \"serve_efficiency_speedup\": {efficiency:.3}, \"queries_per_sec\": {qps:.1}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"concurrency_scaling\": {scaling:.3}}}",
            ds.name,
            queries.len(),
            local_elapsed.as_secs_f64() * 1e3,
            remote_elapsed.as_secs_f64() * 1e3,
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
        ));
    }
    print_figure(
        "Networked front-end: in-process vs remote, and the concurrent soak",
        &[
            "Data set",
            "Conns",
            "Local panel",
            "Remote panel",
            "Efficiency",
            "Throughput",
            "p50",
            "p99",
            "Scaling",
        ],
        &rows,
    );
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"datasets\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("\nwrote BENCH_serve.json"),
        Err(e) => eprintln!("\nfailed to write BENCH_serve.json: {e}"),
    }
}

/// `gate`: compares a current `BENCH_*.json` against a committed baseline.
/// By default only *ratio* metrics (`*_speedup`) are gated — they compare a
/// path against an in-run baseline on the same machine, so they transfer
/// between the machine that committed the baseline and the machine running
/// the gate. `--absolute` additionally gates raw rates (`*_per_sec`) and
/// latencies (`*_ms`), which is only meaningful when baseline and current
/// come from the same hardware. A metric may not be worse than `tolerance`
/// times its baseline. Regressions print a report and exit 1; malformed
/// invocations exit 2 through the usage path.
fn gate(args: &[String]) -> Result<(), String> {
    let mut baseline = None;
    let mut current = None;
    let mut tolerance = 2.0f64;
    let mut absolute = false;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |name: &str| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match args[i].as_str() {
            "--baseline" => baseline = Some(flag_value("--baseline")?),
            "--current" => current = Some(flag_value("--current")?),
            "--tolerance" => {
                tolerance = flag_value("--tolerance")?
                    .parse::<f64>()
                    .map_err(|_| "invalid --tolerance (expected a number)".to_string())?;
                if !tolerance.is_finite() || tolerance < 1.0 {
                    return Err("--tolerance must be at least 1.0".to_string());
                }
            }
            "--absolute" => {
                absolute = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown gate option {other:?}")),
        }
        i += 2;
    }
    let baseline = baseline.ok_or_else(|| "gate requires --baseline <file>".to_string())?;
    let current = current.ok_or_else(|| "gate requires --current <file>".to_string())?;
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let base_text = read(&baseline)?;
    let current_text = read(&current)?;

    let base_scale = bench_scale(&base_text);
    let current_scale = bench_scale(&current_text);
    if base_scale != current_scale {
        return Err(format!(
            "scale mismatch: baseline is {:?}, current is {:?} — regenerate the baseline at the \
             scale the gate runs",
            base_scale.as_deref().unwrap_or("unknown"),
            current_scale.as_deref().unwrap_or("unknown"),
        ));
    }

    let (checked, failures, notices) = gate_report(&base_text, &current_text, tolerance, absolute);
    // A metric the current run has but the baseline lacks passes the gate
    // by construction — and would keep passing forever. Say so loudly (on
    // stderr, before any verdict) so the baseline gets regenerated instead
    // of the coverage gap going unnoticed.
    for notice in &notices {
        eprintln!("perf gate notice: {notice}");
    }
    // Failures first: if every baseline metric vanished from the current
    // file, `checked` is zero too, and reporting "no gateable metrics"
    // instead would hide the coverage loss behind a config-looking error.
    if !failures.is_empty() {
        eprintln!("perf gate FAILED against {baseline}:");
        for failure in &failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
    if checked == 0 {
        return Err(format!("no gateable metrics found in {baseline}"));
    }
    println!(
        "perf gate OK: {checked} metrics within {tolerance}x of {baseline} (scale {})",
        base_scale.as_deref().unwrap_or("?")
    );
    Ok(())
}

/// The pure comparison core of `gate`: every metric of the baseline is
/// looked up in the current run — a baseline metric that is *missing* from
/// the current file is a failure (the benchmark silently lost coverage),
/// not a skip — and the gateable ones (`*_speedup`; with `absolute` also
/// `*_per_sec` and `*_ms`) are compared under `tolerance`. The reverse
/// direction is reported too: a *new* metric the baseline has never seen
/// is ungated by construction, so it becomes a notice (not a failure) the
/// caller must surface. Returns the number of compared metrics, the
/// failure report, and the new-metric notices.
fn gate_report(
    base_text: &str,
    current_text: &str,
    tolerance: f64,
    absolute: bool,
) -> (usize, Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (dataset, key, base_value) in &bench_metrics(base_text) {
        let Some(current_value) = bench_metric(current_text, dataset, key) else {
            failures.push(format!(
                "{dataset}/{key}: missing from current run — the gate would silently lose this metric"
            ));
            continue;
        };
        let (worse, kind) = if key.ends_with("_speedup") {
            (current_value < base_value / tolerance, "speedup fell")
        } else if absolute && key.ends_with("_per_sec") {
            (current_value < base_value / tolerance, "rate fell")
        } else if absolute && key.ends_with("_ms") {
            (current_value > base_value * tolerance, "latency rose")
        } else {
            continue; // counts, sizes, and (without --absolute) raw numbers
        };
        checked += 1;
        if worse {
            failures.push(format!(
                "{dataset}/{key}: {kind} beyond {tolerance}x (baseline {base_value:.3}, current {current_value:.3})"
            ));
        }
    }
    let notices = bench_metrics(current_text)
        .iter()
        .filter(|(dataset, key, _)| bench_metric(base_text, dataset, key).is_none())
        .map(|(dataset, key, _)| {
            format!(
                "NEW metric {dataset}/{key}: absent from the baseline — it passes ungated \
                 until the baseline is regenerated"
            )
        })
        .collect();
    (checked, failures, notices)
}

/// The top-level `"scale"` field of a `BENCH_*.json`, if present.
fn bench_scale(text: &str) -> Option<String> {
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        if key.trim().trim_matches(['{', '"']) == "scale" {
            return Some(value.trim().trim_matches([',', ' ', '"']).to_string());
        }
    }
    None
}

/// All `(dataset, key, value)` numeric metrics of a `BENCH_*.json` — the
/// files put one dataset object per line, so a full JSON parser is not
/// needed (and none is vendored).
fn bench_metrics(text: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"dataset\"")) {
        let mut dataset = None;
        let mut numbers = Vec::new();
        for part in line.split(',') {
            let Some((key, value)) = part.split_once(':') else {
                continue;
            };
            let key = key.trim().trim_matches(['{', ' ', '"']).to_string();
            let value = value.trim().trim_matches(['}', ' ']);
            if key == "dataset" {
                dataset = Some(value.trim_matches('"').to_string());
            } else if let Ok(number) = value.parse::<f64>() {
                numbers.push((key, number));
            }
        }
        if let Some(dataset) = dataset {
            out.extend(numbers.into_iter().map(|(k, v)| (dataset.clone(), k, v)));
        }
    }
    out
}

/// Looks one metric up in a `BENCH_*.json` text.
fn bench_metric(text: &str, dataset: &str, key: &str) -> Option<f64> {
    bench_metrics(text)
        .into_iter()
        .find(|(d, k, _)| d == dataset && k == key)
        .map(|(_, _, v)| v)
}

/// `ingest`: the tick-at-a-time vs batched ingestion rates on both data
/// sets, printed as a table and written to `BENCH_ingest.json`. Each path
/// is run several times and the fastest run is reported, so OS scheduling
/// noise does not masquerade as a path difference.
fn ingest_rates(scale: Scale, scale_name: &str) {
    const BATCH_SIZE: u64 = 512;
    const REPS: usize = 3;
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for ds in [ep(SEED, scale).unwrap(), eh(SEED, scale).unwrap()] {
        let ticks = ds.scale.ticks;
        let points = ds.count_data_points(ticks);
        let best =
            |run: &dyn Fn() -> Duration| (0..REPS).map(|_| run()).min().expect("at least one rep");
        let row_elapsed = best(&|| {
            let mut db = build_engine(&ds, true, 10.0);
            ingest_engine(&mut db, &ds, ticks)
        });
        let batch_elapsed = best(&|| {
            let mut db = build_engine(&ds, true, 10.0);
            ingest_engine_batched(&mut db, &ds, ticks, BATCH_SIZE)
        });
        let rows_per_sec = |d: Duration| ticks as f64 / d.as_secs_f64().max(1e-9);
        let speedup = row_elapsed.as_secs_f64() / batch_elapsed.as_secs_f64().max(1e-9);
        rows.push(vec![
            ds.name.clone(),
            "row-at-a-time".into(),
            format!("{:.0} rows/s", rows_per_sec(row_elapsed)),
            fmt_rate(points, row_elapsed),
        ]);
        rows.push(vec![
            ds.name.clone(),
            format!("batched ({BATCH_SIZE})"),
            format!("{:.0} rows/s", rows_per_sec(batch_elapsed)),
            fmt_rate(points, batch_elapsed),
        ]);
        entries.push(format!(
            concat!(
                "    {{\"dataset\": \"{}\", \"ticks\": {}, \"data_points\": {}, ",
                "\"row_rows_per_sec\": {:.1}, \"batch_rows_per_sec\": {:.1}, ",
                "\"row_points_per_sec\": {:.1}, \"batch_points_per_sec\": {:.1}, ",
                "\"batch_speedup\": {:.3}}}"
            ),
            ds.name,
            ticks,
            points,
            rows_per_sec(row_elapsed),
            rows_per_sec(batch_elapsed),
            points as f64 / row_elapsed.as_secs_f64().max(1e-9),
            points as f64 / batch_elapsed.as_secs_f64().max(1e-9),
            speedup,
        ));
    }
    print_figure(
        "Ingestion rate: tick-at-a-time vs batched (embedded engine)",
        &["Data set", "Path", "Rows", "Points"],
        &rows,
    );
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"batch_size\": {BATCH_SIZE},\n  \"datasets\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write("BENCH_ingest.json", &json) {
        Ok(()) => println!("\nwrote BENCH_ingest.json"),
        Err(e) => eprintln!("\nfailed to write BENCH_ingest.json: {e}"),
    }
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

#[cfg(test)]
mod tests {
    use super::gate_report;

    const BASE: &str = r#"{
  "scale": "small",
  "datasets": [
    {"dataset": "EP", "segments": 100, "reopen_speedup": 4.0, "sidecar_reopen_ms": 2.0},
    {"dataset": "EH", "segments": 200, "reopen_speedup": 3.0, "sidecar_reopen_ms": 5.0}
  ]
}
"#;

    #[test]
    fn unchanged_metrics_pass() {
        let (checked, failures, notices) = gate_report(BASE, BASE, 2.0, false);
        assert_eq!(checked, 2, "both speedups compared");
        assert_eq!(failures, Vec::<String>::new());
        assert_eq!(notices, Vec::<String>::new());
        // With --absolute the latencies are gated too.
        let (checked, failures, _) = gate_report(BASE, BASE, 2.0, true);
        assert_eq!(checked, 4);
        assert_eq!(failures, Vec::<String>::new());
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let current = BASE.replace("\"reopen_speedup\": 4.0", "\"reopen_speedup\": 1.5");
        let (checked, failures, _) = gate_report(BASE, &current, 2.0, false);
        assert_eq!(checked, 2);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("EP/reopen_speedup"), "{failures:?}");
        // 1.5 is within 2x of 3.0, so EH passes; and 2.5 would pass for EP.
        let current = BASE.replace("\"reopen_speedup\": 4.0", "\"reopen_speedup\": 2.5");
        let (_, failures, _) = gate_report(BASE, &current, 2.0, false);
        assert_eq!(failures, Vec::<String>::new());
    }

    #[test]
    fn baseline_metric_missing_from_current_fails_loudly() {
        // A renamed or dropped metric must fail the gate, not shrink its
        // coverage: lose one metric from one dataset...
        let current = BASE.replace(", \"reopen_speedup\": 4.0", "");
        let (checked, failures, _) = gate_report(BASE, &current, 2.0, false);
        assert_eq!(checked, 1, "the surviving EH speedup is still compared");
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("EP/reopen_speedup") && failures[0].contains("missing"),
            "{failures:?}"
        );
        // ...and the pathological case: current shares nothing with the
        // baseline, so checked == 0 AND every metric is a failure. The
        // failures must win over any "no gateable metrics" report.
        let (checked, failures, _) = gate_report(BASE, "{}", 2.0, false);
        assert_eq!(checked, 0);
        assert_eq!(failures.len(), 6, "every baseline metric reported missing");
    }

    #[test]
    fn new_metric_absent_from_baseline_is_reported_not_failed() {
        // A metric added by the current run passes by construction (nothing
        // gates it) — that must produce a loud notice, never silence.
        let current = BASE.replace(
            "\"reopen_speedup\": 4.0",
            "\"reopen_speedup\": 4.0, \"rollup_speedup\": 9.0",
        );
        let (checked, failures, notices) = gate_report(BASE, &current, 2.0, false);
        assert_eq!(checked, 2, "the known speedups are still compared");
        assert_eq!(
            failures,
            Vec::<String>::new(),
            "a new metric is not a failure"
        );
        assert_eq!(notices.len(), 1);
        assert!(
            notices[0].contains("NEW metric EP/rollup_speedup")
                && notices[0].contains("absent from the baseline"),
            "{notices:?}"
        );
    }
}
