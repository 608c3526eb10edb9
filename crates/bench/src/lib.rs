//! Shared harness for regenerating the paper's evaluation (Section 7).
//!
//! Everything here is deliberately deterministic: data sets come from
//! `mdb-datagen` with fixed seeds, ModelarDB+ instances are built from the
//! same correlation hints the paper reports using, and the baselines ingest
//! the identical data points with their denormalized dimensions.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdb_baselines::TimeSeriesStore;
use mdb_cluster::Cluster;
use mdb_datagen::Dataset;
use mdb_partitioner::{partition, CorrelationSpec};
use mdb_types::{time as mdbtime, Gid, GroupMeta, Result, Tid, TimeLevel};
use modelardb::{
    Catalog, Config, ErrorBound, ModelRegistry, ModelarDb, QueryResult, RowBatch, StorageSpec,
};

/// Builds the metadata catalog for a data set under a correlation spec
/// (Algorithm 1), ready for the engine or the cluster runtime.
pub fn catalog_from_dataset(ds: &Dataset, spec: &CorrelationSpec) -> Result<Arc<Catalog>> {
    let parts = partition(&ds.series, &ds.dimensions, spec, &ds.sources)?;
    let mut catalog = Catalog::new();
    catalog.dimensions = ds.dimensions.clone();
    for (i, group_tids) in parts.groups.iter().enumerate() {
        let gid = (i + 1) as Gid;
        for (j, tid) in group_tids.iter().enumerate() {
            let mut meta = ds.series.iter().find(|m| m.tid == *tid).unwrap().clone();
            meta.gid = gid;
            meta.scaling = parts.scaling[i][j];
            catalog.series.push(meta);
        }
        catalog.groups.push(GroupMeta {
            gid,
            tids: group_tids.clone(),
            sampling_interval: ds.profile.si_ms,
        });
    }
    catalog.series.sort_by_key(|m| m.tid);
    let registry = ModelRegistry::standard();
    catalog.model_names = registry.names().iter().map(|s| s.to_string()).collect();
    Ok(Arc::new(catalog))
}

/// Builds an embedded engine for a data set. `correlated = false` disables
/// grouping — the ModelarDBv1 baseline (MMC only); `true` uses the data
/// set's evaluation correlation hints (MMGC).
pub fn build_engine(ds: &Dataset, correlated: bool, error_pct: f64) -> ModelarDb {
    build_engine_with(ds, correlated, error_pct, true)
}

/// Like [`build_engine`], but with block `pruning` exposed: `false` is the
/// plain fetch-every-block scan the `query_latency` bench baselines
/// against.
pub fn build_engine_with(
    ds: &Dataset,
    correlated: bool,
    error_pct: f64,
    pruning: bool,
) -> ModelarDb {
    let spec = if correlated {
        ds.correlation_spec()
    } else {
        CorrelationSpec::none()
    };
    let catalog = catalog_from_dataset(ds, &spec).expect("catalog");
    let mut config = Config::default();
    config.compression.error_bound = ErrorBound::relative(error_pct);
    config.storage = StorageSpec::Memory;
    config.zone_pruning = pruning;
    ModelarDb::from_catalog(catalog, Arc::new(ModelRegistry::standard()), config).expect("engine")
}

/// Builds an embedded engine persisting to an out-of-core
/// [`modelardb::DiskStore`] under `dir` (correlated grouping, the data
/// set's evaluation hints): `bulk_write_size` segments per log block and
/// `memory_budget_bytes` for the block cache; every other option keeps its
/// default.
pub fn build_disk_engine(
    ds: &Dataset,
    dir: &std::path::Path,
    error_pct: f64,
    bulk_write_size: usize,
    memory_budget_bytes: Option<u64>,
) -> ModelarDb {
    let catalog = catalog_from_dataset(ds, &ds.correlation_spec()).expect("catalog");
    let mut config = Config::default();
    config.compression.error_bound = ErrorBound::relative(error_pct);
    config.storage = StorageSpec::Disk(dir.to_path_buf());
    config.bulk_write_size = bulk_write_size;
    config.memory_budget_bytes = memory_budget_bytes;
    ModelarDb::from_catalog(catalog, Arc::new(ModelRegistry::standard()), config).expect("engine")
}

/// Deterministic time-ranged S-AGG queries: `func` over a sliding window of
/// about 1/32 of the ingested span, grouped by Tid — the narrow query class
/// that block pruning serves (blocks outside the window should be pruned,
/// not fetched).
pub fn time_ranged_queries(ds: &Dataset, ticks: u64, func: &str, n: usize) -> Vec<String> {
    let window = (ticks / 32).max(1);
    let span = ticks.saturating_sub(window).max(1);
    (0..n as u64)
        .map(|i| {
            let start = (i * 13 * window / 8) % span;
            let from = ds.timestamp(start);
            let to = ds.timestamp(start + window);
            format!(
                "SELECT Tid, {func}(*) FROM Segment WHERE TS >= {from} AND TS <= {to} GROUP BY Tid"
            )
        })
        .collect()
}

/// Ingests `ticks` ticks of `ds` into an engine one tick at a time,
/// returning the wall time.
pub fn ingest_engine(db: &mut ModelarDb, ds: &Dataset, ticks: u64) -> Duration {
    let start = Instant::now();
    for tick in 0..ticks {
        db.ingest_row(ds.timestamp(tick), &ds.row(tick))
            .expect("ingest");
    }
    db.flush().expect("flush");
    start.elapsed()
}

/// Ingests `ticks` ticks of `ds` into an engine through the columnar batch
/// path in batches of `batch_size` rows, returning the wall time. One batch
/// is filled in place and reused, so the loop itself allocates nothing.
pub fn ingest_engine_batched(
    db: &mut ModelarDb,
    ds: &Dataset,
    ticks: u64,
    batch_size: u64,
) -> Duration {
    let batch_size = batch_size.max(1);
    let mut batch = RowBatch::with_capacity(ds.n_series(), batch_size as usize);
    let start = Instant::now();
    let mut tick = 0;
    while tick < ticks {
        let len = batch_size.min(ticks - tick);
        ds.fill_batch(tick, len, &mut batch);
        db.ingest_batch(&batch).expect("ingest");
        tick += len;
    }
    db.flush().expect("flush");
    start.elapsed()
}

/// Ingests `ticks` ticks of `ds` into a cluster one tick at a time,
/// returning the wall time.
pub fn ingest_cluster(cluster: &Cluster, ds: &Dataset, ticks: u64) -> Duration {
    let start = Instant::now();
    for tick in 0..ticks {
        cluster
            .ingest_row(ds.timestamp(tick), &ds.row(tick))
            .expect("ingest");
    }
    cluster.flush().expect("flush");
    start.elapsed()
}

/// Ingests `ticks` ticks of `ds` into a cluster through the batched routing
/// path in batches of `batch_size` rows, returning the wall time.
pub fn ingest_cluster_batched(
    cluster: &Cluster,
    ds: &Dataset,
    ticks: u64,
    batch_size: u64,
) -> Duration {
    let batch_size = batch_size.max(1);
    let mut batch = RowBatch::with_capacity(ds.n_series(), batch_size as usize);
    let start = Instant::now();
    let mut tick = 0;
    while tick < ticks {
        let len = batch_size.min(ticks - tick);
        ds.fill_batch(tick, len, &mut batch);
        cluster.ingest_batch(&batch).expect("ingest");
        tick += len;
    }
    cluster.flush().expect("flush");
    start.elapsed()
}

/// The denormalized dimension strings of a tid (what the paper appends to
/// every data point for the existing formats).
pub fn dim_strings(ds: &Dataset, tid: Tid) -> Vec<String> {
    let mut out = Vec::new();
    for (d, schema) in ds.dimensions.schemas().iter().enumerate() {
        for level in 1..=schema.height() {
            if let Some(m) = ds.dimensions.member(tid, d, level) {
                out.push(ds.dimensions.member_name(m).to_string());
            }
        }
    }
    out
}

/// Ingests `ticks` ticks into a baseline store, returning the wall time.
pub fn ingest_baseline(store: &mut dyn TimeSeriesStore, ds: &Dataset, ticks: u64) -> Duration {
    // Pre-compute the denormalized dimensions once (the paper uses an
    // in-memory cache for exactly this).
    let dims: HashMap<Tid, Vec<String>> = ds
        .tids()
        .into_iter()
        .map(|t| (t, dim_strings(ds, t)))
        .collect();
    let start = Instant::now();
    for tick in 0..ticks {
        let ts = ds.timestamp(tick);
        for (i, value) in ds.row(tick).into_iter().enumerate() {
            let Some(value) = value else { continue };
            let tid = i as Tid + 1;
            let refs: Vec<&str> = dims[&tid].iter().map(String::as_str).collect();
            store
                .ingest(tid, ts, value, &refs)
                .expect("baseline ingest");
        }
    }
    store.flush().expect("baseline flush");
    start.elapsed()
}

/// All four baseline stores, freshly constructed.
pub fn baseline_stores() -> Vec<Box<dyn TimeSeriesStore>> {
    vec![
        Box::new(mdb_baselines::InfluxLike::new()),
        Box::new(mdb_baselines::CassandraLike::new()),
        Box::new(mdb_baselines::ParquetLike::new()),
        Box::new(mdb_baselines::OrcLike::new()),
    ]
}

/// Times a closure.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Runs a list of SQL queries against an engine, returning total wall time.
pub fn run_queries(db: &ModelarDb, queries: &[String]) -> Duration {
    let start = Instant::now();
    for q in queries {
        let _ = db.sql(q).expect("query");
    }
    start.elapsed()
}

/// A baseline's equivalent of the M-AGG workload: filter the tids carrying
/// the production member, scan their points, and bucket client-side by
/// month and by the grouping member — the work a Spark job does for these
/// formats.
pub fn baseline_m_agg(
    store: &dyn TimeSeriesStore,
    ds: &Dataset,
    group_level: (usize, usize),
    from: i64,
    to: i64,
) -> usize {
    let mut buckets: HashMap<(String, i64), (f64, u64)> = HashMap::new();
    for tid in ds.tids() {
        let member = ds
            .dimensions
            .member(tid, group_level.0, group_level.1)
            .map(|m| ds.dimensions.member_name(m).to_string())
            .unwrap_or_default();
        store
            .scan_points(tid, from, to, &mut |ts, v| {
                let month = mdbtime::part(TimeLevel::Month, ts);
                let e = buckets.entry((member.clone(), month)).or_insert((0.0, 0));
                e.0 += f64::from(v);
                e.1 += 1;
            })
            .expect("scan");
    }
    buckets.len()
}

/// Pretty-prints one figure's data as aligned rows.
pub fn print_figure(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> = header
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:<w$}", h, w = widths[i]))
        .collect();
    println!("{}", line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats bytes with a stable unit.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{:.2} KiB", bytes as f64 / 1024.0)
    }
}

/// Formats a duration in milliseconds.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

/// Formats a throughput in data points per second.
pub fn fmt_rate(points: u64, d: Duration) -> String {
    format!("{:.2} Mdp/s", points as f64 / d.as_secs_f64() / 1e6)
}

/// Extracts the single numeric value of a one-row/one-column result.
pub fn scalar(result: &QueryResult) -> f64 {
    result.rows[0][0].as_f64().unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdb_datagen::Scale;

    #[test]
    fn engines_for_both_modes_build_and_ingest() {
        let ds = mdb_datagen::ep(3, Scale::tiny()).unwrap();
        let mut v2 = build_engine(&ds, true, 5.0);
        let mut v1 = build_engine(&ds, false, 5.0);
        assert!(v1.catalog().groups.len() > v2.catalog().groups.len());
        ingest_engine(&mut v2, &ds, 200);
        ingest_engine(&mut v1, &ds, 200);
        // MMGC beats MMC on the correlated data set.
        assert!(
            v2.storage_bytes() < v1.storage_bytes(),
            "{} vs {}",
            v2.storage_bytes(),
            v1.storage_bytes()
        );
        // And both views answer the same COUNT.
        let c2 = scalar(&v2.sql("SELECT COUNT_S(*) FROM Segment").unwrap());
        let c1 = scalar(&v1.sql("SELECT COUNT_S(*) FROM Segment").unwrap());
        assert_eq!(c1, c2);
    }

    #[test]
    fn batched_and_row_ingestion_agree() {
        let ds = mdb_datagen::ep(3, Scale::tiny()).unwrap();
        let mut by_row = build_engine(&ds, true, 5.0);
        ingest_engine(&mut by_row, &ds, 200);
        let mut by_batch = build_engine(&ds, true, 5.0);
        ingest_engine_batched(&mut by_batch, &ds, 200, 64);
        assert_eq!(by_row.segments().unwrap(), by_batch.segments().unwrap());
        let a = scalar(&by_row.sql("SELECT SUM_S(*) FROM Segment").unwrap());
        let b = scalar(&by_batch.sql("SELECT SUM_S(*) FROM Segment").unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn baselines_ingest_the_same_points() {
        let ds = mdb_datagen::ep(3, Scale::tiny()).unwrap();
        let expected = ds.count_data_points(100);
        for mut store in baseline_stores() {
            ingest_baseline(store.as_mut(), &ds, 100);
            let acc = store.aggregate(None, i64::MIN, i64::MAX).unwrap();
            assert_eq!(acc.count, expected, "{}", store.name());
        }
    }

    #[test]
    fn m_agg_buckets_are_plausible() {
        let ds = mdb_datagen::ep(3, Scale::tiny()).unwrap();
        let mut store = mdb_baselines::InfluxLike::new();
        ingest_baseline(&mut store, &ds, 200);
        let level = ds.dimensions.resolve_level("Type").unwrap();
        let buckets = baseline_m_agg(&store, &ds, level, i64::MIN, i64::MAX);
        // 2 types × 1 month.
        assert_eq!(buckets, 2);
    }

    #[test]
    fn formatting_helpers() {
        assert!(fmt_bytes(2048).contains("KiB"));
        assert!(fmt_bytes(4 << 20).contains("MiB"));
        assert!(fmt_ms(Duration::from_millis(5)).starts_with("5.0"));
        assert!(fmt_rate(2_000_000, Duration::from_secs(1)).starts_with("2.00"));
    }
}
