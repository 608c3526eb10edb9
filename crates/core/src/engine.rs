//! The embedded single-process engine: ingestion → MMGC → segment store →
//! SQL, the "ModelarDB+ Core as a portable library" deployment of
//! Section 3.1 (the cluster deployment lives in `mdb-cluster`).

use std::path::PathBuf;
use std::sync::Arc;

use mdb_compression::CompressionStats;
use mdb_models::ModelRegistry;
use mdb_query::{PointAssembler, QueryResult, Shard};
use mdb_storage::{Catalog, SegmentPredicate};
use mdb_types::{Gid, MdbError, Result, RowBatch, SegmentRecord, Tid, Timestamp, Value};

use crate::Config;

/// Where segments live.
#[derive(Debug, Clone)]
pub enum StorageSpec {
    /// Volatile: the same block-log store with its log and sidecar in RAM
    /// (tests, benchmarks); nothing survives the process.
    Memory,
    /// Persistent block log + catalog under this directory.
    Disk(PathBuf),
}

/// An embedded ModelarDB+ instance: a [`Shard`] over every group, plus the
/// slicing of full-width batches into per-group column views and the
/// assembly of loose points into rows.
pub struct ModelarDb {
    config: Config,
    shard: Shard,
    /// Per group in catalog (gid) order: its gid and the row indexes of its
    /// member series.
    row_indices: Vec<(Gid, Vec<usize>)>,
    /// Out-of-band point ingestion: loose points assembled into group rows.
    points: PointAssembler,
    /// Single-row batch backing [`ModelarDb::ingest_row`] (a batch of one on
    /// the [`ModelarDb::ingest_batch`] path), reused across calls.
    scratch_row: RowBatch,
}

impl ModelarDb {
    /// Assembles an engine from a finished catalog (the builder's job).
    pub fn from_catalog(
        catalog: Arc<Catalog>,
        registry: Arc<ModelRegistry>,
        config: Config,
    ) -> Result<Self> {
        let dir = match &config.storage {
            StorageSpec::Memory => None,
            StorageSpec::Disk(dir) => {
                catalog.save(dir)?;
                Some(dir.as_path())
            }
        };
        let gids: Vec<Gid> = catalog.groups.iter().map(|g| g.gid).collect();
        let points = PointAssembler::new(Arc::clone(&catalog));
        let shard = Shard::open(
            Arc::clone(&catalog),
            registry,
            &config.common,
            dir,
            config.block_format,
            config.zone_pruning,
            &gids,
        )?;
        let tid_to_row: std::collections::HashMap<Tid, usize> = catalog
            .series
            .iter()
            .enumerate()
            .map(|(i, m)| (m.tid, i))
            .collect();
        let row_indices = catalog
            .groups
            .iter()
            .map(|g| (g.gid, g.tids.iter().map(|t| tid_to_row[t]).collect()))
            .collect();
        let scratch_row = RowBatch::with_capacity(catalog.series.len(), 1);
        Ok(Self {
            config,
            shard,
            row_indices,
            points,
            scratch_row,
        })
    }

    /// Reopens a disk-backed instance: catalog and segments are recovered
    /// from the directory.
    pub fn reopen(
        dir: &std::path::Path,
        registry: Arc<ModelRegistry>,
        config: Config,
    ) -> Result<Self> {
        let mut catalog = Catalog::load(dir)?;
        catalog.dimensions.rebuild_indexes();
        let config = Config {
            storage: StorageSpec::Disk(dir.to_path_buf()),
            ..config
        };
        Self::from_catalog(Arc::new(catalog), registry, config)
    }

    /// The metadata catalog.
    pub fn catalog(&self) -> &Catalog {
        self.shard.catalog()
    }

    /// The model registry.
    pub fn registry(&self) -> &ModelRegistry {
        self.shard.registry()
    }

    /// Ingests one full tick: `row[i]` belongs to `catalog.series[i]`
    /// (tid order), `None` meaning the series is in a gap.
    ///
    /// This is a batch of one on the [`ModelarDb::ingest_batch`] path; bulk
    /// ingestion should build a [`RowBatch`] and call that directly.
    pub fn ingest_row(&mut self, timestamp: Timestamp, row: &[Option<Value>]) -> Result<()> {
        if row.len() != self.catalog().series.len() {
            return Err(MdbError::Ingestion(format!(
                "row has {} values for {} series",
                row.len(),
                self.catalog().series.len()
            )));
        }
        let mut batch = std::mem::take(&mut self.scratch_row);
        batch.clear();
        batch.push_row(timestamp, row);
        let result = self.ingest_batch(&batch);
        self.scratch_row = batch;
        result
    }

    /// Ingests a columnar batch of ticks: column `i` of `batch` belongs to
    /// `catalog.series[i]` (tid order), with the validity bitmap marking
    /// gaps. Each group receives a borrowed column view of the batch — the
    /// per-group slicing allocates nothing per tick.
    pub fn ingest_batch(&mut self, batch: &RowBatch) -> Result<()> {
        if batch.n_series() != self.catalog().series.len() {
            return Err(MdbError::Ingestion(format!(
                "batch has {} columns for {} series",
                batch.n_series(),
                self.catalog().series.len()
            )));
        }
        for (gid, indices) in &self.row_indices {
            self.shard.ingest(*gid, batch.select(indices))?;
        }
        Ok(())
    }

    /// Ingests a single data point. Points are buffered per group until all
    /// members have reported a timestamp (or a newer timestamp arrives, at
    /// which point missing members are treated as gaps); see
    /// [`PointAssembler`].
    pub fn ingest_point(&mut self, tid: Tid, timestamp: Timestamp, value: Value) -> Result<()> {
        match self.points.push(tid, timestamp, value)? {
            Some((gid, rows)) => self.shard.ingest(gid, rows.view()),
            None => Ok(()),
        }
    }

    /// Drains all buffers: every group's pending point-rows, then the group
    /// ingestors and the store's write buffer ([`Shard::drain`]). A failing
    /// group does not keep the others' rows or segments out of the store;
    /// the first error is returned.
    pub fn flush(&mut self) -> Result<()> {
        let mut result = Ok(());
        for (gid, rows) in self.points.drain() {
            result = result.and(self.shard.ingest(gid, rows.view()));
        }
        result.and(self.shard.drain())
    }

    /// Executes a SQL query (Section 6's Segment View and Data Point View).
    /// An aggregate folds, in one inline scan on the calling thread, the
    /// blocks the store's block statistics do not prune; concurrent callers
    /// each run their own scan.
    pub fn sql(&self, text: &str) -> Result<QueryResult> {
        self.shard.engine(None).sql(text)
    }

    /// Enables or disables answering whole tiles of aggregates from the
    /// materialized rollup cells. Results are bit-identical either way
    /// (scanning keeps the tiled association); the toggle exists so the
    /// rollup-equivalence suite can check served answers against scans on
    /// the same engine.
    pub fn set_rollup_serve(&mut self, serve: bool) {
        self.shard.set_rollup_serve(serve);
    }

    /// Merged compression statistics across all groups.
    pub fn stats(&self) -> CompressionStats {
        let mut stats = CompressionStats::default();
        for ingestor in self.shard.ingestors() {
            stats.merge(ingestor.stats());
        }
        stats
    }

    /// Logical stored bytes (the Figures 14–15 metric).
    pub fn storage_bytes(&self) -> u64 {
        self.shard.store().logical_bytes()
    }

    /// Stored segment count.
    pub fn segment_count(&self) -> usize {
        self.shard.store().len()
    }

    /// All stored segments in the store's deterministic scan order (log
    /// order, buffered segments last) — the raw material for equivalence
    /// tests and offline analysis.
    pub fn segments(&self) -> Result<Vec<SegmentRecord>> {
        mdb_storage::scan_to_vec(self.shard.store(), &SegmentPredicate::all())
    }

    /// Segments currently resident in memory (see
    /// [`SegmentStore::resident_segments`](mdb_storage::SegmentStore::resident_segments)).
    pub fn resident_segments(&self) -> usize {
        self.shard.store().resident_segments()
    }

    /// Block-cache counters of the underlying store, on disk or in memory
    /// alike — bytes read, prefetches issued and hit, v2 payloads validated
    /// and v1 payloads re-laid out as v2 on the scan path.
    pub fn cache_stats(&self) -> mdb_storage::CacheStats {
        self.shard.store().cache_stats()
    }

    /// Counters of the store's insert-time statistics pass: segments
    /// digested, model reconstructions, points sketched.
    pub fn digest_stats(&self) -> mdb_storage::DigestStats {
        self.shard.store().digest_stats()
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }
}

impl mdb_query::Datastore for ModelarDb {
    fn backend(&self) -> &'static str {
        "engine"
    }

    fn ingest_batch(&mut self, batch: &RowBatch) -> Result<()> {
        ModelarDb::ingest_batch(self, batch)
    }

    fn ingest_points(&mut self, points: &[(Tid, Timestamp, Value)]) -> Result<()> {
        for &(tid, timestamp, value) in points {
            self.ingest_point(tid, timestamp, value)?;
        }
        Ok(())
    }

    fn sql(&self, query: &str) -> Result<QueryResult> {
        ModelarDb::sql(self, query)
    }

    fn flush(&mut self) -> Result<()> {
        ModelarDb::flush(self)
    }

    fn health(&self) -> Result<mdb_query::DatastoreHealth> {
        Ok(mdb_query::DatastoreHealth {
            backend: "engine".to_string(),
            degraded: false,
            lost_gids: Vec::new(),
            detail: format!(
                "{} groups, {} segments stored",
                self.catalog().groups.len(),
                self.segment_count()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ModelarDbBuilder, SeriesSpec};
    use mdb_types::{DimensionSchema, ErrorBound};

    fn db(error_pct: f64) -> ModelarDb {
        let mut b = ModelarDbBuilder::new();
        b.config_mut().compression.error_bound = ErrorBound::relative(error_pct);
        b.add_dimension(
            DimensionSchema::from_leaf_up("Location", vec!["Turbine".into(), "Park".into()])
                .unwrap(),
        )
        .add_series(SeriesSpec::new("t1", 100).with_members("Location", &["Aalborg", "9632"]))
        .add_series(SeriesSpec::new("t2", 100).with_members("Location", &["Aalborg", "9634"]))
        .correlate("Location 1");
        b.build().unwrap()
    }

    #[test]
    fn ingest_and_query_round_trip() {
        let mut db = db(5.0);
        for t in 0..500i64 {
            let v = (t as f32 * 0.02).sin() * 10.0 + 100.0;
            db.ingest_row(t * 100, &[Some(v), Some(v * 1.001)]).unwrap();
        }
        db.flush().unwrap();
        let r = db.sql("SELECT COUNT_S(*) FROM Segment").unwrap();
        assert_eq!(r.rows[0][0].as_i64(), Some(1000));
        let r = db
            .sql("SELECT Park, AVG_S(*) FROM Segment GROUP BY Park")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let avg = r.rows[0][1].as_f64().unwrap();
        assert!((90.0..110.0).contains(&avg), "{avg}");
        assert!(db.storage_bytes() > 0);
        assert!(db.segment_count() > 0);
        assert_eq!(db.stats().rows, 500);
    }

    #[test]
    fn point_ingestion_assembles_rows_and_handles_stragglers() {
        let mut db = db(5.0);
        // Interleaved arrival order within each tick.
        for t in 0..10i64 {
            db.ingest_point(2, t * 100, 2.0).unwrap();
            db.ingest_point(1, t * 100, 1.0).unwrap();
        }
        // Tick 10: only series 1 reports (series 2 begins a gap), then both
        // report tick 11 — the incomplete older row flushes as a gap row.
        db.ingest_point(1, 1_000, 1.0).unwrap();
        db.ingest_point(1, 1_100, 1.0).unwrap();
        db.ingest_point(2, 1_100, 2.0).unwrap();
        db.flush().unwrap();
        let r = db
            .sql("SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
            .unwrap();
        assert_eq!(r.rows[0][1].as_i64(), Some(12)); // tid 1: ticks 0..=11
        assert_eq!(r.rows[1][1].as_i64(), Some(11)); // tid 2: missing tick 10
    }

    #[test]
    fn a_stale_point_does_not_lose_another_groups_pending_point() {
        // Two groups of two series: one per park.
        let mut b = ModelarDbBuilder::new();
        b.add_dimension(
            DimensionSchema::from_leaf_up("Location", vec!["Turbine".into(), "Park".into()])
                .unwrap(),
        );
        for (name, park, turbine) in [
            ("t1", "Aalborg", "1"),
            ("t2", "Aalborg", "2"),
            ("t3", "Aarhus", "3"),
            ("t4", "Aarhus", "4"),
        ] {
            b.add_series(SeriesSpec::new(name, 100).with_members("Location", &[park, turbine]));
        }
        b.correlate("Location 1");
        let mut db = b.build().unwrap();
        assert_eq!(db.catalog().groups.len(), 2);
        for t in 0..10i64 {
            db.ingest_row(t * 100, &[Some(1.0), Some(2.0), Some(3.0), Some(4.0)])
                .unwrap();
        }
        // Group 1 waits on a stale point, group 2 on a fresh one; neither
        // row is complete, so both are still pending.
        db.ingest_point(1, 0, 1.0).unwrap();
        db.ingest_point(3, 1_000, 3.0).unwrap();
        assert!(db.flush().is_err(), "the stale row must be reported");
        db.flush().unwrap();
        let r = db
            .sql("SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
            .unwrap();
        let counts: Vec<Option<i64>> = r.rows.iter().map(|row| row[1].as_i64()).collect();
        assert_eq!(counts, [Some(10), Some(10), Some(11), Some(10)]);
    }

    #[test]
    fn batch_ingestion_matches_row_at_a_time() {
        let mut by_row = db(5.0);
        let mut by_batch = db(5.0);
        let mut batch = RowBatch::with_capacity(2, 128);
        for chunk in 0..4i64 {
            batch.clear();
            for t in chunk * 125..(chunk + 1) * 125 {
                let v = (t as f32 * 0.02).sin() * 10.0 + 100.0;
                let row = [
                    (t % 37 != 0).then_some(v),
                    (t % 53 != 0).then_some(v * 1.001),
                ];
                by_row.ingest_row(t * 100, &row).unwrap();
                batch.push_row(t * 100, &row);
            }
            by_batch.ingest_batch(&batch).unwrap();
        }
        by_row.flush().unwrap();
        by_batch.flush().unwrap();
        assert_eq!(by_row.segments().unwrap(), by_batch.segments().unwrap());
        for q in [
            "SELECT COUNT_S(*) FROM Segment",
            "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
        ] {
            assert_eq!(
                by_row.sql(q).unwrap().rows,
                by_batch.sql(q).unwrap().rows,
                "{q}"
            );
        }
    }

    #[test]
    fn batch_width_is_validated() {
        let mut db = db(1.0);
        let batch = RowBatch::new(3);
        assert!(db.ingest_batch(&batch).is_err());
    }

    #[test]
    fn disk_storage_survives_reopen() {
        let case = mdb_testutil::TempDir::new("core-reopen");
        let dir = case.path().to_path_buf();
        let registry = Arc::new(ModelRegistry::standard());
        {
            let mut b = ModelarDbBuilder::new();
            b.config_mut().storage = StorageSpec::Disk(dir.clone());
            b.config_mut().compression.error_bound = ErrorBound::relative(1.0);
            b.add_series(SeriesSpec::new("a", 100))
                .add_series(SeriesSpec::new("b", 100));
            let mut db = b.build().unwrap();
            for t in 0..200i64 {
                db.ingest_row(t * 100, &[Some(1.0), Some(t as f32)])
                    .unwrap();
            }
            db.flush().unwrap();
        }
        let db = ModelarDb::reopen(&dir, registry, Config::default()).unwrap();
        let r = db
            .sql("SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][1].as_i64(), Some(200));
        assert_eq!(r.rows[1][1].as_i64(), Some(200));
    }

    #[test]
    fn unknown_tid_rejected_for_point_ingestion() {
        let mut db = db(1.0);
        assert!(db.ingest_point(99, 0, 1.0).is_err());
        assert!(db.ingest_row(0, &[Some(1.0)]).is_err());
    }

    #[test]
    fn error_bound_reduces_storage() {
        let sizes: Vec<u64> = [0.0, 10.0]
            .iter()
            .map(|pct| {
                let mut db = db(*pct);
                for t in 0..2_000i64 {
                    let v = (t as f32 * 0.01).sin() * 50.0 + 100.0;
                    db.ingest_row(t * 100, &[Some(v), Some(v * 1.002)]).unwrap();
                }
                db.flush().unwrap();
                db.storage_bytes()
            })
            .collect();
        assert!(
            sizes[1] < sizes[0],
            "10% bound {} must beat lossless {}",
            sizes[1],
            sizes[0]
        );
    }
}
