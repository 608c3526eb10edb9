//! # ModelarDB+ (reproduction)
//!
//! A model-based time series management system for *correlated dimensional
//! time series*, reproducing "Scalable Model-Based Management of Correlated
//! Dimensional Time Series in ModelarDB" (Jensen, Pedersen, Thomsen).
//!
//! The system compresses groups of correlated time series with **Multi-Model
//! Group Compression (MMGC)**: an extensible set of models (constant
//! PMC-Mean, linear Swing, lossless Gorilla, plus user-defined ones) is
//! fitted online to dynamically sized sub-sequences of each group within a
//! user-defined error bound (possibly 0 %), and multi-dimensional aggregate
//! queries execute directly on the stored models.
//!
//! ## Quick start
//!
//! ```
//! use modelardb::{DimensionSchema, ModelarDbBuilder, SeriesSpec};
//!
//! // Two co-located wind turbines sampling every 100 ms.
//! let mut builder = ModelarDbBuilder::new();
//! builder.config_mut().compression.error_bound = modelardb::ErrorBound::relative(5.0);
//! builder
//!     .add_dimension(DimensionSchema::from_leaf_up(
//!         "Location",
//!         vec!["Turbine".into(), "Park".into()],
//!     ).unwrap())
//!     .add_series(SeriesSpec::new("t9632", 100).with_members("Location", &["Aalborg", "9632"]))
//!     .add_series(SeriesSpec::new("t9634", 100).with_members("Location", &["Aalborg", "9634"]))
//!     .correlate("Location 1"); // same park ⇒ correlated
//! let mut db = builder.build().unwrap();
//!
//! for tick in 0..600i64 {
//!     let v = (tick as f32 * 0.01).sin() * 10.0 + 180.0;
//!     db.ingest_row(tick * 100, &[Some(v), Some(v + 0.05)]).unwrap();
//! }
//! db.flush().unwrap();
//!
//! let result = db.sql("SELECT Tid, AVG_S(*) FROM Segment GROUP BY Tid ORDER BY Tid").unwrap();
//! assert_eq!(result.rows.len(), 2);
//! ```

pub mod builder;
pub mod configfile;
pub mod engine;

pub use builder::{ModelarDbBuilder, SeriesSpec};
pub use configfile::ConfigFile;
pub use engine::{ModelarDb, StorageSpec};

// Re-export the public surface of the component crates.
pub use mdb_cluster::{Cluster, ClusterConfig, ClusterHealth, WorkerHealth, WorkerState};
pub use mdb_compression::{CompressionConfig, CompressionStats, GroupIngestor, SegmentGenerator};
pub use mdb_models::{
    Fitter, ModelRegistry, ModelType, SegmentAgg, MID_GORILLA, MID_PMC_MEAN, MID_SWING,
};
pub use mdb_partitioner::{
    assign_replicas, assign_workers, group_load, lowest_distance, partition, CorrelationClause,
    CorrelationPrimitive, CorrelationSpec, Partitioning, ScalingHint,
};
pub use mdb_query::{
    parse, rollup_feed, sketch_feed, value_bounds_fn, Cell, CommonOptions, Datastore,
    DatastoreHealth, Query, QueryEngine, QueryResult, SketchFunc,
};
pub use mdb_server::{Client, Server, ServerOptions, SharedDatastore};
pub use mdb_storage::{
    checksum_v2, scan_to_vec, CacheStats, Catalog, Digest, DigestBuf, DigestStats, DiskStore,
    DiskStoreOptions, RollupAcc, RollupCells, RollupDelta, RollupFeed, SegmentDigester,
    SegmentPredicate, SegmentStore,
};
pub use mdb_types::{
    BatchView, BlockFormat, BlockMeta, BlockSketch, DataPoint, DimensionSchema, Dimensions,
    ErrorBound, GapsMask, Gid, GroupMeta, MdbError, Result, RowBatch, SegmentRecord, SegmentView,
    Tid, TimeLevel, TimeSeriesMeta, Timestamp, Value, ValueInterval,
};

/// The full system configuration; defaults mirror Table 1 of the paper.
///
/// The knobs every deployment shares (compression, bulk write size, cache
/// budget, prefetch depth, queue depths) live in the
/// embedded [`CommonOptions`]; `Config` adds the engine-only knobs. The
/// struct derefs to [`CommonOptions`], so the historical field paths
/// (`config.compression`, `config.bulk_write_size`, …) keep working.
#[derive(Debug, Clone)]
pub struct Config {
    /// The knobs shared with [`ClusterConfig`] — compression, bulk write
    /// size, block-cache budget, prefetch depth, queue depths — reachable
    /// directly on `Config` through `Deref`.
    ///
    /// The embedded engine ignores `common.storage_dir`; its persistence
    /// location is [`Config::storage`] (see [`Config::from_common`], which
    /// maps one onto the other).
    pub common: CommonOptions,
    /// Where segments are persisted.
    pub storage: StorageSpec,
    /// Whether scans consult the store's per-block statistics to skip,
    /// before fetching them, blocks outside a query's groups, time range or
    /// value predicate. Disabling yields the plain fetch-every-block scan
    /// (the query-equivalence reference path).
    pub zone_pruning: bool,
    /// On-disk layout for newly written blocks: the zero-copy columnar v2
    /// layout by default; v1 for writing logs older builds can read.
    /// Existing blocks are read in whichever format they were written.
    pub block_format: BlockFormat,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            common: CommonOptions::default(),
            storage: StorageSpec::Memory,
            zone_pruning: true,
            block_format: BlockFormat::V2,
        }
    }
}

impl std::ops::Deref for Config {
    type Target = CommonOptions;

    fn deref(&self) -> &CommonOptions {
        &self.common
    }
}

impl std::ops::DerefMut for Config {
    fn deref_mut(&mut self) -> &mut CommonOptions {
        &mut self.common
    }
}

impl Config {
    /// Builds an engine config from shared options: `storage_dir` becomes
    /// the engine's [`StorageSpec`] (`None` = in-memory), everything else
    /// carries over; the engine-only knobs take their defaults.
    pub fn from_common(common: CommonOptions) -> Self {
        let storage = match &common.storage_dir {
            Some(dir) => StorageSpec::Disk(dir.clone()),
            None => StorageSpec::Memory,
        };
        Self {
            common,
            storage,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_follow_table1() {
        let c = Config::default();
        assert_eq!(c.bulk_write_size, 50_000);
        assert_eq!(c.compression.length_limit, 50);
        assert_eq!(c.compression.split_fraction, 10.0);
        assert!(matches!(c.storage, StorageSpec::Memory));
    }
}
