//! The deployment knobs shared by every way of running ModelarDB+.
//!
//! The embedded engine's `Config` and the cluster runtime's `ClusterConfig`
//! historically each carried their own copy of the same tuning knobs
//! (compression settings, bulk write size, block-cache budget, prefetch
//! depth, storage location, queue depths), and the two
//! drifted. [`CommonOptions`] is the single source of truth both configs
//! now embed; they `Deref` to it, so the old field paths
//! (`config.compression`, `config.prefetch_depth`, …) keep working
//! unchanged for one release.

use std::path::PathBuf;

use mdb_compression::CompressionConfig;
use mdb_types::TimeLevel;

/// Tuning knobs common to the embedded engine, the cluster runtime, and the
/// network server. Defaults mirror Table 1 of the paper where the paper
/// specifies a value.
#[derive(Debug, Clone)]
pub struct CommonOptions {
    /// Compression settings (error bound, model length limit 50, dynamic
    /// split fraction 10, …).
    pub compression: CompressionConfig,
    /// Segments buffered before a block is appended to the store's log
    /// (Table 1's Bulk Write Size: 50,000), on disk or in memory alike.
    pub bulk_write_size: usize,
    /// Byte budget for the store's block cache — the bound on decoded
    /// segment bodies kept resident. Blocks are parked when they are
    /// written as well as when they are fetched: `None` (the default) keeps
    /// every block the store writes or fetches; `Some(0)` caches nothing and
    /// re-reads blocks from the log on demand. On-disk damage to a block
    /// this process wrote is detected at its next read from the log (after
    /// eviction or a reopen). A cluster splits the budget evenly over its
    /// workers. The same rule holds whether the log is on disk or in memory.
    pub memory_budget_bytes: Option<u64>,
    /// How many blocks that survive block pruning the store's prefetcher
    /// reads ahead of the scan (`0` disables prefetching), on disk or in
    /// memory alike.
    pub prefetch_depth: usize,
    /// Where segments are persisted: `None` keeps the store's log in
    /// memory, `Some` persists it under this directory (the engine's block log + catalog, or
    /// one `worker-<i>` subdirectory per cluster worker plus the
    /// `cluster.meta` manifest).
    pub storage_dir: Option<PathBuf>,
    /// Maximum batches buffered per bounded ingest queue (a cluster
    /// worker's command channel, or a server session's request queue).
    /// Senders block once a consumer falls this far behind — real
    /// backpressure instead of an unbounded queue.
    pub ingest_queue_depth: usize,
    /// Time levels at which continuous aggregates (rollup cells) are
    /// incrementally materialized as segments finalize. Empty disables
    /// rollups; the order is part of the configuration identity (a store
    /// sidecar is only adopted when its levels match exactly).
    pub rollup_levels: Vec<TimeLevel>,
}

impl Default for CommonOptions {
    fn default() -> Self {
        Self {
            compression: CompressionConfig::default(),
            bulk_write_size: 50_000,
            memory_budget_bytes: None,
            prefetch_depth: 2,
            storage_dir: None,
            ingest_queue_depth: 8,
            rollup_levels: vec![TimeLevel::Hour, TimeLevel::Day, TimeLevel::Month],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_table1() {
        let o = CommonOptions::default();
        assert_eq!(o.bulk_write_size, 50_000);
        assert_eq!(o.compression.length_limit, 50);
        assert_eq!(o.memory_budget_bytes, None);
        assert_eq!(o.prefetch_depth, 2);
        assert!(o.storage_dir.is_none());
        assert_eq!(o.ingest_queue_depth, 8);
        assert_eq!(
            o.rollup_levels,
            vec![TimeLevel::Hour, TimeLevel::Day, TimeLevel::Month]
        );
    }
}
