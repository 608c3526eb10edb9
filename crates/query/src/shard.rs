//! One node's ingest-store-query core — the "ModelarDB+ Core" of
//! Section 3.1, which runs embedded and inside every cluster worker.
//!
//! A [`Shard`] owns a segment store (fed by the value-range, sketch and
//! rollup providers) and one [`GroupIngestor`] per group it hosts in
//! ascending gid order. The embedded engine holds a shard over every group;
//! a cluster worker holds one over its hosted groups behind its command
//! channel. Both deployments therefore build stores and ingestors by the
//! same rules, drain with the same error policy, and query through the same
//! [`QueryEngine`] chain.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use mdb_compression::{CompressionConfig, GroupIngestor};
use mdb_models::ModelRegistry;
use mdb_storage::{Catalog, DiskStore, DiskStoreOptions, RollupFeed, SegmentStore};
use mdb_types::{BatchView, BlockFormat, Gid, MdbError, Result, SegmentRecord, TimeLevel};

use crate::digest::ModelDigester;
use crate::{CommonOptions, QueryEngine};

/// A store and the ingestors of the groups it hosts.
pub struct Shard {
    catalog: Arc<Catalog>,
    registry: Arc<ModelRegistry>,
    compression: CompressionConfig,
    store: Box<dyn SegmentStore>,
    /// Keyed by gid, so drains walk groups in ascending gid order —
    /// deterministic, and identical on every holder of a group.
    ingestors: BTreeMap<Gid, GroupIngestor>,
    rollup_levels: Vec<TimeLevel>,
    /// Whether whole tiles are answered from rollup cells (the default);
    /// off only as a reference for equivalence checks.
    rollup_serve: bool,
}

impl Shard {
    /// Opens the store — a [`DiskStore`] under `dir`, or the same store over
    /// RAM when `dir` is `None`, built from the same options either way and
    /// maintaining value bounds, sketches and the rollup cells of
    /// `options.rollup_levels` as segments finalize — and creates an
    /// ingestor for each of `gids`. `block_format` and `zone_pruning` are
    /// the store's write layout and block-pruning switch.
    /// `options.storage_dir` is not read: the engine and a cluster worker
    /// each choose `dir` themselves.
    pub fn open(
        catalog: Arc<Catalog>,
        registry: Arc<ModelRegistry>,
        options: &CommonOptions,
        dir: Option<&Path>,
        block_format: BlockFormat,
        zone_pruning: bool,
        gids: &[Gid],
    ) -> Result<Self> {
        // One digester derives all three statistics in one pass over one
        // reconstruction of each finalized segment.
        let digester = ModelDigester::shared(&catalog, &registry);
        let rollup_feed = (!options.rollup_levels.is_empty()).then(|| RollupFeed {
            levels: options.rollup_levels.clone(),
            digester: Arc::clone(&digester),
        });
        let store_options = DiskStoreOptions {
            bulk_write_size: options.bulk_write_size,
            memory_budget_bytes: options.memory_budget_bytes,
            value_bounds: Some(Arc::clone(&digester)),
            sketch_feed: Some(digester),
            rollup_feed,
            prefetch_depth: options.prefetch_depth,
            write_format: block_format,
        };
        let mut store = match dir {
            Some(dir) => DiskStore::open_with(dir, store_options)?,
            None => DiskStore::in_memory(store_options)?,
        };
        store.set_pruning(zone_pruning);
        let mut shard = Self {
            catalog,
            registry,
            compression: options.compression.clone(),
            store: Box::new(store),
            ingestors: BTreeMap::new(),
            rollup_levels: options.rollup_levels.clone(),
            rollup_serve: true,
        };
        for &gid in gids {
            shard.adopt(gid)?;
        }
        Ok(shard)
    }

    /// The metadata catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The segment store.
    pub fn store(&self) -> &dyn SegmentStore {
        self.store.as_ref()
    }

    /// The segment store, for handoff exports and imports.
    pub fn store_mut(&mut self) -> &mut dyn SegmentStore {
        self.store.as_mut()
    }

    /// The ingestor of `gid`, if this shard hosts the group.
    pub fn ingestor(&self, gid: Gid) -> Option<&GroupIngestor> {
        self.ingestors.get(&gid)
    }

    /// Every hosted group's ingestor, in ascending gid order.
    pub fn ingestors(&self) -> impl Iterator<Item = &GroupIngestor> {
        self.ingestors.values()
    }

    /// Compresses one batch of group `gid`'s columns and inserts every
    /// finalized segment into the store. A group this shard does not host
    /// yet is adopted first.
    pub fn ingest(&mut self, gid: Gid, batch: BatchView<'_>) -> Result<()> {
        let segments = self.ingestor_mut(gid)?.push_batch(batch)?;
        insert_all(self.store.as_mut(), segments)
    }

    /// Flushes every ingestor into the store in ascending gid order, then
    /// flushes the store. A failing group does not stop the drain: every
    /// other group's segments still reach the store and the store is still
    /// flushed; the first error is returned.
    pub fn drain(&mut self) -> Result<()> {
        let mut result = Ok(());
        for ingestor in self.ingestors.values_mut() {
            let drained = ingestor
                .flush()
                .and_then(|segments| insert_all(self.store.as_mut(), segments));
            result = result.and(drained);
        }
        result.and(self.store.flush())
    }

    /// Adds an ingestor for `gid` unless the shard already hosts the group
    /// (the receiving half of a handoff).
    pub fn adopt(&mut self, gid: Gid) -> Result<()> {
        self.ingestor_mut(gid).map(|_| ())
    }

    /// Removes `gid`'s ingestor after flushing its buffered segments into
    /// the store (the sending half of a handoff; the store itself is not
    /// flushed). `None` if the shard does not host the group.
    pub fn release(&mut self, gid: Gid) -> Result<Option<GroupIngestor>> {
        let Some(mut ingestor) = self.ingestors.remove(&gid) else {
            return Ok(None);
        };
        insert_all(self.store.as_mut(), ingestor.flush()?)?;
        Ok(Some(ingestor))
    }

    /// A query engine over the store with the shard's rollup configuration,
    /// restricted to `scope` when given.
    pub fn engine<'a>(&'a self, scope: Option<&'a [Gid]>) -> QueryEngine<'a> {
        let mut engine = QueryEngine::new(&self.catalog, &self.registry, self.store.as_ref())
            .with_rollups(&self.rollup_levels, self.rollup_serve);
        if let Some(scope) = scope {
            engine = engine.with_gid_scope(scope);
        }
        engine
    }

    /// Enables or disables answering the whole tiles of aggregates from
    /// rollup cells; results are bit-identical either way.
    pub fn set_rollup_serve(&mut self, serve: bool) {
        self.rollup_serve = serve;
    }

    fn ingestor_mut(&mut self, gid: Gid) -> Result<&mut GroupIngestor> {
        match self.ingestors.entry(gid) {
            Entry::Occupied(entry) => Ok(entry.into_mut()),
            Entry::Vacant(entry) => {
                let group = self
                    .catalog
                    .group(gid)
                    .ok_or_else(|| MdbError::NotFound(format!("group {gid}")))?;
                let scaling = group
                    .tids
                    .iter()
                    .map(|t| self.catalog.scaling_of(*t))
                    .collect();
                let ingestor = GroupIngestor::new(
                    group.clone(),
                    scaling,
                    Arc::clone(&self.registry),
                    self.compression.clone(),
                )?;
                Ok(entry.insert(ingestor))
            }
        }
    }
}

/// Inserts every segment, returning the first failure.
fn insert_all(store: &mut dyn SegmentStore, segments: Vec<SegmentRecord>) -> Result<()> {
    let mut result = Ok(());
    for segment in segments {
        result = result.and(store.insert(segment));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    use mdb_storage::{SegmentPredicate, SegmentRun};
    use mdb_types::{GroupMeta, RowBatch, TimeSeriesMeta};

    /// Three single-series groups, gids 1..=3.
    fn catalog() -> Arc<Catalog> {
        let mut catalog = Catalog::new();
        for gid in 1..=3 {
            catalog.series.push(TimeSeriesMeta {
                gid,
                ..TimeSeriesMeta::new(gid, 100)
            });
            catalog.groups.push(GroupMeta {
                gid,
                tids: vec![gid],
                sampling_interval: 100,
            });
        }
        let registry = ModelRegistry::standard();
        catalog.model_names = registry.names().iter().map(|s| s.to_string()).collect();
        Arc::new(catalog)
    }

    fn shard() -> Shard {
        Shard::open(
            catalog(),
            Arc::new(ModelRegistry::standard()),
            &CommonOptions::default(),
            None,
            BlockFormat::V2,
            true,
            &[1, 2, 3],
        )
        .unwrap()
    }

    #[derive(Default)]
    struct Log {
        inserted: Vec<Gid>,
        flushes: usize,
    }

    /// Records every insert and flush; inserts of `failing` gid fail.
    struct FailingStore {
        failing: Gid,
        log: Arc<Mutex<Log>>,
    }

    impl SegmentStore for FailingStore {
        fn insert(&mut self, segment: SegmentRecord) -> Result<()> {
            if segment.gid == self.failing {
                return Err(MdbError::Ingestion(format!(
                    "group {} rejected",
                    segment.gid
                )));
            }
            self.log.lock().unwrap().inserted.push(segment.gid);
            Ok(())
        }

        fn flush(&mut self) -> Result<()> {
            self.log.lock().unwrap().flushes += 1;
            Ok(())
        }

        fn scan_runs(&self, _: &SegmentPredicate, _: &mut dyn FnMut(SegmentRun<'_>)) -> Result<()> {
            Ok(())
        }

        fn len(&self) -> usize {
            self.log.lock().unwrap().inserted.len()
        }

        fn logical_bytes(&self) -> u64 {
            0
        }

        fn persistent_bytes(&self) -> u64 {
            0
        }
    }

    #[test]
    fn drain_keeps_the_first_error_and_drains_every_other_group() {
        let mut shard = shard();
        let log = Arc::new(Mutex::new(Log::default()));
        shard.store = Box::new(FailingStore {
            failing: 2,
            log: Arc::clone(&log),
        });
        // A few constant ticks per group stay buffered in the ingestors.
        let mut batch = RowBatch::with_capacity(1, 10);
        for t in 0..10 {
            batch.push_row(t * 100, &[Some(1.0)]);
        }
        for gid in 1..=3 {
            shard.ingest(gid, batch.view()).unwrap();
        }
        assert!(log.lock().unwrap().inserted.is_empty());
        let error = shard.drain().unwrap_err();
        assert!(format!("{error}").contains("group 2 rejected"), "{error}");
        // Group 3 drains after the failing group 2, and the store is still
        // flushed.
        let log = log.lock().unwrap();
        assert!(log.inserted.contains(&1) && log.inserted.contains(&3));
        assert_eq!(log.flushes, 1);
    }

    #[test]
    fn unknown_groups_are_errors_not_panics() {
        let mut shard = shard();
        let batch = RowBatch::with_capacity(1, 1);
        assert!(matches!(
            shard.ingest(9, batch.view()),
            Err(MdbError::NotFound(_))
        ));
        assert!(shard.adopt(9).is_err());
        assert!(shard.ingestor(9).is_none());
    }
}
