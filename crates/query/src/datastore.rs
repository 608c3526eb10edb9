//! The unified front-door of every ModelarDB+ deployment.
//!
//! The embedded engine (`ModelarDb`) and the cluster runtime (`Cluster`)
//! expose the same four capabilities — ingest, SQL, flush, health — with
//! historically slightly different signatures, so every caller that wanted
//! to drive "either one" (the network server, `repro`, the integration
//! tests) duplicated match arms. [`Datastore`] is the common trait both
//! implement; code routes through `&mut dyn Datastore` and works against
//! either deployment, with bit-identical query results.

use std::collections::BTreeMap;
use std::sync::Arc;

use mdb_storage::Catalog;
use mdb_types::{Gid, MdbError, Result, RowBatch, Tid, Timestamp, Value};

use crate::QueryResult;

/// A uniform health summary; the cluster fills it from its worker probes,
/// the embedded engine is healthy whenever it can answer at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatastoreHealth {
    /// Which deployment answered: `"engine"` or `"cluster"`.
    pub backend: String,
    /// True when data is being served below the configured redundancy (a
    /// dead cluster worker) or not at all ([`DatastoreHealth::lost_gids`]).
    /// Always false for the embedded engine.
    pub degraded: bool,
    /// Groups with no surviving holder; queries silently omit them.
    pub lost_gids: Vec<Gid>,
    /// Human-readable detail (worker states, segment counts, …).
    pub detail: String,
}

/// Ingestion and SQL over *some* ModelarDB+ deployment.
///
/// Mutating operations take `&mut self` — the embedded engine genuinely
/// needs exclusive access, and the cluster (internally synchronized, all
/// `&self`) satisfies the stricter signature for free. Queries take
/// `&self`, so a shared wrapper (the server's `RwLock`) can serve many
/// readers concurrently.
pub trait Datastore: Send + Sync {
    /// A short static name for the deployment (`"engine"`, `"cluster"`).
    fn backend(&self) -> &'static str;

    /// Ingests a full-width batch: column `i` belongs to the catalog's
    /// `series[i]`. Rows every member of a group missed are skipped as
    /// gaps, so writers owning disjoint groups can interleave batches
    /// freely — the per-group segment streams stay deterministic.
    fn ingest_batch(&mut self, batch: &RowBatch) -> Result<()>;

    /// Ingests loose `(tid, timestamp, value)` points, assembling rows
    /// internally; the out-of-band path for sources that do not produce
    /// aligned batches. Every deployment assembles with a
    /// [`PointAssembler`], so the same point stream, split over calls any
    /// way, stores the same rows.
    fn ingest_points(&mut self, points: &[(Tid, Timestamp, Value)]) -> Result<()>;

    /// Runs one SQL statement. Results are bit-identical across
    /// deployments and placement.
    fn sql(&self, query: &str) -> Result<QueryResult>;

    /// Drains every buffer so subsequent queries see all ingested data.
    fn flush(&mut self) -> Result<()>;

    /// Probes the deployment's health.
    fn health(&self) -> Result<DatastoreHealth>;
}

/// The one assembler behind [`Datastore::ingest_points`]: loose
/// `(tid, timestamp, value)` points become rows of their group. A group's
/// rows wait until one of them is complete — every member reported that
/// timestamp — and are then released together with every older waiting row
/// of the group, whose missing members become gaps.
/// [`PointAssembler::drain`] releases whatever still waits.
pub struct PointAssembler {
    catalog: Arc<Catalog>,
    /// Per group: the rows being assembled, by timestamp.
    pending: BTreeMap<Gid, BTreeMap<Timestamp, Vec<Option<Value>>>>,
}

impl PointAssembler {
    /// An empty assembler for the groups of `catalog`.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self {
            catalog,
            pending: BTreeMap::new(),
        }
    }

    /// Adds one point. When it completes its row, returns the group's
    /// released rows as one group-width batch.
    pub fn push(
        &mut self,
        tid: Tid,
        timestamp: Timestamp,
        value: Value,
    ) -> Result<Option<(Gid, RowBatch)>> {
        let gid = self
            .catalog
            .gid_of(tid)
            .ok_or_else(|| MdbError::NotFound(format!("time series {tid}")))?;
        let group = self
            .catalog
            .group(gid)
            .expect("a series' group is in the catalog");
        let pending = self.pending.entry(gid).or_default();
        let row = pending
            .entry(timestamp)
            .or_insert_with(|| vec![None; group.size()]);
        row[group.position(tid).expect("a series is in its group")] = Some(value);
        if !row.iter().all(Option::is_some) {
            return Ok(None);
        }
        let rest = match timestamp.checked_add(1) {
            Some(next) => pending.split_off(&next),
            None => BTreeMap::new(),
        };
        Ok(Some((gid, row_batch(std::mem::replace(pending, rest)))))
    }

    /// Releases every waiting row, one batch per group in gid order.
    pub fn drain(&mut self) -> Vec<(Gid, RowBatch)> {
        std::mem::take(&mut self.pending)
            .into_iter()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(gid, rows)| (gid, row_batch(rows)))
            .collect()
    }
}

fn row_batch(rows: BTreeMap<Timestamp, Vec<Option<Value>>>) -> RowBatch {
    let width = rows.values().next().map_or(0, Vec::len);
    let mut batch = RowBatch::with_capacity(width, rows.len());
    for (timestamp, row) in rows {
        batch.push_row(timestamp, &row);
    }
    batch
}
