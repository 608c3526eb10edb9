//! Cluster membership: the persisted placement manifest and the elastic
//! [`Cluster::add_worker`] / [`Cluster::remove_worker`] operations.
//!
//! Disk-backed clusters write `cluster.meta` (atomically, via temp file +
//! rename) beside the worker directories whenever the placement changes —
//! at start, on a death declaration, after a handoff, and on membership
//! changes. A restart adopts the manifest instead of recomputing the
//! assignment, so groups are served from whichever worker's log actually
//! has them after failovers and handoffs. Memory-backed clusters skip all
//! of this: their state dies with the process anyway.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use mdb_partitioner::group_load;
use mdb_storage::Catalog;
use mdb_types::{Gid, MdbError, Result};

use crate::{round_trip, Cluster, ClusterConfig, Command, Reply, Topology, WorkerState};

/// File name of the placement manifest inside
/// [`ClusterConfig::storage_dir`](mdb_query::CommonOptions::storage_dir).
const MANIFEST_FILE: &str = "cluster.meta";
const MANIFEST_HEADER: &str = "mdb-cluster-manifest v1";

/// A parsed placement manifest.
pub(crate) struct Manifest {
    /// gid → holder worker indices, primary first (empty = group lost).
    pub holders: HashMap<Gid, Vec<usize>>,
    /// Decommissioned slot indices (not respawned on restart).
    pub removed: Vec<usize>,
    /// Per slot: every gid whose segments may still sit in that slot's
    /// append-only log — current holds plus leftovers from handoffs and
    /// deaths. Restored into [`Topology::ever_held`] so a group is never
    /// handed back onto leftover segments, even across restarts.
    pub ever_held: HashMap<usize, Vec<Gid>>,
}

/// Loads and validates the manifest for a disk-backed cluster, if one was
/// written by a previous life of the directory. Returns `None` when the
/// cluster is memory-backed or the directory is fresh.
pub(crate) fn load_manifest(
    config: &ClusterConfig,
    catalog: &Catalog,
    n_workers: usize,
) -> Result<Option<Manifest>> {
    let Some(dir) = &config.storage_dir else {
        return Ok(None);
    };
    let path = dir.join(MANIFEST_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| MdbError::Config(format!("cannot read cluster manifest: {e}")))?;
    let manifest = parse_manifest(&text)?;
    // The manifest must describe this exact cluster: same slot count (slot
    // indices name on-disk worker directories), same replication intent,
    // same group universe.
    if manifest.slots != n_workers {
        return Err(MdbError::Config(format!(
            "cluster manifest describes {} worker slots but {n_workers} were requested; \
             restart the cluster with the slot count it grew to",
            manifest.slots
        )));
    }
    if manifest.replication != config.replication_factor {
        return Err(MdbError::Config(format!(
            "cluster manifest has replication factor {} but the config asks for {}",
            manifest.replication, config.replication_factor
        )));
    }
    if manifest
        .holders
        .values()
        .flatten()
        .chain(manifest.ever_held.keys())
        .any(|&i| i >= n_workers)
    {
        return Err(MdbError::Config(
            "cluster manifest names a worker slot beyond its own slot count".into(),
        ));
    }
    let mut manifest_gids: Vec<Gid> = manifest.holders.keys().copied().collect();
    manifest_gids.sort_unstable();
    let mut catalog_gids: Vec<Gid> = catalog.groups.iter().map(|g| g.gid).collect();
    catalog_gids.sort_unstable();
    if manifest_gids != catalog_gids {
        return Err(MdbError::Config(
            "cluster manifest's groups do not match the catalog".into(),
        ));
    }
    Ok(Some(Manifest {
        holders: manifest.holders,
        removed: manifest.removed,
        ever_held: manifest.ever_held,
    }))
}

struct ParsedManifest {
    slots: usize,
    replication: usize,
    holders: HashMap<Gid, Vec<usize>>,
    removed: Vec<usize>,
    ever_held: HashMap<usize, Vec<Gid>>,
}

fn parse_manifest(text: &str) -> Result<ParsedManifest> {
    let bad = |what: &str| MdbError::Config(format!("malformed cluster manifest: {what}"));
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(bad("unknown header"));
    }
    let mut slots = None;
    let mut replication = None;
    let mut removed = Vec::new();
    let mut holders = HashMap::new();
    let mut ever_held = HashMap::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("slots") => {
                slots = Some(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("slots"))?,
                );
            }
            Some("replication") => {
                replication = Some(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("replication"))?,
                );
            }
            Some("removed") => {
                let list = parts.next().ok_or_else(|| bad("removed"))?;
                if list != "-" {
                    for item in list.split(',') {
                        removed.push(item.parse().map_err(|_| bad("removed index"))?);
                    }
                }
            }
            Some("group") => {
                let gid: Gid = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("group gid"))?;
                let list = parts.next().ok_or_else(|| bad("group holders"))?;
                let mut indices = Vec::new();
                if list != "-" {
                    for item in list.split(',') {
                        indices.push(item.parse().map_err(|_| bad("holder index"))?);
                    }
                }
                holders.insert(gid, indices);
            }
            Some("held") => {
                let slot: usize = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("held slot"))?;
                let list = parts.next().ok_or_else(|| bad("held gids"))?;
                let mut gids = Vec::new();
                if list != "-" {
                    for item in list.split(',') {
                        gids.push(item.parse().map_err(|_| bad("held gid"))?);
                    }
                }
                ever_held.insert(slot, gids);
            }
            _ => return Err(bad("unknown line")),
        }
    }
    Ok(ParsedManifest {
        slots: slots.ok_or_else(|| bad("missing slots"))?,
        replication: replication.ok_or_else(|| bad("missing replication"))?,
        holders,
        removed,
        ever_held,
    })
}

fn render_manifest(topo: &Topology, replication: usize) -> String {
    let mut out = String::new();
    out.push_str(MANIFEST_HEADER);
    out.push('\n');
    out.push_str(&format!("slots {}\n", topo.workers.len()));
    out.push_str(&format!("replication {replication}\n"));
    let removed: Vec<String> = topo
        .workers
        .iter()
        .enumerate()
        .filter(|(_, w)| w.state == WorkerState::Removed)
        .map(|(i, _)| i.to_string())
        .collect();
    if removed.is_empty() {
        out.push_str("removed -\n");
    } else {
        out.push_str(&format!("removed {}\n", removed.join(",")));
    }
    let mut gids: Vec<Gid> = topo.holders.keys().copied().collect();
    gids.sort_unstable();
    for gid in gids {
        let holders = &topo.holders[&gid];
        if holders.is_empty() {
            out.push_str(&format!("group {gid} -\n"));
        } else {
            let list: Vec<String> = holders.iter().map(|h| h.to_string()).collect();
            out.push_str(&format!("group {gid} {}\n", list.join(",")));
        }
    }
    // Every gid a slot ever held: its log keeps their segments forever
    // (append-only), so the handoff guard must survive restarts with them.
    for (slot, held) in topo.ever_held.iter().enumerate() {
        if held.is_empty() {
            out.push_str(&format!("held {slot} -\n"));
        } else {
            let mut held: Vec<Gid> = held.iter().copied().collect();
            held.sort_unstable();
            let list: Vec<String> = held.iter().map(|g| g.to_string()).collect();
            out.push_str(&format!("held {slot} {}\n", list.join(",")));
        }
    }
    out
}

/// Writes `content` to `dir/cluster.meta` atomically (temp file + rename),
/// so a crash mid-write leaves either the old or the new manifest, never a
/// torn one.
fn write_manifest(dir: &Path, content: &str) -> std::io::Result<()> {
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(content.as_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(MANIFEST_FILE))
}

impl Cluster {
    /// Persists the placement for disk-backed clusters (best effort: the
    /// cluster keeps running on a write failure; the next placement change
    /// retries).
    pub(crate) fn persist_manifest(&self, topo: &Topology) {
        if let Some(dir) = &self.config.storage_dir {
            let content = render_manifest(topo, self.config.replication_factor);
            let _ = write_manifest(dir, &content);
        }
    }

    /// Total ingest load currently placed on worker `index` (each held
    /// copy charges the group's full load, matching
    /// [`mdb_partitioner::assign_replicas`]).
    fn worker_load(&self, topo: &Topology, index: usize) -> f64 {
        topo.holders
            .iter()
            .filter(|(_, holders)| holders.contains(&index))
            .map(|(&gid, _)| self.load_of(gid))
            .sum()
    }

    fn load_of(&self, gid: Gid) -> f64 {
        self.catalog
            .groups
            .iter()
            .find(|g| g.gid == gid)
            .map(group_load)
            .unwrap_or(0.0)
    }

    /// Grows the cluster by one worker slot and rebalances: groups move
    /// from the most-loaded workers to the new one (via the drain → ship →
    /// atomic-reroute handoff of the handoff module) until it carries
    /// roughly an even share — at least one group, as long as any exist.
    /// Returns the new worker's slot index.
    ///
    /// The new worker's block-cache share is
    /// [`ClusterConfig::memory_budget_bytes`](mdb_query::CommonOptions::memory_budget_bytes)
    /// divided by the *new* slot
    /// count; existing workers keep the share they were spawned with (their
    /// caches are not resized in place), so the cluster-wide cache budget
    /// can exceed the configured total until the next restart re-splits it
    /// evenly.
    pub fn add_worker(&self) -> Result<usize> {
        let mut topo = self.topo_write();
        let index = topo.workers.len();
        let budget_share = self
            .config
            .memory_budget_bytes
            .map(|total| total / (index as u64 + 1));
        let worker = crate::spawn_worker(
            index,
            Vec::new(),
            &self.catalog,
            &self.registry,
            &self.config,
            budget_share,
        )?;
        topo.workers.push(worker);
        topo.ever_held.push(std::collections::HashSet::new());
        // Rebalance: repeatedly take the heaviest movable group from the
        // most-loaded worker while doing so narrows the gap. The first move
        // is forced (with the donor's lightest group) so growing an
        // imbalanced-but-small cluster always shifts work to the new slot.
        let mut moved_any = false;
        loop {
            let my_load = self.worker_load(&topo, index);
            let Some((donor, donor_load)) = topo
                .active()
                .into_iter()
                .filter(|&i| i != index)
                .map(|i| (i, self.worker_load(&topo, i)))
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            else {
                break;
            };
            // Movable: held by the donor, never on the new slot (a fresh
            // slot has an empty ever-held set; the check keeps the
            // no-leftover-duplication invariant explicit).
            let mut movable: Vec<(Gid, f64)> = topo
                .holders
                .iter()
                .filter(|(&gid, holders)| {
                    holders.contains(&donor) && !topo.ever_held[index].contains(&gid)
                })
                .map(|(&gid, _)| (gid, self.load_of(gid)))
                .collect();
            if movable.is_empty() {
                break;
            }
            movable.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let improving = movable
                .iter()
                .find(|(_, load)| donor_load - my_load > *load)
                .copied();
            let (gid, _) = match improving {
                Some(pick) => pick,
                // No balance-improving move left: force the lightest group
                // over once so the new worker is never left idle.
                None if !moved_any => *movable.last().unwrap(),
                None => break,
            };
            self.move_copy(&mut topo, gid, donor, index)?;
            moved_any = true;
        }
        self.persist_manifest(&topo);
        Ok(index)
    }

    /// Decommissions worker `index`: every group copy it holds is handed
    /// off to the least-loaded active worker that does not already hold the
    /// group, the worker drains and stops, and its slot is marked
    /// [`WorkerState::Removed`] (never respawned, so slot indices stay
    /// stable). Fails without moving anything if some group would have no
    /// eligible target.
    pub fn remove_worker(&self, index: usize) -> Result<()> {
        let mut topo = self.topo_write();
        if index >= topo.workers.len() {
            return Err(MdbError::Config(format!("no worker slot {index}")));
        }
        if topo.workers[index].state != WorkerState::Active {
            return Err(MdbError::Config(format!(
                "worker {index} is {} and cannot be removed",
                topo.workers[index].state
            )));
        }
        let hosted = topo.hosted_gids(index);
        // Pre-check every move before doing any: each group needs an active
        // target that never held it — a past holder's append-only log still
        // contains the segments it exported, and importing the group again
        // would duplicate them (ever_held is a superset of the current
        // holders, so this also excludes live copies).
        let eligible = |topo: &Topology, gid: Gid| -> Option<usize> {
            topo.active()
                .into_iter()
                .filter(|&i| i != index && !topo.ever_held[i].contains(&gid))
                .min_by(|&a, &b| {
                    self.worker_load(topo, a)
                        .total_cmp(&self.worker_load(topo, b))
                        .then(a.cmp(&b))
                })
        };
        for &gid in &hosted {
            if eligible(&topo, gid).is_none() {
                return Err(MdbError::Config(format!(
                    "cannot remove worker {index}: no other active worker can take group {gid} \
                     (every candidate holds, or previously held, a copy)"
                )));
            }
        }
        for &gid in &hosted {
            let target = eligible(&topo, gid).expect("pre-checked");
            self.move_copy(&mut topo, gid, index, target)?;
        }
        // Drain and stop the now-empty worker, keeping its slot reserved.
        // Its groups were already shipped, so a failed final drain only
        // concerns leftover (exported) state, and a worker that already
        // died needs no declaration.
        if let Some(sender) = topo.workers[index].sender.take() {
            let replies = round_trip(
                vec![(index, sender, ())],
                "removal",
                None,
                |(), reply| Command::Shutdown(reply),
                |_, _| {},
            );
            if let Some((_, Reply::Answer(Err(e)))) = replies.into_iter().next() {
                topo.workers[index].note = Some(format!("drain on removal failed: {e}"));
            }
        }
        let worker = &mut topo.workers[index];
        if let Some(handle) = worker.handle.take() {
            let _ = handle.join();
        }
        worker.state = WorkerState::Removed;
        if worker.note.is_none() {
            worker.note = Some("removed".into());
        }
        self.persist_manifest(&topo);
        Ok(())
    }
}
