//! Group handoff: shipping one group's copy from a source worker to a
//! target worker with an atomic routing flip.
//!
//! The whole exchange runs under the master's topology **write** lock, so
//! no batch can be routed while a group is mid-flight: the source drains
//! the group's ingestor, flushes its store, and exports the group's
//! segment runs in its deterministic per-group scan order; the target
//! builds a fresh ingestor, appends the runs (the disk store cuts blocks
//! at run boundaries, mirroring the source's block structure), and flushes;
//! only then does the holder list swap source for target. Because a
//! group's per-group scan order survives the trip, query results are
//! bit-identical before and after the handoff — and after a restart that
//! reads the shipped log.
//!
//! Append-only stores cannot delete, so the exported segments stay in the
//! source's log; primary-scoped queries and statistics simply never touch
//! them again. Handing the same group *back* to a worker whose log still
//! has such leftovers would double its segments, so the topology tracks
//! every gid a slot *ever* held ([`Topology::ever_held`], persisted in the
//! manifest because the leftovers survive restarts too): membership
//! operations draw targets from outside that set, and [`Cluster::move_group`]
//! rejects past holders outright.

use crossbeam_channel::Sender;
use mdb_types::{Gid, MdbError, Result};

use crate::{round_trip, Cluster, Command, Reply, Topology};

impl Cluster {
    /// Moves one copy of `gid` from worker `from` to worker `to`, flipping
    /// the holder entry in place (a primary stays primary, a replica stays
    /// a replica). Both workers must be active; the target must not
    /// already hold the group. Takes the topology write lock — ingestion
    /// and queries wait until the handoff committed or failed whole.
    pub fn move_group(&self, gid: Gid, from: usize, to: usize) -> Result<()> {
        let mut topo = self.topo_write();
        self.move_copy(&mut topo, gid, from, to)?;
        self.persist_manifest(&topo);
        Ok(())
    }

    /// The locked core of [`Cluster::move_group`]; also used by the
    /// membership operations, which batch several moves under one lock
    /// acquisition and persist the manifest once at the end.
    pub(crate) fn move_copy(
        &self,
        topo: &mut Topology,
        gid: Gid,
        from: usize,
        to: usize,
    ) -> Result<()> {
        let holders = topo
            .holders
            .get(&gid)
            .ok_or_else(|| MdbError::Config(format!("unknown group {gid}")))?;
        let position = holders
            .iter()
            .position(|&h| h == from)
            .ok_or_else(|| MdbError::Config(format!("worker {from} does not hold group {gid}")))?;
        if holders.contains(&to) {
            return Err(MdbError::Config(format!(
                "worker {to} already holds group {gid}"
            )));
        }
        // A past holder's append-only log still contains the segments it
        // exported (or lost its copy of); importing the group again would
        // append a second copy beside them and double every query result.
        if topo.ever_held[to].contains(&gid) {
            return Err(MdbError::Config(format!(
                "worker {to} previously held group {gid} and its log still contains the \
                 group's segments; importing it again would duplicate them"
            )));
        }
        let source = topo.workers[from]
            .sender
            .clone()
            .ok_or_else(|| MdbError::Config(format!("worker {from} is not active")))?;
        let target = topo.workers[to]
            .sender
            .clone()
            .ok_or_else(|| MdbError::Config(format!("worker {to} is not active")))?;
        // Drain + export on the source. A death here aborts the handoff
        // with the group still routed to its surviving holders.
        let shipped = handoff_step(topo, from, source, (), gid, "export", |(), reply| {
            Command::Export(vec![gid], reply)
        })?;
        // Import on the target; the routing flip waits for its durability.
        handoff_step(topo, to, target, shipped, gid, "import", Command::Import)?;
        // Committed: flip the copy to its new holder, same position. The
        // target joins the group's ever-held set, so no later handoff can
        // route the group back onto the donor's leftover segments — and the
        // donor keeps its membership for the same reason.
        topo.holders.get_mut(&gid).expect("checked above")[position] = to;
        topo.ever_held[to].insert(gid);
        Ok(())
    }
}

/// One half of a handoff on worker `index`: its answer, or an error naming
/// the worker, the step and the group. A worker whose channel is gone is
/// declared dead in place — the caller holds the topology write lock.
fn handoff_step<P, T>(
    topo: &mut Topology,
    index: usize,
    sender: Sender<Command>,
    payload: P,
    gid: Gid,
    step: &str,
    request: impl FnMut(P, Sender<Result<T>>) -> Command,
) -> Result<T> {
    let what = format!("handoff {step}");
    let replies = round_trip(
        vec![(index, sender, payload)],
        &what,
        None,
        request,
        |index, why| {
            topo.mark_dead(index, why);
        },
    );
    match replies.into_iter().next() {
        Some((_, Reply::Answer(Ok(answer)))) => Ok(answer),
        Some((_, Reply::Answer(Err(e)))) => Err(MdbError::Ingestion(format!(
            "worker {index} failed to {step} group {gid}: {e}"
        ))),
        _ => Err(MdbError::Ingestion(format!(
            "worker {index} died during {what} of group {gid}"
        ))),
    }
}
