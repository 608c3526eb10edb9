//! Chaos harness: workers are killed at random points mid-ingest — silently
//! (the thread just stops, like a machine losing power) or announced — and
//! the cluster must keep its promises anyway.
//!
//! At replication factor 2, losing any single worker at any moment must be
//! invisible in query results: the master promotes the surviving replica,
//! ingestion continues, and every SQL result is **bit-identical** to a run
//! that never failed (exact slot sums and per-group bucket order make
//! results placement-independent). At replication factor 1 the data is
//! gone — the run must *say so* through [`modelardb::Cluster::health`]
//! instead of failing silently, while queries keep answering from the
//! survivors. Membership changes get the same treatment: `add_worker` /
//! `remove_worker` ship whole groups between disk-backed workers and must
//! preserve results bit-for-bit, across the handoff *and* across a restart
//! over the grown cluster's directory.

use std::sync::Arc;

use mdb_bench::catalog_from_dataset;
use mdb_datagen::{Dataset, Scale};
use mdb_testutil::TempDir;
use proptest::prelude::*;

use modelardb::{
    Catalog, Cluster, ClusterConfig, CompressionConfig, ErrorBound, ModelRegistry, QueryResult,
    WorkerState,
};

const TICKS: u64 = 240;

const QUERIES: [&str; 4] = [
    "SELECT COUNT_S(*) FROM Segment",
    "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
    "SELECT Entity, AVG_S(*) FROM Segment GROUP BY Entity ORDER BY Entity",
    "SELECT Tid, CUBE_SUM_DAY(*) FROM Segment WHERE Tid IN (1, 2) GROUP BY Tid",
];

fn dataset() -> (Dataset, Arc<Catalog>) {
    let ds = mdb_datagen::ep(7, Scale::tiny()).unwrap();
    let catalog = catalog_from_dataset(&ds, &ds.correlation_spec()).unwrap();
    (ds, catalog)
}

fn start(
    catalog: &Arc<Catalog>,
    n_workers: usize,
    replication_factor: usize,
    storage_dir: Option<&std::path::Path>,
) -> Cluster {
    let mut config = ClusterConfig::with_compression(CompressionConfig {
        error_bound: ErrorBound::relative(5.0),
        ..Default::default()
    });
    config.replication_factor = replication_factor;
    config.storage_dir = storage_dir.map(|p| p.to_path_buf());
    // Small blocks so disk-backed cases exercise multi-block handoff.
    config.bulk_write_size = 16;
    Cluster::start_with(
        Arc::clone(catalog),
        Arc::new(ModelRegistry::standard()),
        config,
        n_workers,
    )
    .unwrap()
}

fn ingest_range(cluster: &Cluster, ds: &Dataset, ticks: std::ops::Range<u64>) {
    for tick in ticks {
        cluster
            .ingest_row(ds.timestamp(tick), &ds.row(tick))
            .unwrap();
    }
}

/// Flush, tolerating the one error that *reports* a silent death (the master
/// only learns of a crashed worker when it next talks to it).
fn flush_settling(cluster: &Cluster) {
    for _ in 0..4 {
        if cluster.flush().is_ok() {
            return;
        }
    }
    cluster.flush().unwrap();
}

fn results(cluster: &Cluster) -> Vec<QueryResult> {
    QUERIES.iter().map(|q| cluster.sql(q).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // RF=2: kill any worker, at any tick, silently or announced — every
    // query result equals the never-failed run bit-for-bit.
    #[test]
    fn replicated_cluster_survives_any_single_worker_death_mid_ingest(
        n_workers in 2usize..5,
        victim_frac in 0.0f64..1.0,
        kill_frac in 0.0f64..1.0,
        silent in proptest::bool::ANY,
    ) {
        let (ds, catalog) = dataset();
        let baseline = start(&catalog, n_workers, 2, None);
        ingest_range(&baseline, &ds, 0..TICKS);
        baseline.flush().unwrap();
        let want = results(&baseline);
        baseline.shutdown().unwrap();

        let cluster = start(&catalog, n_workers, 2, None);
        let victim = ((n_workers as f64 * victim_frac) as usize).min(n_workers - 1);
        let kill_tick = (TICKS as f64 * kill_frac) as u64;
        ingest_range(&cluster, &ds, 0..kill_tick);
        if silent {
            prop_assert!(cluster.crash_worker(victim));
        } else {
            prop_assert!(cluster.kill_worker(victim));
        }
        // Ingestion continues: the survivor of each of the victim's groups
        // accepts the batches; a silent death is declared at the first send
        // the master attempts on the dead channel.
        ingest_range(&cluster, &ds, kill_tick..TICKS);
        flush_settling(&cluster);

        let health = cluster.health();
        prop_assert_eq!(health.workers[victim].state, WorkerState::Dead);
        prop_assert!(health.lost_gids.is_empty(), "rf=2 must lose nothing");
        prop_assert!(health.is_degraded());
        let got = results(&cluster);
        for ((q, want), got) in QUERIES.iter().zip(&want).zip(&got) {
            prop_assert_eq!(want, got, "{} diverged after killing worker {}", q, victim);
        }
        cluster.shutdown().unwrap();
    }

    // RF=1: the data is gone and the cluster must say so — dead worker and
    // lost groups in the health report, refused ingestion pointing at it —
    // while queries keep answering from the survivors.
    #[test]
    fn unreplicated_worker_death_is_reported_not_hidden(
        n_workers in 2usize..5,
        victim_frac in 0.0f64..1.0,
        kill_frac in 0.0f64..1.0,
    ) {
        let (ds, catalog) = dataset();
        let cluster = start(&catalog, n_workers, 1, None);
        let victim = ((n_workers as f64 * victim_frac) as usize).min(n_workers - 1);
        let kill_tick = 1 + ((TICKS - 1) as f64 * kill_frac) as u64;
        let victim_held = cluster.assignment()[victim].clone();
        ingest_range(&cluster, &ds, 0..kill_tick);
        prop_assert!(cluster.kill_worker(victim));

        let health = cluster.health();
        prop_assert_eq!(health.workers[victim].state, WorkerState::Dead);
        prop_assert_eq!(&health.lost_gids, &victim_held, "every group died with its only holder");
        prop_assert!(health.is_degraded());

        if !victim_held.is_empty() {
            // Further rows touching a lost group are refused, with a pointer
            // at the health report.
            let refused = (kill_tick..TICKS)
                .map(|t| cluster.ingest_row(ds.timestamp(t), &ds.row(t)))
                .filter_map(|r| r.err())
                .next()
                .expect("ingesting into lost groups must error");
            prop_assert!(
                refused.to_string().contains("health"),
                "error must point at Cluster::health(): {}", refused
            );
        }
        flush_settling(&cluster);
        // Degraded but correct: the survivors still answer.
        for q in QUERIES {
            cluster.sql(q).unwrap();
        }
        cluster.shutdown().unwrap();
    }
}

/// Disk-backed elasticity: grow, rebalance, shrink — results must stay
/// bit-identical through every handoff and across a restart of the grown
/// cluster (the manifest routes around segments left behind in source logs).
#[test]
fn membership_changes_preserve_results_across_restarts() {
    let dir = TempDir::new("chaos-membership");
    let (ds, catalog) = dataset();
    let cluster = start(&catalog, 2, 1, Some(dir.path()));
    ingest_range(&cluster, &ds, 0..TICKS / 2);
    cluster.flush().unwrap();
    let want = results(&cluster);

    // Grow: the new worker must actually take over some groups.
    let added = cluster.add_worker().unwrap();
    assert_eq!(added, 2);
    let moved = cluster.assignment()[added].clone();
    assert!(!moved.is_empty(), "add_worker must rebalance ≥ 1 group");
    assert_eq!(results(&cluster), want, "handoff changed results");

    // The moved groups keep ingesting on their new holder.
    ingest_range(&cluster, &ds, TICKS / 2..TICKS);
    cluster.flush().unwrap();
    let want = results(&cluster);
    cluster.shutdown().unwrap();

    // Restart over the grown directory: the manifest restores the
    // post-handoff placement (and skips the segments the donors left
    // behind), so results are bit-identical.
    let reopened = start(&catalog, 3, 1, Some(dir.path()));
    assert_eq!(reopened.assignment()[added], moved);
    assert_eq!(results(&reopened), want, "restart changed results");

    // Shrink: decommission worker 0; its groups hand off, nothing is lost.
    reopened.remove_worker(0).unwrap();
    let health = reopened.health();
    assert_eq!(health.workers[0].state, WorkerState::Removed);
    assert!(health.workers[0].hosted_gids.is_empty());
    assert!(health.lost_gids.is_empty());
    assert_eq!(results(&reopened), want, "decommission changed results");
    reopened.shutdown().unwrap();

    // And the shrunken placement also survives a restart.
    let again = start(&catalog, 3, 1, Some(dir.path()));
    assert_eq!(again.health().workers[0].state, WorkerState::Removed);
    assert_eq!(results(&again), want, "second restart changed results");
    again.shutdown().unwrap();
}

/// A worker that dies between two queries is found by the next query
/// itself: the scatter sees the closed channel, declares the worker dead
/// and retries against the promoted replicas. Every query kind — an
/// aggregate, a sketch, a Data Point View listing — must then answer
/// exactly as if nothing had failed.
#[test]
fn a_worker_dying_right_before_a_query_is_retried_around() {
    let kinds = [
        "SELECT Entity, AVG_S(*) FROM Segment GROUP BY Entity ORDER BY Entity",
        "SELECT COUNT_DISTINCT(Tid) FROM Segment",
        "SELECT Tid, TS, Value FROM DataPoint WHERE Tid IN (1, 2, 5)",
    ];
    let (ds, catalog) = dataset();
    let baseline = start(&catalog, 3, 2, None);
    ingest_range(&baseline, &ds, 0..TICKS);
    baseline.flush().unwrap();
    let want: Vec<QueryResult> = kinds.iter().map(|q| baseline.sql(q).unwrap()).collect();
    baseline.shutdown().unwrap();
    assert!(!want[2].rows.is_empty());

    for (q, want) in kinds.iter().zip(&want) {
        for victim in 0..3 {
            let cluster = start(&catalog, 3, 2, None);
            ingest_range(&cluster, &ds, 0..TICKS);
            cluster.flush().unwrap();
            assert!(cluster.crash_worker(victim));
            let got = cluster.sql(q).unwrap();
            assert_eq!(&got, want, "{q} diverged after worker {victim} died");
            // The query, not a later probe, declared the death.
            assert!(cluster.assignment()[victim].is_empty(), "{q}: {victim}");
            let health = cluster.health();
            assert_eq!(health.workers[victim].state, WorkerState::Dead);
            assert!(health.lost_gids.is_empty());
            cluster.shutdown().unwrap();
        }
    }
}
