//! Assignment of groups to worker nodes.
//!
//! "To prevent data skew, each group is assigned to the worker with the most
//! available resources" (Section 3.1). The load of a group is its data rate —
//! members divided by sampling interval — and groups are placed greedily,
//! heaviest first, onto the least-loaded worker (LPT scheduling). Because
//! each group lives on exactly one node, ingestion and queries never shuffle
//! data between nodes, which is what makes the scale-out of Figure 20 linear.

use mdb_types::GroupMeta;

/// A group's ingest load: data points per second.
pub fn group_load(g: &GroupMeta) -> f64 {
    g.size() as f64 / (g.sampling_interval.max(1) as f64 / 1000.0)
}

/// Assigns each group to a worker in `0..n_workers`; `result[i]` is the
/// worker of `groups[i]`. Equivalent to the primaries of
/// [`assign_replicas`] with a replication factor of 1.
pub fn assign_workers(groups: &[GroupMeta], n_workers: usize) -> Vec<usize> {
    assign_replicas(groups, n_workers, 1)
        .into_iter()
        .map(|holders| holders[0])
        .collect()
}

/// Assigns each group to `replication` distinct workers in `0..n_workers`;
/// `result[i]` lists the holders of `groups[i]`, primary first.
///
/// Placement is the same LPT greedy as [`assign_workers`], generalized to
/// two loads: groups are placed heaviest first (deterministic gid
/// tie-break). Only the primary serves a group's queries, so the primary is
/// the worker with the least *primary* load; every holder ingests the
/// group's full stream, so the replicas are the `replication - 1` other
/// workers with the least *ingest* load, and each holder charges the
/// group's full load to its ingest load. Ties go to the lowest index. Ingest
/// load alone cannot pick the primary: at `replication == n_workers` every
/// worker holds every group, all ingest loads tie, and one worker would
/// answer every query. Because primaries are placed by plain LPT on query
/// load, the spread of per-worker primary loads never exceeds the heaviest
/// group's load, at every replication factor. At a replication factor of 1
/// both loads are the same and this is the classic placement.
pub fn assign_replicas(
    groups: &[GroupMeta],
    n_workers: usize,
    replication: usize,
) -> Vec<Vec<usize>> {
    assert!(n_workers > 0, "need at least one worker");
    assert!(
        (1..=n_workers).contains(&replication),
        "replication factor {replication} must be in 1..={n_workers}"
    );
    let by = |loads: &[f64], a: usize, b: usize| {
        loads[a]
            .partial_cmp(&loads[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&a, &b| {
        group_load(&groups[b])
            .partial_cmp(&group_load(&groups[a]))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(groups[a].gid.cmp(&groups[b].gid))
    });
    let mut worker_load = vec![0.0f64; n_workers];
    let mut primary_load = vec![0.0f64; n_workers];
    let mut assignment = vec![Vec::new(); groups.len()];
    for idx in order {
        let load = group_load(&groups[idx]);
        // `min_by` keeps the first of equal minima and the sort is stable,
        // so ties go to the lowest index.
        let primary = (0..n_workers)
            .min_by(|&a, &b| by(&primary_load, a, b))
            .expect("at least one worker");
        let mut replicas: Vec<usize> = (0..n_workers).filter(|&w| w != primary).collect();
        replicas.sort_by(|&a, &b| by(&worker_load, a, b));
        let holders: Vec<usize> = std::iter::once(primary)
            .chain(replicas.into_iter().take(replication - 1))
            .collect();
        for &w in &holders {
            worker_load[w] += load;
        }
        primary_load[primary] += load;
        assignment[idx] = holders;
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdb_types::TimeSeriesMeta;

    fn group(gid: u32, tids: std::ops::RangeInclusive<u32>, si: i64) -> GroupMeta {
        let tids: Vec<u32> = tids.collect();
        let metas: Vec<TimeSeriesMeta> = tids.iter().map(|&t| TimeSeriesMeta::new(t, si)).collect();
        GroupMeta::new(gid, tids, &metas).unwrap()
    }

    #[test]
    fn single_worker_takes_everything() {
        let groups = vec![group(1, 1..=3, 100), group(2, 4..=4, 100)];
        assert_eq!(assign_workers(&groups, 1), vec![0, 0]);
    }

    #[test]
    fn heaviest_groups_spread_first() {
        // Four equal groups over two workers → two each.
        let groups = vec![
            group(1, 1..=2, 100),
            group(2, 3..=4, 100),
            group(3, 5..=6, 100),
            group(4, 7..=8, 100),
        ];
        let a = assign_workers(&groups, 2);
        let w0 = a.iter().filter(|&&w| w == 0).count();
        assert_eq!(w0, 2, "{a:?}");
    }

    #[test]
    fn load_accounts_for_sampling_interval() {
        // One fast single-series group (100 ms) produces 10 points/s; six
        // slow series (60 s) produce 0.1 points/s. The fast group should sit
        // alone on its worker.
        let groups = vec![
            group(1, 1..=1, 100),
            group(2, 2..=7, 60_000),
            group(3, 8..=13, 60_000),
        ];
        let a = assign_workers(&groups, 2);
        assert_ne!(a[1], a[0]);
        assert_ne!(a[2], a[0]);
        assert_eq!(a[1], a[2]);
    }

    #[test]
    fn more_workers_than_groups() {
        let groups = vec![group(1, 1..=1, 100)];
        let a = assign_workers(&groups, 8);
        assert_eq!(a.len(), 1);
        assert!(a[0] < 8);
    }

    #[test]
    fn deterministic_for_equal_loads() {
        let groups = vec![
            group(1, 1..=1, 100),
            group(2, 2..=2, 100),
            group(3, 3..=3, 100),
        ];
        let a1 = assign_workers(&groups, 3);
        let a2 = assign_workers(&groups, 3);
        assert_eq!(a1, a2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        assign_workers(&[], 0);
    }

    #[test]
    fn replicas_are_distinct_and_primary_matches_assign_workers() {
        let groups = vec![
            group(1, 1..=4, 100),
            group(2, 5..=6, 100),
            group(3, 7..=12, 60_000),
            group(4, 13..=13, 100),
        ];
        for n_workers in 1..=4 {
            let primaries = assign_workers(&groups, n_workers);
            for k in 1..=n_workers {
                let replicated = assign_replicas(&groups, n_workers, k);
                for (i, holders) in replicated.iter().enumerate() {
                    assert_eq!(holders.len(), k, "group {i} with rf {k}");
                    let mut distinct = holders.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(distinct.len(), k, "holders must be distinct");
                }
                if k == 1 {
                    let firsts: Vec<usize> = replicated.iter().map(|h| h[0]).collect();
                    assert_eq!(firsts, primaries);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn replication_beyond_workers_panics() {
        let groups = vec![group(1, 1..=1, 100)];
        assign_replicas(&groups, 2, 3);
    }

    proptest::proptest! {
        #[test]
        fn replica_loads_are_balanced(n_groups in 1usize..30, n_workers in 2usize..6) {
            let groups: Vec<GroupMeta> = (0..n_groups)
                .map(|i| group(i as u32 + 1, (i as u32 * 2 + 1)..=(i as u32 * 2 + 2), 1000))
                .collect();
            let a = assign_replicas(&groups, n_workers, 2);
            let mut per_worker = vec![0usize; n_workers];
            for (g, holders) in groups.iter().zip(&a) {
                for &w in holders {
                    per_worker[w] += g.size();
                }
            }
            let max = per_worker.iter().max().unwrap();
            let min = per_worker.iter().min().unwrap();
            // All groups weigh the same, so imbalance ≤ two copies.
            proptest::prop_assert!(max - min <= 4, "{:?}", per_worker);
        }

        #[test]
        fn primary_loads_are_balanced_at_every_replication_factor(
            shapes in proptest::collection::vec((1u32..=8, 0usize..5), 1..30),
            n_workers in 2usize..6,
        ) {
            // Power-of-two sampling intervals keep every load, and every sum
            // of loads, exact in binary.
            let mut next_tid = 1;
            let groups: Vec<GroupMeta> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(size, si))| {
                    let tids = next_tid..=next_tid + size - 1;
                    next_tid += size;
                    group(i as u32 + 1, tids, 250 << si)
                })
                .collect();
            let heaviest = groups.iter().map(group_load).fold(0.0, f64::max);
            for rf in 1..=n_workers {
                let a = assign_replicas(&groups, n_workers, rf);
                let mut per_worker = vec![0.0f64; n_workers];
                for (g, holders) in groups.iter().zip(&a) {
                    per_worker[holders[0]] += group_load(g);
                }
                let max = per_worker.iter().copied().fold(f64::MIN, f64::max);
                let min = per_worker.iter().copied().fold(f64::MAX, f64::min);
                proptest::prop_assert!(
                    max - min <= heaviest,
                    "rf {}: primary loads {:?}, heaviest group {}",
                    rf,
                    per_worker,
                    heaviest
                );
            }
        }

        #[test]
        fn loads_are_balanced(n_groups in 1usize..40, n_workers in 1usize..8) {
            let groups: Vec<GroupMeta> = (0..n_groups)
                .map(|i| group(i as u32 + 1, (i as u32 * 2 + 1)..=(i as u32 * 2 + 2), 1000))
                .collect();
            let a = assign_workers(&groups, n_workers);
            let mut per_worker = vec![0usize; n_workers];
            for (g, &w) in groups.iter().zip(&a) {
                per_worker[w] += g.size();
            }
            let max = per_worker.iter().max().unwrap();
            let min = per_worker.iter().min().unwrap();
            // All groups weigh the same here, so imbalance ≤ one group.
            proptest::prop_assert!(max - min <= 2, "{:?}", per_worker);
        }
    }
}
