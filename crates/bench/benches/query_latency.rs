//! Query-path microbenchmark: time-ranged S-AGG and full-span L-AGG on the
//! Segment View, comparing the plain sequential scan (no block pruning, one
//! worker) against the pruned-parallel path (block skipping plus the
//! persistent scan pool).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdb_bench::{build_engine_with, ingest_engine_batched, run_queries, time_ranged_queries};
use mdb_datagen::{eh, ep, Scale};

fn bench_query_latency(c: &mut Criterion) {
    let scale = Scale {
        clusters: 4,
        series_per_cluster: 4,
        ticks: 4_000,
    };
    let ticks = scale.ticks * 4;
    for (name, ds) in [
        ("ep", ep(42, scale).unwrap()),
        ("eh", eh(42, scale).unwrap()),
    ] {
        let mut sequential = build_engine_with(&ds, true, 10.0, 1, false);
        ingest_engine_batched(&mut sequential, &ds, ticks, 512);
        let mut pruned = build_engine_with(&ds, true, 10.0, 0, true);
        ingest_engine_batched(&mut pruned, &ds, ticks, 512);

        let s_agg = time_ranged_queries(&ds, ticks, "SUM_S", 10);
        let l_agg = vec!["SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid".to_string(); 2];

        let mut group = c.benchmark_group(format!("query_latency_{name}"));
        group.sample_size(10);
        group.bench_function(BenchmarkId::new("time_ranged_sum", "sequential"), |b| {
            b.iter(|| run_queries(&sequential, &s_agg))
        });
        group.bench_function(
            BenchmarkId::new("time_ranged_sum", "pruned_parallel"),
            |b| b.iter(|| run_queries(&pruned, &s_agg)),
        );
        group.bench_function(BenchmarkId::new("l_agg", "sequential"), |b| {
            b.iter(|| run_queries(&sequential, &l_agg))
        });
        group.bench_function(BenchmarkId::new("l_agg", "pruned_parallel"), |b| {
            b.iter(|| run_queries(&pruned, &l_agg))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_query_latency);
criterion_main!(benches);
