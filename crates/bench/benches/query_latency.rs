//! Query-path microbenchmark: time-ranged S-AGG and full-span L-AGG on the
//! Segment View, comparing the plain scan that fetches every block against
//! the pruned scan that skips blocks by their statistics.

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
        let mut unpruned = build_engine_with(&ds, true, 10.0, false);
        ingest_engine_batched(&mut unpruned, &ds, ticks, 512);
        let mut pruned = build_engine_with(&ds, true, 10.0, true);
        ingest_engine_batched(&mut pruned, &ds, ticks, 512);

        let s_agg = time_ranged_queries(&ds, ticks, "SUM_S", 10);
        let l_agg = vec!["SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid".to_string(); 2];

        let mut group = c.benchmark_group(format!("query_latency_{name}"));
        group.sample_size(10);
        for (label, engine) in [("unpruned", &unpruned), ("pruned", &pruned)] {
            group.bench_function(BenchmarkId::new("time_ranged_sum", label), |b| {
                b.iter(|| run_queries(engine, &s_agg))
            });
        }
        for (label, engine) in [("unpruned", &unpruned), ("pruned", &pruned)] {
            group.bench_function(BenchmarkId::new("l_agg", label), |b| {
                b.iter(|| run_queries(engine, &l_agg))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_query_latency);
criterion_main!(benches);
