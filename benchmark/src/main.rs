//! `e2e`: the end-to-end benchmark over the wire (see `../README.md`).
//!
//! ```text
//! e2e run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
//!         [--repeat <n>] [--json <file>]
//! e2e compare <a.json> <b.json>
//! ```
//!
//! `run` prints every metric by name with its unit and, as the last line of
//! standard output, one JSON object; it exits non-zero when any operation
//! failed a correctness check.

mod gen;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use stats::Json;
use workload::{Round, Workload, WORKLOADS};

/// An end-to-end metric: name, unit, whether higher is better, and the share
/// of the baseline's median by which it may get worse before it counts as a
/// regression. `BENCHMARK.json` carries the same table for the driver.
///
/// Every timing carries the widest bound the driver allows: this 2-core
/// sandbox drifts between a faster and a slower state some 10-20 % apart
/// for minutes at a time (README, "Repeatability"), and a tighter bound
/// would reject changes that touched nothing.
struct Metric {
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
}

const METRICS: [Metric; 6] = [
    Metric {
        name: "ingest_points_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    Metric {
        name: "queries_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    Metric {
        name: "query_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    Metric {
        name: "query_p99_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    Metric {
        name: "bytes_per_point",
        unit: "B",
        higher_is_better: false,
        bound: 0.10,
    },
    Metric {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Where stores and trace files go, relative to the directory the benchmark
/// is started from (the repository root).
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    json: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: e2e run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] \
         [--repeat <n>] [--json <file>]\n       e2e compare <a.json> <b.json>\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_run_args(args: &[String]) -> Args {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: 1,
        json: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> &str {
        *i += 1;
        args.get(*i).map(String::as_str).unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => parsed.workload = Some(value(&mut i).to_string()),
            "--seed" => parsed.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => parsed.seconds = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--repeat" => parsed.repeat = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--json" => parsed.json = Some(PathBuf::from(value(&mut i))),
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    parsed.trace = false;
                    i += 1;
                }
                Some("1") => {
                    parsed.trace = true;
                    i += 1;
                }
                _ => parsed.trace = true,
            },
            _ => usage(),
        }
        i += 1;
    }
    if parsed.repeat == 0 || parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        usage();
    }
    parsed
}

/// One run's result for one workload, in the shape the last output line has.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn json(&self) -> Json {
        Json::obj([
            ("correct".to_string(), Json::Bool(self.failed == 0)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            (
                "metrics".to_string(),
                Json::obj(self.metrics.iter().map(|(name, unit, value)| {
                    (
                        name.to_string(),
                        Json::obj([
                            ("value".to_string(), Json::Num(*value)),
                            ("unit".to_string(), Json::Str(unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs the rounds that fill `seconds`, then reduces them: rates and set-up
/// time to their median over rounds, latencies to percentiles over every
/// sample of every round.
fn measure(workload: &Workload, seed: u64, seconds: f64, out: &Path) -> Outcome {
    let wall = Instant::now();
    let wanted = (seconds / workload.round_seconds).ceil().max(1.0) as usize;
    let rounds: Vec<Round> = (0..wanted).map(|_| workload.round(seed, out)).collect();
    let timed: f64 = rounds.iter().map(|r| r.timed_s).sum();

    let mut attempted = 0;
    let mut failed = 0;
    for round in &rounds {
        attempted += round.tally.attempted;
        failed += round.tally.failed;
        for note in &round.tally.notes {
            eprintln!("  FAILED: {note}");
        }
    }
    // The same inputs must leave the same bytes behind in every round.
    attempted += 1;
    if rounds
        .iter()
        .any(|r| r.stored_bytes != rounds[0].stored_bytes)
    {
        failed += 1;
        eprintln!("  FAILED: stored bytes differ between rounds of one seed");
    }

    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let ingest = per_round(&|r| r.ingest_points as f64 / r.ingest_s);
    let queries = per_round(&|r| r.queries as f64 / r.query_s);
    let setup = per_round(&|r| r.setup_s);
    let latencies = stats::sorted(
        &rounds
            .iter()
            .flat_map(|r| r.latencies.iter().map(|l| l.1))
            .collect::<Vec<_>>(),
    );
    let first = &rounds[0];
    let values = [
        stats::median(&ingest),
        stats::median(&queries),
        stats::percentile(&latencies, 50.0),
        stats::percentile(&latencies, 99.0),
        first.stored_bytes as f64 / first.stored_points as f64,
        stats::median(&setup),
    ];
    if values.iter().any(|v| !v.is_finite()) {
        failed += 1;
        eprintln!("  FAILED: a metric could not be computed (no samples)");
    }

    eprintln!(
        "  {} rounds, {:.1} s timed, {} latency samples; log {} B + sidecar {} B for {} points",
        rounds.len(),
        timed,
        latencies.len(),
        first.log_bytes,
        first.stored_bytes - first.log_bytes,
        first.stored_points,
    );
    let list = |v: &[f64], scale: f64| -> String {
        v.iter()
            .map(|x| format!("{:.3}", x * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "  per round: ingest Mpts/s [{}]  queries/s [{}]  setup s [{}]",
        list(&ingest, 1e-6),
        list(&queries, 1.0),
        list(&setup, 1.0)
    );
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for round in &rounds {
        for (class, ms) in &round.latencies {
            by_class.entry(class).or_default().push(*ms);
        }
    }
    for (class, ms) in by_class {
        let ms = stats::sorted(&ms);
        eprintln!(
            "  {class:>12}: n {:5}  p50 {:8.3} ms  p99 {:8.3} ms",
            ms.len(),
            stats::percentile(&ms, 50.0),
            stats::percentile(&ms, 99.0)
        );
    }
    eprintln!(
        "  diagnostics: wall {:.1} s, peak RSS {:.0} MiB, {} cores",
        wall.elapsed().as_secs_f64(),
        peak_rss_mib(),
        std::thread::available_parallelism().map_or(0, usize::from),
    );

    Outcome {
        attempted,
        failed,
        metrics: METRICS
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect(),
    }
}

fn print_outcome(workload: &str, outcome: &Outcome) {
    println!(
        "{workload}: {} operations attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for (name, unit, value) in &outcome.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
}

fn run(args: Args) -> i32 {
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => vec![w],
            None => usage(),
        },
        None => WORKLOADS.iter().collect(),
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {OUT_DIR}: {e} (start the benchmark from the repository root)");
        return 2;
    }

    // workload → metric → one value per repeat.
    let mut series: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    let mut last: BTreeMap<&str, Outcome> = BTreeMap::new();
    let mut failed = 0;
    for repeat in 0..args.repeat {
        let seed = args.seed + repeat as u64;
        for workload in &selected {
            eprintln!(
                "== {} (seed {seed}, {} s{}, {} data) ==\n  {}",
                workload.name,
                args.seconds,
                if args.trace { ", traced" } else { "" },
                workload.profile().name,
                workload.why
            );
            let outcome = if args.trace {
                trace::traced_run(workload, seed, &out)
            } else {
                measure(workload, seed, args.seconds, &out)
            };
            failed += outcome.failed;
            print_outcome(workload.name, &outcome);
            let values = series.entry(workload.name).or_default();
            for (name, _, value) in &outcome.metrics {
                values.entry(name).or_default().push(*value);
            }
            last.insert(workload.name, outcome);
        }
    }

    if args.repeat > 1 {
        println!(
            "median [first quartile .. third quartile] over {} runs:",
            args.repeat
        );
        for (workload, metrics) in &series {
            for (name, values) in metrics {
                let (q1, q3) = stats::quartiles(values);
                println!(
                    "  {workload:<24} {name:<34} {:>14.4} [{q1:.4} .. {q3:.4}] spread {:.1} %",
                    stats::median(values),
                    stats::spread(values) * 100.0
                );
            }
        }
    }
    let all = Json::obj(series.iter().map(|(workload, metrics)| {
        (
            workload.to_string(),
            Json::obj(metrics.iter().map(|(name, values)| {
                (
                    name.to_string(),
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                )
            })),
        )
    }));
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, all.render() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
    }
    // The last line: the contract's result object when one workload was
    // asked for, every series otherwise.
    match (&args.workload, args.repeat) {
        (Some(name), 1) => println!("{}", last[name.as_str()].json().render()),
        _ => println!("{}", all.render()),
    }
    i32::from(failed > 0)
}

/// One row per (metric, workload): is `b` within the metric's bound of `a`?
fn compare(a_path: &str, b_path: &str) -> i32 {
    let load = |path: &str| -> Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2)
        });
        Json::parse(text.trim()).unwrap_or_else(|e| {
            eprintln!("{path} is not a `run --json` file: {e}");
            std::process::exit(2)
        })
    };
    let (a, b) = (load(a_path), load(b_path));
    let mut worse = 0;
    println!(
        "{:<24} {:<22} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "change", "bound"
    );
    for (workload, metrics) in a.as_obj().into_iter().flatten() {
        for metric in &METRICS {
            let values = |side: &Json| {
                side.get(workload)
                    .and_then(|m| m.get(metric.name))
                    .and_then(Json::as_f64_vec)
            };
            let (Some(av), Some(bv)) = (
                metrics.get(metric.name).and_then(Json::as_f64_vec),
                values(&b),
            ) else {
                continue;
            };
            let (am, bm) = (stats::median(&av), stats::median(&bv));
            // Positive = b is worse.
            let change = if metric.higher_is_better {
                (am - bm) / am
            } else {
                (bm - am) / am
            };
            let spread = stats::spread(&av).max(stats::spread(&bv));
            let verdict = if av.len() < 2 || bv.len() < 2 {
                "unresolved (fewer than 2 runs)".to_string()
            } else if spread > metric.bound {
                format!("unresolved (spread {:.1} % > bound)", spread * 100.0)
            } else if change > metric.bound {
                worse += 1;
                "WORSE".to_string()
            } else {
                "within bound".to_string()
            };
            println!(
                "{workload:<24} {:<22} {am:>14.4} {bm:>14.4} {:>+7.1}% {:>6.0}%  {verdict}",
                metric.name,
                change * 100.0,
                metric.bound * 100.0
            );
        }
    }
    i32::from(worse > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(parse_run_args(&args[1..])),
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        _ => usage(),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must describe exactly what this harness runs and
    /// prints.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match json.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key} is {other:?}"),
        };
        let text = |item: &Json, key: &str| match item.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key} is {other:?}"),
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, workload) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(item, "name"), workload.name);
            assert_eq!(text(item, "why"), workload.why);
            assert!(workload.why.chars().count() <= 200, "{}", workload.name);
        }

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), METRICS.len());
        for (item, metric) in end_to_end.iter().zip(&METRICS) {
            assert_eq!(text(item, "name"), metric.name);
            assert_eq!(text(item, "unit"), metric.unit);
            assert_eq!(text(item, "better") == "higher", metric.higher_is_better);
            assert_eq!(item.get("bound"), Some(&Json::Num(metric.bound)));
        }

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), trace::PER_LAYER.len());
        for (item, (name, unit, higher)) in per_layer.iter().zip(&trace::PER_LAYER) {
            assert_eq!(text(item, "name"), *name);
            assert_eq!(text(item, "unit"), *unit);
            assert_eq!(text(item, "better") == "higher", *higher);
        }
    }
}
