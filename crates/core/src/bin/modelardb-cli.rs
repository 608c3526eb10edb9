//! `modelardb-cli` — load a configuration file, ingest CSV data, run SQL,
//! serve the store over TCP, or drive a remote server.
//!
//! ```text
//! modelardb-cli <config.conf> ingest <data.csv> [query…]
//! modelardb-cli <config.conf> demo   <ticks>    [query…]
//! modelardb-cli <config.conf> serve  <addr>
//! modelardb-cli --connect <host:port> ingest <data.csv> [query…]
//! modelardb-cli --connect <host:port> sql    <query…>
//! modelardb-cli --connect <host:port> health
//! ```
//!
//! The CSV format is `source,timestamp_ms,value` (header optional), matching
//! how the paper's system ingests per-series files: the `source` column is
//! resolved to a Tid through the configured `modelardb.source` entries (the
//! n-th configured source is Tid n; `tidN` and a bare number name a Tid
//! directly, and are all a `--connect` client, which has no configuration,
//! understands).
//! Queries given on the command line run after ingestion; with none, a
//! default summary query runs.
//!
//! `--connect` speaks the same wire protocol as `modelardb-cli … serve`, so
//! one CLI drives local and remote stores with identical commands and
//! bit-identical results.

use std::collections::HashMap;

use modelardb::{Client, ConfigFile, MdbError, ModelarDb, Result, SeriesSpec, Tid};

const SUMMARY_QUERY: &str =
    "SELECT Tid, COUNT_S(*), AVG_S(*) FROM Segment GROUP BY Tid ORDER BY Tid";

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage() -> MdbError {
    MdbError::Config(
        "usage: modelardb-cli <config.conf> (ingest <data.csv> | demo <ticks> | serve <addr>) [query…]\n       modelardb-cli --connect <host:port> (ingest <data.csv> | sql | health) [query…]"
            .into(),
    )
}

fn run() -> Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--connect") => {
            let addr = args.get(1).ok_or_else(usage)?;
            run_remote(addr, &args[2..])
        }
        Some(config_path) => run_local(config_path, &args[1..]),
        None => Err(usage()),
    }
}

fn run_local(config_path: &str, args: &[String]) -> Result<()> {
    let mode = args.first().ok_or_else(usage)?;
    let target = args.get(1).ok_or_else(usage)?;

    let config = ConfigFile::load(std::path::Path::new(config_path))?;
    let mut server_options = modelardb::ServerOptions::from_common(&config.common_options());
    if let Some(n) = config.max_connections {
        server_options.max_connections = n;
    }
    let sources = source_map(&config.series);
    let mut db = config.into_builder()?.build()?;
    println!(
        "configured {} series in {} groups",
        db.catalog().series.len(),
        db.catalog().groups.len()
    );

    match mode.as_str() {
        "ingest" => {
            let text = std::fs::read_to_string(target)?;
            let mut n = 0u64;
            for point in parse_csv(&text, &sources)? {
                db.ingest_point(point.0, point.1, point.2)?;
                n += 1;
            }
            db.flush()?;
            println!(
                "ingested {n} data points -> {} segments, {} bytes",
                db.segment_count(),
                db.storage_bytes()
            );
        }
        "demo" => {
            // Synthetic sine data so the CLI is testable without data files.
            let ticks: i64 = target
                .parse()
                .map_err(|_| MdbError::Config(format!("bad tick count {target:?}")))?;
            let n_series = db.catalog().series.len();
            let si = db
                .catalog()
                .series
                .first()
                .map(|m| m.sampling_interval)
                .unwrap_or(100);
            for t in 0..ticks {
                let row: Vec<Option<f32>> = (0..n_series)
                    .map(|s| Some((t as f32 * 0.01).sin() * 10.0 + 100.0 + s as f32 * 0.1))
                    .collect();
                db.ingest_row(t * si, &row)?;
            }
            db.flush()?;
            println!(
                "generated {ticks} ticks -> {} segments, {} bytes",
                db.segment_count(),
                db.storage_bytes()
            );
        }
        "serve" => {
            server_options.addr = target.to_string();
            return serve(db, server_options);
        }
        other => return Err(MdbError::Config(format!("unknown mode {other}"))),
    }

    let queries = &args[2..];
    if queries.is_empty() {
        println!("\n{}", db.sql(SUMMARY_QUERY)?.to_table());
    } else {
        for q in queries {
            println!("\n> {q}");
            println!("{}", db.sql(q)?.to_table());
        }
    }
    Ok(())
}

/// Serves the configured store until the process is killed.
fn serve(db: ModelarDb, options: modelardb::ServerOptions) -> Result<()> {
    use modelardb::{Server, SharedDatastore};
    let server = Server::start(SharedDatastore::new(db), options)?;
    println!("serving on {}", server.local_addr());
    loop {
        std::thread::park();
    }
}

/// Drives a remote server over the wire protocol.
fn run_remote(addr: &str, args: &[String]) -> Result<()> {
    let mode = args.first().ok_or_else(usage)?;
    let mut client = Client::connect(addr)?;
    match mode.as_str() {
        "ingest" => {
            let path = args.get(1).ok_or_else(usage)?;
            let text = std::fs::read_to_string(path)?;
            // No local catalog: `tidN` and raw-number sources only.
            let points = parse_csv(&text, &HashMap::new())?;
            let info = client.ingest_points(&points)?;
            client.flush()?;
            println!("{info}");
            run_remote_queries(&mut client, &args[2..])?;
        }
        "sql" => run_remote_queries(&mut client, &args[1..])?,
        "health" => {
            let health = client.health()?;
            println!(
                "{}{}: {}",
                health.backend,
                if health.degraded { " (degraded)" } else { "" },
                health.detail
            );
        }
        other => return Err(MdbError::Config(format!("unknown remote mode {other}"))),
    }
    client.close()
}

fn run_remote_queries(client: &mut Client, queries: &[String]) -> Result<()> {
    if queries.is_empty() {
        println!("\n{}", client.sql(SUMMARY_QUERY)?.to_table());
    } else {
        for q in queries {
            println!("\n> {q}");
            println!("{}", client.sql(q)?.to_table());
        }
    }
    Ok(())
}

/// The configured source names → Tids: the builder numbers series in
/// configuration order, from 1.
fn source_map(series: &[SeriesSpec]) -> HashMap<String, Tid> {
    series
        .iter()
        .zip(1..)
        .map(|(spec, tid)| (spec.source.clone(), tid))
        .collect()
}

/// Parses `source,timestamp,value` CSV; `source` is a name in `sources`,
/// `tidN`, or a raw tid.
fn parse_csv(text: &str, sources: &HashMap<String, Tid>) -> Result<Vec<(Tid, i64, f32)>> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || (i == 0 && line.to_ascii_lowercase().starts_with("source")) {
            continue;
        }
        let mut parts = line.split(',').map(str::trim);
        let bad = || MdbError::Ingestion(format!("csv line {}: {line:?}", i + 1));
        let source = parts.next().ok_or_else(bad)?;
        let tid = sources
            .get(source)
            .copied()
            .or_else(|| source.parse::<Tid>().ok())
            .or_else(|| source.strip_prefix("tid").and_then(|n| n.parse().ok()))
            .ok_or_else(|| {
                MdbError::Ingestion(format!("csv line {}: unknown source {source:?}", i + 1))
            })?;
        let ts: i64 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let value: f32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        out.push((tid, ts, value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_parses_with_and_without_header() {
        let sources: HashMap<String, Tid> = [("tid1".to_string(), 1)].into();
        let with_header = "source,timestamp,value\ntid1,100,1.5\n1,200,2.5\n";
        let rows = parse_csv(with_header, &sources).unwrap();
        assert_eq!(rows, vec![(1, 100, 1.5), (1, 200, 2.5)]);
        let no_header = "tid1,100,1.5\n\n   \n";
        assert_eq!(parse_csv(no_header, &sources).unwrap().len(), 1);
    }

    #[test]
    fn csv_resolves_tid_names_without_a_catalog() {
        // The --connect path has no source map; `tidN` still resolves.
        let rows = parse_csv("tid7,100,1.0\n7,200,2.0", &HashMap::new()).unwrap();
        assert_eq!(rows, vec![(7, 100, 1.0), (7, 200, 2.0)]);
    }

    #[test]
    fn csv_keyed_by_configured_source_names_ingests() {
        let config = ConfigFile::parse(
            "modelardb.storage = memory\n\
             modelardb.source = t9632, 100\n\
             modelardb.source = tid1, 100\n",
        )
        .unwrap();
        let sources = source_map(&config.series);
        let mut db = config.into_builder().unwrap().build().unwrap();
        // Names resolve by configured position — even one that looks like
        // another series' `tidN` — and `tidN`/numbers still name Tids.
        let csv = "source,timestamp,value\n\
                   t9632,0,1.0\ntid1,0,7.0\nt9632,100,1.0\n2,100,7.0\ntid2,200,7.0\n";
        let points = parse_csv(csv, &sources).unwrap();
        assert_eq!(
            points.iter().map(|p| p.0).collect::<Vec<_>>(),
            [1, 2, 1, 2, 2]
        );
        for (tid, ts, value) in points {
            db.ingest_point(tid, ts, value).unwrap();
        }
        db.flush().unwrap();
        let counts = db
            .sql("SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
            .unwrap();
        let counts: Vec<(i64, i64)> = counts
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        assert_eq!(counts, [(1, 2), (2, 3)]);
        assert!(
            parse_csv("t9634,0,1.0", &sources).is_err(),
            "unconfigured name"
        );
    }

    #[test]
    fn csv_rejects_garbage() {
        let sources = HashMap::new();
        assert!(parse_csv("ghost,100,1.0", &sources).is_err());
        assert!(parse_csv("1,notatime,1.0", &sources).is_err());
        assert!(parse_csv("1,100", &sources).is_err());
    }
}
