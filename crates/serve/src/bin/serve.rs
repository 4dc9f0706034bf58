//! `mds-serve` — the experiment-serving daemon.
//!
//! Binds, prints the listening address, and serves until a client posts
//! `/v1/shutdown` (the SIGTERM surrogate — plain `std` has no signal
//! handling), then drains in-flight work and exits 0. Linux-only: the
//! server runs on an `epoll` event loop.

use mds_serve::{LogTarget, Server, ServerConfig};
use std::path::PathBuf;

const USAGE: &str = "\
usage: mds-serve [options]

Serve paper experiments over HTTP/JSON.

options:
  --addr HOST:PORT   bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --workers N        request-executing worker threads (default 4)
  --queue-depth N    job queue capacity before 503 shedding (default 64)
  --jobs N           simulation worker threads (default: MDS_JOBS or all cores)
  --store DIR        durable result store: prewarm the cache from DIR at boot
                     and persist every cache fill, so warm state survives
                     restarts (created if missing)
  --wdl FILE         register a WDL spec's generated workloads at boot so the
                     'wdl' experiment resolves over HTTP (repeatable)
  --wdl-seed N       family seed for --wdl expansion (default 0)
  --wdl-count K      members per scenario family (default 4)
  --quiet            discard the JSON access log (default: stderr)
  -h, --help         show this help

routes:
  POST /v1/experiments   run (or fetch) an experiment: {\"experiment\":\"fig5\",\"scale\":\"tiny\"}
  GET  /v1/experiments   list experiment ids and titles
  GET  /healthz          liveness probe (200 while the process serves)
  GET  /readyz           readiness probe (503 while saturated or draining)
  GET  /metrics          Prometheus text metrics
  GET  /v1/cache         export warm results (epoch-tagged; cluster handoff)
  POST /v1/cache         import warm results (409 on epoch mismatch)
  POST /v1/shutdown      graceful shutdown
";

fn fail(message: &str) -> ! {
    eprintln!("mds-serve: {message}\n\n{USAGE}");
    std::process::exit(2);
}

/// Everything the daemon needs: the server config plus boot-time WDL
/// registrations (which happen before `Server::start` so they fold into
/// the store epoch).
#[derive(Debug)]
struct Options {
    config: ServerConfig,
    wdl_files: Vec<String>,
    wdl_seed: u64,
    wdl_count: u32,
}

fn parse_options(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        config: ServerConfig::default(),
        wdl_files: Vec::new(),
        wdl_seed: 0,
        wdl_count: 4,
    };
    let config = &mut options.config;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                let text = value("--workers")?;
                config.workers = text
                    .parse()
                    .map_err(|_| format!("--workers: invalid count '{text}'"))?;
            }
            "--queue-depth" => {
                let text = value("--queue-depth")?;
                config.queue_depth = text
                    .parse()
                    .map_err(|_| format!("--queue-depth: invalid count '{text}'"))?;
            }
            "--jobs" => {
                let text = value("--jobs")?;
                config.jobs =
                    Some(mds_runner::parse_jobs(&text).map_err(|e| format!("--jobs: {e}"))?);
            }
            "--store" => config.store_dir = Some(PathBuf::from(value("--store")?)),
            "--wdl" => options.wdl_files.push(value("--wdl")?),
            "--wdl-seed" => {
                let text = value("--wdl-seed")?;
                options.wdl_seed = text
                    .parse()
                    .map_err(|_| format!("--wdl-seed: invalid seed '{text}'"))?;
            }
            "--wdl-count" => {
                let text = value("--wdl-count")?;
                options.wdl_count = text.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("--wdl-count: expected a positive integer, got '{text}'")
                })?;
            }
            "--quiet" => config.log = LogTarget::Discard,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(options)
}

/// Parses and registers every `--wdl` spec with the dynamic workload
/// registry, so the `wdl` experiment id resolves over HTTP. Must run
/// before `Server::start`: registered fingerprints are part of the
/// effective store epoch.
fn register_wdl_files(files: &[String], seed: u64, count: u32) -> Result<(), String> {
    for file in files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read WDL spec {file}: {e}"))?;
        let spec = mds_wdl::parse_spec(&src).map_err(|d| format!("{file}: {d}"))?;
        let workloads =
            mds_wdl::register_spec(&spec, seed, count).map_err(|d| format!("{file}: {d}"))?;
        eprintln!(
            "mds-serve: registered {} generated workload(s) from {file}",
            workloads.len()
        );
    }
    Ok(())
}

fn main() {
    let options = match parse_options(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => fail(&message),
    };
    if let Err(message) =
        register_wdl_files(&options.wdl_files, options.wdl_seed, options.wdl_count)
    {
        fail(&message);
    }
    let server = match Server::start(options.config) {
        Ok(server) => server,
        Err(message) => fail(&message),
    };
    println!("mds-serve listening on http://{}", server.local_addr());
    server.wait_for_shutdown();
    eprintln!("mds-serve: shutdown requested, draining");
    server.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_flag() {
        let options = parse_options(
            [
                "--addr",
                "0.0.0.0:0",
                "--workers",
                "8",
                "--queue-depth",
                "5",
                "--jobs",
                "3",
                "--store",
                "/tmp/mds-store",
                "--wdl",
                "a.wdl",
                "--wdl",
                "b.wdl",
                "--wdl-seed",
                "9",
                "--wdl-count",
                "2",
                "--quiet",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(options.config.addr, "0.0.0.0:0");
        assert_eq!(options.config.workers, 8);
        assert_eq!(options.config.queue_depth, 5);
        assert_eq!(options.config.jobs, Some(3));
        assert_eq!(
            options.config.store_dir.as_deref(),
            Some(std::path::Path::new("/tmp/mds-store"))
        );
        assert_eq!(options.wdl_files, ["a.wdl", "b.wdl"]);
        assert_eq!(options.wdl_seed, 9);
        assert_eq!(options.wdl_count, 2);
        assert_eq!(options.config.log, LogTarget::Discard);
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        assert!(parse_options(["--port".to_string()].into_iter()).is_err());
        assert!(parse_options(["--workers".to_string()].into_iter()).is_err());
        assert!(parse_options(["--store".to_string()].into_iter()).is_err());
        let jobs = parse_options(["--jobs".to_string(), "0".to_string()].into_iter()).unwrap_err();
        assert!(jobs.starts_with("--jobs:"), "{jobs}");
        let count =
            parse_options(["--wdl-count".to_string(), "0".to_string()].into_iter()).unwrap_err();
        assert!(count.starts_with("--wdl-count:"), "{count}");
    }
}
