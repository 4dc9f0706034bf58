//! `mds-cluster` — the sharded experiment-serving gateway.
//!
//! Fronts a fleet of `mds-serve` backends (external via `--backend`, or
//! a locally spawned in-process fleet via `--spawn N`) behind one
//! address. Every experiment or grid is scattered across the fleet as
//! cell batches, routed by trace key on a consistent-hash ring, with
//! health probing, circuit breakers, and failover, and merged into the
//! CLI's bytes. Serves until a client posts `/v1/shutdown`,
//! then drains and exits 0 (backends given via `--backend` are left
//! running; a `--spawn`ed fleet is shut down with the gateway).
//! Linux-only: the gateway runs on an `epoll` event loop.

use mds_cluster::fleet::{Fleet, FleetConfig};
use mds_cluster::gateway::{Gateway, GatewayConfig};
use mds_serve::LogTarget;
use std::time::Duration;

const USAGE: &str = "\
usage: mds-cluster [options]

Front a fleet of mds-serve backends with one failover gateway.

options:
  --addr HOST:PORT     gateway bind address (default 127.0.0.1:7979; port 0 = ephemeral)
  --backend HOST:PORT  an existing backend to front (repeatable)
  --spawn N            additionally spawn N in-process backends on ephemeral ports
  --store DIR          durable store base for spawned backends (backend i under DIR/backend-i)
  --jobs N             simulation threads per spawned backend (default: MDS_JOBS or all cores)
  --workers N          gateway request-executing workers (default 4)
  --queue-depth N      gateway job queue capacity before 503 shedding (default 64)
  --replicas N         distinct backends tried per cell batch (default 2)
  --vnodes N           virtual nodes per backend on the hash ring (default 64)
  --retry-burst N      retry-budget burst above the 20% steady-state ratio (default 16)
  --probe-ms MS        readiness-probe interval in milliseconds (default 250)
  --quiet              discard the JSON event log (default: stderr)
  -h, --help           show this help

routes:
  POST /v1/experiments   one experiment, served as a one-experiment grid
  POST /v1/grids         experiments scattered as cell batches by trace key, merged in order
  GET  /v1/experiments   listing of experiment ids (answered by the gateway)
  GET  /healthz          gateway liveness probe
  GET  /readyz           gateway readiness (503 while draining, saturated, or no backend in rotation)
  GET  /metrics          Prometheus text metrics, per-backend and per-route
  GET  /v1/cluster       JSON cluster status: backends, health, breakers
  POST /v1/shutdown      graceful gateway shutdown
";

fn fail(message: &str) -> ! {
    eprintln!("mds-cluster: {message}\n\n{USAGE}");
    std::process::exit(2);
}

/// Everything parsed off the command line.
struct Options {
    gateway: GatewayConfig,
    spawn: usize,
    fleet_jobs: Option<usize>,
    store_dir: Option<std::path::PathBuf>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut gateway = GatewayConfig::default();
    let mut spawn = 0usize;
    let mut fleet_jobs = None;
    let mut store_dir = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let parse_count = |flag: &str, text: String| {
            text.parse::<usize>()
                .map_err(|_| format!("{flag}: invalid count '{text}'"))
        };
        match arg.as_str() {
            "--addr" => gateway.addr = value("--addr")?,
            "--backend" => gateway.backends.push(value("--backend")?),
            "--spawn" => spawn = parse_count("--spawn", value("--spawn")?)?,
            "--store" => store_dir = Some(std::path::PathBuf::from(value("--store")?)),
            "--jobs" => {
                let text = value("--jobs")?;
                fleet_jobs = Some(
                    text.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--jobs: invalid count '{text}'"))?,
                );
            }
            "--workers" => gateway.workers = parse_count("--workers", value("--workers")?)?,
            "--queue-depth" => {
                gateway.queue_depth = parse_count("--queue-depth", value("--queue-depth")?)?;
            }
            "--replicas" => {
                let n = parse_count("--replicas", value("--replicas")?)?;
                if n == 0 {
                    return Err("--replicas: must be at least 1".to_string());
                }
                gateway.replicas = n;
            }
            "--vnodes" => {
                let n = parse_count("--vnodes", value("--vnodes")?)?;
                if n == 0 {
                    return Err("--vnodes: must be at least 1".to_string());
                }
                gateway.vnodes = n;
            }
            "--retry-burst" => {
                gateway.retry_burst = parse_count("--retry-burst", value("--retry-burst")?)? as u64;
            }
            "--probe-ms" => {
                let ms = parse_count("--probe-ms", value("--probe-ms")?)?;
                if ms == 0 {
                    return Err("--probe-ms: must be at least 1".to_string());
                }
                gateway.probe_interval = Duration::from_millis(ms as u64);
            }
            "--quiet" => gateway.log = LogTarget::Discard,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if gateway.backends.is_empty() && spawn == 0 {
        return Err("need at least one --backend or --spawn N".to_string());
    }
    if store_dir.is_some() && spawn == 0 {
        return Err("--store only applies to --spawn'ed backends".to_string());
    }
    Ok(Options {
        gateway,
        spawn,
        fleet_jobs,
        store_dir,
    })
}

fn main() {
    let mut options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => fail(&message),
    };
    let fleet = if options.spawn > 0 {
        let fleet = match Fleet::spawn(&FleetConfig {
            backends: options.spawn,
            jobs: options.fleet_jobs,
            store_dir: options.store_dir.clone(),
            log: options.gateway.log,
            ..FleetConfig::default()
        }) {
            Ok(fleet) => fleet,
            Err(message) => fail(&message),
        };
        for addr in fleet.addrs() {
            eprintln!("mds-cluster: spawned backend on {addr}");
            options.gateway.backends.push(addr);
        }
        Some(fleet)
    } else {
        None
    };
    let gateway = match Gateway::start(options.gateway) {
        Ok(gateway) => gateway,
        Err(message) => fail(&message),
    };
    println!("mds-cluster listening on http://{}", gateway.local_addr());
    gateway.wait_for_shutdown();
    eprintln!("mds-cluster: shutdown requested, draining");
    gateway.shutdown();
    if let Some(fleet) = fleet {
        fleet.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_flag() {
        let options = parse_args(
            [
                "--addr",
                "0.0.0.0:0",
                "--backend",
                "h:1",
                "--backend",
                "h:2",
                "--spawn",
                "3",
                "--store",
                "/tmp/fleet-store",
                "--jobs",
                "2",
                "--workers",
                "8",
                "--queue-depth",
                "5",
                "--replicas",
                "3",
                "--vnodes",
                "128",
                "--retry-burst",
                "9",
                "--probe-ms",
                "100",
                "--quiet",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(options.gateway.addr, "0.0.0.0:0");
        assert_eq!(options.gateway.backends, vec!["h:1", "h:2"]);
        assert_eq!(options.spawn, 3);
        assert_eq!(options.fleet_jobs, Some(2));
        assert_eq!(
            options.store_dir.as_deref(),
            Some(std::path::Path::new("/tmp/fleet-store"))
        );
        assert_eq!(options.gateway.workers, 8);
        assert_eq!(options.gateway.queue_depth, 5);
        assert_eq!(options.gateway.replicas, 3);
        assert_eq!(options.gateway.vnodes, 128);
        assert_eq!(options.gateway.retry_burst, 9);
        assert_eq!(options.gateway.probe_interval, Duration::from_millis(100));
        assert_eq!(options.gateway.log, LogTarget::Discard);
    }

    #[test]
    fn rejects_nonsense() {
        assert!(parse_args(std::iter::empty()).is_err(), "no backends");
        assert!(parse_args(["--replicas".into(), "0".into()].into_iter()).is_err());
        assert!(
            parse_args(
                [
                    "--backend".into(),
                    "h:1".into(),
                    "--store".into(),
                    "/tmp/x".into()
                ]
                .into_iter()
            )
            .is_err(),
            "--store without --spawn"
        );
        assert!(parse_args(["--vnodes".into(), "x".into()].into_iter()).is_err());
        assert!(parse_args(["--bogus".into()].into_iter()).is_err());
    }

    #[test]
    fn the_removed_hedge_flag_is_an_unknown_argument() {
        let args = ["--backend", "h:1", "--hedge-ms", "40"];
        let error = parse_args(args.into_iter().map(String::from))
            .err()
            .expect("--hedge-ms must fail");
        assert_eq!(error, "unknown argument '--hedge-ms'");
    }
}
