//! Cluster-tier benchmark: gateway throughput and latency over 1, 2,
//! and 4 backends, cold-cache and warm-cache.
//!
//! Run with `cargo bench --bench cluster`; results are written to
//! `BENCH_cluster.json` at the workspace root. Under plain `cargo test`
//! the target smoke-runs with very short bursts and writes nothing.
//!
//! Each point starts a fresh in-process fleet and a gateway in front of
//! it, then offers closed-loop fig5 load *through the gateway* with the
//! same generator the `serve` suite uses — so the numbers are directly
//! comparable: the delta against `BENCH_serve.json` is the cost (and,
//! at >1 backend, the win) of the cluster tier. The gateway serves an
//! experiment as a one-experiment grid. `cold` sends `"fresh": true`, so
//! every request is planned, scattered as one cell batch per trace key
//! (each backend recomputing its cells over a warm trace cache) and
//! merged. `warm` measures the steady state, where every request is a
//! hit in the gateway's merged-document cache and makes no upstream
//! call.
//!
//! Three grid series time one whole `POST /v1/grids` each, against a
//! fresh fleet per sample with one simulation thread per backend:
//!
//! - `grid_cold`: fig5 + table7 on empty caches, the scatter-gather
//!   cold-grid wall time. The bench gate requires its 4-backend point to
//!   beat the 1-backend point by 1.7x on hosts with at least four cores.
//! - `grid_warm`: the same grid again, answered from the gateway's
//!   merged-document cache with no upstream call.
//! - `grid_cells_warm`: table7 + fig5, the same cells in the other
//!   order. It is another document, so it misses the merged cache and
//!   scatters, and every cell batch is answered from the backends'
//!   per-cell result caches: this is the per-cell cache path.
//!
//! The gate requires both warm series to be at least 3x faster than
//! `grid_cold` at 2 backends (see `ci/bench_gate.sh`).

use mds_cluster::fleet::{Fleet, FleetConfig};
use mds_cluster::gateway::{Gateway, GatewayConfig};
use mds_harness::bench::{BenchConfig, BenchReport, BenchResult, Host};
use mds_harness::json::{Json, ToJson};
use mds_serve::client::request_once;
use mds_serve::{run_load, LoadConfig, LoadReport, LogTarget};
use std::time::{Duration, Instant};

const BACKEND_COUNTS: [usize; 3] = [1, 2, 4];
const CLIENTS: usize = 8;
const EXPERIMENT: &str = "fig5";
const SCALE: &str = "tiny";
/// The grid series' experiments. table7's cells are a subset of fig5's,
/// so the two orders are two documents over one set of cells.
const GRID: [&str; 2] = ["fig5", "table7"];

fn seconds_per_run(measure: bool) -> f64 {
    if let Ok(text) = std::env::var("MDS_CLUSTER_BENCH_SECONDS") {
        if let Ok(secs) = text.parse::<f64>() {
            if secs.is_finite() && secs > 0.0 {
                return secs;
            }
        }
    }
    if measure {
        2.0
    } else {
        0.15
    }
}

fn run_mode(gateway: &Gateway, seconds: f64, fresh: bool) -> LoadReport {
    run_load(&LoadConfig {
        addr: gateway.local_addr().to_string(),
        clients: CLIENTS,
        duration: Duration::from_secs_f64(seconds),
        experiment: EXPERIMENT.to_string(),
        scale: SCALE.to_string(),
        fresh,
        ..LoadConfig::default()
    })
}

fn run_json(mode: &str, backends: usize, report: &LoadReport) -> mds_harness::json::Json {
    report
        .to_json()
        .field("mode", mode)
        .field("backends", backends)
}

/// Median absolute deviation of the sorted latency samples, in
/// microseconds — the same robustness statistic the harness bencher
/// reports, recomputed over request latencies.
fn mad_us(report: &LoadReport) -> f64 {
    if report.latencies_us.is_empty() {
        return 0.0;
    }
    let median = report.percentile_us(50.0) as f64;
    let mut deviations: Vec<f64> = report
        .latencies_us
        .iter()
        .map(|&us| (us as f64 - median).abs())
        .collect();
    deviations.sort_by(|a, b| a.total_cmp(b));
    deviations[deviations.len() / 2]
}

/// Folds one load run into the gate-comparable summary shape: one
/// "iteration" is one proxied request, so `median_ns` is the p50
/// end-to-end request latency. That is the stat `ci/bench_gate.sh`
/// compares against the committed baseline.
fn gate_result(mode: &str, backends: usize, report: &LoadReport) -> BenchResult {
    BenchResult {
        name: format!("gateway/{mode}/{backends}b"),
        iters_per_batch: report.requests.max(1),
        batches: 1,
        median_ns: report.percentile_us(50.0) as f64 * 1e3,
        mad_ns: mad_us(report) * 1e3,
        min_ns: report.latencies_us.first().copied().unwrap_or(0) as f64 * 1e3,
        max_ns: report.latencies_us.last().copied().unwrap_or(0) as f64 * 1e3,
        throughput_elems: None,
    }
}

/// One `[cold, warm, cells_warm]` triple of `POST /v1/grids` wall times
/// at `backends` backends. The cold grid runs on a fresh fleet (empty
/// trace and result caches) with one simulation thread per backend, i.e.
/// fixed per-node capacity; what it isolates is scale-out of the cold
/// emulation phase: the gateway's balanced placement caps each backend
/// at its fair share of the grid's distinct workloads, and each backend
/// emulates its shards as their cell batches arrive, concurrently, so
/// wall time shrinks with backend count on any host with at least as
/// many cores as backends. The warm grid is the same request again,
/// answered from the gateway's merged-document cache; the cells-warm
/// grid reverses the experiment order, so it scatters and every cell
/// hits a backend's result cache.
fn grid_sample(backends: usize) -> [Duration; 3] {
    let fleet = Fleet::spawn(&FleetConfig {
        backends,
        workers: 4,
        jobs: Some(1),
        ..FleetConfig::default()
    })
    .expect("spawn fleet");
    let gateway = Gateway::start(GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: fleet.addrs(),
        workers: 8,
        log: LogTarget::Discard,
        ..GatewayConfig::default()
    })
    .expect("start gateway");
    let grid = |ids: [&str; 2]| {
        let body = format!(
            r#"{{"experiments":["{}","{}"],"scale":"{SCALE}"}}"#,
            ids[0], ids[1]
        );
        let started = Instant::now();
        let response = request_once(
            &gateway.local_addr().to_string(),
            "POST",
            "/v1/grids",
            body.as_bytes(),
            Duration::from_secs(300),
        )
        .expect("grid request");
        let elapsed = started.elapsed();
        assert_eq!(response.status, 200, "grid over {backends} backends failed");
        elapsed
    };
    let [first, second] = GRID;
    let samples = [grid(GRID), grid(GRID), grid([second, first])];
    gateway.shutdown();
    fleet.shutdown();
    samples
}

/// Folds whole-grid samples into the gate-comparable shape: one
/// "iteration" is one whole grid, `median_ns` its median wall time.
fn grid_result(mode: &str, backends: usize, samples_ns: &mut [u64]) -> BenchResult {
    samples_ns.sort_unstable();
    let median = samples_ns[samples_ns.len() / 2] as f64;
    let mut deviations: Vec<f64> = samples_ns
        .iter()
        .map(|&ns| (ns as f64 - median).abs())
        .collect();
    deviations.sort_by(|a, b| a.total_cmp(b));
    BenchResult {
        name: format!("gateway/{mode}/{backends}b"),
        iters_per_batch: samples_ns.len() as u64,
        batches: 1,
        median_ns: median,
        mad_ns: deviations[deviations.len() / 2],
        min_ns: samples_ns[0] as f64,
        max_ns: samples_ns[samples_ns.len() - 1] as f64,
        throughput_elems: None,
    }
}

fn main() {
    let measure = std::env::args().any(|a| a == "--bench");
    let seconds = seconds_per_run(measure);
    let label = if measure {
        "benchmarking"
    } else {
        "smoke-running"
    };
    eprintln!(
        "{label} suite 'cluster' ({EXPERIMENT}@{SCALE}, {CLIENTS} clients, {seconds}s per point)"
    );

    let mut runs = Vec::new();
    let mut results = Vec::new();
    // Whole grids are one request each, so the time budget buys
    // fresh-fleet samples rather than load seconds.
    let grid_samples = ((seconds / 0.5).round() as usize).clamp(1, 8);
    for backends in BACKEND_COUNTS {
        let mut series: [Vec<u64>; 3] = Default::default();
        for _ in 0..grid_samples {
            for (samples, wall) in series.iter_mut().zip(grid_sample(backends)) {
                samples.push(wall.as_nanos() as u64);
            }
        }
        for (mode, samples) in ["grid_cold", "grid_warm", "grid_cells_warm"]
            .into_iter()
            .zip(&mut series)
        {
            let result = grid_result(mode, backends, samples);
            eprintln!(
                "  {mode}/{backends}b: median {:.1}ms over {grid_samples} fresh-fleet sample(s)",
                result.median_ns / 1e6
            );
            results.push(result);
            runs.push(
                Json::object()
                    .field("mode", mode)
                    .field("backends", backends)
                    .field(
                        "samples_ns",
                        Json::Array(samples.iter().map(|&ns| Json::from(ns)).collect()),
                    ),
            );
        }

        let fleet = Fleet::spawn(&FleetConfig {
            backends,
            workers: 4,
            ..FleetConfig::default()
        })
        .expect("spawn fleet");
        let gateway = Gateway::start(GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: fleet.addrs(),
            workers: 8,
            log: LogTarget::Discard,
            ..GatewayConfig::default()
        })
        .expect("start gateway");

        let cold = run_mode(&gateway, seconds, true);
        assert!(
            cold.requests > 0,
            "cold run over {backends} backends completed no requests"
        );
        eprintln!("  cold/{backends}b: {}", cold.render());
        results.push(gate_result("cold", backends, &cold));
        runs.push(run_json("cold", backends, &cold));

        // Prime every backend's result cache through the gateway, then
        // measure the warm steady state.
        let _ = run_mode(&gateway, 0.05, false);
        let warm = run_mode(&gateway, seconds, false);
        assert!(
            warm.requests > 0,
            "warm run over {backends} backends completed no requests"
        );
        eprintln!("  warm/{backends}b: {}", warm.render());
        results.push(gate_result("warm", backends, &warm));
        runs.push(run_json("warm", backends, &warm));

        gateway.shutdown();
        fleet.shutdown();
    }

    if !measure {
        return;
    }
    // The document is a gate-parseable `BenchReport` (suite/scale/config/
    // results, where `median_ns` is p50 request latency) plus extra
    // detail fields (`experiment`, `clients`, `runs`) that the parser
    // ignores but humans and dashboards can read.
    let report = BenchReport {
        suite: "cluster".to_string(),
        scale: SCALE.to_string(),
        config: BenchConfig {
            warmup_ms: 50,
            batch_ms: (seconds * 1e3) as u64,
            batches: 1,
            max_ms: (seconds * 1e3) as u64 * BACKEND_COUNTS.len() as u64 * 2,
        },
        host: Some(Host::current()),
        results,
    };
    let doc = report
        .to_json()
        .field("experiment", EXPERIMENT)
        .field(
            "grid",
            Json::Array(GRID.iter().map(|&id| Json::from(id)).collect()),
        )
        .field("clients", CLIENTS)
        .field("seconds_per_run", seconds)
        .field("runs", mds_harness::json::Json::Array(runs));
    let path = mds_harness::bench::report_dir().join("BENCH_cluster.json");
    match std::fs::write(&path, doc.pretty()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
