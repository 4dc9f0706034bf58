//! End-to-end serving benchmark: cold-cache, warm-cache, and
//! restart-warm throughput and latency percentiles at 1/4/8 concurrent
//! clients.
//!
//! Run with `cargo bench --bench serve`; results are written to
//! `BENCH_serve.json` at the workspace root (same placement convention as
//! the other suites). Under plain `cargo test` the target smoke-runs with
//! very short bursts and writes nothing.
//!
//! "Cold" requests send `"fresh": true`, which bypasses the server's
//! result-cache *read* — every request pays simulation compute (the
//! shared trace cache still amortizes workload emulation, as in any
//! long-lived server). "Warm" requests hit the result cache and serve the
//! memoized bytes, which is the steady state for repeated queries.
//! "Restart-warm" measures a **brand-new server process state** booted
//! over the durable store the previous lifetime wrote: its cache is
//! prewarmed from disk, so it must serve at warm speed from the very
//! first request without recomputing anything (the run asserts zero
//! workload emulations). The gap between restart-warm and cold is what
//! the store buys; the gap to steady-warm is the bound the CI gate
//! enforces.
//!
//! The report carries a gate-parseable `results` array (one
//! `serve/<mode>/<N>c` entry per point, `median_ns` = the run's p50
//! request latency) alongside the richer legacy `runs` array.

use mds_harness::bench::{BenchConfig, BenchReport, BenchResult, Host};
use mds_harness::json::ToJson;
use mds_harness::tempdir::TempDir;
use mds_serve::{run_load, LoadConfig, LoadReport, LogTarget, Server, ServerConfig};
use std::path::Path;
use std::time::Duration;

const CLIENT_COUNTS: [usize; 3] = [1, 4, 8];
const EXPERIMENT: &str = "fig5";
const SCALE: &str = "tiny";

fn seconds_per_run(measure: bool) -> f64 {
    if let Ok(text) = std::env::var("MDS_SERVE_BENCH_SECONDS") {
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

fn start_server(store_dir: Option<&Path>) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 8,
        store_dir: store_dir.map(Path::to_path_buf),
        log: LogTarget::Discard,
        ..ServerConfig::default()
    })
    .expect("start in-process server")
}

fn run_mode(server: &Server, clients: usize, seconds: f64, fresh: bool) -> LoadReport {
    run_mode_idle(server, clients, seconds, fresh, 0)
}

fn run_mode_idle(
    server: &Server,
    clients: usize,
    seconds: f64,
    fresh: bool,
    idle: usize,
) -> LoadReport {
    run_load(&LoadConfig {
        addr: server.local_addr().to_string(),
        clients,
        duration: Duration::from_secs_f64(seconds),
        experiment: EXPERIMENT.to_string(),
        scale: SCALE.to_string(),
        fresh,
        idle,
        ..LoadConfig::default()
    })
}

fn run_json(mode: &str, clients: usize, report: &LoadReport) -> mds_harness::json::Json {
    report
        .to_json()
        .field("mode", mode)
        .field("clients_requested", clients)
}

/// One load run folded into the gate's benchmark shape: `median_ns` is
/// the run's p50 request latency, `min_ns`/`max_ns` the extremes, and
/// `iters_per_batch` the requests completed (a single "batch").
fn gate_result(mode: &str, clients: usize, report: &LoadReport) -> BenchResult {
    BenchResult {
        name: format!("serve/{mode}/{clients}c"),
        iters_per_batch: report.requests,
        batches: 1,
        median_ns: report.percentile_us(50.0) as f64 * 1000.0,
        mad_ns: 0.0,
        min_ns: report.latencies_us.first().copied().unwrap_or(0) as f64 * 1000.0,
        max_ns: report.latencies_us.last().copied().unwrap_or(0) as f64 * 1000.0,
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
    eprintln!("{label} suite 'serve' ({EXPERIMENT}@{SCALE}, {seconds}s per point)");

    let store = TempDir::new("mds-serve-bench-store").expect("bench store dir");
    let server = start_server(Some(store.path()));

    let mut runs = Vec::new();
    let mut results = Vec::new();
    for clients in CLIENT_COUNTS {
        let cold = run_mode(&server, clients, seconds, true);
        assert!(
            cold.requests > 0,
            "cold run at {clients} clients completed no requests"
        );
        eprintln!("  cold/{clients}c: {}", cold.render());
        runs.push(run_json("cold", clients, &cold));
        results.push(gate_result("cold", clients, &cold));

        // Prime the result cache, then measure the warm path.
        let _ = run_mode(&server, 1, 0.05, false);
        let warm = run_mode(&server, clients, seconds, false);
        assert!(
            warm.requests > 0,
            "warm run at {clients} clients completed no requests"
        );
        eprintln!("  warm/{clients}c: {}", warm.render());
        runs.push(run_json("warm", clients, &warm));
        results.push(gate_result("warm", clients, &warm));
    }

    // 1k parked keep-alive connections must not tax the active path:
    // the event-driven core pays per readiness event, not per held
    // connection, so warm latency with the idle fleet parked should sit
    // within noise of the plain warm series above.
    let idle_fleet = if measure { 1000 } else { 32 };
    let warm_idle = run_mode_idle(&server, 4, seconds, false, idle_fleet);
    assert!(
        warm_idle.requests > 0,
        "idle-fleet warm run completed no requests"
    );
    assert_eq!(
        warm_idle.idle, idle_fleet as u64,
        "every idler must park successfully"
    );
    eprintln!("  idle_keepalive_1k/4c: {}", warm_idle.render());
    runs.push(run_json("idle_keepalive_1k", 4, &warm_idle));
    results.push(gate_result("idle_keepalive_1k", 4, &warm_idle));

    let trace_emulations = server.trace_cache().misses();
    server.shutdown();

    // Restart-warm: a fresh server state over the store the first
    // lifetime persisted. Nothing primes it — the boot replay must make
    // the very first request a cache hit, so any emulation here means
    // the durable tier failed to carry the state across the restart.
    let reborn = start_server(Some(store.path()));
    assert!(reborn.prewarmed() > 0, "the store must prewarm the cache");
    for clients in CLIENT_COUNTS {
        let restart_warm = run_mode(&reborn, clients, seconds, false);
        assert!(
            restart_warm.requests > 0,
            "restart-warm run at {clients} clients completed no requests"
        );
        eprintln!("  restart_warm/{clients}c: {}", restart_warm.render());
        runs.push(run_json("restart_warm", clients, &restart_warm));
        results.push(gate_result("restart_warm", clients, &restart_warm));
    }
    assert_eq!(
        reborn.trace_cache().misses(),
        0,
        "restart-warm serving must not emulate any workload"
    );
    reborn.shutdown();

    if !measure {
        return;
    }
    let report = BenchReport {
        suite: "serve".to_string(),
        scale: SCALE.to_string(),
        // Synthesized timing block so the report parses like every other
        // suite's: one batch of `seconds` wall-clock per benchmark.
        config: BenchConfig {
            warmup_ms: 0,
            batch_ms: (seconds * 1000.0) as u64,
            batches: 1,
            max_ms: (seconds * 1000.0) as u64,
        },
        host: Some(Host::current()),
        results,
    };
    let doc = report
        .to_json()
        .field("experiment", EXPERIMENT)
        .field("seconds_per_run", seconds)
        .field("trace_emulations", trace_emulations)
        .field("runs", mds_harness::json::Json::Array(runs));
    let path = mds_harness::bench::report_dir().join("BENCH_serve.json");
    match std::fs::write(&path, doc.pretty()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
