//! End-to-end cluster tests over real sockets.
//!
//! The load-bearing guarantees proved here:
//!
//! - Experiment documents fetched **through the gateway** — one-experiment
//!   grids, scattered as cell batches by trace key — are byte-identical
//!   to the canonical `repro <id> --json` output for every experiment,
//!   cold and warm, sharded and failed over.
//! - Gracefully stopping one of two backends in the middle of
//!   closed-loop load produces **zero client-visible failures**: the
//!   drain-aware readiness probe ejects the backend and the failover
//!   path absorbs the stragglers.
//! - A dead backend in the fleet never surfaces to clients; the
//!   gateway's `/v1/cluster` and `/metrics` expose its state instead.
//! - When *no* backend is available the gateway still answers with the
//!   CLI's bytes (its merger computes the cells), and its readiness
//!   flips to `503` + `Retry-After`: backpressure, not an error.

use mds_cluster::fleet::{Fleet, FleetConfig};
mod common;

use common::{cli_doc, request};
use mds_cluster::gateway::{Gateway, GatewayConfig};
use mds_cluster::{grid, HashRing};
use mds_serve::client::request_once;
use mds_serve::{run_load, LoadConfig, LogTarget};
use mds_workloads::Scale;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn fleet(backends: usize) -> Fleet {
    Fleet::spawn(&FleetConfig {
        backends,
        workers: 4,
        jobs: Some(2),
        ..FleetConfig::default()
    })
    .expect("spawn fleet")
}

fn gateway_over(backends: Vec<String>) -> Gateway {
    Gateway::start(GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        backends,
        workers: 4,
        probe_interval: Duration::from_millis(50),
        log: LogTarget::Memory,
        ..GatewayConfig::default()
    })
    .expect("start gateway")
}

#[test]
fn gateway_serves_cli_identical_bytes_and_shards_the_key() {
    let fleet = fleet(2);
    let gateway = gateway_over(fleet.addrs());
    let body = br#"{"experiment":"fig5","scale":"tiny"}"#;

    let cold = request(&gateway, "POST", "/v1/experiments", body);
    assert_eq!(
        cold.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&cold.body)
    );
    assert_eq!(cold.header("content-type"), Some("application/json"));
    let expected = cli_doc("fig5");
    assert_eq!(
        cold.body,
        expected.as_bytes(),
        "gateway-served bytes must equal repro --json output"
    );

    // Sharding: the experiment went out as one batch per trace key, each
    // to the owner the ring's replica orders give that key.
    let fig5 = mds_serve::ExperimentRequest::from_body(body)
        .unwrap()
        .into_grid();
    let ring = HashRing::new(&fleet.addrs(), GatewayConfig::default().vnodes);
    let candidates: Vec<(String, Vec<usize>)> = grid::plan(&fig5)
        .batches
        .into_iter()
        .map(|b| (b.route_key.clone(), ring.replicas(&b.route_key, 2)))
        .collect();
    let owners = grid::balanced_assignments(&candidates, 2);
    let cells = mds_bench::grid::cells(&fig5.experiments, fig5.scale);
    for i in 0..2 {
        let server = fleet.server(i).expect("running backend");
        let mut held: Vec<String> = server
            .result_cache()
            .entries()
            .into_iter()
            .map(|e| e.0)
            .collect();
        held.sort();
        let mut owned: Vec<String> = cells
            .iter()
            .filter(|c| owners[&c.route_key()] == i)
            .map(|c| mds_serve::cell_key(&c.job))
            .collect();
        owned.sort();
        assert_eq!(held, owned, "backend {i} holds exactly its keys' cells");
        let traces = owners.values().filter(|&&owner| owner == i).count();
        assert_eq!(server.trace_cache().misses(), traces as u64);
    }
    let batches = candidates.len() as u64;
    assert_eq!(upstream_calls(&gateway), batches);

    // Warm repeat: identical bytes from the merged cache, no upstream call.
    let warm = request(&gateway, "POST", "/v1/experiments", body);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, expected.as_bytes());
    assert_eq!(upstream_calls(&gateway), batches);
    assert_eq!(grid_cache_counts(&gateway), (1, 1));

    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn every_experiment_through_the_gateway_is_the_cli_document() {
    let fleet = fleet(2);
    let gateway = gateway_over(fleet.addrs());
    for id in mds_bench::EXPERIMENT_IDS {
        let body = format!(r#"{{"experiment":"{id}","scale":"tiny"}}"#);
        let response = request(&gateway, "POST", "/v1/experiments", body.as_bytes());
        assert_eq!(response.status, 200, "{id}");
        assert_eq!(
            String::from_utf8(response.body).unwrap(),
            cli_doc(id),
            "{id}: gateway bytes must equal repro {id} --json"
        );
    }
    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn listing_is_answered_by_the_gateway_itself() {
    let fleet = fleet(2);
    let gateway = gateway_over(fleet.addrs());
    let lone = request_once(
        &fleet.addrs()[0],
        "GET",
        "/v1/experiments",
        b"",
        Duration::from_secs(60),
    )
    .expect("lone backend listing");
    assert_eq!(lone.status, 200);
    for _ in 0..4 {
        let response = request(&gateway, "GET", "/v1/experiments", b"");
        assert_eq!(response.status, 200);
        assert_eq!(response.header("content-type"), lone.header("content-type"));
        assert_eq!(
            response.body, lone.body,
            "the listing must equal a lone backend's"
        );
    }
    assert_eq!(upstream_calls(&gateway), 0, "the listing calls no backend");
    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn stopping_one_of_two_backends_mid_load_is_invisible_to_clients() {
    let mut fleet = fleet(2);
    let gateway = gateway_over(fleet.addrs());
    let addr = gateway.local_addr().to_string();

    // Prime the trace caches. The load sends `fresh`, so every request
    // scatters cell batches (a plain repeat would be a merged-cache hit
    // and never reach the backend being stopped).
    let prime = request(
        &gateway,
        "POST",
        "/v1/experiments",
        br#"{"experiment":"fig5","scale":"tiny"}"#,
    );
    assert_eq!(prime.status, 200);

    let stopper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        fleet.stop(0);
        fleet
    });
    let report = run_load(&LoadConfig {
        addr,
        clients: 4,
        duration: Duration::from_millis(1200),
        experiment: "fig5".to_string(),
        scale: "tiny".to_string(),
        fresh: true,
        ..LoadConfig::default()
    });
    let fleet = stopper.join().expect("stopper thread");

    assert!(report.requests > 0, "load must get through: {report:?}");
    assert_eq!(
        report.errors, 0,
        "stopping a backend must be client-invisible: {report:?}"
    );
    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn a_dead_backend_never_surfaces_to_clients() {
    // Bind-then-drop guarantees a closed port.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let fleet = fleet(1);
    let mut backends = vec![dead_addr.clone()];
    backends.extend(fleet.addrs());
    let gateway = gateway_over(backends);

    // An experiment's cells land on both slots; the dead one's batches
    // fail over (or the prober has ejected it first).
    let keyed = request(
        &gateway,
        "POST",
        "/v1/experiments",
        br#"{"experiment":"fig5","scale":"tiny"}"#,
    );
    assert_eq!(keyed.status, 200);
    assert_eq!(keyed.body, cli_doc("fig5").as_bytes());

    // The gateway knows: the dead backend is out of rotation (probed
    // unhealthy, breaker open, or failures recorded).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let status = request(&gateway, "GET", "/v1/cluster", b"");
        assert_eq!(status.status, 200);
        let text = String::from_utf8_lossy(&status.body).to_string();
        let ejected = text.contains(r#""healthy":false"#) || text.contains(r#""breaker":"open""#);
        if ejected {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dead backend never left rotation: {text}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Metrics expose the labeled per-backend families.
    let metrics = request(&gateway, "GET", "/metrics", b"");
    let text = String::from_utf8_lossy(&metrics.body).to_string();
    for needle in [
        format!("mds_gateway_backend_healthy{{backend=\"{dead_addr}\"}} 0"),
        "mds_gateway_route_requests_total{route=\"POST /v1/experiments\"} 1".to_string(),
        "mds_gateway_proxy_microseconds_count".to_string(),
    ] {
        assert!(text.contains(&needle), "missing {needle} in:\n{text}");
    }

    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn no_backend_available_is_backpressure_not_an_error() {
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let gateway = gateway_over(vec![dead_addr]);

    // An experiment against an unreachable fleet: every batch exhausts
    // its candidates, and the gateway computes the cells itself. Slower,
    // never wrong.
    let response = request(
        &gateway,
        "POST",
        "/v1/experiments",
        br#"{"experiment":"fig5","scale":"tiny"}"#,
    );
    assert_eq!(
        response.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&response.body)
    );
    assert_eq!(response.body, cli_doc("fig5").as_bytes());
    let m = gateway.metrics();
    let cells = mds_bench::grid::cells(&["fig5".to_string()], Scale::Tiny).len() as u64;
    assert_eq!(m.grid_cell_failures_total.load(Ordering::Relaxed), cells);
    assert_eq!(
        m.unavailable_total.load(Ordering::Relaxed),
        m.proxied_total.load(Ordering::Relaxed),
        "every dispatched batch exhausted the fleet"
    );

    // Gateway readiness flips once the prober agrees nothing is up.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let ready = request(&gateway, "GET", "/readyz", b"");
        if ready.status == 503 {
            assert!(String::from_utf8_lossy(&ready.body).contains("no backend"));
            break;
        }
        assert!(Instant::now() < deadline, "readiness never flipped");
        std::thread::sleep(Duration::from_millis(25));
    }
    // Liveness stays green throughout.
    assert_eq!(request(&gateway, "GET", "/healthz", b"").status, 200);
    gateway.shutdown();
}

#[test]
fn bad_requests_pass_through_the_backend_verbatim() {
    let fleet = fleet(1);
    let gateway = gateway_over(fleet.addrs());
    let lone = |target: &str, body: &[u8]| {
        request_once(
            &fleet.addrs()[0],
            "POST",
            target,
            body,
            Duration::from_secs(60),
        )
        .expect("lone backend round trip")
    };

    // The gateway parses with the backend's own parsers, so every
    // rejection carries a lone backend's exact bytes.
    for (target, body) in [
        ("/v1/experiments", &b"{\"experiment\":42}"[..]),
        ("/v1/experiments", br#"{"experiment":"nope"}"#),
        (
            "/v1/experiments",
            br#"{"experiment":"fig5","scale":"huge"}"#,
        ),
        ("/v1/experiments", br#"{"experiment":"fig5","jobs":4}"#),
        ("/v1/experiments", b"{"),
        ("/v1/experiments", b"\xff"),
        ("/v1/grids", br#"{"experiments":["nope"]}"#),
        ("/v1/grids", br#"{"experiments":[]}"#),
        ("/v1/grids", b"\xff"),
    ] {
        let at_gateway = request(&gateway, "POST", target, body);
        let at_backend = lone(target, body);
        assert_eq!(
            at_gateway.status,
            400,
            "{:?}",
            String::from_utf8_lossy(body)
        );
        assert_eq!(at_backend.status, 400);
        assert_eq!(
            at_gateway.header("content-type"),
            at_backend.header("content-type")
        );
        assert_eq!(
            String::from_utf8_lossy(&at_gateway.body),
            String::from_utf8_lossy(&at_backend.body),
            "{target} {:?}",
            String::from_utf8_lossy(body)
        );
    }
    assert_eq!(
        upstream_calls(&gateway),
        0,
        "a 400 never leaves the gateway"
    );

    // Gateway-level routing errors.
    assert_eq!(request(&gateway, "GET", "/v1/nope", b"").status, 404);
    assert_eq!(
        request(&gateway, "DELETE", "/v1/experiments", b"").status,
        405
    );

    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn gateway_grid_matches_lone_backend_and_cli_byte_for_byte() {
    let fleet = fleet(2);
    let gateway = gateway_over(fleet.addrs());
    let body = br#"{"experiments":["table2","fig5","table1"],"scale":"tiny"}"#;
    let expected = cli_doc("table2") + &cli_doc("fig5") + &cli_doc("table1");

    // Scatter-gathered through the gateway: request-order concatenation
    // of the canonical per-experiment documents.
    let scattered = request(&gateway, "POST", "/v1/grids", body);
    assert_eq!(
        scattered.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&scattered.body)
    );
    assert_eq!(scattered.header("content-type"), Some("application/json"));
    assert_eq!(
        scattered.body,
        expected.as_bytes(),
        "gateway grid bytes must equal the concatenated repro --json documents"
    );

    // A lone backend answering the whole grid itself: identical bytes.
    let lone = request_once(
        &fleet.addrs()[0],
        "POST",
        "/v1/grids",
        body,
        Duration::from_secs(60),
    )
    .expect("lone backend grid");
    assert_eq!(lone.status, 200);
    assert_eq!(
        lone.body,
        expected.as_bytes(),
        "lone-backend grid must match the gateway's scatter-gather answer"
    );

    // A single-experiment grid is the /v1/experiments body.
    let single = request(
        &gateway,
        "POST",
        "/v1/grids",
        br#"{"experiments":["fig5"],"scale":"tiny"}"#,
    );
    assert_eq!(single.status, 200);
    assert_eq!(single.body, cli_doc("fig5").as_bytes());

    // The scatter actually fanned out and the status page knows.
    let metrics = gateway.metrics();
    assert!(metrics.grids_total.load(Ordering::Relaxed) >= 2);
    assert!(
        metrics.grid_cells_total.load(Ordering::Relaxed) >= 2,
        "multi-cell grid must dispatch cells upstream"
    );
    let status = request(&gateway, "GET", "/v1/cluster", b"");
    let text = String::from_utf8_lossy(&status.body).to_string();
    assert!(text.contains("\"grids\""), "missing grids in {text}");
    assert!(
        text.contains("\"grid_cells\""),
        "missing grid_cells in {text}"
    );

    // Malformed grids are rejected at the gateway with a positioned 400.
    let bad = request(
        &gateway,
        "POST",
        "/v1/grids",
        br#"{"experiments":["nope"]}"#,
    );
    assert_eq!(bad.status, 400);
    assert!(String::from_utf8_lossy(&bad.body).contains("nope"));
    assert_eq!(request(&gateway, "GET", "/v1/grids", b"").status, 405);

    gateway.shutdown();
    fleet.shutdown();
}

/// Upstream calls the gateway has made (every attempt, all backends).
fn upstream_calls(gateway: &Gateway) -> u64 {
    gateway.metrics().upstream_latency.count()
}

/// Result-cache hits summed over the fleet's running backends.
fn backend_hits(fleet: &Fleet, backends: usize) -> u64 {
    (0..backends)
        .filter_map(|i| fleet.server(i))
        .map(|s| s.metrics().result_cache_hits.load(Ordering::Relaxed))
        .sum()
}

/// Trace emulations summed over the fleet's running backends.
fn backend_emulations(fleet: &Fleet, backends: usize) -> u64 {
    (0..backends)
        .filter_map(|i| fleet.server(i))
        .map(|s| s.trace_cache().misses())
        .sum()
}

/// The gateway's merged-cache `(hits, misses)` counters.
fn grid_cache_counts(gateway: &Gateway) -> (u64, u64) {
    let m = gateway.metrics();
    (
        m.grid_cache_hits_total.load(Ordering::Relaxed),
        m.grid_cache_misses_total.load(Ordering::Relaxed),
    )
}

/// The `cache` field of every `/v1/grids` access record, in order.
fn grid_access_cache_fields(gateway: &Gateway) -> Vec<String> {
    gateway
        .log_lines()
        .iter()
        .filter_map(|line| mds_harness::json::Json::parse(line).ok())
        .filter(|rec| {
            rec.get("evt").and_then(|v| v.as_str()) == Some("request")
                && rec.get("target").and_then(|v| v.as_str()) == Some("/v1/grids")
        })
        .filter_map(|rec| rec.get("cache").and_then(|v| v.as_str()).map(String::from))
        .collect()
}

#[test]
fn repeated_gateway_grid_is_served_from_the_merged_cache() {
    let fleet = fleet(2);
    let gateway = gateway_over(fleet.addrs());
    let body = br#"{"experiments":["fig5","fig6"],"scale":"tiny"}"#;
    let expected = cli_doc("fig5") + &cli_doc("fig6");

    let cold = request(&gateway, "POST", "/v1/grids", body);
    assert_eq!(cold.body, expected.as_bytes());
    assert_eq!(grid_cache_counts(&gateway), (0, 1));
    assert_eq!(gateway.grid_cache().len(), 1);

    // The repeat, spelled differently: byte-identical, a merged-cache
    // hit, and not one upstream call.
    let (calls, hits) = (upstream_calls(&gateway), backend_hits(&fleet, 2));
    let respelled = br#"{ "scale": "tiny", "experiments": [ "fig5", "fig6" ] }"#;
    let repeat = request(&gateway, "POST", "/v1/grids", respelled);
    assert_eq!(repeat.status, 200);
    assert_eq!(repeat.header("content-type"), Some("application/json"));
    assert_eq!(repeat.body, expected.as_bytes());
    assert_eq!(upstream_calls(&gateway), calls, "a hit calls no backend");
    assert_eq!(backend_hits(&fleet, 2), hits);
    assert_eq!(grid_cache_counts(&gateway), (1, 1));
    assert_eq!(grid_access_cache_fields(&gateway), ["miss", "hit"]);

    // The status page and the exposition both count it.
    let status = request(&gateway, "GET", "/v1/cluster", b"");
    let status =
        mds_harness::json::Json::parse(std::str::from_utf8(&status.body).unwrap()).unwrap();
    assert_eq!(
        status.get("grid_cache_hits").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(
        status.get("grid_cache_misses").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(
        status.get("epoch").and_then(|v| v.as_u64()),
        Some(gateway.epoch())
    );
    let text = String::from_utf8(request(&gateway, "GET", "/metrics", b"").body).unwrap();
    assert_eq!(metric(&text, "mds_gateway_grid_cache_hits_total"), Some(1));
    assert_eq!(
        metric(&text, "mds_gateway_grid_cache_misses_total"),
        Some(1)
    );

    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn reordered_gateway_grid_ships_one_batch_per_key_and_hits_cell_caches() {
    let fleet = fleet(2);
    let gateway = gateway_over(fleet.addrs());
    let ids = ["fig5".to_string(), "fig6".to_string()];
    let cells = mds_bench::grid::cells(&ids, Scale::Tiny);
    let mut keys: Vec<String> = cells.iter().map(|c| c.route_key()).collect();
    keys.sort_unstable();
    keys.dedup();

    let cold = request(
        &gateway,
        "POST",
        "/v1/grids",
        br#"{"experiments":["fig5","fig6"],"scale":"tiny"}"#,
    );
    assert_eq!(cold.body, (cli_doc("fig5") + &cli_doc("fig6")).as_bytes());
    assert_eq!(
        backend_emulations(&fleet, 2),
        keys.len() as u64,
        "each trace emulated once"
    );

    // The same cells in another experiment order is another document:
    // it misses the merged cache and scatters one upstream call per
    // distinct trace key, every cell answered from its backend's result
    // cache, nothing emulated.
    let (calls, hits) = (upstream_calls(&gateway), backend_hits(&fleet, 2));
    let reordered = request(
        &gateway,
        "POST",
        "/v1/grids",
        br#"{"experiments":["fig6","fig5"],"scale":"tiny"}"#,
    );
    assert_eq!(
        reordered.body,
        (cli_doc("fig6") + &cli_doc("fig5")).as_bytes()
    );
    assert_eq!(upstream_calls(&gateway) - calls, keys.len() as u64);
    assert_eq!(backend_hits(&fleet, 2) - hits, cells.len() as u64);
    assert_eq!(backend_emulations(&fleet, 2), keys.len() as u64);
    assert_eq!(grid_cache_counts(&gateway), (0, 2));
    assert_eq!(
        gateway
            .metrics()
            .grid_cell_failures_total
            .load(Ordering::Relaxed),
        0
    );

    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn fresh_gateway_grid_bypasses_the_merged_cache_and_refreshes_it() {
    let fleet = fleet(2);
    let gateway = gateway_over(fleet.addrs());
    let body = br#"{"experiments":["fig5","table1"],"scale":"tiny"}"#;
    let fresh = br#"{"experiments":["fig5","table1"],"scale":"tiny","fresh":true}"#;
    let expected = cli_doc("fig5") + &cli_doc("table1");

    // A fresh grid on a cold gateway fills the entry the plain
    // descriptor reads: the repeat is a hit.
    let first = request(&gateway, "POST", "/v1/grids", fresh);
    assert_eq!(first.body, expected.as_bytes());
    assert_eq!(gateway.grid_cache().len(), 1);
    let calls = upstream_calls(&gateway);
    let hit = request(&gateway, "POST", "/v1/grids", body);
    assert_eq!(hit.body, expected.as_bytes());
    assert_eq!(upstream_calls(&gateway), calls);
    assert_eq!(grid_cache_counts(&gateway), (1, 1));

    // A fresh repeat of a cached grid skips the read: it scatters again
    // and counts a miss, then refreshes the same entry.
    let again = request(&gateway, "POST", "/v1/grids", fresh);
    assert_eq!(again.body, expected.as_bytes());
    assert!(
        upstream_calls(&gateway) > calls,
        "a fresh grid must call its backends"
    );
    assert_eq!(grid_cache_counts(&gateway), (1, 2));
    assert_eq!(gateway.grid_cache().len(), 1);
    let calls = upstream_calls(&gateway);
    let hit = request(&gateway, "POST", "/v1/grids", body);
    assert_eq!(hit.body, expected.as_bytes());
    assert_eq!(upstream_calls(&gateway), calls);
    assert_eq!(grid_cache_counts(&gateway), (2, 2));
    assert_eq!(
        grid_access_cache_fields(&gateway),
        ["miss", "hit", "miss", "hit"]
    );

    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn rejected_gateway_grids_are_never_cached() {
    let fleet = fleet(1);
    let gateway = gateway_over(fleet.addrs());
    for _ in 0..2 {
        let bad = request(
            &gateway,
            "POST",
            "/v1/grids",
            br#"{"experiments":["fig5","nope"],"scale":"tiny"}"#,
        );
        assert_eq!(bad.status, 400);
        assert!(String::from_utf8_lossy(&bad.body).contains("nope"));
    }
    assert!(gateway.grid_cache().is_empty());
    assert_eq!(grid_cache_counts(&gateway), (0, 0));
    assert_eq!(upstream_calls(&gateway), 0, "a 400 never scatters");
    assert_eq!(grid_access_cache_fields(&gateway), ["-", "-"]);
    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn grid_survives_losing_a_backend_mid_flight() {
    let mut fleet = fleet(2);
    let gateway = gateway_over(fleet.addrs());
    // `fresh` keeps every backend recomputing so the stop lands while
    // grid cells are genuinely in flight.
    let body = br#"{"experiments":["fig5","table1"],"scale":"tiny","fresh":true}"#;
    let expected = cli_doc("fig5") + &cli_doc("table1");

    let first = request(&gateway, "POST", "/v1/grids", body);
    assert_eq!(
        first.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&first.body)
    );
    assert_eq!(first.body, expected.as_bytes());

    let stopper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        fleet.stop(0);
        fleet
    });
    // Grids issued across the loss of a backend: every one must still
    // answer 200 with the canonical bytes — failover re-homes the dead
    // owner's cells and the merger's local fallback covers the rest.
    for _ in 0..4 {
        let response = request(&gateway, "POST", "/v1/grids", body);
        assert_eq!(
            response.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&response.body)
        );
        assert_eq!(
            response.body,
            expected.as_bytes(),
            "losing a backend must never change grid bytes"
        );
    }
    let fleet = stopper.join().expect("stopper thread");
    assert_eq!(fleet.running(), 1, "the stop must have landed mid-loop");

    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn gateway_shutdown_via_http_drains_cleanly() {
    let fleet = fleet(1);
    let gateway = gateway_over(fleet.addrs());
    let addr = gateway.local_addr().to_string();
    let response = request(&gateway, "POST", "/v1/shutdown", b"");
    assert_eq!(response.status, 200);
    gateway.wait_for_shutdown();
    gateway.shutdown();
    // The port stops answering after the drain.
    assert!(request_once(&addr, "GET", "/healthz", b"", Duration::from_millis(500)).is_err());
    fleet.shutdown();
}

/// A gauge's value in a `/metrics` exposition.
fn metric(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn gateway_readyz_reports_its_own_saturated_job_queue() {
    // With no workers and room for one job, one parked experiment fills
    // the gateway's job queue: every further deferred request would be
    // shed, so readiness must say so, exactly like a backend does.
    let fleet = fleet(1);
    let gateway = Gateway::start(GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: fleet.addrs(),
        workers: 0,
        queue_depth: 1,
        probe_interval: Duration::from_millis(50),
        log: LogTarget::Memory,
        ..GatewayConfig::default()
    })
    .expect("start gateway");
    assert_eq!(request(&gateway, "GET", "/readyz", b"").status, 200);

    let mut parked = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
    parked
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let body: &[u8] = br#"{"experiment":"fig5","scale":"tiny"}"#;
    mds_serve::http::write_request(&mut parked, "POST", "/v1/experiments", body).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let metrics = request(&gateway, "GET", "/metrics", b"");
        let text = String::from_utf8_lossy(&metrics.body).to_string();
        if metric(&text, "mds_gateway_queue_depth") == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "job never queued:\n{text}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let ready = request(&gateway, "GET", "/readyz", b"");
    assert_eq!(
        ready.status,
        503,
        "{:?}",
        String::from_utf8_lossy(&ready.body)
    );
    assert_eq!(ready.header("retry-after"), Some("1"));
    assert!(String::from_utf8_lossy(&ready.body).contains("admission queue saturated"));

    // Drain runs the parked job: its client still gets the full answer.
    std::thread::scope(|scope| {
        let drainer = scope.spawn(move || gateway.shutdown());
        let drained = mds_serve::http::read_response(&mut parked).expect("drained response");
        assert_eq!(drained.status, 200);
        assert_eq!(drained.body, cli_doc("fig5").as_bytes());
        drainer.join().unwrap();
    });
    fleet.shutdown();
}

#[test]
fn framing_shapes_a_lenient_parser_accepts_get_400_at_the_gateway() {
    let fleet = fleet(1);
    let gateway = gateway_over(fleet.addrs());
    for raw in [
        &b"GET /healthz HTTP/1.1\r\ncontent-length: +2\r\n\r\nhi"[..],
        b"GET /healthz HTTP/1.1\r\ncontent-length : 2\r\n\r\nhi",
        b"GET /healthz HTTP/1.1\nhost: a\r\n\r\n",
        b"GET /healthz HTTP/1.1 junk\r\n\r\n",
    ] {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(raw).unwrap();
        let response = mds_serve::http::read_response(&mut stream).expect("an error response");
        assert_eq!(response.status, 400, "{:?}", String::from_utf8_lossy(raw));
    }
    gateway.shutdown();
    fleet.shutdown();
}

#[test]
fn gateway_metrics_family_names_stay_pinned() {
    // CI gates grep these names; renaming one is a breaking change.
    let fleet = fleet(1);
    let gateway = gateway_over(fleet.addrs());
    let metrics = request(&gateway, "GET", "/metrics", b"");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    let mut families: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split(' ').next())
        .collect();
    families.sort_unstable();
    let pinned = [
        "mds_gateway_backend_attempts_total",
        "mds_gateway_backend_breaker_opens_total",
        "mds_gateway_backend_breaker_state",
        "mds_gateway_backend_failures_total",
        "mds_gateway_backend_healthy",
        "mds_gateway_backend_sheds_total",
        "mds_gateway_backends",
        "mds_gateway_connections_total",
        "mds_gateway_failovers_total",
        "mds_gateway_grid_cache_hits_total",
        "mds_gateway_grid_cache_misses_total",
        "mds_gateway_grid_cell_failures_total",
        "mds_gateway_grid_cells_total",
        "mds_gateway_grids_total",
        "mds_gateway_handoff_errors_total",
        "mds_gateway_handoff_keys_total",
        "mds_gateway_handoffs_total",
        "mds_gateway_proxied_total",
        "mds_gateway_proxy_microseconds",
        "mds_gateway_queue_depth",
        "mds_gateway_rejected_total",
        "mds_gateway_requests_total",
        "mds_gateway_responses_2xx_total",
        "mds_gateway_responses_4xx_total",
        "mds_gateway_responses_5xx_total",
        "mds_gateway_retries_total",
        "mds_gateway_route_requests_total",
        "mds_gateway_unavailable_total",
        "mds_gateway_upstream_microseconds",
        "mds_io_ready_queue_depth",
        "mds_io_registered_fds",
        "mds_io_timer_fires_total",
    ];
    assert_eq!(families, pinned, "{text}");
    gateway.shutdown();
    fleet.shutdown();
}
