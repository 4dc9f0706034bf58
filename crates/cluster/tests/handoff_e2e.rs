//! Warm-state handoff across a backend replacement, over real sockets.
//!
//! The load-bearing guarantee proved here: when a backend leaves rotation
//! and a replacement comes back on the same address, the gateway pushes
//! the ring-owned warm `cell:` entries from its healthy neighbors into
//! the newcomer (`GET /v1/cache` on the donor, chunked `POST /v1/cache`
//! on the target), so the replacement answers its shard's cell batches
//! warm **without recomputing anything** — zero workload emulations on
//! the new process.

mod common;

use common::{cli_doc, request};
use mds_cluster::gateway::{Gateway, GatewayConfig};
use mds_serve::client::request_once;
use mds_serve::{LogTarget, Server, ServerConfig};
use mds_workloads::Scale;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn backend_config(addr: &str) -> ServerConfig {
    ServerConfig {
        addr: addr.to_string(),
        workers: 2,
        queue_depth: 16,
        jobs: Some(2),
        log: LogTarget::Memory,
        ..ServerConfig::default()
    }
}

/// Starts a replacement on the exact address the dead backend vacated.
/// The freed port can linger briefly (connection teardown), so retry the
/// bind instead of flaking.
fn start_replacement(addr: &str) -> Server {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Server::start(backend_config(addr)) {
            Ok(server) => return server,
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot rebind {addr}: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// The `cell:` keys a backend's result cache holds, sorted.
fn cell_keys(server: &Server) -> Vec<String> {
    let mut keys: Vec<String> = server
        .result_cache()
        .entries()
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    keys.sort();
    assert!(keys.iter().all(|k| k.starts_with("cell:")), "{keys:?}");
    keys
}

#[test]
fn a_replaced_backend_is_warmed_by_its_neighbor_not_by_recompute() {
    let first = Server::start(backend_config("127.0.0.1:0")).expect("start backend");
    let second = Server::start(backend_config("127.0.0.1:0")).expect("start backend");
    let addrs = [
        first.local_addr().to_string(),
        second.local_addr().to_string(),
    ];
    let gateway = Gateway::start(GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: addrs.to_vec(),
        workers: 4,
        probe_interval: Duration::from_millis(50),
        log: LogTarget::Memory,
        ..GatewayConfig::default()
    })
    .expect("start gateway");

    // Warm fig5 through the gateway: its cells spread over both
    // backends by trace key. The first backend becomes the victim.
    let cold = request(
        &gateway,
        "POST",
        "/v1/experiments",
        br#"{"experiment":"fig5","scale":"tiny"}"#,
    );
    assert_eq!(cold.status, 200);
    assert_eq!(cold.body, cli_doc("fig5").as_bytes());
    assert!(
        !cell_keys(&first).is_empty() && !cell_keys(&second).is_empty(),
        "the cells spread over both backends"
    );
    let (victim, survivor) = (first, second);
    let victim_addr = victim.local_addr().to_string();
    victim.shutdown();

    // A fresh repeat scatters again: the victim's batches fail over to
    // the survivor, which computes them and becomes the donor of every
    // fig5 cell. Meanwhile the prober ejects the victim.
    let failover = request(
        &gateway,
        "POST",
        "/v1/experiments",
        br#"{"experiment":"fig5","scale":"tiny","fresh":true}"#,
    );
    assert_eq!(failover.status, 200);
    assert_eq!(failover.body, cli_doc("fig5").as_bytes());
    let donated = cell_keys(&survivor);
    let fig5_cells = mds_bench::grid::cells(&["fig5".to_string()], Scale::Tiny);
    assert_eq!(donated.len(), fig5_cells.len());
    let down = format!("mds_gateway_backend_healthy{{backend=\"{victim_addr}\"}} 0");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = request(&gateway, "GET", "/metrics", b"");
        if String::from_utf8_lossy(&metrics.body).contains(&down) {
            break;
        }
        assert!(Instant::now() < deadline, "victim never left rotation");
        std::thread::sleep(Duration::from_millis(25));
    }

    // The replacement boots empty on the vacated address. The prober's
    // unhealthy-to-healthy transition triggers the neighbor handoff.
    // With two replicas over two backends, it owns every cell key.
    let replacement = start_replacement(&victim_addr);
    assert_eq!(replacement.result_cache().len(), 0);
    let deadline = Instant::now() + Duration::from_secs(10);
    let metrics = gateway.metrics();
    while metrics.handoffs_total.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "handoff never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(cell_keys(&replacement), donated);
    assert_eq!(
        replacement.trace_cache().misses(),
        0,
        "the handoff must transfer bytes, not trigger recompute"
    );
    assert_eq!(
        metrics.handoff_keys_total.load(Ordering::Relaxed),
        donated.len() as u64
    );
    assert_eq!(metrics.handoff_errors_total.load(Ordering::Relaxed), 0);

    // table7's cells are a subset of fig5's. Once the replacement is back
    // in rotation, its share of table7's batches is answered from the
    // transferred cells: identical bytes, still zero emulations.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !gateway.backends()[0].in_rotation(Instant::now()) {
        assert!(Instant::now() < deadline, "replacement never rejoined");
        std::thread::sleep(Duration::from_millis(25));
    }
    let table7 = request(
        &gateway,
        "POST",
        "/v1/experiments",
        br#"{"experiment":"table7","scale":"tiny"}"#,
    );
    assert_eq!(table7.status, 200);
    assert_eq!(table7.body, cli_doc("table7").as_bytes());
    assert_eq!(replacement.trace_cache().misses(), 0);
    assert!(replacement.result_cache().hits() >= 1);

    gateway.shutdown();
    replacement.shutdown();
    survivor.shutdown();
}

/// Cell entries travel by trace key: a grid batch routes on its cells'
/// `workload@scale` key, so a replacement must receive exactly the donor
/// cells whose route key the ring gives it — not the ones whose whole
/// `cell:` key happens to hash there.
#[test]
fn handoff_places_cell_entries_by_route_key() {
    let donor = Server::start(backend_config("127.0.0.1:0")).expect("start donor");
    // Reserve an address for the target, which starts only after the
    // gateway has seen it down.
    let target_addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserve an address")
        .to_string();
    let donor_addr = donor.local_addr().to_string();

    // Fill the donor with every table1 cell (one per workload, so many
    // distinct route keys) by sending it one batch directly.
    let cells = mds_bench::grid::cells(&["table1".to_string()], Scale::Tiny);
    let jobs = cells
        .iter()
        .map(|c| mds_runner::wire::encode_job(&c.job))
        .collect();
    let body = mds_harness::json::Json::object()
        .field("jobs", mds_harness::json::Json::Array(jobs))
        .to_string();
    let filled = request_once(
        &donor_addr,
        "POST",
        "/v1/cells",
        body.as_bytes(),
        Duration::from_secs(60),
    )
    .expect("donor round trip");
    assert_eq!(filled.status, 200);
    assert_eq!(donor.result_cache().len(), cells.len());

    let config = GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: vec![donor_addr.clone(), target_addr.clone()],
        replicas: 1,
        workers: 2,
        probe_interval: Duration::from_millis(50),
        log: LogTarget::Memory,
        ..GatewayConfig::default()
    };
    let ring = mds_cluster::ring::HashRing::new(&config.backends, config.vnodes);
    let mut expected: Vec<String> = cells
        .iter()
        .filter(|c| ring.primary(&c.route_key()) == Some(1))
        .map(|c| mds_serve::cell_key(&c.job))
        .collect();
    expected.sort();
    assert!(
        !expected.is_empty() && expected.len() < cells.len(),
        "the ring splits {} route keys across two backends",
        cells.len()
    );
    let gateway = Gateway::start(config).expect("start gateway");

    let down = format!("mds_gateway_backend_healthy{{backend=\"{target_addr}\"}} 0");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = request(&gateway, "GET", "/metrics", b"");
        if String::from_utf8_lossy(&metrics.body).contains(&down) {
            break;
        }
        assert!(Instant::now() < deadline, "target never left rotation");
        std::thread::sleep(Duration::from_millis(25));
    }
    let handoffs = || gateway.metrics().handoffs_total.load(Ordering::Relaxed);
    let before = handoffs();
    let target = start_replacement(&target_addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    while handoffs() == before {
        assert!(Instant::now() < deadline, "handoff never ran");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        gateway
            .metrics()
            .handoff_errors_total
            .load(Ordering::Relaxed),
        0
    );

    let mut received: Vec<String> = target
        .result_cache()
        .entries()
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    received.sort();
    assert_eq!(received, expected);
    assert_eq!(target.trace_cache().misses(), 0);

    gateway.shutdown();
    target.shutdown();
    donor.shutdown();
}
