//! End-to-end tests for the durable result tier over real sockets.
//!
//! The load-bearing guarantees proved here:
//!
//! - A server restarted over the same `--store` directory answers the
//!   first request for a previously served key as a **cache hit**, with
//!   bytes identical to the `repro` CLI document, and performs **zero**
//!   workload emulations doing it.
//! - `fresh:true` recomputes do not grow the log (appends are
//!   deduplicated against the stored value), so cold-path benchmarking
//!   over a store does not fsync per request.
//! - `GET /v1/cache` exports warm state that `POST /v1/cache` on another
//!   server imports — the cluster handoff wire — and an epoch mismatch
//!   is refused with `409`.
//!
//! These tests live in their own integration binary (one process per
//! file) because the effective epoch folds in the process-global WDL
//! registry; tests that register families run elsewhere.

use mds_harness::tempdir::TempDir;
use mds_serve::http::{self, ClientResponse};
use mds_serve::{persist, LogTarget, Server, ServerConfig};
use mds_workloads::Scale;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn start_with_store(dir: &Path) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        jobs: Some(2),
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        store_dir: Some(dir.to_path_buf()),
        log: LogTarget::Memory,
        ..ServerConfig::default()
    })
    .expect("start server")
}

fn request(server: &Server, method: &str, target: &str, body: &[u8]) -> ClientResponse {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    http::write_request(&mut stream, method, target, body).expect("write request");
    http::read_response(&mut stream).expect("read response")
}

/// The exact bytes `repro fig5 --json` produces for the tiny scale.
fn cli_fig5_tiny() -> String {
    let mut h = mds_bench::Harness::with_runner(Scale::Tiny, mds_runner::Runner::new(1));
    let table = mds_bench::experiment(&mut h, "fig5").unwrap();
    mds_bench::results_doc(
        "fig5",
        mds_bench::experiment_title("fig5").unwrap(),
        Scale::Tiny,
        &table,
    )
    .pretty()
}

const FIG5_TINY: &[u8] = br#"{"experiment":"fig5","scale":"tiny"}"#;

#[test]
fn restart_over_the_same_store_is_warm_from_the_first_request() {
    let tmp = TempDir::new("mds-serve-restart").unwrap();
    let expected = cli_fig5_tiny();

    // First lifetime: compute once, persist, shut down gracefully.
    {
        let server = start_with_store(tmp.path());
        assert_eq!(server.prewarmed(), 0, "empty store prewarm");
        let response = request(&server, "POST", "/v1/experiments", FIG5_TINY);
        assert_eq!(response.status, 200);
        assert_eq!(response.body, expected.as_bytes());
        let store = server.store().expect("store attached");
        assert_eq!(store.len(), 1);
        assert_eq!(store.appends(), 1);
        server.shutdown();
    }

    // Second lifetime: the store replays into the cache at boot, so the
    // very first request is a hit — same bytes, zero emulations.
    let server = start_with_store(tmp.path());
    assert_eq!(server.prewarmed(), 1);
    assert_eq!(server.result_cache().len(), 1);
    let response = request(&server, "POST", "/v1/experiments", FIG5_TINY);
    assert_eq!(response.status, 200);
    assert_eq!(
        response.body,
        expected.as_bytes(),
        "restart-warm bytes differ from the repro CLI document"
    );
    assert_eq!(
        server.trace_cache().misses(),
        0,
        "a warm restart must not emulate anything"
    );
    assert_eq!(server.result_cache().hits(), 1);
    let log = server.log_lines().join("\n");
    assert!(log.contains("\"evt\":\"store\""), "{log}");
    assert!(log.contains("\"cache\":\"hit\""), "{log}");
    server.shutdown();
}

#[test]
fn cell_batches_persist_per_cell_and_restart_warm() {
    let tmp = TempDir::new("mds-serve-cells").unwrap();
    let cells = mds_bench::grid::cells(&["fig5".to_string()], Scale::Tiny);
    let jobs: Vec<_> = cells
        .iter()
        .map(|c| mds_runner::wire::encode_job(&c.job))
        .collect();
    let body = mds_harness::json::Json::object()
        .field("fresh", false)
        .field("jobs", mds_harness::json::Json::Array(jobs))
        .to_string();

    // First lifetime: one batch fills one store record per cell, keyed
    // by the cell's canonical wire encoding.
    let first = {
        let server = start_with_store(tmp.path());
        let response = request(&server, "POST", "/v1/cells", body.as_bytes());
        assert_eq!(response.status, 200);
        let store = server.store().expect("store attached");
        assert_eq!(store.appends(), cells.len() as u64);
        assert!(store
            .get(&mds_serve::cell_key(&cells[0].job))
            .is_some_and(|v| v.starts_with(r#"{"kind":"ms""#)));
        server.shutdown();
        response.body
    };

    // Second lifetime: the store prewarms every cell, so the same batch
    // is all hits, byte-identical, with zero emulations.
    let server = start_with_store(tmp.path());
    assert_eq!(server.prewarmed(), cells.len());
    let response = request(&server, "POST", "/v1/cells", body.as_bytes());
    assert_eq!(response.status, 200);
    assert_eq!(response.body, first);
    assert_eq!(server.result_cache().hits(), cells.len() as u64);
    assert_eq!(
        server.trace_cache().misses(),
        0,
        "no emulation after restart"
    );
    server.shutdown();
}

#[test]
fn fresh_recomputes_do_not_regrow_the_log() {
    let tmp = TempDir::new("mds-serve-fresh").unwrap();
    let server = start_with_store(tmp.path());
    let fresh = br#"{"experiment":"fig5","scale":"tiny","fresh":true}"#;
    assert_eq!(
        request(&server, "POST", "/v1/experiments", fresh).status,
        200
    );
    let log_bytes = server.store().unwrap().log_bytes();
    for _ in 0..3 {
        assert_eq!(
            request(&server, "POST", "/v1/experiments", fresh).status,
            200
        );
    }
    let store = server.store().unwrap();
    assert_eq!(store.appends(), 1, "identical recomputes must not append");
    assert_eq!(store.log_bytes(), log_bytes);
    server.shutdown();
}

#[test]
fn cache_dump_fills_a_peer_and_epoch_mismatch_is_refused() {
    let tmp_a = TempDir::new("mds-serve-dump-a").unwrap();
    let tmp_b = TempDir::new("mds-serve-dump-b").unwrap();
    let expected = cli_fig5_tiny();

    let donor = start_with_store(tmp_a.path());
    assert_eq!(
        request(&donor, "POST", "/v1/experiments", FIG5_TINY).status,
        200
    );
    let dump = request(&donor, "GET", "/v1/cache", b"");
    assert_eq!(dump.status, 200);
    let (epoch, entries) = persist::parse(&dump.body).expect("parse dump");
    assert_eq!(epoch, donor.epoch());
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].0, "fig5@tiny");
    assert_eq!(entries[0].1, expected);

    // A peer ingests the dump: warm from the transfer, no emulation, and
    // the imported entries also land in its own store.
    let peer = start_with_store(tmp_b.path());
    let fill = request(&peer, "POST", "/v1/cache", &dump.body);
    assert_eq!(fill.status, 200, "{:?}", fill);
    assert_eq!(String::from_utf8_lossy(&fill.body), r#"{"accepted":1}"#);
    let response = request(&peer, "POST", "/v1/experiments", FIG5_TINY);
    assert_eq!(response.status, 200);
    assert_eq!(response.body, expected.as_bytes());
    assert_eq!(peer.trace_cache().misses(), 0);
    assert_eq!(peer.store().unwrap().len(), 1, "import is persisted too");

    // A document from a different epoch must be refused outright.
    let warm: Vec<(String, Arc<str>)> = entries
        .iter()
        .map(|(k, v)| (k.clone(), Arc::from(v.as_str())))
        .collect();
    let stale = persist::dump(epoch.wrapping_add(1), &warm);
    let refused = request(&peer, "POST", "/v1/cache", stale.as_bytes());
    assert_eq!(refused.status, 409);
    assert!(String::from_utf8_lossy(&refused.body).contains("epoch mismatch"));

    // Malformed fills are 400s, and /v1/cache rejects other methods.
    assert_eq!(request(&peer, "POST", "/v1/cache", b"junk").status, 400);
    assert_eq!(request(&peer, "PUT", "/v1/cache", b"").status, 405);

    donor.shutdown();
    peer.shutdown();
}

#[test]
fn kill_dash_nine_mid_lifetime_loses_nothing_already_synced() {
    // In-process stand-in for the CI store gate's kill -9: drop the
    // server WITHOUT graceful shutdown paths having any chance to flush
    // anything extra — every append was already fsynced, so a brand-new
    // server over the same directory must recover the full key.
    let tmp = TempDir::new("mds-serve-kill").unwrap();
    let expected = cli_fig5_tiny();
    {
        let server = start_with_store(tmp.path());
        assert_eq!(
            request(&server, "POST", "/v1/experiments", FIG5_TINY).status,
            200
        );
        // `drop` joins threads but the durability claim rests on the
        // append-time fsync, not on anything shutdown does.
    }
    let server = start_with_store(tmp.path());
    assert_eq!(server.prewarmed(), 1);
    let response = request(&server, "POST", "/v1/experiments", FIG5_TINY);
    assert_eq!(response.body, expected.as_bytes());
    assert_eq!(server.trace_cache().misses(), 0);
    server.shutdown();
}
