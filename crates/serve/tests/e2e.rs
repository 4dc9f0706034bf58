//! End-to-end serving tests over real sockets on an ephemeral port.
//!
//! The load-bearing guarantees proved here:
//!
//! - Four concurrent clients asking for the same experiment all receive
//!   **byte-identical** responses, equal to the canonical results
//!   document the `repro` CLI writes — serving is a transport, not a
//!   different computation.
//! - The shared trace cache reports exactly one emulation per workload
//!   however many requests raced, and a warm repeat adds none (the
//!   counters prove warm requests skip simulation).
//! - A full connection table or job queue sheds with `503` +
//!   `Retry-After` instead of hanging or buffering.
//! - Malformed input gets 4xx with positioned errors; keep-alive serves
//!   several requests per connection; `/v1/shutdown` unblocks a waiting
//!   server and drains cleanly.

use mds_serve::http::{self, ClientResponse};
use mds_serve::{LogTarget, Server, ServerConfig};
use mds_workloads::Scale;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// fig5 at tiny scale simulates these many distinct workloads, so a
/// correctly shared trace cache performs exactly this many emulations.
const FIG5_TINY_WORKLOADS: u64 = 5;

fn start(workers: usize, queue_depth: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        jobs: Some(2),
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        log: LogTarget::Memory,
        ..ServerConfig::default()
    })
    .expect("start server")
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

fn roundtrip(stream: &mut TcpStream, method: &str, target: &str, body: &[u8]) -> ClientResponse {
    http::write_request(stream, method, target, body).expect("write request");
    http::read_response(stream).expect("read response")
}

fn request(server: &Server, method: &str, target: &str, body: &[u8]) -> ClientResponse {
    roundtrip(&mut connect(server), method, target, body)
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

#[test]
fn concurrent_clients_get_cli_identical_bytes_and_one_emulation_per_workload() {
    let server = start(4, 16);
    let body = br#"{"experiment":"fig5","scale":"tiny"}"#;

    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let response = request(&server, "POST", "/v1/experiments", body);
                    assert_eq!(response.status, 200, "{:?}", response);
                    response.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let expected = cli_fig5_tiny();
    for served in &bodies {
        assert_eq!(
            served.as_slice(),
            expected.as_bytes(),
            "served bytes differ from the repro CLI document"
        );
    }
    assert_eq!(
        server.trace_cache().misses(),
        FIG5_TINY_WORKLOADS,
        "each workload must be emulated exactly once across 4 concurrent requests"
    );

    // A warm repeat is served from the result cache: no new emulation,
    // same bytes, and the hit is visible in the counters and the log.
    let warm = request(&server, "POST", "/v1/experiments", body);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, expected.as_bytes());
    assert_eq!(server.trace_cache().misses(), FIG5_TINY_WORKLOADS);
    assert!(server.result_cache().hits() >= 1);
    let log = server.log_lines().join("\n");
    assert!(log.contains("\"cache\":\"hit\""), "{log}");
    assert!(log.contains("\"cache\":\"miss\""), "{log}");
    server.shutdown();
}

#[test]
fn full_admission_queue_sheds_with_503_and_retry_after() {
    // With room for one connection, the first one fills the table and
    // the next accept must shed deterministically, at the door. (Full
    // job queues shed per request instead; covered below.)
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: Some(1),
        max_connections: 1,
        log: LogTarget::Memory,
        ..ServerConfig::default()
    })
    .expect("start server");
    let _held = connect(&server);
    // Give the reactor a moment to register the first connection.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server
        .metrics()
        .connections_total
        .load(std::sync::atomic::Ordering::Relaxed)
        < 1
    {
        assert!(
            std::time::Instant::now() < deadline,
            "connection never accepted"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut shed = connect(&server);
    // The server responds at accept time, before any request is read.
    let response = http::read_response(&mut shed).expect("shed response");
    assert_eq!(response.status, 503);
    assert_eq!(response.header("retry-after"), Some("1"));
    assert!(String::from_utf8_lossy(&response.body).contains("queue full"));
    assert_eq!(
        server
            .metrics()
            .rejected_total
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    server.shutdown();
}

#[test]
fn bad_requests_get_4xx_with_positioned_errors() {
    let server = start(2, 16);

    let mut garbage = connect(&server);
    garbage.write_all(b"NOT_EVEN HTTP\r\n\r\n").unwrap();
    garbage.flush().unwrap();
    let response = http::read_response(&mut garbage).expect("error response");
    assert_eq!(response.status, 400);

    let bad_json = request(&server, "POST", "/v1/experiments", b"{\"experiment\":");
    assert_eq!(bad_json.status, 400);
    assert!(
        String::from_utf8_lossy(&bad_json.body).contains("byte"),
        "syntax errors carry byte offsets: {:?}",
        String::from_utf8_lossy(&bad_json.body)
    );

    let bad_shape = request(&server, "POST", "/v1/experiments", b"{\"experiment\":42}");
    assert_eq!(bad_shape.status, 400);
    assert!(String::from_utf8_lossy(&bad_shape.body).contains("$.experiment"));

    let unknown = request(
        &server,
        "POST",
        "/v1/experiments",
        b"{\"experiment\":\"nope\"}",
    );
    assert_eq!(unknown.status, 400);

    assert_eq!(request(&server, "GET", "/nope", b"").status, 404);
    assert_eq!(request(&server, "DELETE", "/healthz", b"").status, 405);
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_and_metrics_expose_counters() {
    let server = start(2, 16);
    let mut stream = connect(&server);
    for _ in 0..3 {
        let response = roundtrip(&mut stream, "GET", "/healthz", b"");
        assert_eq!(response.status, 200);
        assert_eq!(response.header("connection"), Some("keep-alive"));
        assert_eq!(response.body, b"ok\n");
    }

    let listing = roundtrip(&mut stream, "GET", "/v1/experiments", b"");
    assert_eq!(listing.status, 200);
    assert!(String::from_utf8_lossy(&listing.body).contains("fig5"));

    let metrics = roundtrip(&mut stream, "GET", "/metrics", b"");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8_lossy(&metrics.body).to_string();
    for family in [
        "mds_connections_total",
        "mds_requests_total",
        "mds_result_cache_hits_total",
        "mds_queue_depth",
        "mds_trace_cache_misses_total",
        "mds_queue_wait_microseconds_bucket{le=\"+Inf\"}",
        "mds_compute_microseconds_count",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    // All five requests so far rode one connection.
    assert!(text.contains("mds_connections_total 1"), "{text}");
    server.shutdown();
}

#[test]
fn pipelined_requests_in_one_packet_both_get_responses() {
    let server = start(2, 16);
    let mut stream = connect(&server);
    // Two complete requests in a single write: the second's bytes land in
    // the same socket read as the first's, and must not be discarded.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nhost: mds\r\n\r\n\
              GET /healthz HTTP/1.1\r\nhost: mds\r\n\r\n",
        )
        .unwrap();
    stream.flush().unwrap();
    let mut reader = http::ResponseReader::new();
    for _ in 0..2 {
        let response = reader.read_response(&mut stream).expect("read response");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"ok\n");
    }
    server.shutdown();
}

#[test]
fn http_1_0_connections_close_by_default() {
    let server = start(2, 16);
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nhost: mds\r\n\r\n")
        .unwrap();
    stream.flush().unwrap();
    let response = http::read_response(&mut stream).expect("read response");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));
    // The server must actually close: the next read sees EOF.
    let mut rest = Vec::new();
    use std::io::Read;
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    server.shutdown();
}

#[test]
fn conflicting_content_lengths_get_400() {
    let server = start(2, 16);
    let mut stream = connect(&server);
    stream
        .write_all(
            b"POST /v1/experiments HTTP/1.1\r\nhost: mds\r\n\
              content-length: 4\r\ncontent-length: 2\r\n\r\nabcd",
        )
        .unwrap();
    stream.flush().unwrap();
    let response = http::read_response(&mut stream).expect("read response");
    assert_eq!(response.status, 400);
    assert!(
        String::from_utf8_lossy(&response.body).contains("content-length"),
        "{:?}",
        String::from_utf8_lossy(&response.body)
    );
    server.shutdown();
}

#[test]
fn shutdown_endpoint_unblocks_wait_and_drains() {
    let server = start(2, 16);
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| server.wait_for_shutdown());
        let response = request(&server, "POST", "/v1/shutdown", b"");
        assert_eq!(response.status, 200);
        assert_eq!(response.header("connection"), Some("close"));
        waiter.join().unwrap();
    });
    server.shutdown();
}

#[test]
fn readiness_flips_to_503_on_drain_while_liveness_stays_up() {
    let server = start(2, 16);
    let ready = request(&server, "GET", "/readyz", b"");
    assert_eq!(ready.status, 200);
    assert_eq!(ready.body, b"ready\n");

    // Request shutdown but do not complete it yet: the drain window.
    let response = request(&server, "POST", "/v1/shutdown", b"");
    assert_eq!(response.status, 200);

    // Liveness still answers 200 (the process is up, draining), but
    // readiness now tells gateways to stop sending new traffic.
    let live = request(&server, "GET", "/healthz", b"");
    assert_eq!(live.status, 200);
    let draining = request(&server, "GET", "/readyz", b"");
    assert_eq!(draining.status, 503);
    assert_eq!(draining.header("retry-after"), Some("1"));
    assert!(
        String::from_utf8_lossy(&draining.body).contains("draining"),
        "{:?}",
        String::from_utf8_lossy(&draining.body)
    );
    server.shutdown();
}

#[test]
fn open_loop_load_holds_its_arrival_schedule() {
    use mds_serve::{run_load, LoadConfig};
    let server = start(4, 64);
    // Warm the result cache so every open-loop shot is a cheap hit.
    let warm = request(
        &server,
        "POST",
        "/v1/experiments",
        br#"{"experiment":"fig5","scale":"tiny"}"#,
    );
    assert_eq!(warm.status, 200);

    let report = run_load(&LoadConfig {
        addr: server.local_addr().to_string(),
        duration: Duration::from_millis(800),
        rate: Some(100.0),
        ..LoadConfig::default()
    });

    // The schedule dictates arrivals — at 100/s over 0.8s that is at most
    // 80, independent of server latency; sleep overshoot can only lose a
    // few.
    assert!(
        (60..=80).contains(&report.offered),
        "offered off schedule: {report:?}"
    );
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(
        report.requests + report.shed,
        report.offered,
        "every arrival is accounted for: {report:?}"
    );
    assert_eq!(report.rate, Some(100.0));
    assert!(report.offered_rps() > 0.0 && report.rps() > 0.0);
    let doc = report.to_json().to_string();
    assert!(doc.contains("\"mode\":\"open\""), "{doc}");
    server.shutdown();
}

#[test]
fn load_generator_backs_off_on_sheds_instead_of_hammering() {
    use mds_serve::{run_load, LoadConfig};
    // max_connections 0: every connection is shed with 503 +
    // Retry-After at accept time, deterministically.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 0,
        jobs: Some(1),
        max_connections: 0,
        log: LogTarget::Memory,
        ..ServerConfig::default()
    })
    .expect("start server");

    let seconds = 1.0;
    let report = run_load(&LoadConfig {
        addr: server.local_addr().to_string(),
        clients: 2,
        duration: Duration::from_secs_f64(seconds),
        experiment: "fig5".to_string(),
        scale: "tiny".to_string(),
        backoff_cap: Duration::from_millis(200),
        ..LoadConfig::default()
    });

    assert_eq!(report.requests, 0, "nothing can succeed");
    assert_eq!(report.errors, 0, "sheds are backpressure, not failures");
    assert!(report.shed >= 2, "both clients saw sheds: {report:?}");
    assert!(report.retried >= 1, "sheds are retried: {report:?}");
    // The whole point: backed-off clients cannot hammer. Two clients in a
    // tight loop would shed thousands of times per second; with the
    // jittered 100ms..200ms schedule each client retries at most ~20
    // times over one second.
    assert!(
        report.shed <= 2 * 22,
        "clients must pace their retries: {report:?}"
    );
    // The server-side counter agrees that every arrival was shed.
    assert_eq!(
        server
            .metrics()
            .rejected_total
            .load(std::sync::atomic::Ordering::Relaxed),
        report.shed + report.errors,
        "every client arrival was shed"
    );
    server.shutdown();
}

#[test]
fn epoll_sheds_at_the_request_level_and_readyz_reports_saturation() {
    // The server admits connections cheaply and sheds at the request
    // level: with no workers, one deferred request fills the
    // jobs queue, the next deferred request is answered 503 and closed,
    // and a readiness probe — served inline, never queued — still gets
    // an answer that reports the saturation.
    let server = start(0, 1);
    let body: &[u8] = br#"{"experiment":"fig5","scale":"tiny"}"#;

    let mut parked = connect(&server);
    http::write_request(&mut parked, "POST", "/v1/experiments", body).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.queue_depth() < 1 {
        assert!(std::time::Instant::now() < deadline, "job never queued");
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut shed = connect(&server);
    let response = roundtrip(&mut shed, "POST", "/v1/experiments", body);
    assert_eq!(response.status, 503);
    assert_eq!(response.header("retry-after"), Some("1"));
    // A shed response ends the connection: the next read sees EOF.
    use std::io::Read;
    let mut rest = Vec::new();
    assert_eq!(shed.read_to_end(&mut rest).unwrap(), 0);
    assert_eq!(
        server
            .metrics()
            .rejected_total
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    // Inline routes keep answering while the queue is full; readiness
    // turns the saturation into the signal a gateway acts on.
    let probe = request(&server, "GET", "/readyz", b"");
    assert_eq!(probe.status, 503);
    assert_eq!(probe.header("retry-after"), Some("1"));

    // Drain runs the parked job inline: the first client still gets its
    // full answer while the server shuts down.
    std::thread::scope(|scope| {
        let drainer = scope.spawn(move || server.shutdown());
        let drained = http::read_response(&mut parked).expect("drained response");
        assert_eq!(drained.status, 200);
        assert_eq!(drained.body, cli_fig5_tiny().as_bytes());
        drainer.join().unwrap();
    });
}

#[test]
fn slow_loris_headers_hit_the_total_deadline_with_408() {
    // A client trickling one byte per 25ms refreshes every per-read
    // timeout, so only a *total* header deadline can stop it. The server
    // must answer 408 and close well before the 10s read timeout would
    // fire.
    let head: &[u8] =
        b"GET /healthz HTTP/1.1\r\nhost: mds\r\nx-slow: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 4,
        jobs: Some(1),
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        header_timeout: Duration::from_millis(300),
        log: LogTarget::Memory,
        ..ServerConfig::default()
    })
    .expect("start server");

    let mut stream = connect(&server);
    let started = std::time::Instant::now();
    for byte in head {
        // Once the server has closed on us the trickle write fails; the
        // time guard is a backstop so a broken server cannot stall the
        // test.
        if stream.write_all(std::slice::from_ref(byte)).is_err()
            || started.elapsed() > Duration::from_secs(5)
        {
            break;
        }
        let _ = stream.flush();
        std::thread::sleep(Duration::from_millis(25));
    }
    let response = http::read_response(&mut stream).expect("a 408 response");
    assert_eq!(response.status, 408);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "408 must come from the header deadline, not the read timeout"
    );
    use std::io::Read;
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0);
    server.shutdown();
}

#[test]
fn body_split_across_a_pause_still_completes_on_a_keep_alive_connection() {
    // A request body arriving in two chunks with a pause between them
    // must complete, on a *second* request so the connection has been
    // through the keep-alive wait first.
    let expected = cli_fig5_tiny();
    let body: &[u8] = br#"{"experiment":"fig5","scale":"tiny"}"#;
    let server = start(2, 8);
    let mut stream = connect(&server);
    let first = roundtrip(&mut stream, "GET", "/healthz", b"");
    assert_eq!(first.status, 200);

    let head = format!(
        "POST /v1/experiments HTTP/1.1\r\nhost: mds\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(&body[..10]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    stream.write_all(&body[10..]).unwrap();
    stream.flush().unwrap();
    let response = http::read_response(&mut stream).expect("split-body response");
    assert_eq!(response.status, 200);
    assert_eq!(response.body, expected.as_bytes());
    server.shutdown();
}

#[test]
fn the_event_engine_serves_cli_identical_bytes() {
    // The engine is a transport detail: it must produce the bytes the
    // repro CLI writes, down to the last byte.
    let expected = cli_fig5_tiny();
    let body: &[u8] = br#"{"experiment":"fig5","scale":"tiny"}"#;
    let server = start(2, 8);
    let response = request(&server, "POST", "/v1/experiments", body);
    assert_eq!(response.status, 200);
    assert_eq!(
        response.body,
        expected.as_bytes(),
        "served bytes diverge from the repro CLI document"
    );
    server.shutdown();
}

#[test]
fn framing_shapes_a_lenient_parser_accepts_get_400() {
    // A signed length, whitespace before a colon, a bare LF ending the
    // request line, and junk after the version: each is a framing a
    // stricter peer would read differently, so each is refused.
    let server = start(2, 8);
    for raw in [
        &b"GET /healthz HTTP/1.1\r\ncontent-length: +2\r\n\r\nhi"[..],
        b"GET /healthz HTTP/1.1\r\ncontent-length : 2\r\n\r\nhi",
        b"GET /healthz HTTP/1.1\nhost: a\r\n\r\n",
        b"GET /healthz HTTP/1.1 junk\r\n\r\n",
    ] {
        let mut stream = connect(&server);
        stream.write_all(raw).unwrap();
        stream.flush().unwrap();
        let response = http::read_response(&mut stream).expect("an error response");
        assert_eq!(response.status, 400, "{:?}", String::from_utf8_lossy(raw));
    }
    server.shutdown();
}

/// The `# TYPE` family names of a `/metrics` exposition, sorted.
fn families(text: &str) -> Vec<String> {
    let mut names: Vec<String> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split(' ').next())
        .map(String::from)
        .collect();
    names.sort();
    names
}

#[test]
fn metrics_family_names_stay_pinned() {
    // CI gates and dashboards grep these names; renaming one is a
    // breaking change, not a refactor.
    let server = start(2, 8);
    let metrics = request(&server, "GET", "/metrics", b"");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    let pinned = [
        "mds_compute_microseconds",
        "mds_connections_total",
        "mds_io_ready_queue_depth",
        "mds_io_registered_fds",
        "mds_io_timer_fires_total",
        "mds_queue_depth",
        "mds_queue_wait_microseconds",
        "mds_rejected_total",
        "mds_requests_total",
        "mds_responses_2xx_total",
        "mds_responses_4xx_total",
        "mds_responses_5xx_total",
        "mds_result_cache_bytes",
        "mds_result_cache_entries",
        "mds_result_cache_evictions_total",
        "mds_result_cache_hits_total",
        "mds_result_cache_misses_total",
        "mds_store_append_errors_total",
        "mds_store_appends_total",
        "mds_store_compactions_total",
        "mds_store_log_bytes",
        "mds_store_prewarmed_keys",
        "mds_store_records",
        "mds_store_snapshot_bytes",
        "mds_trace_cache_bytes",
        "mds_trace_cache_hits_total",
        "mds_trace_cache_misses_total",
    ];
    assert_eq!(families(&text), pinned, "{text}");
    server.shutdown();
}

#[test]
fn grid_route_serves_concatenated_cli_documents_and_shares_the_cache() {
    let server = start(2, 8);
    // A single-experiment grid is byte-identical to /v1/experiments and
    // to the repro CLI document.
    let single = request(
        &server,
        "POST",
        "/v1/grids",
        br#"{"experiments":["fig5"],"scale":"tiny"}"#,
    );
    assert_eq!(single.status, 200, "{single:?}");
    let expected = cli_fig5_tiny();
    assert_eq!(single.body, expected.as_bytes());

    // A multi-experiment grid is the per-experiment documents
    // concatenated in request order; fig5's document is served from the
    // result cache the first request filled.
    let multi = request(
        &server,
        "POST",
        "/v1/grids",
        br#"{"experiments":["table2","fig5"],"scale":"tiny"}"#,
    );
    assert_eq!(multi.status, 200);
    let table2 = request(
        &server,
        "POST",
        "/v1/experiments",
        br#"{"experiment":"table2","scale":"tiny"}"#,
    );
    let mut want = String::from_utf8(table2.body).unwrap();
    want.push_str(&expected);
    assert_eq!(multi.body, want.as_bytes());
    assert!(server.result_cache().hits() >= 1);

    // Unknown ids and fields are rejected up front.
    let bad = request(
        &server,
        "POST",
        "/v1/grids",
        br#"{"experiments":["fig99"]}"#,
    );
    assert_eq!(bad.status, 400);
    let bad = request(&server, "POST", "/v1/grids", br#"{"grids":["fig5"]}"#);
    assert_eq!(bad.status, 400);
    let bad = request(&server, "GET", "/v1/grids", b"");
    assert_eq!(bad.status, 405);
    server.shutdown();
}

#[test]
fn cell_batches_rebuild_the_document_and_hit_the_cell_cache() {
    let server = start(2, 8);
    // Ship every fig5 cell through one POST /v1/cells batch, merge the
    // decoded outputs into a local harness, and require the merged
    // document to match the repro CLI bytes without local simulation.
    let ids = vec!["fig5".to_string()];
    let cells = mds_bench::grid::cells(&ids, Scale::Tiny);
    let batch = |fresh: bool| {
        let jobs = cells
            .iter()
            .map(|c| mds_runner::wire::encode_job(&c.job))
            .collect();
        mds_harness::json::Json::object()
            .field("fresh", fresh)
            .field("jobs", mds_harness::json::Json::Array(jobs))
            .to_string()
    };
    let send = |body: &str| {
        let response = request(&server, "POST", "/v1/cells", body.as_bytes());
        assert_eq!(response.status, 200, "{response:?}");
        response.body
    };
    let first = send(&batch(false));
    let doc = mds_harness::json::Json::parse(std::str::from_utf8(&first).unwrap()).unwrap();
    let answers = doc.get("cells").unwrap().as_array().unwrap();
    assert_eq!(answers.len(), cells.len());
    let mut h = mds_bench::Harness::with_runner(Scale::Tiny, mds_runner::Runner::new(1));
    for (cell, answer) in cells.iter().zip(answers) {
        assert_eq!(answer.get("id").unwrap().as_str().unwrap(), cell.id());
        let output = mds_runner::wire::decode_output(answer.get("output").unwrap()).unwrap();
        assert!(h.insert(&cell.demand, output));
    }
    let runs_before = h.run_stats().len();
    let merged = mds_bench::grid::merged_doc(&mut h, &ids).unwrap();
    assert_eq!(merged, cli_fig5_tiny());
    assert_eq!(
        h.run_stats().len(),
        runs_before,
        "nothing recomputed locally"
    );
    // The batch emulated each fig5 workload exactly once.
    assert_eq!(server.trace_cache().misses(), FIG5_TINY_WORKLOADS);

    // The same batch again is answered from the per-cell result cache:
    // one hit per cell, identical bytes, no new emulation.
    let hits = server.result_cache().hits();
    let metric_hits = || {
        server
            .metrics()
            .result_cache_hits
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    let metric_before = metric_hits();
    assert_eq!(send(&batch(false)), first);
    assert_eq!(server.result_cache().hits() - hits, cells.len() as u64);
    assert_eq!(metric_hits() - metric_before, cells.len() as u64);
    assert_eq!(server.trace_cache().misses(), FIG5_TINY_WORKLOADS);

    // `fresh` skips the cache read and recomputes, with the same bytes.
    let trace_hits = server.trace_cache().hits();
    assert_eq!(send(&batch(true)), first);
    assert_eq!(server.result_cache().hits() - hits, cells.len() as u64);
    assert!(server.trace_cache().hits() > trace_hits, "fresh recomputed");

    // Malformed batches are a 400, not a crash: the one-job form, an
    // empty batch, unknown fields, and undecodable jobs.
    let job = mds_runner::wire::encode_job(&cells[0].job).to_string();
    for bad in [
        job.clone(),
        r#"{"jobs":[]}"#.to_string(),
        format!(r#"{{"jobs":[{job}],"shard":1}}"#),
        r#"{"jobs":[{"id":"x"}]}"#.to_string(),
        r#"{"fresh":"yes","jobs":[]}"#.to_string(),
    ] {
        let response = request(&server, "POST", "/v1/cells", bad.as_bytes());
        assert_eq!(response.status, 400, "{bad}: {response:?}");
    }
    server.shutdown();
}

#[test]
fn cells_the_simulators_cannot_run_get_400_and_the_backend_stays_up() {
    let server = start(2, 8);
    let ids = vec!["fig5".to_string()];
    let cells = mds_bench::grid::cells(&ids, Scale::Tiny);
    let (ms, stages) = cells
        .iter()
        .find_map(|c| match &c.job.kind {
            mds_runner::JobKind::Multiscalar(config) => Some((c, config.stages)),
            _ => None,
        })
        .expect("fig5 has Multiscalar cells");
    let job = mds_runner::wire::encode_job(&ms.job).to_string();
    let stages = format!(r#""stages":{stages}"#);
    // Zero counts the simulators divide by or assert on, and sizes they
    // would allocate in proportion to (2^34 entries).
    for (field, good, bad) in [
        ("stages", stages.as_str(), r#""stages":0"#),
        ("path_depth", r#""path_depth":4"#, r#""path_depth":0"#),
        (
            "descriptor_cache",
            r#""descriptor_cache":1024"#,
            r#""descriptor_cache":0"#,
        ),
        (
            "descriptor_cache",
            r#""descriptor_cache":1024"#,
            r#""descriptor_cache":17179869184"#,
        ),
        ("window", r#""window":32"#, r#""window":17179869184"#),
        ("icache", r#""icache":[32768"#, r#""icache":[17179869184"#),
    ] {
        assert!(job.contains(good), "{field}: {job}");
        let body = format!(r#"{{"jobs":[{}]}}"#, job.replacen(good, bad, 1));
        let response = request(&server, "POST", "/v1/cells", body.as_bytes());
        assert_eq!(response.status, 400, "{field}: {response:?}");
        let text = String::from_utf8_lossy(&response.body);
        assert!(
            text.contains(&format!(".config.{field}")),
            "{field}: {text}"
        );
        let live = request(&server, "GET", "/healthz", b"");
        assert_eq!(live.status, 200, "after {field}");
    }
    assert_eq!(server.trace_cache().misses(), 0, "no rejected cell ran");
    server.shutdown();
}
