//! Helpers the gateway's end-to-end tests share.

use mds_cluster::gateway::Gateway;
use mds_serve::client::request_once;
use mds_serve::http::ClientResponse;
use mds_workloads::Scale;
use std::time::Duration;

/// One request to the gateway on a fresh connection.
pub fn request(gateway: &Gateway, method: &str, target: &str, body: &[u8]) -> ClientResponse {
    request_once(
        &gateway.local_addr().to_string(),
        method,
        target,
        body,
        Duration::from_secs(60),
    )
    .expect("gateway round trip")
}

/// The exact bytes `repro <id> --json` produces for the tiny scale.
pub fn cli_doc(id: &str) -> String {
    let mut h = mds_bench::Harness::with_runner(Scale::Tiny, mds_runner::Runner::new(1));
    let table = mds_bench::experiment(&mut h, id).unwrap();
    mds_bench::results_doc(
        id,
        mds_bench::experiment_title(id).unwrap(),
        Scale::Tiny,
        &table,
    )
    .pretty()
}
