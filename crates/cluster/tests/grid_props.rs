//! Property tests for grid scatter-gather planning and merging.
//!
//! The merge contract under randomization: however a grid's cells are
//! placed across backends and in whatever order their partial results
//! arrive, the merged response is byte-identical to serial
//! submission-order merging and to a lone harness computing the whole
//! grid itself — and cells that never arrive at all are recomputed
//! locally without changing a byte. These are the properties that make
//! the gateway's streaming gather correct by construction: nothing in
//! the scatter path (lane scheduling, failover, backend loss)
//! can influence the answer.

use mds_bench::grid::{cells, route_key, GridRequest};
use mds_cluster::grid::{plan, BatchPlan, Merger};
use mds_cluster::ring::HashRing;
use mds_harness::json::Json;
use mds_harness::prelude::*;
use mds_harness::rng::Rng;
use mds_runner::{wire, Grid, Runner};
use mds_serve::CellBatch;
use mds_workloads::Scale;

/// Cheap-at-tiny experiments the random grids draw from (duplicates and
/// overlapping demand sets included on purpose).
const POOL: [&str; 3] = ["fig5", "table1", "table2"];

fn backend_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("10.0.0.{i}:7878")).collect()
}

/// What a backend's `POST /v1/cells` does with a cache that never hits:
/// decode the batch, run its jobs as one grid, answer `{"cells": [{"id",
/// "output"}, ...]}` in job order. `runner` carries that backend's trace
/// cache across the batches placed on it.
fn backend_answer(runner: &Runner, body: &str) -> Vec<u8> {
    let batch = CellBatch::from_body(body.as_bytes()).expect("batch body");
    let mut grid = Grid::new(Scale::Tiny);
    for job in batch.jobs {
        grid.push(job);
    }
    let answers = runner
        .run(&grid)
        .results
        .iter()
        .map(|r| {
            Json::object()
                .field("id", r.id.as_str())
                .field("output", wire::encode_output(&r.output))
        })
        .collect();
    Json::object()
        .field("cells", Json::Array(answers))
        .to_string()
        .into_bytes()
}

fn random_request(rng: &mut Rng, len: usize) -> GridRequest {
    GridRequest {
        experiments: (0..len)
            .map(|_| POOL[rng.gen_range(0..POOL.len())].to_string())
            .collect(),
        scale: Scale::Tiny,
        fresh: false,
    }
}

/// The reference model: one lone harness computing the whole grid.
fn lone_harness_doc(request: &GridRequest) -> String {
    let mut harness = mds_bench::Harness::with_runner(request.scale, Runner::new(1));
    mds_bench::grid::merged_doc(&mut harness, &request.experiments).expect("local grid")
}

/// Executes every batch on its ring owner's runner, emulating a fleet of
/// `backends` backends with per-backend trace caches.
fn fleet_answers(batches: &[BatchPlan], backends: usize) -> Vec<Vec<u8>> {
    let ring = HashRing::new(&backend_names(backends), 64);
    let runners: Vec<Runner> = (0..backends).map(|_| Runner::new(1)).collect();
    batches
        .iter()
        .map(|batch| {
            let owner = ring.primary(&batch.route_key).expect("non-empty ring");
            backend_answer(&runners[owner], &batch.body)
        })
        .collect()
}

fn request(ids: &[&str]) -> GridRequest {
    GridRequest {
        experiments: ids.iter().map(|s| s.to_string()).collect(),
        scale: Scale::Tiny,
        fresh: false,
    }
}

properties! {
    #![config(PropConfig { cases: 6, ..PropConfig::default() })]

    #[test]
    fn out_of_order_arrival_merges_byte_identical_to_serial_order(
        backends in 1usize..5,
        len in 1usize..5,
        seed: u64,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let request = random_request(&mut rng, len);
        let grid_plan = plan(&request);
        let expected = lone_harness_doc(&request);
        let answers = fleet_answers(&grid_plan.batches, backends);
        let cells: usize = grid_plan.batches.iter().map(|b| b.cells.len()).sum();

        // Serial submission order matches the lone harness byte for byte.
        let mut serial = Merger::new(&request, Runner::new(1));
        for (batch, answer) in grid_plan.batches.iter().zip(&answers) {
            prop_assert!(serial.accept_batch(batch, answer).is_ok());
        }
        prop_assert_eq!(serial.accepted(), cells);
        prop_assert_eq!(&serial.finish().unwrap(), &expected);

        // A random arrival permutation merges to the same bytes, with
        // nothing recomputed locally.
        let mut order: Vec<usize> = (0..grid_plan.batches.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let mut shuffled = Merger::new(&request, Runner::new(1));
        for &i in &order {
            prop_assert!(shuffled
                .accept_batch(&grid_plan.batches[i], &answers[i])
                .is_ok());
        }
        prop_assert_eq!(shuffled.local_runs(), 0, "no local compute before finish");
        prop_assert_eq!(&shuffled.finish().unwrap(), &expected);
    }

    #[test]
    fn dropped_cells_fall_back_locally_without_changing_bytes(
        backends in 1usize..4,
        len in 1usize..4,
        seed: u64,
    ) {
        let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9);
        let request = random_request(&mut rng, len);
        let grid_plan = plan(&request);
        let expected = lone_harness_doc(&request);
        let answers = fleet_answers(&grid_plan.batches, backends);

        // Each batch independently "fails" (never arrives) half the time.
        let mut merger = Merger::new(&request, Runner::new(1));
        let mut delivered = 0usize;
        for (batch, answer) in grid_plan.batches.iter().zip(&answers) {
            if rng.gen_range(0..2) == 0 {
                continue;
            }
            prop_assert!(merger.accept_batch(batch, answer).is_ok());
            delivered += batch.cells.len();
        }
        prop_assert_eq!(merger.accepted(), delivered);
        prop_assert_eq!(
            &merger.finish().unwrap(),
            &expected,
            "local fallback must not change the merged bytes"
        );
    }
}

#[test]
fn plan_ships_one_batch_per_route_key() {
    let req = request(&["fig5", "fig6"]);
    let plan = plan(&req);
    // The batches hold every distinct demand exactly once, each
    // batch holds one workload's cells, and no key has two batches.
    let mut ids: Vec<&str> = plan
        .batches
        .iter()
        .flat_map(|b| &b.cells)
        .map(|c| c.id.as_str())
        .collect();
    ids.sort_unstable();
    let mut want: Vec<String> = cells(&req.experiments, req.scale)
        .into_iter()
        .map(|c| c.job.id)
        .collect();
    want.sort_unstable();
    assert_eq!(ids, want);
    let mut keys: Vec<&str> = plan.batches.iter().map(|b| b.route_key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), plan.batches.len());
    for batch in &plan.batches {
        // The body is the backend's batch shape: jobs in cell order, all
        // replaying the batch's trace.
        let parsed = CellBatch::from_body(batch.body.as_bytes()).unwrap();
        assert!(!parsed.fresh);
        for job in &parsed.jobs {
            assert_eq!(route_key(job.workload.name, job.scale), batch.route_key);
        }
        let ids: Vec<&str> = parsed.jobs.iter().map(|j| j.id.as_str()).collect();
        let want: Vec<&str> = batch.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, want);
    }
}

#[test]
fn batches_forward_fresh_and_fit_the_default_body_limit() {
    let mut all = request(&mds_bench::EXPERIMENT_IDS);
    all.fresh = true;
    let limit = mds_serve::http::Limits::default().max_body_bytes;
    for batch in &plan(&all).batches {
        assert!(
            batch.body.len() < limit,
            "{}: {}",
            batch.route_key,
            batch.body.len()
        );
        assert!(CellBatch::from_body(batch.body.as_bytes()).unwrap().fresh);
    }
}

#[test]
fn merger_rejects_wrong_ids_short_batches_and_garbage() {
    let req = request(&["table1"]);
    let p = plan(&req);
    let mut merger = Merger::new(&req, Runner::from_env(Some(1)));
    let batch = &p.batches[0];
    let answer = |id: &str| {
        Json::object()
            .field("id", id)
            .field("output", Json::object())
    };
    let body = |answers: Vec<Json>| {
        Json::object()
            .field("cells", Json::Array(answers))
            .to_string()
    };
    assert!(merger.accept_batch(batch, b"not json").is_err());
    assert!(merger.accept_batch(batch, b"{}").is_err());
    let short = body(Vec::new());
    let err = merger.accept_batch(batch, short.as_bytes()).unwrap_err();
    assert!(err.contains("answers 0 of"), "{err}");
    let wrong = body(batch.cells.iter().map(|_| answer("someone-else")).collect());
    let err = merger.accept_batch(batch, wrong.as_bytes()).unwrap_err();
    assert!(err.contains("does not echo"), "{err}");
    assert_eq!(merger.accepted(), 0);
}
