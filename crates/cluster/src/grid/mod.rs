//! Scatter-gather grid execution: fan a grid of experiments out across
//! the fleet and merge the partial results deterministically.
//!
//! A `POST /v1/grids` request names a set of experiments at one scale
//! (a `POST /v1/experiments` request is the one-experiment grid).
//! The gateway decomposes it with [`plan`] into per-cell jobs (one per
//! distinct simulation demand, via `mds_bench::grid`) and groups them by
//! their `workload@scale` trace key into one batch per key. Each batch
//! goes to its key's owner on the consistent-hash ring — so every backend
//! emulates only its own shard of the workload set, its trace cache stays
//! hot, and it runs the key's cells as one grid — after
//! [`balanced_assignments`] caps each backend at its fair share of the
//! grid's keys. Batches travel as `POST /v1/cells` requests through the
//! gateway's breaker/retry-budget failover loop, its only upstream path.
//! Outputs stream back in completion order and a [`Merger`] folds them
//! into a harness; the final response is rendered in request order, so
//! the bytes are independent of placement, concurrency, and arrival
//! order — byte-identical to a lone `mds-serve` answering the whole grid,
//! and to `repro <id> --json` per experiment.
//!
//! All of this runs only when the gateway's merged-document cache
//! misses: a grid answered before, and not sent `fresh`, comes back from
//! that cache under its canonical descriptor
//! ([`GridRequest::cache_key`]) without a plan, a batch or a merge. A
//! grid that differs only in experiment order is another document, so it
//! scatters again, and its batches hit the backends' per-cell caches.
//!
//! The submodule split mirrors the pipeline: this module plans and
//! merges (pure, property-testable); [`windows`] bounds per-backend
//! in-flight dispatch; the network scatter loop and the merged-document
//! cache live in the gateway, next to the failover machinery the loop
//! reuses.

pub mod windows;

pub use windows::{WindowGuard, Windows};

use mds_bench::grid::{cells, GridRequest};
use mds_bench::{Demand, Harness};
use mds_harness::json::Json;
use mds_runner::wire;
use mds_runner::{JobOutput, Runner};
use std::collections::HashMap;

/// One cell of a placed grid: the demand its output satisfies.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// The demand id, which is also the wire job id the backend echoes.
    pub id: String,
    /// The demand this cell satisfies, for merging its output.
    pub demand: Demand,
}

/// One upstream call: every cell of the grid that shares a route key,
/// shipped to the key's owner as a single `POST /v1/cells` batch.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// The placement key (`workload@scale`) all of the batch's cells
    /// share: they replay one trace, and the ring maps the key to its
    /// owning backend.
    pub route_key: String,
    /// The cells, in the order the batch response answers them.
    pub cells: Vec<CellPlan>,
    /// The request body: `{"fresh": bool, "jobs": [wire job, ...]}`.
    pub body: String,
}

/// A decomposed, placed grid request.
#[derive(Debug, Clone)]
pub struct GridPlan {
    /// The validated request this plan answers.
    pub request: GridRequest,
    /// One batch per distinct route key, in first-appearance order.
    pub batches: Vec<BatchPlan>,
}

/// Decomposes a validated grid request into cells — the union of every
/// requested experiment's demands, deduplicated, in submission order,
/// the same decomposition a lone harness performs internally — grouped
/// into one batch per route key. Each batch carries the request's
/// `fresh` flag.
pub fn plan(request: &GridRequest) -> GridPlan {
    let mut groups: Vec<(String, Vec<CellPlan>, Vec<Json>)> = Vec::new();
    for cell in cells(&request.experiments, request.scale) {
        let key = cell.route_key();
        let at = match groups.iter().position(|group| group.0 == key) {
            Some(at) => at,
            None => {
                groups.push((key, Vec::new(), Vec::new()));
                groups.len() - 1
            }
        };
        let (_, plans, jobs) = &mut groups[at];
        jobs.push(wire::encode_job(&cell.job));
        plans.push(CellPlan {
            id: cell.job.id,
            demand: cell.demand,
        });
    }
    let batches = groups
        .into_iter()
        .map(|(route_key, cells, jobs)| BatchPlan {
            route_key,
            cells,
            body: Json::object()
                .field("fresh", request.fresh)
                .field("jobs", Json::Array(jobs))
                .to_string(),
        })
        .collect();
    GridPlan {
        request: request.clone(),
        batches,
    }
}

/// Balances one grid's distinct route keys across the fleet.
///
/// Strict ring-primary placement keeps trace caches hot, but with few
/// distinct keys it regularly leaves one backend owning most of a grid
/// (five workload keys over four backends land 3-1-1-0 about 40% of the
/// time), serializing the cold emulation phase on the unlucky owner.
/// This pass caps each backend at ⌈keys/backends⌉ keys *for this grid*:
/// a key keeps the head of its candidate (replica-order) list unless
/// that backend is already at the cap, then spills to the next candidate
/// with capacity — or, when every candidate is full, the least-loaded
/// candidate. Keys with no candidates at all get no owner (the dispatch
/// path handles that as "no backend available"). Deterministic in the
/// candidate lists and key order, so identical grids place identically
/// and cache affinity still holds request over request.
pub fn balanced_assignments(
    candidates: &[(String, Vec<usize>)],
    backends: usize,
) -> HashMap<String, usize> {
    let cap = candidates.len().div_ceil(backends.max(1)).max(1);
    let mut load: HashMap<usize, usize> = HashMap::new();
    let mut owners = HashMap::new();
    for (key, rotation) in candidates {
        let chosen = rotation
            .iter()
            .copied()
            .find(|idx| load.get(idx).copied().unwrap_or(0) < cap)
            .or_else(|| {
                rotation
                    .iter()
                    .copied()
                    .min_by_key(|idx| load.get(idx).copied().unwrap_or(0))
            });
        if let Some(idx) = chosen {
            *load.entry(idx).or_insert(0) += 1;
            owners.insert(key.clone(), idx);
        }
    }
    owners
}

/// The gather half: folds cell outputs — arriving in any order — into a
/// harness and renders the response in request order.
pub struct Merger {
    harness: Harness,
    experiments: Vec<String>,
    accepted: usize,
}

impl Merger {
    /// A merger for `request`. The runner only executes if a demand is
    /// missing at [`Merger::finish`] time (the local-fallback path), so
    /// a single-threaded runner is the right default.
    pub fn new(request: &GridRequest, runner: Runner) -> Merger {
        Merger {
            harness: Harness::with_runner(request.scale, runner),
            experiments: request.experiments.clone(),
            accepted: 0,
        }
    }

    /// Accepts one batch's `POST /v1/cells` response body.
    ///
    /// The body must answer every cell of `batch`, in order, with an
    /// `{"id", "output"}` element whose id echoes the cell's. Every
    /// element is decoded before any is installed, so a batch that fails
    /// to decode installs nothing and all of its cells fall to the local
    /// fallback at [`Merger::finish`]. Errors describe what a misbehaving
    /// backend sent.
    pub fn accept_batch(&mut self, batch: &BatchPlan, response_body: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(response_body)
            .map_err(|_| "batch response is not UTF-8".to_string())?;
        let doc = Json::parse(text).map_err(|e| format!("batch response: {e}"))?;
        let answers = doc
            .get("cells")
            .and_then(Json::as_array)
            .ok_or_else(|| "batch response lacks a cells array".to_string())?;
        if answers.len() != batch.cells.len() {
            return Err(format!(
                "batch response answers {} of {} cells",
                answers.len(),
                batch.cells.len()
            ));
        }
        let outputs = batch
            .cells
            .iter()
            .zip(answers)
            .map(|(cell, answer)| decode_answer(cell, answer))
            .collect::<Result<Vec<_>, _>>()?;
        for (cell, output) in batch.cells.iter().zip(outputs) {
            if !self.harness.insert(&cell.demand, output) {
                return Err(format!(
                    "cell {:?} output kind mismatches its demand",
                    cell.id
                ));
            }
            self.accepted += 1;
        }
        Ok(())
    }

    /// Cells accepted so far.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Demands this merger's harness ran locally instead of receiving —
    /// zero when every cell arrived (grids with only static tables never
    /// dispatch cells, so zero there too).
    pub fn local_runs(&self) -> usize {
        self.harness.run_stats().len()
    }

    /// Renders the merged response: each experiment's canonical result
    /// document, concatenated in request order. Demands that never
    /// arrived are computed locally — slower, never wrong.
    pub fn finish(mut self) -> Result<String, String> {
        mds_bench::grid::merged_doc(&mut self.harness, &self.experiments)
    }
}

/// Decodes one `{"id", "output"}` batch element, checking that the id
/// echoes the cell's.
fn decode_answer(cell: &CellPlan, answer: &Json) -> Result<JobOutput, String> {
    let id = answer
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| "cell answer lacks an id".to_string())?;
    if id != cell.id {
        return Err(format!("cell answer id {id:?} does not echo {:?}", cell.id));
    }
    let output = answer
        .get("output")
        .ok_or_else(|| "cell answer lacks an output".to_string())?;
    wire::decode_output(output).map_err(|e| format!("cell output: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_workloads::Scale;

    fn request(ids: &[&str]) -> GridRequest {
        GridRequest {
            experiments: ids.iter().map(|s| s.to_string()).collect(),
            scale: Scale::Tiny,
            fresh: false,
        }
    }

    #[test]
    fn balanced_assignments_caps_per_backend_keys() {
        // Adversarial hashing: all five keys name backend 0 first. The
        // cap (⌈5/4⌉ = 2) spills the overflow down the replica order.
        let candidates: Vec<(String, Vec<usize>)> = (0..5)
            .map(|i| (format!("wl{i}@tiny"), vec![0, 1, 2, 3]))
            .collect();
        let owners = balanced_assignments(&candidates, 4);
        assert_eq!(owners.len(), 5);
        let mut load = [0usize; 4];
        for &idx in owners.values() {
            load[idx] += 1;
        }
        assert!(load.iter().all(|&l| l <= 2), "{load:?}");
        // The first two keys keep their primary.
        assert_eq!(owners["wl0@tiny"], 0);
        assert_eq!(owners["wl1@tiny"], 0);
    }

    #[test]
    fn balanced_assignments_keeps_primaries_under_the_cap() {
        let spread: Vec<(String, Vec<usize>)> = (0..4)
            .map(|i| (format!("wl{i}@tiny"), vec![i, (i + 1) % 4]))
            .collect();
        let owners = balanced_assignments(&spread, 4);
        for i in 0..4 {
            assert_eq!(owners[&format!("wl{i}@tiny")], i);
        }
    }

    #[test]
    fn balanced_assignments_tolerates_short_and_empty_candidate_lists() {
        // Two backends, but every reachable candidate list names only
        // backend 1 (backend 0 is out of rotation); one key has no
        // candidates at all.
        let candidates = vec![
            ("a@tiny".to_string(), vec![1]),
            ("b@tiny".to_string(), vec![1]),
            ("c@tiny".to_string(), vec![1]),
            ("d@tiny".to_string(), Vec::new()),
        ];
        let owners = balanced_assignments(&candidates, 2);
        // cap = 2, yet backend 1 is the only candidate: the least-loaded
        // fallback still places the third key there rather than dropping it.
        assert_eq!(owners.get("a@tiny"), Some(&1));
        assert_eq!(owners.get("b@tiny"), Some(&1));
        assert_eq!(owners.get("c@tiny"), Some(&1));
        assert_eq!(owners.get("d@tiny"), None);
    }

    #[test]
    fn merger_falls_back_to_local_compute_for_missing_cells() {
        // No cells accepted at all: finish() still renders the correct
        // document by computing locally.
        let req = request(&["table2"]);
        let merger = Merger::new(&req, Runner::from_env(Some(1)));
        let doc = merger.finish().unwrap();
        assert!(doc.contains("\"experiment\": \"table2\""), "{doc}");
    }
}
