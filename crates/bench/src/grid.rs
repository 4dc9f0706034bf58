//! Grid descriptors and the scatter-gather merge contract.
//!
//! A *grid request* names a set of experiments at one workload scale.
//! Both execution strategies must produce byte-identical output:
//!
//! - **Lone backend**: run every experiment locally through a
//!   [`Harness`] and concatenate the result documents.
//! - **Scatter-gather**: decompose the request into [`Cell`]s (one per
//!   distinct [`Demand`] across every requested experiment), compute
//!   each cell anywhere — on any machine, in any order — ship the
//!   outputs back over the [`mds_runner::wire`] codec, [`Harness::insert`]
//!   them, and render the same documents from the merged harness.
//!
//! The equivalence holds because result documents are pure functions of
//! the simulation outputs, the wire codec is lossless for every
//! table-observable metric, and [`merged_doc`] renders experiments in
//! request order regardless of cell completion order.
//!
//! Cells carry a *route key* (`workload@scale`, the trace-cache key): a
//! placement layer that shards cells by route key sends every cell that
//! replays the same trace to the same owner, so each backend emulates
//! only its own shard of the workload set.

use crate::{demands, experiment, experiment_title, results_doc, scale_by_name, scale_name};
use crate::{Demand, Harness};
use mds_harness::json::Json;
use mds_runner::Job;
use mds_workloads::Scale;

/// A parsed `POST /v1/grids` descriptor.
///
/// The body is a strict JSON object — unknown fields are rejected so
/// typos fail loudly rather than silently running the default:
///
/// ```json
/// {"experiments": ["fig5", "table7"], "scale": "tiny"}
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRequest {
    /// Requested experiment ids, in response order. Duplicates are
    /// preserved (the document repeats).
    pub experiments: Vec<String>,
    /// Workload scale shared by every cell.
    pub scale: Scale,
    /// Bypass result-cache reads and recompute every experiment, or,
    /// through a gateway, every cell: the gateway forwards the flag on
    /// each cell batch it scatters. Fills still refresh the caches.
    pub fresh: bool,
}

impl GridRequest {
    /// Parses and validates a request body (text, or raw bytes that must
    /// be UTF-8).
    ///
    /// Errors are positioned messages suitable for a 400 response body.
    pub fn from_body(body: impl AsRef<[u8]>) -> Result<GridRequest, String> {
        let body = std::str::from_utf8(body.as_ref()).map_err(|_| "body is not UTF-8")?;
        let json = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let Json::Object(pairs) = &json else {
            return Err("request body must be a JSON object".to_string());
        };
        for (key, _) in pairs {
            if !matches!(key.as_str(), "experiments" | "scale" | "fresh") {
                return Err(format!(
                    "unknown field {key:?}: expected experiments, scale, or fresh"
                ));
            }
        }
        let experiments_json = json
            .get("experiments")
            .ok_or_else(|| "missing required field \"experiments\"".to_string())?;
        let items = experiments_json
            .as_array()
            .ok_or_else(|| "\"experiments\" must be an array of experiment ids".to_string())?;
        if items.is_empty() {
            return Err("\"experiments\" must name at least one experiment".to_string());
        }
        let mut experiments = Vec::with_capacity(items.len());
        for item in items {
            let id = item
                .as_str()
                .ok_or_else(|| "\"experiments\" entries must be strings".to_string())?;
            if experiment_title(id).is_none() {
                return Err(format!("unknown experiment {id:?}"));
            }
            experiments.push(id.to_string());
        }
        let scale = match json.get("scale") {
            None => Scale::Small,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| "\"scale\" must be a string".to_string())?;
                scale_by_name(name).ok_or_else(|| {
                    format!("unknown scale {name:?}: expected tiny, small, or full")
                })?
            }
        };
        let fresh = match json.get("fresh") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("\"fresh\" must be a boolean".to_string()),
        };
        Ok(GridRequest {
            experiments,
            scale,
            fresh,
        })
    }

    /// The canonical merged-document cache key: the experiments in
    /// request order, duplicates kept, joined by `+`, then `@` and the
    /// scale (`fig5+fig6@tiny`). Field order, whitespace and `fresh`
    /// stay out of it, so every body asking for the same document shares
    /// one entry. A one-experiment grid's key is its experiment's
    /// `(experiment, scale)` key (`fig5@tiny`), as its document is that
    /// experiment's document.
    pub fn cache_key(&self) -> String {
        format!("{}@{}", self.experiments.join("+"), scale_name(self.scale))
    }
}

/// One unit of scatter-gather work: a demand from some requested
/// experiment plus the runnable job that computes it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The demand this cell satisfies; its output slots into a
    /// [`Harness`] via [`Harness::insert`].
    pub demand: Demand,
    /// The runnable form, shippable via [`mds_runner::wire::encode_job`].
    pub job: Job,
}

impl Cell {
    /// The cell's stable id (the demand/grid-job id).
    pub fn id(&self) -> &str {
        &self.job.id
    }

    /// The placement key: `workload@scale`, the trace-cache key. Every
    /// cell replaying the same emulated trace shares a route key.
    pub fn route_key(&self) -> String {
        route_key(self.job.workload.name, self.job.scale)
    }
}

/// The placement key for a workload at a scale (see [`Cell::route_key`]).
pub fn route_key(workload: &str, scale: Scale) -> String {
    format!("{workload}@{}", scale_name(scale))
}

/// Decomposes a set of experiments into cells: the union of every
/// experiment's demands, deduplicated by demand id, in submission order.
///
/// Overlapping experiments (fig5 and fig6 share paper-configuration
/// runs, for example) contribute one cell per distinct demand, mirroring
/// the dedup [`Harness::prefetch`] performs for local execution.
pub fn cells(experiments: &[String], scale: Scale) -> Vec<Cell> {
    let mut out: Vec<Cell> = Vec::new();
    let mut queued: std::collections::HashSet<String> = std::collections::HashSet::new();
    for id in experiments {
        for demand in demands(id) {
            let cell_id = demand.id();
            if !queued.insert(cell_id.clone()) {
                continue;
            }
            let job = Job {
                id: cell_id,
                workload: *demand.workload(),
                scale,
                kind: demand.kind(),
            };
            out.push(Cell { demand, job });
        }
    }
    out
}

/// Renders the grid response: each experiment's result document (the
/// exact [`results_doc`] bytes `repro` writes and `/v1/experiments`
/// serves), concatenated in request order.
///
/// Every document is newline-terminated, so a multi-experiment response
/// equals the concatenation of the per-experiment `RESULTS_<id>.json`
/// files, and a single-experiment response equals that file exactly.
///
/// Demands already satisfied on `h` — e.g. via [`Harness::insert`] of
/// scattered cell outputs — are not recomputed; anything missing is
/// computed locally, so a partially merged harness still renders a
/// correct (if slower) response.
pub fn merged_doc(h: &mut Harness, experiments: &[String]) -> Result<String, String> {
    let mut out = String::new();
    for id in experiments {
        let title = experiment_title(id).ok_or_else(|| format!("unknown experiment {id:?}"))?;
        let table = experiment(h, id).expect("experiment exists whenever its title does");
        out.push_str(&results_doc(id, title, h.scale(), &table).pretty());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::rng::Rng;
    use mds_runner::wire::{decode_job, decode_output, encode_job, encode_output};
    use mds_runner::{Grid, Runner};

    #[test]
    fn request_parses_defaults_and_explicit_fields() {
        let req = GridRequest::from_body(r#"{"experiments": ["fig5"]}"#).unwrap();
        assert_eq!(req.experiments, vec!["fig5".to_string()]);
        assert_eq!(req.scale, Scale::Small);
        assert!(!req.fresh);

        let req = GridRequest::from_body(
            r#"{"experiments": ["fig5", "table7", "fig5"], "scale": "tiny", "fresh": true}"#,
        )
        .unwrap();
        assert_eq!(req.experiments, vec!["fig5", "table7", "fig5"]);
        assert_eq!(req.scale, Scale::Tiny);
        assert!(req.fresh);
    }

    #[test]
    fn request_rejects_malformed_bodies() {
        for (body, needle) in [
            ("nonsense", "invalid JSON"),
            ("[1]", "must be a JSON object"),
            ("{}", "missing required field"),
            (
                r#"{"experiments": ["fig5"], "shard": 3}"#,
                "unknown field \"shard\"",
            ),
            (r#"{"experiments": "fig5"}"#, "must be an array"),
            (r#"{"experiments": []}"#, "at least one"),
            (r#"{"experiments": [5]}"#, "must be strings"),
            (
                r#"{"experiments": ["fig99"]}"#,
                "unknown experiment \"fig99\"",
            ),
            (
                r#"{"experiments": ["fig5"], "scale": "huge"}"#,
                "unknown scale \"huge\"",
            ),
            (
                r#"{"experiments": ["fig5"], "scale": 4}"#,
                "\"scale\" must be a string",
            ),
            (
                r#"{"experiments": ["fig5"], "fresh": "yes"}"#,
                "must be a boolean",
            ),
        ] {
            let err = GridRequest::from_body(body).unwrap_err();
            assert!(
                err.contains(needle),
                "body {body:?}: error {err:?} lacks {needle:?}"
            );
        }
    }

    #[test]
    fn cache_key_is_canonical_over_syntax_and_fresh() {
        let key = |body: &str| GridRequest::from_body(body).unwrap().cache_key();
        let canonical = key(r#"{"experiments":["fig5","fig6"],"scale":"tiny"}"#);
        assert_eq!(canonical, "fig5+fig6@tiny");
        for body in [
            r#"{"scale":"tiny","experiments":["fig5","fig6"]}"#,
            "{ \"experiments\" : [ \"fig5\" ,\n \"fig6\" ] , \"scale\" : \"tiny\" }",
            r#"{"experiments":["fig5","fig6"],"scale":"tiny","fresh":true}"#,
            r#"{"fresh":false,"experiments":["fig5","fig6"],"scale":"tiny"}"#,
        ] {
            assert_eq!(key(body), canonical, "{body}");
        }
        // Order, duplicates and scale are identity: each names another
        // document.
        for (body, expect) in [
            (
                r#"{"experiments":["fig6","fig5"],"scale":"tiny"}"#,
                "fig6+fig5@tiny",
            ),
            (
                r#"{"experiments":["fig5","fig6","fig5"],"scale":"tiny"}"#,
                "fig5+fig6+fig5@tiny",
            ),
            (r#"{"experiments":["fig5","fig6"]}"#, "fig5+fig6@small"),
            (r#"{"experiments":["fig5"],"scale":"tiny"}"#, "fig5@tiny"),
        ] {
            assert_eq!(key(body), expect, "{body}");
        }
    }

    #[test]
    fn cells_dedup_across_overlapping_experiments() {
        let ids = vec!["fig5".to_string(), "fig6".to_string()];
        let both = cells(&ids, Scale::Tiny);
        let fig5_only = cells(&ids[..1], Scale::Tiny);
        let fig6_only = cells(&ids[1..], Scale::Tiny);
        // fig5 and fig6 overlap (both need paper-configuration runs), so
        // the union must be strictly smaller than the sum of the parts.
        assert!(both.len() < fig5_only.len() + fig6_only.len());
        let mut seen = std::collections::HashSet::new();
        for cell in &both {
            assert!(
                seen.insert(cell.id().to_string()),
                "duplicate cell {}",
                cell.id()
            );
            assert_eq!(cell.job.scale, Scale::Tiny);
        }
        // Submission order: fig5's demands first, in demands() order.
        let fig5_ids: Vec<_> = fig5_only.iter().map(|c| c.id().to_string()).collect();
        let prefix: Vec<_> = both[..fig5_ids.len()]
            .iter()
            .map(|c| c.id().to_string())
            .collect();
        assert_eq!(fig5_ids, prefix);
    }

    /// The merge contract end to end: computing cells remotely (here:
    /// through the wire codec, in a shuffled arrival order) and merging
    /// must be byte-identical to plain local execution.
    #[test]
    fn shuffled_wire_merge_matches_local_execution() {
        let ids = vec!["fig5".to_string(), "table1".to_string()];
        let runner = Runner::from_env(Some(2));

        // Reference: one harness computes everything locally.
        let mut local = Harness::with_runner(Scale::Tiny, runner.clone());
        let expect = merged_doc(&mut local, &ids).unwrap();

        // Scatter: encode each cell, execute the decoded job elsewhere
        // (a separate runner sharing nothing), encode the output back.
        let cs = cells(&ids, Scale::Tiny);
        let mut arrivals: Vec<(Demand, mds_runner::JobOutput)> = Vec::new();
        for cell in &cs {
            let job = decode_job(&encode_job(&cell.job)).unwrap();
            let mut grid = Grid::new(job.scale);
            grid.push(job);
            let outcome = Runner::from_env(Some(1)).run(&grid);
            let output = outcome.results.into_iter().next().unwrap().output;
            let output = decode_output(&encode_output(&output)).unwrap();
            arrivals.push((cell.demand.clone(), output));
        }

        // Gather: insert in a deterministic shuffle of arrival order.
        let mut rng = Rng::seed_from_u64(0x9d1d);
        for i in (1..arrivals.len()).rev() {
            arrivals.swap(i, rng.gen_range(0..i + 1));
        }
        let mut merged = Harness::with_runner(Scale::Tiny, runner);
        for (demand, output) in &arrivals {
            assert!(
                merged.insert(demand, output.clone()),
                "rejected {}",
                demand.id()
            );
        }
        let before = merged.run_stats().len();
        let got = merged_doc(&mut merged, &ids).unwrap();
        assert_eq!(got, expect);
        // Nothing was recomputed: every demand arrived via insert.
        assert_eq!(merged.run_stats().len(), before);
    }

    #[test]
    fn insert_rejects_mismatched_output_kinds() {
        let wl = mds_workloads::by_name("compress").unwrap();
        let mut h = Harness::with_runner(Scale::Tiny, Runner::from_env(Some(1)));
        let summary = mds_emu::TraceSummary::default();
        assert!(!h.insert(&Demand::Window(wl), mds_runner::JobOutput::Summary(summary)));
        assert!(h.insert(
            &Demand::Summary(wl),
            mds_runner::JobOutput::Summary(summary)
        ));
    }
}
