//! The domain layer: request descriptors and their execution.
//!
//! A `POST /v1/experiments` body is parsed into an [`ExperimentRequest`]
//! (strictly — unknown fields, unknown ids, and type errors all carry
//! positions), normalized into a canonical cache key, and executed
//! through a shared long-lived [`mds_runner::Runner`]. Every request gets
//! its own `mds_bench::Harness` (memoization within the request) while
//! the runner's persistent trace cache is shared across all requests and
//! worker threads, so each workload is emulated at most once for the
//! lifetime of the server.

use mds_harness::json::Json;
use mds_runner::{wire, Grid, Job, Runner, TraceCache};
use mds_workloads::Scale;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A validated, normalized experiment request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentRequest {
    /// A registered experiment id (`fig5`, `table3`, ...).
    pub experiment: String,
    /// The workload scale to simulate at.
    pub scale: Scale,
    /// When true, bypass the result cache *read* and recompute (the
    /// response still refreshes the cache). Cold-path benchmarking.
    pub fresh: bool,
}

impl ExperimentRequest {
    /// Parses and validates a JSON request body.
    ///
    /// Errors are user-facing: JSON syntax errors carry byte offsets,
    /// shape errors carry JSONPath locations, and unknown experiments
    /// list nothing but are named.
    pub fn from_body(body: &[u8]) -> Result<ExperimentRequest, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let Json::Object(pairs) = &doc else {
            return Err("request body must be a JSON object".to_string());
        };
        for (key, _) in pairs {
            if !matches!(key.as_str(), "experiment" | "scale" | "fresh") {
                return Err(format!(
                    "unknown field '{key}' (expected experiment, scale, fresh)"
                ));
            }
        }
        let experiment: String = doc.field_as("experiment").map_err(|e| e.to_string())?;
        if mds_bench::experiment_title(&experiment).is_none() {
            return Err(format!(
                "unknown experiment '{experiment}' (GET /v1/experiments lists valid ids)"
            ));
        }
        let scale = match doc.get("scale") {
            None => Scale::Small,
            Some(v) => {
                let name: String = v.decode().map_err(|e| e.in_field("scale").to_string())?;
                mds_bench::scale_by_name(&name)
                    .ok_or_else(|| format!("unknown scale '{name}' (expected tiny|small|full)"))?
            }
        };
        let fresh = match doc.get("fresh") {
            None => false,
            Some(v) => v.decode().map_err(|e| e.in_field("fresh").to_string())?,
        };
        Ok(ExperimentRequest {
            experiment,
            scale,
            fresh,
        })
    }

    /// The canonical result-cache key: syntactically different bodies
    /// asking for the same `(experiment, scale)` share one entry.
    /// `fresh` deliberately stays out — it controls cache *reads*, not
    /// identity.
    pub fn cache_key(&self) -> String {
        format!("{}@{}", self.experiment, mds_bench::scale_name(self.scale))
    }
}

/// A validated `POST /v1/cells` body: the grid jobs a gateway ships one
/// backend for one trace key.
///
/// The body is a strict JSON object, `{"fresh": bool, "jobs": [wire
/// job, ...]}` (`fresh` defaults to false); unknown fields, an empty job
/// list, and undecodable jobs are rejected with positioned messages.
#[derive(Debug, Clone)]
pub struct CellBatch {
    /// Skip the result-cache read and recompute every job (the fills
    /// still refresh the cache).
    pub fresh: bool,
    /// The jobs, in the order the response answers them.
    pub jobs: Vec<Job>,
}

impl CellBatch {
    /// Parses and validates a request body.
    pub fn from_body(body: &[u8]) -> Result<CellBatch, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let Json::Object(pairs) = &doc else {
            return Err("request body must be a JSON object".to_string());
        };
        for (key, _) in pairs {
            if !matches!(key.as_str(), "fresh" | "jobs") {
                return Err(format!("unknown field '{key}' (expected fresh, jobs)"));
            }
        }
        let fresh = match doc.get("fresh") {
            None => false,
            Some(v) => v.decode().map_err(|e| e.in_field("fresh").to_string())?,
        };
        let items = doc
            .required("jobs")
            .map_err(|e| e.to_string())?
            .as_array()
            .ok_or_else(|| "$.jobs: expected an array of wire jobs".to_string())?;
        if items.is_empty() {
            return Err("$.jobs: a batch needs at least one job".to_string());
        }
        let jobs = items
            .iter()
            .enumerate()
            .map(|(i, item)| wire::decode_job(item).map_err(|e| e.in_index(i).in_field("jobs")))
            .collect::<Result<Vec<Job>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(CellBatch { fresh, jobs })
    }
}

/// The result-cache key of one grid job: `cell:` + its compact canonical
/// wire encoding (the codec round-trips byte-stably, so equal jobs share
/// one key however their request bodies were spelled).
pub fn cell_key(job: &Job) -> String {
    format!("cell:{}", wire::encode_job(job))
}

/// The long-lived execution engine behind the HTTP surface.
pub struct Service {
    runner: Runner,
    trace_cache: Arc<TraceCache>,
}

impl Service {
    /// Builds the shared runner (worker count from `jobs`, else
    /// `MDS_JOBS`, else available parallelism) over a persistent trace
    /// cache.
    pub fn new(jobs: Option<usize>) -> Result<Service, String> {
        let trace_cache = Arc::new(TraceCache::persistent());
        let runner = Runner::try_from_env(jobs)?.with_shared_cache(Arc::clone(&trace_cache));
        Ok(Service {
            runner,
            trace_cache,
        })
    }

    /// The shared trace cache (for `/metrics` and tests).
    pub fn trace_cache(&self) -> &TraceCache {
        &self.trace_cache
    }

    /// Computes the canonical response body for `req`: exactly the bytes
    /// `repro <id> --json` writes to `RESULTS_<id>.json`.
    ///
    /// A panicking workload or simulator bug is caught and mapped to an
    /// error string (the server turns it into a 500), so one bad request
    /// can't take the server down.
    pub fn execute(&self, req: &ExperimentRequest) -> Result<String, String> {
        let runner = self.runner.clone();
        let req = req.clone();
        let id = req.experiment.clone();
        catch_unwind(AssertUnwindSafe(move || {
            let mut h = mds_bench::Harness::with_runner(req.scale, runner);
            let title = mds_bench::experiment_title(&req.experiment).expect("validated id");
            let table = mds_bench::experiment(&mut h, &req.experiment).expect("validated id");
            mds_bench::results_doc(&req.experiment, title, req.scale, &table).pretty()
        }))
        .map_err(|payload| format!("experiment '{id}' failed: {}", panic_message(payload)))
    }

    /// Runs grid-cell jobs (`POST /v1/cells`) as **one** grid on the
    /// shared runner, so jobs replaying the same trace share its
    /// persistent cache entry. Returns each job's compact wire-encoded
    /// output, in job order.
    ///
    /// A simulation panic is caught and mapped to an error string (the
    /// server turns it into a 500).
    pub fn execute_jobs(&self, jobs: Vec<Job>) -> Result<Vec<String>, String> {
        // Pushed jobs keep their own scales; the grid's default scale
        // only names jobs built through its derived-job helpers.
        let mut grid = Grid::new(Scale::Tiny);
        for job in jobs {
            grid.push(job);
        }
        let outcome = self
            .runner
            .try_run(&grid)
            .map_err(|e| format!("cells failed: {e}"))?;
        Ok(outcome
            .results
            .iter()
            .map(|result| wire::encode_output(&result.output).to_string())
            .collect())
    }

    /// The `GET /v1/experiments` body: every registered id with its
    /// title, in canonical order.
    pub fn experiments_json() -> String {
        let list: Vec<Json> = mds_bench::EXPERIMENT_IDS
            .iter()
            .map(|&id| {
                Json::object().field("id", id).field(
                    "title",
                    mds_bench::experiment_title(id).expect("registered"),
                )
            })
            .collect();
        Json::object()
            .field("experiments", Json::Array(list))
            .pretty()
    }
}

/// Renders the panic payload a simulation worker died with.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "execution panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_body_with_defaults() {
        let req = ExperimentRequest::from_body(br#"{"experiment":"fig5"}"#).unwrap();
        assert_eq!(req.experiment, "fig5");
        assert_eq!(req.scale, Scale::Small);
        assert!(!req.fresh);
        assert_eq!(req.cache_key(), "fig5@small");
    }

    #[test]
    fn canonical_key_ignores_field_order_and_fresh() {
        let a = ExperimentRequest::from_body(br#"{"experiment":"table3","scale":"tiny"}"#).unwrap();
        let b = ExperimentRequest::from_body(
            br#"{ "scale" : "tiny" , "fresh" : true , "experiment" : "table3" }"#,
        )
        .unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        assert!(b.fresh);
    }

    #[test]
    fn rejections_carry_positions() {
        let syntax = ExperimentRequest::from_body(b"{").unwrap_err();
        assert!(syntax.contains("byte"), "{syntax}");
        let shape = ExperimentRequest::from_body(br#"{"experiment":7}"#).unwrap_err();
        assert!(shape.contains("$.experiment"), "{shape}");
        let missing = ExperimentRequest::from_body(br#"{}"#).unwrap_err();
        assert!(missing.contains("$.experiment"), "{missing}");
        let unknown = ExperimentRequest::from_body(br#"{"experiment":"fig99"}"#).unwrap_err();
        assert!(unknown.contains("fig99"), "{unknown}");
        let field = ExperimentRequest::from_body(br#"{"experiment":"fig5","jobs":4}"#).unwrap_err();
        assert!(field.contains("unknown field 'jobs'"), "{field}");
        let scale =
            ExperimentRequest::from_body(br#"{"experiment":"fig5","scale":"huge"}"#).unwrap_err();
        assert!(scale.contains("tiny|small|full"), "{scale}");
    }

    #[test]
    fn execute_matches_the_cli_results_document() {
        let service = Service::new(Some(2)).unwrap();
        let req =
            ExperimentRequest::from_body(br#"{"experiment":"table2","scale":"tiny"}"#).unwrap();
        let body = service.execute(&req).unwrap();
        let mut h = mds_bench::Harness::with_runner(Scale::Tiny, Runner::new(1));
        let table = mds_bench::experiment(&mut h, "table2").unwrap();
        let expected = mds_bench::results_doc(
            "table2",
            mds_bench::experiment_title("table2").unwrap(),
            Scale::Tiny,
            &table,
        )
        .pretty();
        assert_eq!(body, expected);
    }

    #[test]
    fn repeat_executions_share_the_persistent_trace_cache() {
        let service = Service::new(Some(2)).unwrap();
        let req =
            ExperimentRequest::from_body(br#"{"experiment":"table1","scale":"tiny"}"#).unwrap();
        let first = service.execute(&req).unwrap();
        let misses_after_first = service.trace_cache().misses();
        let second = service.execute(&req).unwrap();
        assert_eq!(first, second, "serving is deterministic");
        assert_eq!(
            service.trace_cache().misses(),
            misses_after_first,
            "the second execution re-used every emulated trace"
        );
        assert!(service.trace_cache().hits() > 0);
    }

    #[test]
    fn experiments_listing_is_complete() {
        let listing = Service::experiments_json();
        let doc = Json::parse(&listing).unwrap();
        let list = doc.get("experiments").unwrap().as_array().unwrap();
        assert_eq!(list.len(), mds_bench::EXPERIMENT_IDS.len());
        assert!(listing.contains("fig5"));
    }
}
