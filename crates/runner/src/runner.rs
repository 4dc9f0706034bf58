//! The engine: executes a [`Grid`] on the pool with the shared trace
//! cache and collects deterministic, submission-ordered results.

use crate::cache::TraceCache;
use crate::job::{Grid, Job, JobKind, JobOutput};
use crate::pool::{self, PoolReport};
use mds_harness::json::{Json, ToJson};
use mds_ooo::{OooSim, WindowAnalyzer};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One executed job: its output plus scheduling metadata.
///
/// The metadata (wall time, worker id) exists for observability only and
/// never enters result JSON — that is what keeps parallel output
/// byte-identical to serial.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's id, copied from the grid.
    pub id: String,
    /// What the job computed.
    pub output: JobOutput,
    /// Wall-clock nanoseconds this job took: the trace fetch (a cache
    /// miss pays the emulation inside this figure) plus the replay.
    pub wall_ns: u128,
}

/// Aggregate observability for one [`Runner::run`].
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Cells executed.
    pub jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Trace-cache fetches served from memory.
    pub cache_hits: u64,
    /// Trace-cache fetches that ran the emulator (== emulations).
    pub cache_misses: u64,
    /// High-water mark of resident trace bytes.
    pub peak_trace_bytes: usize,
    /// End-to-end wall time of the run, nanoseconds.
    pub wall_ns: u128,
    /// Per-worker busy time and executed-job counts.
    pub pool: PoolReport,
}

impl RunStats {
    /// Mean worker utilization: busy time over (workers × wall time).
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 || self.pool.workers == 0 {
            return 0.0;
        }
        let denom = (self.pool.workers as u128 * self.wall_ns) as f64;
        self.pool.total_busy_ns() as f64 / denom
    }

    /// Renders the end-of-run observability block (for stderr — this is
    /// timing data, deliberately kept out of result JSON).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "runner: {} jobs on {} worker{} in {:.2}s ({:.0}% utilization)",
            self.jobs,
            self.workers,
            if self.workers == 1 { "" } else { "s" },
            self.wall_ns as f64 / 1e9,
            self.utilization() * 100.0,
        );
        let _ = writeln!(
            out,
            "runner: trace cache: {} emulation{}, {} reuse{}, peak {:.1} MiB",
            self.cache_misses,
            if self.cache_misses == 1 { "" } else { "s" },
            self.cache_hits,
            if self.cache_hits == 1 { "" } else { "s" },
            self.peak_trace_bytes as f64 / (1024.0 * 1024.0),
        );
        for (who, (busy, n)) in self
            .pool
            .busy_ns
            .iter()
            .zip(self.pool.executed.iter())
            .enumerate()
        {
            let _ = writeln!(
                out,
                "runner:   worker {who}: {n} job{} in {:.2}s busy",
                if *n == 1 { "" } else { "s" },
                *busy as f64 / 1e9,
            );
        }
        if self.pool.steals > 0 {
            let _ = writeln!(out, "runner:   {} steal(s)", self.pool.steals);
        }
        out
    }
}

/// Everything a run produced: ordered results plus observability.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// One result per grid cell, **in submission order** — independent of
    /// completion order, so serial and parallel runs agree byte-for-byte.
    pub results: Vec<JobResult>,
    /// Timing/cache/utilization counters for the whole run.
    pub stats: RunStats,
}

impl RunOutcome {
    /// The deterministic JSON document for this run: an array of
    /// `{id, output}` objects in submission order. Contains no timing
    /// data, worker ids, or anything else schedule-dependent.
    pub fn results_json(&self) -> Json {
        Json::Array(
            self.results
                .iter()
                .map(|r| {
                    Json::object()
                        .field("id", r.id.as_str())
                        .field("output", r.output.to_json())
                })
                .collect(),
        )
    }

    /// Looks up one result by job id.
    pub fn get(&self, id: &str) -> Option<&JobResult> {
        self.results.iter().find(|r| r.id == id)
    }
}

/// Executes experiment grids.
///
/// # Examples
///
/// ```
/// use mds_core::Policy;
/// use mds_multiscalar::MsConfig;
/// use mds_runner::{Grid, Runner};
/// use mds_workloads::{by_name, Scale};
///
/// let compress = by_name("compress").unwrap();
/// let mut grid = Grid::new(Scale::Tiny);
/// for policy in [Policy::Never, Policy::Always] {
///     grid.multiscalar(&compress, MsConfig::paper(4, policy));
/// }
///
/// let outcome = Runner::new(2).run(&grid);
/// assert_eq!(outcome.results.len(), 2);
/// // Two cells, one workload: exactly one emulation, one cache reuse.
/// assert_eq!(outcome.stats.cache_misses, 1);
/// assert_eq!(outcome.stats.cache_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Runner {
    workers: usize,
    shared_cache: Option<Arc<TraceCache>>,
}

/// One grid cell that panicked during a [`Runner::try_run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The failed job's id, copied from the grid.
    pub id: String,
    /// The captured panic message.
    pub message: String,
}

/// A [`Runner::try_run`] in which at least one job panicked.
///
/// Every other cell of the grid still ran to completion; the error lists
/// exactly which jobs failed and why, so a long-lived caller (the serving
/// subsystem) can report the failure and keep accepting work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// The jobs that panicked, in submission order.
    pub failures: Vec<JobFailure>,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} job(s) failed:", self.failures.len())?;
        for failure in &self.failures {
            write!(f, " [{}: {}]", failure.id, failure.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

impl Runner {
    /// A runner with an explicit worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Runner {
        Runner {
            workers: workers.max(1),
            shared_cache: None,
        }
    }

    /// A runner sized from `explicit` (e.g. a `--jobs` flag), falling back
    /// to `MDS_JOBS` and then the machine's available parallelism.
    ///
    /// Lenient about malformed `MDS_JOBS` (falls through to the next
    /// source); user-facing front-ends use [`Runner::try_from_env`].
    pub fn from_env(explicit: Option<usize>) -> Runner {
        Runner::new(pool::job_count(explicit))
    }

    /// Like [`Runner::from_env`], but a malformed or zero `MDS_JOBS`
    /// value is a usage error instead of a silent fallback.
    pub fn try_from_env(explicit: Option<usize>) -> Result<Runner, String> {
        pool::try_job_count(explicit).map(Runner::new)
    }

    /// Attaches a shared, long-lived trace cache (see
    /// [`TraceCache::persistent`]).
    ///
    /// Every subsequent [`Runner::run`] fetches traces from — and leaves
    /// them resident in — `cache`, so emulation cost amortizes across
    /// runs. Clones of this runner share the same cache, which is what
    /// lets concurrent callers (server workers) submit grids at once:
    /// `run` takes `&self`, and the cache's per-key `OnceLock` guarantees
    /// each workload is still emulated exactly once across all of them.
    pub fn with_shared_cache(mut self, cache: Arc<TraceCache>) -> Runner {
        self.shared_cache = Some(cache);
        self
    }

    /// The shared trace cache, if one was attached.
    pub fn shared_cache(&self) -> Option<&Arc<TraceCache>> {
        self.shared_cache.as_ref()
    }

    /// The worker count this runner will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every cell of `grid` and returns submission-ordered results.
    ///
    /// # Panics
    ///
    /// Panics with a labeled message if a job panicked (a workload bug,
    /// not an operational condition); see [`Runner::try_run`] for the
    /// recovering variant.
    pub fn run(&self, grid: &Grid) -> RunOutcome {
        self.try_run(grid).unwrap_or_else(|e| panic!("runner: {e}"))
    }

    /// Runs every cell of `grid`; a panicking job fails the run with a
    /// clean, labeled [`RunError`] instead of unwinding into the caller,
    /// and every other job still completes.
    ///
    /// Each cell is one pool job: cells never share a replay, so a panic
    /// fails only its own cell and each [`JobResult::wall_ns`] times only
    /// its own work.
    pub fn try_run(&self, grid: &Grid) -> Result<RunOutcome, RunError> {
        let jobs = grid.jobs();
        let owned;
        let cache: &TraceCache = match &self.shared_cache {
            Some(shared) => shared,
            None => {
                owned = TraceCache::new(jobs);
                &owned
            }
        };
        // With a shared cache, stats must be deltas: the cache's counters
        // span every run it has ever served. Concurrent runs may
        // mis-attribute each other's traffic between the two reads, but
        // the totals (the serving metrics) stay exact.
        let hits_before = cache.hits();
        let misses_before = cache.misses();
        let start = Instant::now();
        let (slots, pool_report) =
            pool::try_run_indexed(self.workers, jobs.len(), |idx| execute(&jobs[idx], cache));
        let wall_ns = start.elapsed().as_nanos();
        let mut results = Vec::with_capacity(jobs.len());
        let mut failures = Vec::new();
        for slot in slots {
            match slot {
                Ok(result) => results.push(result),
                Err(p) => failures.push(JobFailure {
                    id: jobs[p.index].id.clone(),
                    message: p.message,
                }),
            }
        }
        if !failures.is_empty() {
            return Err(RunError { failures });
        }
        let stats = RunStats {
            jobs: jobs.len(),
            workers: self.workers,
            cache_hits: cache.hits() - hits_before,
            cache_misses: cache.misses() - misses_before,
            peak_trace_bytes: cache.peak_bytes(),
            wall_ns,
            pool: pool_report,
        };
        Ok(RunOutcome { results, stats })
    }
}

/// Runs one grid cell: fetches its trace, replays it, releases the
/// trace's claim and times the whole. Every arm reads the trace's replay
/// plan; none materializes records.
fn execute(job: &Job, cache: &TraceCache) -> JobResult {
    let start = Instant::now();
    let trace = cache.fetch(&job.workload, job.scale);
    let output = match &job.kind {
        JobKind::Multiscalar(config) => {
            JobOutput::Multiscalar(mds_multiscalar::run_planned(&trace, config))
        }
        JobKind::Window(config) => {
            let mut analyzer = WindowAnalyzer::new(config.clone());
            for row in trace.replay_plan().rows() {
                analyzer.observe(row);
            }
            JobOutput::Window(analyzer.finish())
        }
        JobKind::Superscalar(config) => {
            let mut sim = OooSim::new(*config);
            for row in trace.replay_plan().rows() {
                sim.observe(row);
            }
            JobOutput::Superscalar(sim.finish())
        }
        JobKind::Summary => JobOutput::Summary(trace.summary()),
    };
    drop(trace);
    cache.release(&job.workload, job.scale);
    JobResult {
        id: job.id.clone(),
        output,
        wall_ns: start.elapsed().as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_core::Policy;
    use mds_emu::Trace;
    use mds_multiscalar::{MsConfig, Multiscalar};
    use mds_ooo::{OooConfig, WindowConfig};
    use mds_workloads::{by_name, Scale};

    fn small_grid() -> Grid {
        let compress = by_name("compress").unwrap();
        let sc = by_name("sc").unwrap();
        let mut grid = Grid::new(Scale::Tiny);
        for wl in [&compress, &sc] {
            grid.summary(wl);
            grid.window(wl, WindowConfig::default());
            for policy in [Policy::Never, Policy::Always, Policy::Sync] {
                grid.multiscalar(wl, MsConfig::paper(4, policy));
            }
            for policy in [Policy::Always, Policy::Esync] {
                grid.superscalar(
                    wl,
                    OooConfig {
                        policy,
                        ..Default::default()
                    },
                );
            }
        }
        grid
    }

    #[test]
    fn parallel_json_is_byte_identical_to_serial() {
        let grid = small_grid();
        let serial = Runner::new(1).run(&grid);
        let parallel = Runner::new(4).run(&grid);
        assert_eq!(
            serial.results_json().to_string(),
            parallel.results_json().to_string()
        );
        assert_eq!(
            serial.results_json().pretty(),
            parallel.results_json().pretty()
        );
    }

    #[test]
    fn one_emulation_per_workload() {
        let grid = small_grid();
        let outcome = Runner::new(4).run(&grid);
        assert_eq!(
            outcome.stats.cache_misses as usize,
            grid.distinct_workloads()
        );
        assert_eq!(
            outcome.stats.cache_hits as usize,
            grid.len() - grid.distinct_workloads()
        );
    }

    #[test]
    fn runner_matches_direct_simulation() {
        let compress = by_name("compress").unwrap();
        let mut grid = Grid::new(Scale::Tiny);
        grid.multiscalar(&compress, MsConfig::paper(4, Policy::Always));
        let outcome = Runner::new(1).run(&grid);
        let via_runner = outcome.results[0]
            .output
            .as_multiscalar()
            .expect("multiscalar cell")
            .clone();
        let direct = Multiscalar::new(MsConfig::paper(4, Policy::Always))
            .run(&compress.build(Scale::Tiny))
            .unwrap();
        assert_eq!(via_runner.cycles, direct.cycles);
        assert_eq!(via_runner.misspeculations, direct.misspeculations);
        assert_eq!(
            via_runner.to_json().to_string(),
            direct.to_json().to_string()
        );
    }

    #[test]
    fn stats_render_mentions_cache_and_utilization() {
        let compress = by_name("compress").unwrap();
        let mut grid = Grid::new(Scale::Tiny);
        grid.summary(&compress).summary(&compress);
        let outcome = Runner::new(2).run(&grid);
        let text = outcome.stats.render();
        assert!(text.contains("trace cache: 1 emulation, 1 reuse"), "{text}");
        assert!(text.contains("utilization"), "{text}");
        assert!(outcome.stats.utilization() >= 0.0);
    }

    #[test]
    fn shared_cache_amortizes_across_runs() {
        let compress = by_name("compress").unwrap();
        let mut grid = Grid::new(Scale::Tiny);
        grid.summary(&compress);
        let cache = Arc::new(TraceCache::persistent());
        let runner = Runner::new(2).with_shared_cache(Arc::clone(&cache));

        let first = runner.run(&grid);
        assert_eq!(first.stats.cache_misses, 1, "first run emulates");
        let second = runner.run(&grid);
        assert_eq!(second.stats.cache_misses, 0, "second run reuses");
        assert_eq!(second.stats.cache_hits, 1);
        assert_eq!(cache.misses(), 1, "one emulation across both runs");
        assert!(cache.resident() >= 1, "persistent cache pins the trace");
        assert_eq!(
            first.results_json().to_string(),
            second.results_json().to_string()
        );
    }

    #[test]
    fn concurrent_submissions_share_one_emulation() {
        let compress = by_name("compress").unwrap();
        let cache = Arc::new(TraceCache::persistent());
        let runner = Runner::new(1).with_shared_cache(Arc::clone(&cache));
        let docs: Vec<String> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let runner = runner.clone();
                    s.spawn(move || {
                        let mut grid = Grid::new(Scale::Tiny);
                        grid.summary(&compress);
                        runner.run(&grid).results_json().to_string()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(cache.misses(), 1, "one emulation across 4 submissions");
        assert!(docs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn panicking_workload_yields_a_labeled_run_error() {
        fn broken_build(_: Scale) -> mds_isa::Program {
            panic!("synthetic workload bug")
        }
        let compress = by_name("compress").unwrap();
        let broken = mds_workloads::Workload {
            name: "broken",
            builder: mds_workloads::Builder::Static(broken_build),
            ..compress
        };
        let mut grid = Grid::new(Scale::Tiny);
        grid.summary(&broken);
        grid.summary(&compress);
        let err = Runner::new(2).try_run(&grid).unwrap_err();
        assert_eq!(err.failures.len(), 1, "only the broken job fails");
        assert_eq!(err.failures[0].id, "broken/summary");
        assert!(
            err.failures[0].message.contains("synthetic workload bug"),
            "{err}"
        );
        assert!(err.to_string().contains("broken/summary"));
    }

    #[test]
    fn small_grid_matches_direct_replays_and_counts_cache_per_cell() {
        let grid = small_grid();
        let outcome = Runner::new(2).run(&grid);
        assert_eq!(outcome.results.len(), grid.len());
        for (job, result) in grid.jobs().iter().zip(&outcome.results) {
            assert_eq!(result.id, job.id);
            // The direct reference: one replay of a fresh capture per
            // cell, outside the runner and its trace cache.
            let trace = Trace::capture(&job.workload.build(job.scale)).unwrap();
            let direct = match &job.kind {
                JobKind::Multiscalar(config) => {
                    JobOutput::Multiscalar(mds_multiscalar::run_planned(&trace, config))
                }
                JobKind::Window(config) => {
                    let mut analyzer = WindowAnalyzer::new(config.clone());
                    for row in trace.replay_plan().rows() {
                        analyzer.observe(row);
                    }
                    JobOutput::Window(analyzer.finish())
                }
                JobKind::Superscalar(config) => {
                    let mut sim = OooSim::new(*config);
                    for row in trace.replay_plan().rows() {
                        sim.observe(row);
                    }
                    JobOutput::Superscalar(sim.finish())
                }
                JobKind::Summary => JobOutput::Summary(trace.summary()),
            };
            assert_eq!(
                result.output.to_json().to_string(),
                direct.to_json().to_string(),
                "{}",
                job.id
            );
        }
        // One fetch per cell: the first cell of each workload emulates,
        // every other cell reuses its trace.
        assert_eq!(outcome.stats.jobs, grid.len());
        assert_eq!(
            outcome.stats.cache_misses as usize,
            grid.distinct_workloads()
        );
        assert_eq!(
            outcome.stats.cache_hits as usize,
            grid.len() - grid.distinct_workloads()
        );
        assert_eq!(
            outcome.stats.pool.executed.iter().sum::<u64>() as usize,
            grid.len()
        );
    }

    #[test]
    fn panicking_workload_fails_every_member_of_its_group() {
        fn broken_build(_: Scale) -> mds_isa::Program {
            panic!("synthetic workload bug")
        }
        let compress = by_name("compress").unwrap();
        let broken = mds_workloads::Workload {
            name: "broken",
            builder: mds_workloads::Builder::Static(broken_build),
            ..compress
        };
        let mut grid = Grid::new(Scale::Tiny);
        for policy in [Policy::Never, Policy::Always] {
            grid.multiscalar(&broken, MsConfig::paper(4, policy));
        }
        grid.summary(&compress);
        // Each of the broken workload's cells fails on its own fetch; the
        // healthy cell still runs.
        let err = Runner::new(2).try_run(&grid).unwrap_err();
        assert_eq!(err.failures.len(), 2, "both broken cells fail: {err}");
        assert!(err.failures[0].id.starts_with("broken/ms/"));
        assert!(err.failures[1].id.starts_with("broken/ms/"));
        assert!(err.failures[0].message.contains("synthetic workload bug"));
    }

    #[test]
    fn get_finds_results_by_id() {
        let compress = by_name("compress").unwrap();
        let mut grid = Grid::new(Scale::Tiny);
        grid.summary(&compress);
        let outcome = Runner::new(1).run(&grid);
        assert!(outcome.get("compress/summary").is_some());
        assert!(outcome.get("nope").is_none());
    }
}
