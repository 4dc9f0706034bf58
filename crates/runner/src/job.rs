//! Declarative experiment descriptors: what one grid cell computes.

use mds_emu::TraceSummary;
use mds_harness::json::{Json, ToJson};
use mds_multiscalar::{MsConfig, MsResult};
use mds_ooo::{OooConfig, OooResult, WindowConfig, WindowReport};
use mds_workloads::{Scale, Workload};

/// What a job computes over its workload's committed trace.
///
/// Every kind replays the same shared, read-only trace; none of them
/// re-runs the emulator. That is the invariant the runner's trace cache
/// enforces: one emulation per workload per run, however many cells the
/// grid has.
// A grid holds one `JobKind` per cell — tens of values, not millions —
// so the size spread between variants costs nothing that matters.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum JobKind {
    /// A cycle-level Multiscalar timing run.
    Multiscalar(MsConfig),
    /// The unrealistic-OOO sliding-window dependence analysis.
    Window(WindowConfig),
    /// The standalone superscalar timing model.
    Superscalar(OooConfig),
    /// Trace aggregate counts only (instruction/load/store/task totals).
    Summary,
}

impl JobKind {
    /// Short label used in derived job ids and observability output.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Multiscalar(_) => "ms",
            JobKind::Window(_) => "window",
            JobKind::Superscalar(_) => "ooo",
            JobKind::Summary => "summary",
        }
    }
}

/// One independent experiment cell: a workload at a scale, and what to
/// compute over its trace.
#[derive(Debug, Clone)]
pub struct Job {
    /// Stable identifier; unique within a grid, used in result JSON.
    pub id: String,
    /// The workload whose committed trace this job replays.
    pub workload: Workload,
    /// The scale the workload is built at.
    pub scale: Scale,
    /// The computation to run over the trace.
    pub kind: JobKind,
}

impl Job {
    /// The trace-cache key this job shares with every other job on the
    /// same workload and scale.
    pub fn trace_key(&self) -> (&'static str, Scale) {
        (self.workload.name, self.scale)
    }
}

/// The outcome of one executed [`Job`], matching its [`JobKind`].
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Result of a [`JobKind::Multiscalar`] job.
    Multiscalar(MsResult),
    /// Result of a [`JobKind::Window`] job.
    Window(WindowReport),
    /// Result of a [`JobKind::Superscalar`] job.
    Superscalar(OooResult),
    /// Result of a [`JobKind::Summary`] job.
    Summary(TraceSummary),
}

impl JobOutput {
    /// The Multiscalar result, if this was a Multiscalar job.
    pub fn as_multiscalar(&self) -> Option<&MsResult> {
        match self {
            JobOutput::Multiscalar(r) => Some(r),
            _ => None,
        }
    }
}

impl ToJson for JobOutput {
    /// A deterministic JSON view of the output.
    ///
    /// Everything serialized here is a pure function of the committed
    /// trace and the job configuration — no wall-clock times, no
    /// hash-map iteration order — so serial and parallel runs of the
    /// same grid produce byte-identical documents (the runner's core
    /// contract).
    fn to_json(&self) -> Json {
        match self {
            JobOutput::Multiscalar(r) => Json::object()
                .field("kind", "multiscalar")
                .field("result", r.to_json()),
            JobOutput::Window(r) => {
                let windows: Vec<Json> = r
                    .windows()
                    .iter()
                    .map(|w| {
                        Json::object()
                            .field("window_size", w.window_size)
                            .field("misspeculations", w.misspeculations)
                            .field("static_edges", w.static_edges())
                            .field("edges_covering_999", w.edges_covering(0.999))
                            .field(
                                "ddc",
                                Json::Array(
                                    w.ddcs
                                        .iter()
                                        .map(|&(size, hits, misses)| {
                                            Json::object()
                                                .field("size", size)
                                                .field("hits", hits)
                                                .field("misses", misses)
                                        })
                                        .collect(),
                                ),
                            )
                    })
                    .collect();
                Json::object()
                    .field("kind", "window")
                    .field("instructions", r.instructions)
                    .field("loads", r.loads)
                    .field("stores", r.stores)
                    .field("windows", Json::Array(windows))
            }
            JobOutput::Superscalar(r) => Json::object()
                .field("kind", "superscalar")
                .field("cycles", r.cycles)
                .field("instructions", r.instructions)
                .field("ipc", r.ipc())
                .field("loads", r.loads)
                .field("misspeculations", r.misspeculations)
                .field("synchronized_loads", r.synchronized_loads)
                .field("breakdown", r.breakdown),
            JobOutput::Summary(s) => Json::object()
                .field("kind", "summary")
                .field("instructions", s.instructions)
                .field("loads", s.loads)
                .field("stores", s.stores)
                .field("branches", s.branches)
                .field("taken_branches", s.taken_branches)
                .field("tasks", s.tasks),
        }
    }
}

/// A batch of jobs submitted together: the declarative form of one paper
/// table, figure, or sweep.
///
/// Jobs keep their submission order; the runner's result store reports in
/// exactly this order regardless of which worker finished first.
///
/// # Examples
///
/// ```
/// use mds_core::Policy;
/// use mds_multiscalar::MsConfig;
/// use mds_runner::Grid;
/// use mds_workloads::{by_name, Scale};
///
/// let compress = by_name("compress").unwrap();
/// let mut grid = Grid::new(Scale::Tiny);
/// for policy in [Policy::Always, Policy::Esync] {
///     grid.multiscalar(&compress, MsConfig::paper(4, policy));
/// }
/// grid.summary(&compress);
/// assert_eq!(grid.len(), 3);
/// assert_eq!(grid.distinct_workloads(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Grid {
    scale: Option<Scale>,
    jobs: Vec<Job>,
}

impl Grid {
    /// An empty grid whose jobs default to `scale`.
    pub fn new(scale: Scale) -> Grid {
        Grid {
            scale: Some(scale),
            jobs: Vec::new(),
        }
    }

    /// Adds a fully-specified job.
    pub fn push(&mut self, job: Job) -> &mut Self {
        self.jobs.push(job);
        self
    }

    fn derived(&mut self, workload: &Workload, kind: JobKind, detail: String) -> &mut Self {
        let scale = self.scale.expect("Grid::new sets a default scale");
        let id = if detail.is_empty() {
            format!("{}/{}", workload.name, kind.label())
        } else {
            format!("{}/{}/{}", workload.name, kind.label(), detail)
        };
        self.push(Job {
            id,
            workload: *workload,
            scale,
            kind,
        })
    }

    /// Adds a Multiscalar cell; the id records stages and policy.
    pub fn multiscalar(&mut self, workload: &Workload, config: MsConfig) -> &mut Self {
        let detail = format!("s{}/{}", config.stages, config.policy);
        self.derived(workload, JobKind::Multiscalar(config), detail)
    }

    /// Adds a window-analysis cell.
    pub fn window(&mut self, workload: &Workload, config: WindowConfig) -> &mut Self {
        self.derived(workload, JobKind::Window(config), String::new())
    }

    /// Adds a superscalar cell; the id records the policy.
    pub fn superscalar(&mut self, workload: &Workload, config: OooConfig) -> &mut Self {
        let detail = config.policy.to_string();
        self.derived(workload, JobKind::Superscalar(config), detail)
    }

    /// Adds a trace-summary cell.
    pub fn summary(&mut self, workload: &Workload) -> &mut Self {
        self.derived(workload, JobKind::Summary, String::new())
    }

    /// The jobs, in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when no cells have been added.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Number of distinct (workload, scale) traces the grid needs — the
    /// number of emulations a full run performs.
    pub fn distinct_workloads(&self) -> usize {
        self.jobs
            .iter()
            .map(Job::trace_key)
            .collect::<std::collections::HashSet<_>>()
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_core::Policy;
    use mds_workloads::by_name;

    #[test]
    fn derived_ids_are_descriptive_and_unique() {
        let compress = by_name("compress").unwrap();
        let sc = by_name("sc").unwrap();
        let mut g = Grid::new(Scale::Tiny);
        g.multiscalar(&compress, MsConfig::paper(4, Policy::Always))
            .multiscalar(&compress, MsConfig::paper(8, Policy::Always))
            .multiscalar(&sc, MsConfig::paper(4, Policy::Always))
            .window(&compress, WindowConfig::default())
            .summary(&compress)
            .superscalar(&compress, OooConfig::default());
        let ids: Vec<&str> = g.jobs().iter().map(|j| j.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "compress/ms/s4/ALWAYS",
                "compress/ms/s8/ALWAYS",
                "sc/ms/s4/ALWAYS",
                "compress/window",
                "compress/summary",
                "compress/ooo/ALWAYS",
            ]
        );
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn distinct_workloads_counts_trace_keys() {
        let compress = by_name("compress").unwrap();
        let sc = by_name("sc").unwrap();
        let mut g = Grid::new(Scale::Tiny);
        g.multiscalar(&compress, MsConfig::paper(4, Policy::Always))
            .multiscalar(&compress, MsConfig::paper(4, Policy::Never))
            .summary(&sc);
        assert_eq!(g.len(), 3);
        assert_eq!(g.distinct_workloads(), 2);
    }

    #[test]
    fn output_json_is_deterministic_for_summaries() {
        let s = TraceSummary {
            instructions: 10,
            loads: 2,
            stores: 1,
            branches: 3,
            taken_branches: 2,
            tasks: 4,
        };
        let a = JobOutput::Summary(s).to_json().to_string();
        let b = JobOutput::Summary(s).to_json().to_string();
        assert_eq!(a, b);
        assert!(a.contains("\"kind\":\"summary\""));
    }
}
