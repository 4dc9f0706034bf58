//! Engine equivalence over the paper's own grid: every Multiscalar cell
//! of every paper experiment at tiny scale must come out of the planned
//! engine (`run_planned`, what the runner executes) byte-identical to the
//! scratch engine (`Multiscalar::run_trace` over the committed records).

use mds_bench::{grid, PAPER_IDS};
use mds_emu::Trace;
use mds_harness::json::ToJson;
use mds_multiscalar::{run_planned, Multiscalar};
use mds_runner::JobKind;
use mds_workloads::Scale;
use std::collections::HashMap;

#[test]
fn planned_and_scratch_engines_agree_on_every_paper_multiscalar_cell() {
    let experiments: Vec<String> = PAPER_IDS.iter().map(|id| id.to_string()).collect();
    let mut traces: HashMap<&str, Trace> = HashMap::new();
    let mut checked = 0;
    for cell in grid::cells(&experiments, Scale::Tiny) {
        let JobKind::Multiscalar(config) = &cell.job.kind else {
            continue;
        };
        let workload = &cell.job.workload;
        let trace = traces
            .entry(workload.name)
            .or_insert_with(|| Trace::capture(&workload.build(Scale::Tiny)).unwrap());
        let planned = run_planned(trace, config);
        let scratch = Multiscalar::new(config.clone()).run_trace(trace.records().iter().copied());
        assert_eq!(
            planned.to_json().to_string(),
            scratch.to_json().to_string(),
            "engines diverge on {}",
            cell.id()
        );
        checked += 1;
    }
    assert!(checked > 0, "the paper grid has Multiscalar cells");
}
