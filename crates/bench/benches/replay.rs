//! Benchmarks for the Multiscalar replay engine.
//!
//! Run with `cargo bench --bench replay -- --scale small`; results are
//! written to `BENCH_replay.json` at the workspace root. The suite
//! measures:
//!
//! - `plan_build` — lowering a collected committed stream into the
//!   structure-of-arrays [`mds_emu::ReplayPlan`] (capture runs the same
//!   lowering while it emulates);
//! - per-policy `planned` replay of one captured trace;
//! - `planned_x6` — the paper's actual workload shape: all six
//!   speculation policies over one trace, six replays (one runner cell
//!   each);
//! - `paper_cells_tiny_planned` — one `run_planned` per Multiscalar cell
//!   of the tiny-scale paper grid (`repro all`), over traces captured
//!   beforehand, whatever `--scale` says: the replay layer of a cold
//!   reproduction, fixed costs per cell included.

use mds_bench::PAPER_IDS;
use mds_core::Policy;
use mds_emu::{Emulator, Trace};
use mds_harness::bench::Harness;
use mds_multiscalar::{run_planned, MsConfig};
use mds_runner::JobKind;
use mds_workloads::{by_name, Scale};
use std::collections::HashMap;
use std::hint::black_box;

fn main() {
    let mut h = Harness::new("replay");
    let (scale, tag) = match h.scale() {
        "small" => (Scale::Small, "small"),
        "full" => (Scale::Full, "full"),
        _ => (Scale::Tiny, "tiny"),
    };
    let p = by_name("compress").unwrap().build(scale);
    // The lowering series rebuilds the plan from collected records. It
    // runs before the trace is captured, so the process holds only the
    // records, as it did when the baseline was recorded: with a captured
    // plan already resident, glibc places the loop's large arrays
    // differently and the same lowering code measured ~1.4x slower here.
    let records = Emulator::new(&p).run().unwrap();
    let n = records.len() as u64;

    h.bench_with_throughput(&format!("replay/plan_build_compress_{tag}"), n, |b| {
        b.iter(|| black_box(mds_emu::ReplayPlan::build(&records).resident_bytes()));
    });

    let trace = Trace::capture(&p).unwrap();

    for stages in [4usize, 8] {
        let configs: Vec<MsConfig> = Policy::ALL
            .iter()
            .map(|&policy| MsConfig::paper(stages, policy))
            .collect();

        h.bench_with_throughput(
            &format!("multiscalar/compress_{tag}_{stages}st_planned_x6"),
            n * configs.len() as u64,
            |b| {
                b.iter(|| {
                    let total: u64 = configs.iter().map(|c| run_planned(&trace, c).cycles).sum();
                    black_box(total)
                });
            },
        );

        for policy in [Policy::Always, Policy::Esync] {
            let config = MsConfig::paper(stages, policy);
            h.bench_with_throughput(
                &format!("multiscalar/compress_{tag}_{stages}st_{policy}_planned"),
                n,
                |b| {
                    b.iter(|| black_box(run_planned(&trace, &config).cycles));
                },
            );
        }
    }

    // Every Multiscalar cell of the tiny paper grid, paired with its
    // workload's trace (each workload captured once, before timing).
    let ids: Vec<String> = PAPER_IDS.iter().map(|id| id.to_string()).collect();
    let mut traces: HashMap<&str, Trace> = HashMap::new();
    let mut cells: Vec<(&str, MsConfig)> = Vec::new();
    for cell in mds_bench::grid::cells(&ids, Scale::Tiny) {
        if let JobKind::Multiscalar(config) = cell.job.kind {
            let wl = cell.job.workload;
            traces
                .entry(wl.name)
                .or_insert_with(|| Trace::capture(&wl.build(Scale::Tiny)).unwrap());
            cells.push((wl.name, config));
        }
    }
    let instructions: u64 = cells.iter().map(|(wl, _)| traces[wl].len() as u64).sum();
    h.bench_with_throughput("multiscalar/paper_cells_tiny_planned", instructions, |b| {
        b.iter(|| {
            let total: u64 = cells
                .iter()
                .map(|(wl, config)| run_planned(&traces[wl], config).cycles)
                .sum();
            black_box(total)
        });
    });

    h.finish();
}
