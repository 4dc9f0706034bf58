//! Benchmarks for the experiment runner: end-to-end wall clock of a fixed
//! mini-grid executed the naive way (each cell re-emulates its workload)
//! versus through `mds-runner` at 1/2/4 workers.
//!
//! Run with `cargo bench --bench runner`; results are written to
//! `BENCH_runner.json` at the workspace root. The grid is a
//! dependence-analysis sweep over three workloads: the table-1 trace
//! summary, one window-analysis cell per table-7 DDC capacity, and the
//! superscalar model under three policies — 33 cells over 3 distinct
//! traces. The naive loop pays one emulation per cell (33); the runner
//! pays one per workload (3) and replays the shared trace everywhere
//! else, which is where the speedup comes from. Extra workers add
//! parallel speedup on multi-core hosts and cost only scheduling noise
//! on single-core ones.

use mds_core::Policy;
use mds_emu::Emulator;
use mds_harness::bench::Harness;
use mds_ooo::{OooConfig, OooSim, WindowAnalyzer, WindowConfig};
use mds_runner::{Grid, Job, JobKind, Runner};
use mds_workloads::{by_name, Scale, Workload};
use std::hint::black_box;

const WORKLOADS: [&str; 3] = ["compress", "sc", "espresso"];
const DDC_SWEEP: [usize; 7] = [16, 32, 64, 128, 256, 512, 1024];
const OOO_POLICIES: [Policy; 3] = [Policy::Always, Policy::Sync, Policy::PSync];

fn window_config(ddc: usize) -> WindowConfig {
    WindowConfig {
        window_sizes: vec![8, 16, 32, 64, 128, 256, 512],
        ddc_sizes: vec![ddc],
    }
}

fn mini_grid(workloads: &[Workload], scale: Scale) -> Grid {
    let mut grid = Grid::new(scale);
    for wl in workloads {
        grid.summary(wl);
        for ddc in DDC_SWEEP {
            grid.push(Job {
                id: format!("{}/window/ddc{ddc}", wl.name),
                workload: *wl,
                scale,
                kind: JobKind::Window(window_config(ddc)),
            });
        }
        for policy in OOO_POLICIES {
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

/// The baseline every experiment used before the runner existed: emulate
/// the workload afresh for every cell of the grid.
fn naive_pass(workloads: &[Workload], scale: Scale) -> u64 {
    let mut acc = 0u64;
    for wl in workloads {
        let program = wl.build(scale);
        acc += Emulator::new(&program)
            .run_into(&mut ())
            .expect("runs")
            .instructions;
        for ddc in DDC_SWEEP {
            let mut analyzer = WindowAnalyzer::new(window_config(ddc));
            Emulator::new(&program)
                .run_with(|d| analyzer.observe(d))
                .expect("runs");
            acc += analyzer.finish().instructions;
        }
        for policy in OOO_POLICIES {
            let mut sim = OooSim::new(OooConfig {
                policy,
                ..Default::default()
            });
            Emulator::new(&program)
                .run_with(|d| sim.observe(d))
                .expect("runs");
            acc += sim.finish().cycles;
        }
    }
    acc
}

fn main() {
    let mut h = Harness::new("runner");
    let (scale, tag) = match h.scale() {
        "small" => (Scale::Small, "small"),
        "full" => (Scale::Full, "full"),
        _ => (Scale::Tiny, "tiny"),
    };
    let workloads: Vec<Workload> = WORKLOADS
        .iter()
        .map(|n| by_name(n).expect("registered"))
        .collect();
    let grid = mini_grid(&workloads, scale);

    h.bench(&format!("grid/{tag}/naive_serial"), |b| {
        b.iter(|| black_box(naive_pass(&workloads, scale)));
    });

    for jobs in [1usize, 2, 4] {
        let runner = Runner::new(jobs);
        h.bench(&format!("grid/{tag}/runner_jobs{jobs}"), |b| {
            b.iter(|| {
                let outcome = runner.run(&grid);
                assert_eq!(outcome.stats.cache_misses as usize, workloads.len());
                black_box(outcome.results.len())
            });
        });
    }

    h.finish();
}
