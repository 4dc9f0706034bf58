//! Benchmarks for the planned Multiscalar replay engine.
//!
//! Run with `cargo bench --bench replay -- --scale small`; results are
//! written to `BENCH_replay.json` at the workspace root. The suite
//! measures what the planned engine buys over the scratch engine:
//!
//! - `plan_build` — lowering a collected committed stream into the
//!   structure-of-arrays [`mds_emu::ReplayPlan`] (capture runs the same
//!   lowering while it emulates);
//! - per-policy `scratch` vs `planned` replay — the SoA walk with
//!   pre-resolved dependences against the legacy record-stream walk;
//! - `scratch_x6` vs `planned_x6` — the paper's actual workload shape: all
//!   six speculation policies over one trace, as six scratch replays or
//!   six planned replays (one runner cell each). The CI bench gate
//!   enforces `planned_x6` ≥ 2× `scratch_x6` at 8 stages.

use mds_core::Policy;
use mds_emu::{Emulator, Trace};
use mds_harness::bench::Harness;
use mds_multiscalar::{run_planned, MsConfig, Multiscalar};
use mds_workloads::{by_name, Scale};
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
            &format!("multiscalar/compress_{tag}_{stages}st_scratch_x6"),
            n * configs.len() as u64,
            |b| {
                b.iter(|| {
                    let mut cycles = 0u64;
                    for config in &configs {
                        let sim = Multiscalar::new(config.clone());
                        cycles += sim.run_trace(records.iter().copied()).cycles;
                    }
                    black_box(cycles)
                });
            },
        );

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
                &format!("multiscalar/compress_{tag}_{stages}st_{policy}_scratch"),
                n,
                |b| {
                    let sim = Multiscalar::new(config.clone());
                    b.iter(|| black_box(sim.run_trace(records.iter().copied()).cycles));
                },
            );
            h.bench_with_throughput(
                &format!("multiscalar/compress_{tag}_{stages}st_{policy}_planned"),
                n,
                |b| {
                    b.iter(|| black_box(run_planned(&trace, &config).cycles));
                },
            );
        }
    }

    h.finish();
}
