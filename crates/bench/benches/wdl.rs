//! Benchmarks for the WDL pipeline: spec parsing, member lowering, and
//! a generated family end-to-end under the Multiscalar model against the
//! hand-written `compress` workload it imitates.
//!
//! Run with `cargo bench --bench wdl -- --scale small`; results are
//! written to `BENCH_wdl.json` at the workspace root and gated by
//! `ci/bench_gate.sh` like every other suite. Throughputs: `parse` in
//! source bytes, `lower` and the end-to-end runs in emulated (or
//! lowered) instructions.

use mds_core::Policy;
use mds_harness::bench::Harness;
use mds_multiscalar::{MsConfig, Multiscalar};
use mds_workloads::{by_name, Scale};
use std::hint::black_box;

/// A representative spec: every field populated, one family scenario.
const SPEC_SRC: &str = "\
scenario bench_family {
  seed = 12
  tasks = 2048 .. 4096
  task_size = { small: 0.6, medium: 0.3, large: 0.1 }
  distances = { 1: 0.04, 3: 0.04, 8: 0.04 }
  edges = 2 .. 8
  locality = 0.95
  path_dep = 0.25
  fp = 0.1
  expect_misspec_per_load = 0.0 .. 0.2
}
";

fn main() {
    let mut h = Harness::new("wdl");
    let (scale, tag) = match h.scale() {
        "small" => (Scale::Small, "small"),
        "full" => (Scale::Full, "full"),
        _ => (Scale::Tiny, "tiny"),
    };

    h.bench_with_throughput("wdl/parse_spec", SPEC_SRC.len() as u64, |b| {
        b.iter(|| black_box(mds_wdl::parse_spec(black_box(SPEC_SRC)).unwrap()));
    });

    let spec = mds_wdl::parse_spec(SPEC_SRC).unwrap();
    let inst = mds_wdl::instantiate(&spec.scenarios[0], 0, 0);
    let lowered = mds_wdl::compile(&inst, scale);
    h.bench_with_throughput(
        &format!("wdl/lower_member_{tag}"),
        lowered.instructions().len() as u64,
        |b| {
            b.iter(|| black_box(mds_wdl::compile(black_box(&inst), scale)));
        },
    );

    // End-to-end: one generated member vs the hand-written workload its
    // scenario imitates, both under the paper's 8-stage ESYNC machine
    // (`Multiscalar::run`: one trace capture, then one replay).
    // Comparable per-instruction cost here means generated families are
    // as cheap to sweep as the built-in suites.
    let compress = by_name("compress").unwrap().build(scale);
    for (label, program) in [("generated", &lowered), ("compress", &compress)] {
        let insts = Multiscalar::new(MsConfig::paper(8, Policy::Esync))
            .run(program)
            .expect("runs")
            .instructions;
        h.bench_with_throughput(&format!("wdl/ms_esync_{label}_{tag}"), insts, |b| {
            b.iter(|| {
                let sim = Multiscalar::new(MsConfig::paper(8, Policy::Esync));
                black_box(sim.run(black_box(program)).expect("runs").cycles)
            });
        });
    }

    h.finish();
}
