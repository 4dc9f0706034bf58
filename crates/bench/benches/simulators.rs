//! Benchmarks for the simulators themselves (throughput of the emulator,
//! the window analyzer, and the Multiscalar timing model).
//!
//! The `multiscalar/*` series time `Multiscalar::run`: one trace capture
//! (emulation lowered into the replay plan) followed by one replay.
//!
//! Run with `cargo bench --bench simulators -- --scale small`; results are
//! written to `BENCH_simulators.json` at the workspace root. The `--scale`
//! argument picks the workload scale (tiny/small/full, default tiny).

use mds_core::Policy;
use mds_emu::Emulator;
use mds_harness::bench::Harness;
use mds_multiscalar::{MsConfig, Multiscalar};
use mds_ooo::{WindowAnalyzer, WindowConfig};
use mds_workloads::{by_name, Scale};
use std::hint::black_box;

fn trace_len(p: &mds_isa::Program) -> u64 {
    Emulator::new(p).run_with(|_| {}).unwrap().instructions
}

fn main() {
    let mut h = Harness::new("simulators");
    let (scale, tag) = match h.scale() {
        "small" => (Scale::Small, "small"),
        "full" => (Scale::Full, "full"),
        _ => (Scale::Tiny, "tiny"),
    };
    let p = by_name("compress").unwrap().build(scale);
    let n = trace_len(&p);

    h.bench_with_throughput(&format!("emulator/compress_{tag}"), n, |b| {
        b.iter(|| {
            let mut count = 0u64;
            Emulator::new(&p).run_with(|_| count += 1).unwrap();
            black_box(count)
        });
    });

    h.bench_with_throughput(&format!("window_analyzer/compress_{tag}_7ws"), n, |b| {
        b.iter(|| {
            let mut a = WindowAnalyzer::new(WindowConfig::default());
            Emulator::new(&p).run_with(|d| a.observe(d)).unwrap();
            black_box(a.finish().instructions)
        });
    });

    for stages in [4usize, 8] {
        for policy in [Policy::Always, Policy::Esync] {
            h.bench_with_throughput(
                &format!("multiscalar/compress_{tag}_{stages}st_{policy}"),
                n,
                |b| {
                    let sim = Multiscalar::new(MsConfig::paper(stages, policy));
                    b.iter(|| black_box(sim.run(&p).unwrap().cycles));
                },
            );
        }
    }

    h.finish();
}
