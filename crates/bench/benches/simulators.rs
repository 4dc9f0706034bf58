//! Benchmarks for the simulators themselves (throughput of the emulator,
//! the window analyzer, and the Multiscalar timing model).
//!
//! The `emulator/*` series times bare emulation: the interpreter loop
//! committing into a sink that only counts. The `capture/*` series times
//! `Trace::capture`, the same loop committing into the replay-plan
//! builder, so the gap between the two is the plan lowering. The
//! `multiscalar/*` series time `Multiscalar::run`: one trace capture
//! followed by one replay.
//!
//! Run with `cargo bench --bench simulators -- --scale small`; results are
//! written to `BENCH_simulators.json` at the workspace root. The `--scale`
//! argument picks the workload scale (tiny/small/full, default tiny).

use mds_core::Policy;
use mds_emu::{BranchOutcome, CommitSink, Emulator, MemAccess, Trace};
use mds_harness::bench::Harness;
use mds_multiscalar::{MsConfig, Multiscalar};
use mds_ooo::{WindowAnalyzer, WindowConfig};
use mds_workloads::{by_name, Scale};
use std::hint::black_box;

fn trace_len(p: &mds_isa::Program) -> u64 {
    Emulator::new(p).run_into(&mut ()).unwrap().instructions
}

/// A sink that counts the instructions committed into it.
struct Count(u64);

impl CommitSink for Count {
    fn commit(
        &mut self,
        _: mds_isa::Pc,
        _: &mds_isa::Instruction,
        _: Option<MemAccess>,
        _: Option<BranchOutcome>,
        _: bool,
    ) {
        self.0 += 1;
    }
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
            let mut count = Count(0);
            Emulator::new(&p).run_into(&mut count).unwrap();
            black_box(count.0)
        });
    });

    h.bench_with_throughput(&format!("capture/compress_{tag}"), n, |b| {
        b.iter(|| black_box(Trace::capture(&p).unwrap().len()));
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
