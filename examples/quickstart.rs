//! Quickstart: build a tiny program, watch blind speculation mis-speculate
//! on its memory recurrence, and watch the paper's prediction +
//! synchronization mechanism fix it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mds::core::Policy;
use mds::emu::Emulator;
use mds::isa::{ProgramBuilder, Reg};
use mds::multiscalar::{MsConfig, Multiscalar};
use mds::ooo::{WindowAnalyzer, WindowConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A loop whose iterations are Multiscalar tasks. Each task loads a
    // counter the *previous* task stored — a true memory dependence that
    // blind speculation will violate whenever the tasks overlap.
    let mut b = ProgramBuilder::new();
    b.alloc("counter", 1);
    b.alloc("scratch", 64);
    b.la(Reg::S0, "counter");
    b.la(Reg::S1, "scratch");
    b.li(Reg::T0, 2000); // iterations
    b.label("loop");
    b.task();
    b.ld(Reg::T1, Reg::S0, 0); // depends on the previous task's store
    b.addi(Reg::T1, Reg::T1, 1);
    b.mul(Reg::T2, Reg::T1, Reg::T1); // some work before the store
    b.sd(Reg::T2, Reg::S1, 0);
    b.sd(Reg::T1, Reg::S0, 0); // the recurrence store
    b.addi(Reg::T0, Reg::T0, -1);
    b.bne(Reg::T0, Reg::ZERO, "loop");
    b.halt();
    let program = b.build()?;

    // 1. Functional execution: the committed instruction stream.
    let summary = Emulator::new(&program).run_into(&mut ())?;
    println!(
        "functional run : {} instructions, {} tasks",
        summary.instructions, summary.tasks
    );

    // 2. The paper's "unrealistic OOO" question: how many loads have a
    //    producing store within an n-instruction window?
    let mut analyzer = WindowAnalyzer::new(WindowConfig::default());
    Emulator::new(&program).run_with(|d| analyzer.observe(d))?;
    let report = analyzer.finish();
    for ws in [8u32, 32, 128] {
        let w = report.for_window(ws).expect("configured");
        println!(
            "window {ws:>4}   : {} potential mis-speculations across {} static edges",
            w.misspeculations,
            w.static_edges()
        );
    }

    // 3. Timing: blind speculation vs the MDPT/MDST mechanism on a
    //    4-stage Multiscalar processor.
    for policy in [Policy::Never, Policy::Always, Policy::Esync, Policy::PSync] {
        let r = Multiscalar::new(MsConfig::paper(4, policy)).run(&program)?;
        println!(
            "{policy:<6}        : {:>8} cycles  ipc {:.2}  mis-speculations {}",
            r.cycles,
            r.ipc(),
            r.misspeculations
        );
    }
    println!(
        "\nBlind speculation (ALWAYS) squashes on every iteration of this\n\
         recurrence; the predictor+synchronization mechanism (ESYNC) removes\n\
         the squashes and lands within a few percent of the PSYNC oracle."
    );
    Ok(())
}
