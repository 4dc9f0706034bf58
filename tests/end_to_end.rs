//! End-to-end integration tests: assemble or build programs, execute them
//! functionally, analyze their dependences, and replay them on the
//! Multiscalar timing model under every speculation policy.

use mds::core::Policy;
use mds::emu::Emulator;
use mds::isa::asm::assemble;
use mds::isa::{ProgramBuilder, Reg};
use mds::multiscalar::{MsConfig, Multiscalar};
use mds::ooo::{WindowAnalyzer, WindowConfig};
use mds::workloads::{by_name, Scale};

/// A recurrence microkernel used across several tests.
fn recurrence_program(iters: i32) -> mds::isa::Program {
    let mut b = ProgramBuilder::new();
    b.alloc("cell", 1);
    b.alloc("scratch", 8);
    b.la(Reg::S0, "cell");
    b.la(Reg::S1, "scratch");
    b.li(Reg::T0, iters);
    b.label("loop");
    b.task();
    b.ld(Reg::T1, Reg::S0, 0);
    b.addi(Reg::T1, Reg::T1, 1);
    b.mul(Reg::T2, Reg::T1, Reg::T1);
    b.sd(Reg::T2, Reg::S1, 0);
    b.sd(Reg::T1, Reg::S0, 0);
    b.addi(Reg::T0, Reg::T0, -1);
    b.bne(Reg::T0, Reg::ZERO, "loop");
    b.halt();
    b.build().unwrap()
}

#[test]
fn assembly_text_flows_through_the_whole_stack() {
    let program = assemble(
        "
        .data acc 1
        li   s0, %acc
        li   t0, 200
        loop:
        .task
        ld   t1, 0(s0)
        addi t1, t1, 2
        sd   t1, 0(s0)
        addi t0, t0, -1
        bne  t0, zero, loop
        halt
        ",
    )
    .expect("assembles");

    // Functional result is architecturally correct.
    let mut emu = Emulator::new(&program);
    emu.run_into(&mut ()).unwrap();
    let acc = program.symbol("acc").unwrap();
    assert_eq!(emu.state().mem.read_u64(acc), 400);

    // The timing model executes the identical committed stream.
    let r = Multiscalar::new(MsConfig::paper(4, Policy::Esync))
        .run(&program)
        .unwrap();
    assert_eq!(r.instructions, emu.summary().instructions);
    assert!(r.cycles > 0);
}

#[test]
fn every_policy_commits_the_same_instruction_stream() {
    let program = recurrence_program(300);
    let reference = Emulator::new(&program)
        .run_into(&mut ())
        .unwrap()
        .instructions;
    for policy in Policy::ALL {
        for stages in [1usize, 2, 4, 8] {
            let r = Multiscalar::new(MsConfig::paper(stages, policy))
                .run(&program)
                .unwrap();
            assert_eq!(r.instructions, reference, "{policy} at {stages} stages");
        }
    }
}

#[test]
fn policy_cycle_ordering_holds_on_a_recurrence() {
    let program = recurrence_program(500);
    let run = |p| {
        Multiscalar::new(MsConfig::paper(4, p))
            .run(&program)
            .unwrap()
    };
    let always = run(Policy::Always);
    let psync = run(Policy::PSync);
    let esync = run(Policy::Esync);
    // The oracle never loses to blind speculation, and the realizable
    // mechanism lands between them on this dependence-saturated kernel.
    assert!(psync.cycles <= always.cycles);
    assert!(esync.cycles <= always.cycles);
    assert!(psync.misspeculations == 0);
    assert!(esync.misspeculations < always.misspeculations / 4);
}

#[test]
fn window_analysis_matches_timing_model_intuition() {
    // A dependence at task distance 5 is invisible to a 4-stage machine
    // but visible to an 8-stage one — in both the unrealistic-OOO window
    // analysis and the Multiscalar mis-speculation counts.
    let mut b = ProgramBuilder::new();
    b.alloc("ring", 5);
    b.la(Reg::S2, "ring");
    b.la(Reg::S3, "ring");
    b.li(Reg::T5, 0);
    b.li(Reg::T6, 5);
    b.li(Reg::T0, 400);
    b.label("loop");
    b.task();
    b.ld(Reg::T1, Reg::S2, 0);
    b.mul(Reg::T2, Reg::T1, Reg::T1);
    b.addi(Reg::T1, Reg::T1, 1);
    b.sd(Reg::T1, Reg::S2, 0);
    b.addi(Reg::S2, Reg::S2, 8);
    b.addi(Reg::T5, Reg::T5, 1);
    b.bne(Reg::T5, Reg::T6, "noreset");
    b.mv(Reg::S2, Reg::S3);
    b.mv(Reg::T5, Reg::ZERO);
    b.label("noreset");
    b.addi(Reg::T0, Reg::T0, -1);
    b.bne(Reg::T0, Reg::ZERO, "loop");
    b.halt();
    let program = b.build().unwrap();

    // Window analysis: the recurrence spans 5 tasks (~45 instructions).
    let mut analyzer = WindowAnalyzer::new(WindowConfig {
        window_sizes: vec![16, 128],
        ddc_sizes: vec![],
    });
    Emulator::new(&program)
        .run_with(|d| analyzer.observe(d))
        .unwrap();
    let report = analyzer.finish();
    assert_eq!(report.for_window(16).unwrap().misspeculations, 0);
    assert!(report.for_window(128).unwrap().misspeculations > 300);

    // Timing model agrees.
    let four = Multiscalar::new(MsConfig::paper(4, Policy::Always))
        .run(&program)
        .unwrap();
    let eight = Multiscalar::new(MsConfig::paper(8, Policy::Always))
        .run(&program)
        .unwrap();
    assert_eq!(
        four.misspeculations, 0,
        "distance-5 edge outside a 4-stage window"
    );
    assert!(eight.misspeculations > 100, "got {}", eight.misspeculations);
}

#[test]
fn registered_workloads_run_under_the_timing_model() {
    for wl in mds::workloads::all() {
        let program = wl.build(Scale::Tiny);
        let r = Multiscalar::new(MsConfig::paper(4, Policy::Always))
            .run(&program)
            .unwrap_or_else(|e| panic!("{} failed: {e}", wl.name));
        assert!(r.ipc() > 0.05, "{}: ipc {}", wl.name, r.ipc());
        assert!(r.tasks > 8, "{}: too few tasks", wl.name);
    }
}

#[test]
fn fig5_shape_always_beats_never_on_the_int92_suite() {
    // The paper's central figure-5 observation: blind speculation beats no
    // speculation (gcc, the paper's worst case, is allowed to tie).
    for wl in mds::workloads::int92_suite() {
        let program = wl.build(Scale::Tiny);
        let never = Multiscalar::new(MsConfig::paper(8, Policy::Never))
            .run(&program)
            .unwrap();
        let always = Multiscalar::new(MsConfig::paper(8, Policy::Always))
            .run(&program)
            .unwrap();
        let speedup = always.speedup_over(&never);
        assert!(speedup > -8.0, "{}: ALWAYS {speedup:.1}% vs NEVER", wl.name);
    }
}

#[test]
fn fig6_shape_psync_dominates_always_on_the_int92_suite() {
    for wl in mds::workloads::int92_suite() {
        let program = wl.build(Scale::Tiny);
        let always = Multiscalar::new(MsConfig::paper(8, Policy::Always))
            .run(&program)
            .unwrap();
        let psync = Multiscalar::new(MsConfig::paper(8, Policy::PSync))
            .run(&program)
            .unwrap();
        assert!(
            psync.cycles <= always.cycles + always.cycles / 50,
            "{}: PSYNC {} vs ALWAYS {}",
            wl.name,
            psync.cycles,
            always.cycles
        );
        assert_eq!(psync.misspeculations, 0, "{}", wl.name);
    }
}

#[test]
fn espresso_mechanism_recovers_nearly_all_of_the_oracle() {
    let program = by_name("espresso").unwrap().build(Scale::Tiny);
    let always = Multiscalar::new(MsConfig::paper(8, Policy::Always))
        .run(&program)
        .unwrap();
    let esync = Multiscalar::new(MsConfig::paper(8, Policy::Esync))
        .run(&program)
        .unwrap();
    let psync = Multiscalar::new(MsConfig::paper(8, Policy::PSync))
        .run(&program)
        .unwrap();
    let gain_esync = esync.speedup_over(&always);
    let gain_psync = psync.speedup_over(&always);
    assert!(gain_psync > 10.0, "oracle gain {gain_psync:.1}%");
    assert!(
        gain_esync > 0.7 * gain_psync,
        "mechanism {gain_esync:.1}% of oracle {gain_psync:.1}%"
    );
}

#[test]
fn deterministic_across_repeated_runs() {
    let program = by_name("sc").unwrap().build(Scale::Tiny);
    let sim = Multiscalar::new(MsConfig::paper(8, Policy::Esync));
    let a = sim.run(&program).unwrap();
    let b = sim.run(&program).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.misspeculations, b.misspeculations);
    assert_eq!(a.breakdown, b.breakdown);
    assert_eq!(a.dcache.misses, b.dcache.misses);
}
