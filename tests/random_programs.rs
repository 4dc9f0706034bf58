//! Property tests over randomly generated programs: every speculation
//! policy must execute the identical committed stream, the PSYNC oracle
//! must never mis-speculate, and timing must be deterministic — for *any*
//! program, not just the curated workloads.

use mds::core::Policy;
use mds::emu::Emulator;
use mds::isa::{Program, ProgramBuilder, Reg};
use mds::multiscalar::{MsConfig, Multiscalar};
use mds_harness::prelude::*;

/// One random task-body operation.
#[derive(Debug, Clone)]
enum Op {
    /// `arr[slot] = f(arr[slot])` — a potential cross-task dependence.
    Rmw { slot: u8 },
    /// Load from a slot into the accumulator.
    Load { slot: u8 },
    /// Store the accumulator to a slot.
    Store { slot: u8 },
    /// ALU work on the accumulator.
    Alu { imm: i8 },
    /// Multiply (long latency).
    Mul,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..32).prop_map(|slot| Op::Rmw { slot }),
        (0u8..32).prop_map(|slot| Op::Load { slot }),
        (0u8..32).prop_map(|slot| Op::Store { slot }),
        any::<i8>().prop_map(|imm| Op::Alu { imm }),
        Just(Op::Mul),
    ]
}

/// Builds a terminating program: a counted loop whose body is the random
/// op sequence, each iteration a Multiscalar task.
fn build_program(ops: &[Op], iters: u8) -> Program {
    let mut b = ProgramBuilder::new();
    b.alloc("arr", 32);
    b.la(Reg::S0, "arr");
    b.li(Reg::A0, 1); // accumulator
    b.li(Reg::T0, iters as i32 + 1);
    b.label("loop");
    b.task();
    for op in ops {
        match *op {
            Op::Rmw { slot } => {
                b.ld(Reg::T1, Reg::S0, slot as i32 * 8);
                b.addi(Reg::T1, Reg::T1, 1);
                b.sd(Reg::T1, Reg::S0, slot as i32 * 8);
            }
            Op::Load { slot } => {
                b.ld(Reg::A0, Reg::S0, slot as i32 * 8);
            }
            Op::Store { slot } => {
                b.sd(Reg::A0, Reg::S0, slot as i32 * 8);
            }
            Op::Alu { imm } => {
                b.addi(Reg::A0, Reg::A0, imm as i32);
            }
            Op::Mul => {
                b.mul(Reg::A0, Reg::A0, Reg::A0);
            }
        }
    }
    b.addi(Reg::T0, Reg::T0, -1);
    b.bne(Reg::T0, Reg::ZERO, "loop");
    b.halt();
    b.build().expect("generated program builds")
}

properties! {
    #![config(PropConfig { cases: 24, ..PropConfig::default() })]

    /// Every policy commits exactly the functional instruction stream.
    #[test]
    fn all_policies_commit_the_functional_stream(
        ops in vec_of(arb_op(), 1..12),
        iters in 4u8..40,
    ) {
        let program = build_program(&ops, iters);
        let expected = Emulator::new(&program).run_into(&mut ()).unwrap().instructions;
        for policy in Policy::ALL {
            let r = Multiscalar::new(MsConfig::paper(4, policy)).run(&program).unwrap();
            prop_assert_eq!(r.instructions, expected, "{}", policy);
            prop_assert!(r.cycles > 0);
        }
    }

    /// The oracle policies never mis-speculate, on any program.
    #[test]
    fn oracles_never_misspeculate(
        ops in vec_of(arb_op(), 1..12),
        iters in 4u8..40,
    ) {
        let program = build_program(&ops, iters);
        for policy in [Policy::Never, Policy::Wait, Policy::PSync] {
            let r = Multiscalar::new(MsConfig::paper(8, policy)).run(&program).unwrap();
            prop_assert_eq!(r.misspeculations, 0, "{}", policy);
        }
    }

    /// Timing is a pure function of (program, config).
    #[test]
    fn timing_is_deterministic(
        ops in vec_of(arb_op(), 1..10),
        iters in 4u8..24,
    ) {
        let program = build_program(&ops, iters);
        let sim = Multiscalar::new(MsConfig::paper(8, Policy::Esync));
        let a = sim.run(&program).unwrap();
        let b = sim.run(&program).unwrap();
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.misspeculations, b.misspeculations);
    }

    /// The emulator's architectural result is independent of how the trace
    /// is consumed (collected vs streamed).
    #[test]
    fn collected_and_streamed_traces_agree(
        ops in vec_of(arb_op(), 1..10),
        iters in 4u8..24,
    ) {
        let program = build_program(&ops, iters);
        let collected = Emulator::new(&program).run().unwrap();
        let mut streamed = Vec::new();
        Emulator::new(&program).run_with(|d| streamed.push(*d)).unwrap();
        prop_assert_eq!(collected, streamed);
    }
}
