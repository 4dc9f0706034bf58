//! Author a program in assembly text, run it through the whole stack —
//! assembler → emulator → dependence analysis → Multiscalar timing.
//!
//! ```sh
//! cargo run --release --example custom_assembly              # built-in demo
//! cargo run --release --example custom_assembly -- prog.asm  # your own file
//! ```

use mds::core::Policy;
use mds::emu::Emulator;
use mds::isa::asm::assemble;
use mds::multiscalar::{MsConfig, Multiscalar};

/// A bank-account ledger: most tasks post to different accounts, but every
/// other task updates the shared audit total — a classic hot dependence.
/// The audit read happens early in the task and the write at the end, so
/// blind speculation on an 8-stage machine violates it repeatedly.
const DEMO: &str = "
    .data accounts 64
    .data audit 1
    li   s0, %accounts
    li   s1, %audit
    li   t0, 600        # transactions
    li   s5, 2147480    # hash multiplier
task:
    .task
    andi t3, t0, 1
    bne  t3, zero, post
    ld   t4, 0(s1)      # audit total: the hot load, read early
post:
    mul  t1, t0, s5     # pseudo-random account index
    srli t2, t1, 9
    xor  t1, t1, t2
    andi t1, t1, 63
    slli t1, t1, 3
    add  t1, s0, t1
    ld   t2, 0(t1)      # account balance (usually independent)
    addi t2, t2, 10
    sd   t2, 0(t1)
    bne  t3, zero, skip
    add  t4, t4, t2
    sd   t4, 0(s1)      # audit total: published late
skip:
    addi t0, t0, -1
    bne  t0, zero, task
    halt
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => DEMO.to_string(),
    };
    let program = assemble(&source)?;
    println!(
        "assembled {} instructions, {} task heads",
        program.len(),
        program.task_head_count()
    );

    // Round-trip sanity: disassembly reassembles to the same program.
    let round = assemble(&program.disassemble())?;
    assert_eq!(program.instructions(), round.instructions());

    let summary = Emulator::new(&program).run_into(&mut ())?;
    println!(
        "executed {} instructions over {} dynamic tasks",
        summary.instructions, summary.tasks
    );

    for policy in [Policy::Always, Policy::Esync, Policy::PSync] {
        let r = Multiscalar::new(MsConfig::paper(8, policy)).run(&program)?;
        println!(
            "{policy:<6}: {:>7} cycles  ipc {:.2}  mis-speculations {:>4}",
            r.cycles,
            r.ipc(),
            r.misspeculations
        );
    }
    Ok(())
}
