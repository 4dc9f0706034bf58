//! Functional emulator for the `mds` ISA.
//!
//! The emulator executes a [`mds_isa::Program`] architecturally — no timing,
//! no speculation — and commits the **committed dynamic instruction
//! stream** one instruction at a time into a [`CommitSink`]
//! ([`Emulator::run_into`]). Each commit carries everything the dependence
//! machinery downstream needs: the PC, the static instruction, the
//! resolved memory address and access size for loads/stores, the branch
//! outcome, and the Multiscalar task-boundary marker.
//!
//! A [`Trace`] commits the stream straight into a [`PlanBuilder`], which
//! lowers it into a [`ReplayPlan`] as the emulator runs; no per-instruction
//! record is built, and the trace keeps the plan. [`DynInst`] records are
//! the debugging view: [`Emulator::run`] and [`Emulator::run_with`] build
//! them for the consumers that read records. Both simulators in the
//! workspace are fed from here:
//!
//! - `mds-ooo` walks the plan in committed order (the paper's
//!   "unrealistic OOO" model is defined over the committed sequential
//!   order), and
//! - `mds-multiscalar` replays the plan's tasks on its cycle-level timing
//!   model.
//!
//! # Examples
//!
//! ```
//! use mds_isa::{ProgramBuilder, Reg};
//! use mds_emu::Emulator;
//!
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::A0, 6);
//! b.li(Reg::A1, 7);
//! b.mul(Reg::A0, Reg::A0, Reg::A1);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut emu = Emulator::new(&program);
//! let trace = emu.run()?;
//! assert_eq!(trace.len(), 4);
//! assert_eq!(emu.state().reg(mds_isa::Reg::A0), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dyninst;
pub mod machine;
pub mod memory;
pub mod plan;
pub mod trace;

pub use dyninst::{BranchOutcome, DynInst, MemAccess};
pub use machine::{CommitSink, EmuError, Emulator, MachineState, TraceSummary};
pub use memory::Memory;
pub use plan::{PlanBuilder, ReplayPlan};
pub use trace::{format_dyninst, format_trace, Trace};
