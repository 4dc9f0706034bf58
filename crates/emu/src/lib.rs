//! Functional emulator for the `mds` ISA.
//!
//! The emulator executes a [`mds_isa::Program`] architecturally — no timing,
//! no speculation — and streams the **committed dynamic instruction stream**
//! as [`DynInst`] records. Those records carry everything the dependence
//! machinery downstream needs: the PC, the resolved memory address and
//! access size for loads/stores, branch outcomes, and Multiscalar
//! task-boundary markers.
//!
//! A [`Trace`] lowers the stream into a [`ReplayPlan`] while the emulator
//! runs and keeps the plan, not the records. Both simulators in the
//! workspace are fed from here:
//!
//! - `mds-ooo` consumes the stream in committed order, as records or as
//!   plan [`Row`]s (the paper's "unrealistic OOO" model is defined over
//!   the committed sequential order), and
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
pub use machine::{EmuError, Emulator, MachineState, TraceSummary};
pub use memory::Memory;
pub use plan::{PlanBuilder, ReplayPlan, Row};
pub use trace::{format_dyninst, format_trace, Trace};
