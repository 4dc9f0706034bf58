//! A cycle-level, trace-driven Multiscalar processor timing model.
//!
//! The paper evaluates its dependence prediction/synchronization mechanism
//! on a Multiscalar processor [Franklin '93; Sohi, Breach & Vijaykumar
//! '95]: the control-flow graph is partitioned into *tasks*; a global
//! sequencer predicts and assigns tasks to a ring of processing units;
//! units execute their tasks in parallel (2-way out-of-order issue each);
//! register values flow between adjacent units on a unidirectional ring;
//! memory accesses go through interleaved data banks; and cross-task
//! memory dependence violations are detected and repaired by squashing
//! the offending task and everything younger.
//!
//! This crate reproduces that organization faithfully enough to compare
//! the paper's speculation policies:
//!
//! - tasks come from `.task` annotations in the program (the Multiscalar
//!   compiler's task boundaries), split out of the committed instruction
//!   stream produced by `mds-emu`;
//! - the sequencer uses a path-based next-task predictor with a
//!   task-descriptor cache and charges a penalty on task mispredictions
//!   (it has no return address stack);
//! - each unit models fetch through a private I-cache, a bounded
//!   instruction window, 2-wide issue over the paper's functional-unit mix
//!   (2 simple integer, 1 complex integer, 1 FP, 1 branch, 1 memory), and
//!   the functional-unit latencies of table 2;
//! - loads and stores access banked data caches behind a shared
//!   split-transaction bus (`mds-mem`), with bank conflicts and bus
//!   contention;
//! - **intra-task** memory dependences are never speculated (loads wait
//!   for prior same-task store addresses and forward from matching
//!   stores), while **inter-task** dependences are governed by the
//!   selected [`mds_core::Policy`] — NEVER, ALWAYS (blind), WAIT
//!   (selective), PSYNC (oracle), or the MDPT/MDST mechanism with the
//!   SYNC/ESYNC predictors;
//! - violations squash and replay the task (and delay everything younger),
//!   charging the re-execution cost cycle by cycle. A violation is found
//!   from the load's exact producer, which the trace's replay plan
//!   resolved at capture; the model has no address resolution buffer
//!   (ARB) and so no ARB capacity limits or overflow squashes.
//!
//! # Methodology note
//!
//! The model is *trace driven*: every policy replays the same committed
//! instruction stream, and squashes are modeled by re-executing a task's
//! timing from scratch at the violation point. Wrong-path execution is
//! approximated by the misprediction/squash penalties. This is the
//! standard methodology for dependence-speculation studies, and it is
//! what makes cross-policy comparisons apples-to-apples.
//!
//! # Examples
//!
//! ```
//! use mds_isa::{ProgramBuilder, Reg};
//! use mds_core::Policy;
//! use mds_multiscalar::{MsConfig, Multiscalar};
//!
//! // Each iteration is a task; iterations are fully independent.
//! let mut b = ProgramBuilder::new();
//! b.alloc("arr", 256);
//! b.la(Reg::S0, "arr");
//! b.li(Reg::T0, 64);
//! b.label("loop");
//! b.task();
//! b.ld(Reg::T1, Reg::S0, 0);
//! b.addi(Reg::T1, Reg::T1, 1);
//! b.sd(Reg::T1, Reg::S0, 0);
//! b.addi(Reg::S0, Reg::S0, 8);
//! b.addi(Reg::T0, Reg::T0, -1);
//! b.bne(Reg::T0, Reg::ZERO, "loop");
//! b.halt();
//! let program = b.build()?;
//!
//! let sim = Multiscalar::new(MsConfig { stages: 4, policy: Policy::Always, ..Default::default() });
//! let result = sim.run(&program)?;
//! assert!(result.ipc() > 1.0); // parallel tasks beat a scalar pipeline
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod replay;
pub mod result;

pub use config::{FuLatencies, MsConfig};
pub use replay::{forkable_twins, run_fused, run_planned, Multiscalar};
#[doc(hidden)]
pub use replay::{run_planned_with, ReplayObserver};
pub use result::MsResult;
