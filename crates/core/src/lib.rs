//! Dynamic memory dependence prediction and synchronization — the primary
//! contribution of Moshovos, Breach, Vijaykumar & Sohi, *"Dynamic
//! Speculation and Synchronization of Data Dependences"*, ISCA 1997.
//!
//! # The idea
//!
//! Blindly speculating every load is cheap while instruction windows are
//! small, but as windows grow, true store→load dependences get violated
//! often enough that squash costs dominate. The paper's fix has three
//! parts (§3):
//!
//! 1. **Predict** which static store→load pairs will mis-speculate, from
//!    the history of mis-speculations — the [`Mdpt`] (memory dependence
//!    prediction table).
//! 2. **Associate** a condition variable with each dynamic instance of a
//!    predicted dependence — the [`Mdst`] (memory dependence
//!    synchronization table), whose full/empty flags implement wait/signal.
//! 3. **Synchronize**: the load waits on the condition variable; the store
//!    sets it and wakes the load, so the load issues exactly as early as
//!    correctness allows.
//!
//! The observation making this practical: *the static pairs responsible
//! for most dynamic mis-speculations are few and exhibit temporal
//! locality*, which the [`Ddc`] (data dependence cache) measures directly
//! (§5.3).
//!
//! # What lives here
//!
//! - [`DepEdge`]: a static dependence edge (load PC, store PC).
//! - [`Ddc`]: the dependence cache used for the locality studies
//!   (tables 5 and 7).
//! - [`Mdpt`]: prediction entries with the paper's 3-bit up/down counter,
//!   dependence distance, and the ESYNC store-task-PC refinement.
//! - [`Mdst`]: the pool of condition variables with full/empty flags,
//!   instance tags, LDID/STID bookkeeping, and squash invalidation.
//! - [`SyncUnit`]: the combined MDPT+MDST structure evaluated in §5.5
//!   (one prediction entry carries one synchronization slot per stage).
//! - [`Policy`]: the speculation policies compared in §5.4 — `NEVER`,
//!   `ALWAYS`, `WAIT`, `PSYNC`, and the realizable `SYNC`/`ESYNC`.
//! - [`PredictionBreakdown`]: the predicted-vs-actual accounting of
//!   table 8.
//!
//! The model keeps one centralized [`SyncUnit`]. The distributed
//! organization of §4.4.5 (a replicated table per processing unit, kept
//! consistent by broadcasts) is not modeled.
//!
//! The structures are processor-agnostic: `mds-multiscalar` drives them
//! from its timing model, and they are equally usable from a superscalar
//! model (see `mds-ooo::timing`), mirroring the paper's claim of
//! generality. Register-dependence speculation (mentioned as future work
//! in §6) works by keying edges on producer/consumer PCs — the tables
//! don't care that the "addresses" are register writes.
//!
//! # Examples
//!
//! The working example of the paper's figure 4: a mis-speculation
//! allocates a prediction entry; the next dynamic instance synchronizes.
//!
//! ```
//! use mds_core::{DepEdge, SyncUnit, SyncUnitConfig, LoadDecision};
//!
//! let mut unit = SyncUnit::new(SyncUnitConfig { stages: 4, ..Default::default() });
//! let edge = DepEdge { load_pc: 7, store_pc: 3 };
//!
//! // A mis-speculation between ST(pc=3) in task 1 and LD(pc=7) in task 2
//! // allocates an MDPT entry with distance 1.
//! unit.record_misspeculation(edge, 1, None);
//!
//! // Next instance: the load from task 3 asks permission before issuing.
//! let decision = unit.on_load_ready(7, 3, 30, None);
//! assert_eq!(decision, LoadDecision::Wait);
//!
//! // The matching store (task 2, distance 1 -> instance 3) signals it.
//! let woken = unit.on_store_issue(3, 2, 20);
//! assert_eq!(woken, vec![30]); // LDID 30 may now issue
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod ddc;
pub mod edge;
pub mod mdpt;
pub mod mdst;
pub mod policy;
pub mod unit;

pub use breakdown::PredictionBreakdown;
pub use ddc::Ddc;
pub use edge::DepEdge;
pub use mdpt::{Mdpt, MdptConfig, MdptEntry};
pub use mdst::{LoadSync, Mdst, StoreSync};
pub use policy::{ParsePolicyError, Policy, PredictorKind};
pub use unit::{LoadDecision, SyncUnit, SyncUnitConfig, SyncUnitStats, TagScheme};
