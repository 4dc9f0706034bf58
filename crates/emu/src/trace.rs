//! Captured committed instruction streams, and their human-readable
//! rendering.
//!
//! [`Trace`] is the machine-facing half: a captured committed stream that
//! downstream simulators replay read-only. It is `Send + Sync` by
//! construction, so one emulation can be shared across threads behind an
//! `Arc` — the substrate of `mds-runner`'s shared trace cache, where every
//! (workload × policy × config) grid cell replays the same stream.
//!
//! The rendering half is for humans: debugging a dependence-speculation
//! study means staring at traces, so [`format_dyninst`] renders records
//! the way an architect would annotate them — disassembly plus resolved
//! addresses, branch outcomes, and task boundaries.

use crate::dyninst::DynInst;
use crate::machine::{EmuError, Emulator, TraceSummary};
use crate::plan::{PlanBuilder, ReplayPlan};
use mds_isa::Program;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// A captured committed instruction stream: its aggregate counts, its
/// [`ReplayPlan`], and the program it came from.
///
/// Capture commits the stream straight from the emulator into a
/// [`PlanBuilder`], so no [`DynInst`] record is built, and a trace keeps
/// about 9 bytes per instruction (a PC per record, decoded instructions
/// once per PC, addresses and producers per load and store) instead of a
/// 48-byte record beside the plan. Everything the simulators and
/// analyzers replay reads the plan. [`Trace::records`] re-emulates the
/// stored program on first use, for the consumers that want records
/// (debug rendering, the Multiscalar oracle and other tests); the records
/// then stay resident with the trace.
///
/// The type is immutable after capture and `Send + Sync`, so it can be
/// shared across worker threads behind an `Arc`.
///
/// # Examples
///
/// ```
/// use mds_isa::{ProgramBuilder, Reg};
/// use mds_emu::Trace;
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::T0, 3);
/// b.label("loop");
/// b.addi(Reg::T0, Reg::T0, -1);
/// b.bne(Reg::T0, Reg::ZERO, "loop");
/// b.halt();
/// let p = b.build()?;
///
/// let trace = Trace::capture(&p)?;
/// assert_eq!(trace.len() as u64, trace.summary().instructions);
/// assert_eq!(trace.summary().taken_branches, 2);
/// assert_eq!(trace.resident_bytes(), trace.replay_plan().resident_bytes());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    summary: TraceSummary,
    plan: Arc<ReplayPlan>,
    /// The captured program, re-emulated by [`Trace::records`]; `None`
    /// for traces wrapped from already-collected records.
    program: Option<Program>,
    records: OnceLock<Vec<DynInst>>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        // The plan is a pure function of the committed stream, so equal
        // plans mean equal streams.
        self.summary == other.summary && self.plan == other.plan
    }
}

// The whole point of `Trace` is cross-thread sharing; keep that property
// checked at compile time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Trace>();
};

impl Trace {
    /// Runs `program` to completion on a fresh [`Emulator`], committing
    /// each instruction straight into the [`PlanBuilder`] that lowers its
    /// [`ReplayPlan`].
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] from execution (wild PCs, the
    /// instruction budget).
    pub fn capture(program: &Program) -> Result<Trace, EmuError> {
        Self::capture_limited(program, None)
    }

    /// Like [`Trace::capture`] with an explicit instruction budget.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] from execution.
    pub fn capture_limited(program: &Program, limit: Option<u64>) -> Result<Trace, EmuError> {
        let mut emu = Emulator::new(program);
        if let Some(limit) = limit {
            emu = emu.with_limit(limit);
        }
        let mut builder = PlanBuilder::new();
        let summary = emu.run_into(&mut builder)?;
        Ok(Trace {
            summary,
            plan: Arc::new(builder.finish()),
            program: Some(program.clone()),
            records: OnceLock::new(),
        })
    }

    /// Wraps an already-collected committed stream and its counts; the
    /// records stay resident beside the plan built from them.
    pub fn from_parts(records: Vec<DynInst>, summary: TraceSummary) -> Trace {
        Trace {
            summary,
            plan: Arc::new(ReplayPlan::build(&records)),
            program: None,
            records: OnceLock::from(records),
        }
    }

    /// The structure-of-arrays replay plan for this trace, shared by
    /// every simulator replaying it.
    pub fn replay_plan(&self) -> &Arc<ReplayPlan> {
        &self.plan
    }

    /// The committed records, in sequential order.
    ///
    /// A captured trace does not keep its records: the first call
    /// re-emulates the stored program (blocking concurrent callers) and
    /// the records then stay resident, counted by
    /// [`Trace::resident_bytes`]. Replay paths read
    /// [`Trace::replay_plan`] instead.
    pub fn records(&self) -> &[DynInst] {
        self.records.get_or_init(|| {
            let program = self
                .program
                .as_ref()
                .expect("a trace without records keeps its program");
            // The capture halted after `len` records, so the same budget
            // replays the same deterministic stream, into a vector that
            // never grows.
            let mut records = Vec::with_capacity(self.len());
            Emulator::new(program)
                .with_limit(self.len() as u64)
                .run_with(|d| records.push(*d))
                .expect("re-emulating a captured program replays it");
            records
        })
    }

    /// Aggregate counts over the whole stream.
    pub fn summary(&self) -> TraceSummary {
        self.summary
    }

    /// Number of committed instructions.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// `true` when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Approximate resident size of the trace in bytes — the replay plan,
    /// plus the records if they were materialized — the number a trace
    /// cache budgets against.
    pub fn resident_bytes(&self) -> usize {
        self.plan.resident_bytes()
            + self
                .records
                .get()
                .map_or(0, |r| r.len() * std::mem::size_of::<DynInst>())
    }
}

/// Formats one committed instruction as a single annotated line.
///
/// # Examples
///
/// ```
/// use mds_isa::{ProgramBuilder, Reg};
/// use mds_emu::{format_dyninst, Emulator};
///
/// let mut b = ProgramBuilder::new();
/// b.alloc("x", 1);
/// b.la(Reg::S0, "x");
/// b.ld(Reg::T0, Reg::S0, 0);
/// b.halt();
/// let p = b.build()?;
/// let trace = Emulator::new(&p).run()?;
/// let line = format_dyninst(&trace[1]);
/// assert!(line.contains("ld t0, 0(s0)"));
/// assert!(line.contains("[load @0x10000000]"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn format_dyninst(d: &DynInst) -> String {
    let mut line = String::new();
    if d.new_task {
        line.push_str("==task== ");
    }
    let _ = write!(
        line,
        "{:>8}  pc={:<5} {:<28}",
        d.seq,
        d.pc,
        d.inst.to_string()
    );
    if let Some(m) = d.mem {
        let kind = if m.is_store { "store" } else { "load" };
        let _ = write!(line, " [{kind} @{:#x}", m.addr);
        if m.size != 8 {
            let _ = write!(line, " x{}", m.size);
        }
        line.push(']');
    }
    if let Some(b) = d.branch {
        if b.taken {
            let _ = write!(line, " [taken -> {}]", b.next_pc);
        } else {
            line.push_str(" [not taken]");
        }
    }
    line
}

/// Renders a whole trace (or a window of one) with one line per record.
///
/// Intended for short traces and debugging sessions; for long workloads,
/// slice first.
pub fn format_trace<'a>(records: impl IntoIterator<Item = &'a DynInst>) -> String {
    let mut out = String::new();
    for d in records {
        out.push_str(&format_dyninst(d));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Emulator;
    use mds_isa::{ProgramBuilder, Reg};

    fn sample_trace() -> Vec<DynInst> {
        let mut b = ProgramBuilder::new();
        b.alloc("buf", 2);
        b.la(Reg::S0, "buf");
        b.li(Reg::T0, 2);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T1, Reg::T1, 1);
        b.sb(Reg::T1, Reg::S0, 8);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        let p = b.build().unwrap();
        Emulator::new(&p).run().unwrap()
    }

    #[test]
    fn annotates_memory_and_branches() {
        let trace = sample_trace();
        let text = format_trace(&trace);
        assert!(text.contains("[load @0x10000000]"));
        assert!(text.contains("x1]"), "byte store shows its size: {text}");
        assert!(text.contains("[taken -> 2]"));
        assert!(text.contains("[not taken]"));
    }

    #[test]
    fn marks_task_boundaries() {
        let trace = sample_trace();
        let boundaries = format_trace(&trace)
            .lines()
            .filter(|l| l.starts_with("==task=="))
            .count();
        // seq 0 plus two loop iterations.
        assert_eq!(boundaries, 3);
    }

    #[test]
    fn plain_alu_lines_have_no_annotations() {
        let trace = sample_trace();
        let line = format_dyninst(&trace[1]); // li t0, 2
        assert!(!line.contains('['));
        assert!(line.contains("li t0, 2"));
    }

    fn sample_program() -> mds_isa::Program {
        let mut b = ProgramBuilder::new();
        b.alloc("buf", 2);
        b.la(Reg::S0, "buf");
        b.li(Reg::T0, 2);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T1, Reg::T1, 1);
        b.sb(Reg::T1, Reg::S0, 8);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn capture_matches_streaming_run() {
        let p = sample_program();
        let trace = Trace::capture(&p).unwrap();
        let mut emu = Emulator::new(&p);
        let records = emu.run().unwrap();
        assert_eq!(trace.summary(), emu.summary());
        assert_eq!(trace.len(), records.len());
        assert!(!trace.is_empty());
        assert_eq!(**trace.replay_plan(), ReplayPlan::build(&records));
        let plan_bytes = trace.replay_plan().resident_bytes();
        assert_eq!(
            trace.resident_bytes(),
            plan_bytes,
            "capture keeps no records"
        );
        assert_eq!(trace.records(), &records[..]);
        assert_eq!(
            trace.resident_bytes(),
            plan_bytes + records.len() * std::mem::size_of::<DynInst>(),
            "re-emulated records are counted once materialized"
        );
    }

    #[test]
    fn capture_limited_propagates_budget_errors() {
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.j("spin");
        let p = b.build().unwrap();
        let err = Trace::capture_limited(&p, Some(10)).unwrap_err();
        assert_eq!(err, EmuError::InstructionLimit { executed: 10 });
    }

    #[test]
    fn traces_share_across_threads() {
        let p = sample_program();
        let trace = std::sync::Arc::new(Trace::capture(&p).unwrap());
        let counts: Vec<u64> = std::thread::scope(|s| {
            (0..2)
                .map(|_| {
                    let t = std::sync::Arc::clone(&trace);
                    s.spawn(move || t.records().iter().filter(|d| d.is_load()).count() as u64)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], trace.summary().loads);
    }

    #[test]
    fn from_parts_round_trips() {
        let p = sample_program();
        let mut emu = Emulator::new(&p);
        let records = emu.run().unwrap();
        let summary = emu.summary();
        let t = Trace::from_parts(records.clone(), summary);
        assert_eq!(t.records(), &records[..]);
        assert_eq!(t.summary(), summary);
        assert_eq!(t, Trace::capture(&p).unwrap());
    }
}
