//! Lowers a concrete scenario instance (or imported trace) to a
//! deterministic `mds-isa` program.
//!
//! # Shape of a generated program
//!
//! Like the hand-written workloads, a generated program is **one task
//! body executed in a countdown loop**: every dynamic task runs the same
//! code, and all per-task variation derives from the task counter
//! through the non-serializing [`task_hash`] mix, so consecutive tasks
//! can overlap in the Multiscalar window.
//!
//! Cross-task dependences flow through a single 64-slot **communication
//! ring** per static edge: every task stores to `ring[t & 63]` *late* in
//! its body, and a task drawn to depend at distance `d` loads
//! `ring[(t - d) & 63]` *early* — the classic blind-speculation trap.
//! Because the producer's slot and alias region are pure functions of
//! the producer's index, the consumer recomputes them exactly; declared
//! distances are honored precisely (`d <= 48 < 64`, so a slot is never
//! recycled before its consumer reads it).
//!
//! Knob mechanics, all decided by disjoint bit-slices of the per-task
//! hash so they stay independent:
//!
//! - **distance distribution** — a 16-bit slice against cumulative
//!   thresholds picks distance `d_k` (or no dependence, the residual
//!   mass);
//! - **static edges** — a 12-bit slice mod `E` picks the edge; each edge
//!   has its own ring block and its own store/load instruction arms, so
//!   the program exposes `E` distinct static dependence PC pairs
//!   (`E > 8` overflows a 64-entry MDPT together with path variants);
//! - **locality/churn** — a 12-bit slice under the locality threshold
//!   keeps traffic in the edge's hot region; the residue goes to a
//!   scrambled alias region, spreading addresses;
//! - **path dependence** — an 8-bit slice selects an alternate load PC
//!   within the edge, giving predictors distinct paths to key on;
//! - **task-size mix / FP share** — 8-bit slices select small (~15),
//!   medium (~45), or large (~130 instruction) filler, integer or FP,
//!   including independent streaming loads that dilute the hot edges.
//!
//! Determinism contract: the emitted instruction sequence and initial
//! data are pure functions of `(instance, scale)` — two compilations are
//! byte-identical, which the trace cache's `(name, scale)` keying and
//! the byte-identity CI gates rely on.

use crate::generate::Instance;
use crate::ir::{TraceDef, TraceEvent};
use mds_isa::{Program, ProgramBuilder, Reg};
use mds_workloads::util::{alloc_random, loop_epilogue, HASH_K};
use mds_workloads::Scale;

/// Slots per communication ring (power of two; distances stay below it).
const RING: u64 = 64;
/// Alias regions per edge (hot + scrambled-cold).
const ALIAS: u64 = 2;
/// Bytes per edge block: `ALIAS * RING * 8`.
const EDGE_BYTES: u64 = ALIAS * RING * 8;

/// Emits `dst = mix(src * HASH_K)` — the same mix as
/// [`mds_workloads::util::task_hash`], usable on any source register.
fn hash_of(b: &mut ProgramBuilder, dst: Reg, src: Reg, konst: Reg, tmp: Reg) {
    b.mul(dst, src, konst);
    b.srli(tmp, dst, 17);
    b.xor(dst, dst, tmp);
    b.srli(tmp, dst, 9);
    b.xor(dst, dst, tmp);
}

/// Emits slot+region address math shared by producer and consumer:
/// given a task index in `idx` and its hash in `hash`, leaves the
/// byte offset within the edge block in `A1`.
///
/// Region selection: a 12-bit hash slice under `loc_thr` stays in the
/// hot region (offset 0); otherwise the cold region (offset 512 bytes)
/// with the slot scrambled by the slice, spreading cold addresses.
fn ring_offset(b: &mut ProgramBuilder, idx: Reg, hash: Reg, loc_thr: i32) {
    b.andi(Reg::A1, idx, (RING - 1) as i32);
    b.srli(Reg::T3, hash, 36);
    b.andi(Reg::T3, Reg::T3, 0xfff);
    b.slti(Reg::T4, Reg::T3, loc_thr); // 1 = hot
    b.xori(Reg::T4, Reg::T4, 1); // 1 = cold
    b.slli(Reg::T2, Reg::T4, 9); // region byte offset (0 or 512)
    b.andi(Reg::T1, Reg::T3, 56);
    b.mul(Reg::T1, Reg::T1, Reg::T4); // slot scramble, cold only
    b.add(Reg::A1, Reg::A1, Reg::T1);
    b.andi(Reg::A1, Reg::A1, (RING - 1) as i32);
    b.slli(Reg::A1, Reg::A1, 3);
    b.add(Reg::A1, Reg::A1, Reg::T2);
}

/// Emits one independent streaming load (dilution work):
/// `A0 += stream[(counter << shift) & 255]`.
fn stream_load(b: &mut ProgramBuilder, shift: i32) {
    b.slli(Reg::T1, Reg::A6, shift);
    b.andi(Reg::T1, Reg::T1, 255);
    b.slli(Reg::T1, Reg::T1, 3);
    b.add(Reg::T1, Reg::S1, Reg::T1);
    b.ld(Reg::A1, Reg::T1, 0);
    b.add(Reg::A0, Reg::A0, Reg::A1);
}

/// Emits `n` dependent integer ALU operations chained through `A0`.
fn int_ops(b: &mut ProgramBuilder, n: usize) {
    for i in 0..n {
        match i % 4 {
            0 => b.addi(Reg::A0, Reg::A0, 0x11),
            1 => b.xor(Reg::A0, Reg::A0, Reg::A6),
            2 => b.slli(Reg::T1, Reg::A0, 7).xor(Reg::A0, Reg::A0, Reg::T1),
            _ => b.srli(Reg::T1, Reg::A0, 3).add(Reg::A0, Reg::A0, Reg::T1),
        };
    }
}

/// Emits `n` dependent FP operations chained through `f1`, converting
/// `A0` in and back out so the filler result still feeds the late store.
fn fp_ops(b: &mut ProgramBuilder, n: usize) {
    b.fcvt_d_l(Reg::f(1), Reg::A0);
    for i in 0..n {
        if i % 2 == 0 {
            b.fadd(Reg::f(1), Reg::f(1), Reg::f(2));
        } else {
            b.fmul(Reg::f(1), Reg::f(1), Reg::f(3));
        }
    }
    b.fcvt_l_d(Reg::T1, Reg::f(1));
    b.add(Reg::A0, Reg::A0, Reg::T1);
}

/// Scales a `[0, 1]` knob to a `slti` threshold over an `bits`-bit
/// hash slice (inclusive upper end so 1.0 always passes).
fn thr(knob: f64, bits: u32) -> i32 {
    let full = 1i64 << bits;
    ((knob * full as f64).round() as i64).clamp(0, full) as i32
}

/// Compiles a concrete scenario instance at the given scale.
pub fn compile(inst: &Instance, scale: Scale) -> Program {
    let e = inst.edges.max(1);
    let mut b = ProgramBuilder::new();
    // Data: one ring block per edge, plus the independent stream.
    alloc_random(
        &mut b,
        "rings",
        (e * EDGE_BYTES / 8) as usize,
        0,
        inst.member_seed,
    );
    b.alloc("pad0", 8); // stagger bank alignment
    alloc_random(&mut b, "stream", 256, 0, inst.member_seed ^ 0x5eed_5eed);

    let loc_thr = thr(inst.locality, 12);
    let path_thr = thr(inst.path_dep, 8);
    let fp_thr = thr(inst.fp, 8);
    // Task-size class thresholds over an 8-bit slice.
    let wsum = inst.task_size.small + inst.task_size.medium + inst.task_size.large;
    let small_thr = thr(inst.task_size.small / wsum, 8);
    let med_thr = thr((inst.task_size.small + inst.task_size.medium) / wsum, 8);
    // Cumulative 16-bit distance thresholds.
    let mut cum = 0.0;
    let dist_thrs: Vec<(u32, i32)> = inst
        .distances
        .iter()
        .map(|&(d, p)| {
            cum += p;
            (d, thr(cum, 16))
        })
        .collect();

    // Prologue.
    b.la(Reg::S0, "rings");
    b.la(Reg::S1, "stream");
    b.li(Reg::S5, HASH_K);
    if e > 1 {
        b.li(Reg::S6, e as i32);
    } else {
        b.li(Reg::A2, 0); // constant edge offset
    }
    b.li(Reg::A6, (inst.member_seed & 0xffff) as i32); // counter salt
    b.li(Reg::A0, 1);
    if fp_thr > 0 {
        b.li(Reg::T1, 3);
        b.fcvt_d_l(Reg::f(2), Reg::T1);
        b.li(Reg::T1, 5);
        b.fcvt_d_l(Reg::f(3), Reg::T1);
    }
    b.li(Reg::T0, scale.iterations(inst.tasks as i32));

    b.label("task");
    b.task();
    b.addi(Reg::A6, Reg::A6, 1);
    hash_of(&mut b, Reg::A7, Reg::A6, Reg::S5, Reg::T1);
    // Edge select: 12-bit slice mod E, block offset in A2.
    if e > 1 {
        b.srli(Reg::T4, Reg::A7, 24);
        b.andi(Reg::T4, Reg::T4, 0xfff);
        b.rem(Reg::A3, Reg::T4, Reg::S6);
        b.slli(Reg::A2, Reg::A3, 10);
    }
    // Dependence draw: 16-bit slice against cumulative thresholds.
    if !dist_thrs.is_empty() {
        b.srli(Reg::T2, Reg::A7, 8);
        b.andi(Reg::T2, Reg::T2, 0xffff);
        for (i, &(_, c)) in dist_thrs.iter().enumerate() {
            b.slti(Reg::T3, Reg::T2, c);
            b.bne(Reg::T3, Reg::ZERO, format!("dep_{i}").as_str());
        }
        b.j("filler");
        for (i, &(d, _)) in dist_thrs.iter().enumerate() {
            b.label(&format!("dep_{i}"));
            b.li(Reg::T5, d as i32);
            if i + 1 != dist_thrs.len() {
                b.j("consume");
            }
        }
        b.label("consume");
        // Recompute the producer's edge, slot, and region from its
        // index — the address must be exactly where the producer (task
        // `t - d`, which hashed its *own* counter) stored.
        b.sub(Reg::A5, Reg::A6, Reg::T5);
        hash_of(&mut b, Reg::A4, Reg::A5, Reg::S5, Reg::T1);
        if e > 1 {
            b.srli(Reg::T5, Reg::A4, 24);
            b.andi(Reg::T5, Reg::T5, 0xfff);
            b.rem(Reg::T5, Reg::T5, Reg::S6); // producer edge
        }
        ring_offset(&mut b, Reg::A5, Reg::A4, loc_thr);
        if e > 1 {
            b.slli(Reg::T1, Reg::T5, 10);
            b.add(Reg::T6, Reg::S0, Reg::T1);
        } else {
            b.add(Reg::T6, Reg::S0, Reg::A2);
        }
        b.add(Reg::T6, Reg::T6, Reg::A1);
        // Path-dependence draw: 8-bit slice selects the alternate PC.
        b.srli(Reg::T3, Reg::A7, 48);
        b.andi(Reg::T3, Reg::T3, 0xff);
        b.slti(Reg::T4, Reg::T3, path_thr); // 1 = alternate path
                                            // Early consumer load, dispatched on the *producer's* edge so
                                            // each static store PC pairs with its own static load PCs.
        for k in 1..e {
            b.li(Reg::T1, k as i32);
            b.beq(Reg::T5, Reg::T1, format!("ld_{k}").as_str());
        }
        for k in 0..e {
            b.label(&format!("ld_{k}"));
            b.bne(Reg::T4, Reg::ZERO, format!("ld_{k}_alt").as_str());
            b.ld(Reg::A0, Reg::T6, 0);
            b.j("filler");
            b.label(&format!("ld_{k}_alt"));
            b.ld(Reg::A0, Reg::T6, 0);
            b.j("filler");
        }
    }
    // Filler: independent dilution work sized by the task-size draw.
    b.label("filler");
    b.andi(Reg::T2, Reg::A7, 0xff);
    b.slti(Reg::T3, Reg::T2, small_thr);
    b.bne(Reg::T3, Reg::ZERO, "fill_small");
    b.slti(Reg::T3, Reg::T2, med_thr);
    b.bne(Reg::T3, Reg::ZERO, "fill_medium");
    // Large: ~130 instructions (inner countdown of dependent blocks).
    stream_load(&mut b, 1);
    stream_load(&mut b, 4);
    b.li(Reg::T2, 11);
    b.label("fill_large_loop");
    if fp_thr > 0 {
        b.srli(Reg::T3, Reg::A7, 56);
        b.slti(Reg::T4, Reg::T3, fp_thr);
        b.bne(Reg::T4, Reg::ZERO, "fill_large_fp");
        int_ops(&mut b, 7);
        b.j("fill_large_tail");
        b.label("fill_large_fp");
        fp_ops(&mut b, 5);
        b.label("fill_large_tail");
    } else {
        int_ops(&mut b, 7);
    }
    b.addi(Reg::T2, Reg::T2, -1);
    b.bne(Reg::T2, Reg::ZERO, "fill_large_loop");
    b.j("store");
    // Medium: ~45 instructions.
    b.label("fill_medium");
    stream_load(&mut b, 2);
    stream_load(&mut b, 5);
    if fp_thr > 0 {
        b.srli(Reg::T3, Reg::A7, 56);
        b.slti(Reg::T4, Reg::T3, fp_thr);
        b.bne(Reg::T4, Reg::ZERO, "fill_medium_fp");
        int_ops(&mut b, 24);
        b.j("store");
        b.label("fill_medium_fp");
        fp_ops(&mut b, 20);
        b.j("store");
    } else {
        int_ops(&mut b, 24);
        b.j("store");
    }
    // Small: ~15 instructions.
    b.label("fill_small");
    stream_load(&mut b, 3);
    if fp_thr > 0 {
        b.srli(Reg::T3, Reg::A7, 56);
        b.slti(Reg::T4, Reg::T3, fp_thr);
        b.bne(Reg::T4, Reg::ZERO, "fill_small_fp");
        int_ops(&mut b, 4);
        b.j("store");
        b.label("fill_small_fp");
        fp_ops(&mut b, 3);
    } else {
        int_ops(&mut b, 4);
    }
    // Late producer store: own slot/region, with the address funneled
    // through the filler result (`A0 & 0 = 0`, but the simulators see a
    // true dependence) so it resolves last — the property that makes
    // refusing to speculate (NEVER) expensive.
    b.label("store");
    ring_offset(&mut b, Reg::A6, Reg::A7, loc_thr);
    b.andi(Reg::T1, Reg::A0, 0);
    b.add(Reg::A1, Reg::A1, Reg::T1);
    b.add(Reg::T6, Reg::S0, Reg::A2);
    b.add(Reg::T6, Reg::T6, Reg::A1);
    for k in 1..e {
        b.li(Reg::T1, k as i32);
        b.beq(Reg::A3, Reg::T1, format!("st_{k}").as_str());
    }
    for k in 0..e {
        b.label(&format!("st_{k}"));
        b.sd(Reg::A0, Reg::T6, 0);
        if k + 1 != e {
            b.j("epilogue");
        }
    }
    b.label("epilogue");
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("generated scenario builds")
}

/// Compiles an imported dependence stream to an equivalent program.
///
/// Each distinct address maps to one slot of a private array; task
/// events become task boundaries, loads fold the slot into a running
/// sum, stores write an evolving counter — so the program's dependence
/// stream (task/load/store sequence over abstract addresses) replays the
/// imported one exactly. `scale` is ignored: a trace has one length.
pub fn compile_trace(def: &TraceDef) -> Program {
    let mut slots: Vec<u64> = Vec::new();
    let slot_of = |addr: u64, slots: &mut Vec<u64>| -> i32 {
        if let Some(i) = slots.iter().position(|&a| a == addr) {
            (i * 8) as i32
        } else {
            slots.push(addr);
            ((slots.len() - 1) * 8) as i32
        }
    };
    // Resolve displacements first so the data segment is sized before
    // any instruction references it.
    let disps: Vec<Option<i32>> = def
        .events
        .iter()
        .map(|ev| match *ev {
            TraceEvent::Task => None,
            TraceEvent::Load(a) | TraceEvent::Store(a) => Some(slot_of(a, &mut slots)),
        })
        .collect();
    let mut b = ProgramBuilder::new();
    alloc_random(&mut b, "slots", slots.len().max(1), 0, 0xace0_ace0);
    b.la(Reg::S0, "slots");
    b.li(Reg::A0, 1);
    b.li(Reg::A1, 0);
    let mut pending_task = false;
    for (ev, disp) in def.events.iter().zip(&disps) {
        match (ev, disp) {
            (TraceEvent::Task, _) => {
                if pending_task {
                    b.nop(); // empty task still needs a head instruction
                }
                b.task();
                pending_task = true;
            }
            (TraceEvent::Load(_), &Some(d)) => {
                b.ld(Reg::T1, Reg::S0, d);
                b.add(Reg::A0, Reg::A0, Reg::T1);
                pending_task = false;
            }
            (TraceEvent::Store(_), &Some(d)) => {
                b.addi(Reg::A1, Reg::A1, 1);
                b.add(Reg::T2, Reg::A1, Reg::A0);
                b.sd(Reg::T2, Reg::S0, d);
                pending_task = false;
            }
            _ => unreachable!("loads/stores always carry a displacement"),
        }
    }
    b.halt();
    b.build().expect("imported trace builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::SizeMix;
    use mds_emu::Emulator;

    fn demo_instance() -> Instance {
        Instance {
            scenario: "demo".to_string(),
            family_seed: 0,
            index: 0,
            member_seed: 0xdead_beef_1234,
            tasks: 2048,
            task_size: SizeMix::DEFAULT,
            distances: vec![(1, 0.08), (8, 0.05)],
            edges: 3,
            locality: 0.9,
            path_dep: 0.3,
            fp: 0.25,
        }
    }

    #[test]
    fn compiled_instance_runs_and_is_deterministic() {
        let inst = demo_instance();
        let p1 = compile(&inst, Scale::Tiny);
        let p2 = compile(&inst, Scale::Tiny);
        assert_eq!(p1.instructions(), p2.instructions());
        assert_eq!(
            p1.initial_data().collect::<Vec<_>>(),
            p2.initial_data().collect::<Vec<_>>()
        );
        let sum = Emulator::new(&p1).run_into(&mut ()).unwrap();
        assert!(sum.tasks > 16, "tasks: {}", sum.tasks);
        assert!(sum.loads > 0 && sum.stores > 0);
        assert!(sum.instructions > 500);
    }

    #[test]
    fn scale_changes_length_not_shape() {
        let inst = demo_instance();
        let tiny = compile(&inst, Scale::Tiny);
        let small = compile(&inst, Scale::Small);
        let t = Emulator::new(&tiny).run_into(&mut ()).unwrap();
        let s = Emulator::new(&small).run_into(&mut ()).unwrap();
        assert!(s.tasks > t.tasks * 8);
    }

    #[test]
    fn trace_lowering_replays_the_stream() {
        let def = TraceDef {
            name: "tr".to_string(),
            pos: crate::diag::Pos::START,
            events: vec![
                TraceEvent::Task,
                TraceEvent::Store(0x100),
                TraceEvent::Task,
                TraceEvent::Load(0x100),
                TraceEvent::Task,
                TraceEvent::Task,
                TraceEvent::Load(0x200),
            ],
        };
        let p = compile_trace(&def);
        let sum = Emulator::new(&p).run_into(&mut ()).unwrap();
        // 4 trace tasks plus the implicit prologue task.
        assert_eq!(sum.tasks, 5);
        assert_eq!(sum.loads, 2);
        assert_eq!(sum.stores, 1);
    }
}
