//! The SPECint95-substitute suite: go, m88ksim, gcc, compress, li,
//! ijpeg, perl, vortex (the paper's figure 7, integer half).

use crate::util::{alloc_linked_ring, alloc_random, loop_epilogue, seed_rng, xorshift};
use crate::{int92, Builder, Scale, Suite, Workload};
use mds_isa::{Program, ProgramBuilder, Reg};

/// The eight SPECint95 workloads in the paper's order.
pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "go",
        suite: Suite::Spec95Int,
        description: "go-playing program: board evaluation with irregular control",
        phenotype: "irregular dependences and, above all, poor task-level control \
                        prediction — three task types chosen pseudo-randomly",
        builder: Builder::Static(go),
    },
    Workload {
        name: "m88ksim",
        suite: Suite::Spec95Int,
        description: "CPU simulator: fetch/decode/execute over an in-memory register file",
        phenotype: "hot register-file read-modify-write edges with excellent temporal \
                        locality — the mechanism performs close to ideal",
        builder: Builder::Static(m88ksim),
    },
    Workload {
        name: "gcc95",
        suite: Suite::Spec95Int,
        description: "compiler (95 input set): larger IR pool than the int92 variant",
        phenotype: "many static edges, poor locality; falls short of ideal",
        builder: Builder::Static(gcc95),
    },
    Workload {
        name: "compress95",
        suite: Suite::Spec95Int,
        description: "LZW compressor (95 input set)",
        phenotype: "same hot path-dependent global edges as the int92 variant",
        builder: Builder::Static(int92::compress),
    },
    Workload {
        name: "li",
        suite: Suite::Spec95Int,
        description: "lisp interpreter (95 input set): deeper allocation churn",
        phenotype: "free-list recurrence plus garbage-collection-style sweeps",
        builder: Builder::Static(li),
    },
    Workload {
        name: "ijpeg",
        suite: Suite::Spec95Int,
        description: "JPEG codec: blocked pixel transforms",
        phenotype: "mostly independent block tasks with an occasional shared \
                        accumulator — moderate gains",
        builder: Builder::Static(ijpeg),
    },
    Workload {
        name: "perl",
        suite: Suite::Spec95Int,
        description: "perl interpreter: symbol-table hashing",
        phenotype: "bucket read-modify-writes of medium locality plus one hot \
                        operation counter",
        builder: Builder::Static(perl),
    },
    Workload {
        name: "vortex",
        suite: Suite::Spec95Int,
        description: "object database: record updates with transaction logging",
        phenotype: "a hot log-pointer recurrence plus medium-distance log read-backs",
        builder: Builder::Static(vortex),
    },
];

/// Board evaluator with three task types selected by the RNG, so the
/// next-task PC is inherently hard to predict — reproducing go's
/// control-bound behavior in the paper (poor control prediction and
/// instruction supply limit everything else).
pub fn go(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_random(&mut b, "board", 512, 4, 0x60);
    b.alloc("goglobals", 2);
    b.la(Reg::S0, "board");
    b.la(Reg::S1, "goglobals");
    seed_rng(&mut b, Reg::A7, 0x260);
    b.li(Reg::T0, scale.iterations(10_000));
    b.label("dispatch");
    xorshift(&mut b, Reg::A7, Reg::T1);
    b.andi(Reg::T2, Reg::A7, 3);
    b.beq(Reg::T2, Reg::ZERO, "eval_task");
    b.addi(Reg::T2, Reg::T2, -1);
    b.beq(Reg::T2, Reg::ZERO, "capture_task");
    b.j("territory_task");

    // Task type 1: influence evaluation (reads a random 8-cell region).
    b.label("eval_task");
    b.task();
    b.srli(Reg::T3, Reg::A7, 4);
    b.andi(Reg::T3, Reg::T3, 511 - 8);
    b.slli(Reg::T3, Reg::T3, 3);
    b.add(Reg::T3, Reg::S0, Reg::T3);
    b.li(Reg::A0, 0);
    for i in 0..8 {
        b.ld(Reg::T4, Reg::T3, i * 8);
        b.add(Reg::A0, Reg::A0, Reg::T4);
    }
    b.ld(Reg::T5, Reg::S1, 0);
    b.add(Reg::T5, Reg::T5, Reg::A0);
    b.sd(Reg::T5, Reg::S1, 0);
    b.j("next");

    // Task type 2: capture check (conditional board write).
    b.label("capture_task");
    b.task();
    b.srli(Reg::T3, Reg::A7, 5);
    b.andi(Reg::T3, Reg::T3, 511);
    b.slli(Reg::T3, Reg::T3, 3);
    b.add(Reg::T3, Reg::S0, Reg::T3);
    b.ld(Reg::A0, Reg::T3, 0);
    b.andi(Reg::A1, Reg::A0, 3);
    b.bne(Reg::A1, Reg::ZERO, "no_capture");
    b.addi(Reg::A0, Reg::A0, 1);
    b.sd(Reg::A0, Reg::T3, 0);
    b.label("no_capture");
    b.j("next");

    // Task type 3: territory count (strided reads plus a global).
    b.label("territory_task");
    b.task();
    b.srli(Reg::T3, Reg::A7, 6);
    b.andi(Reg::T3, Reg::T3, 255);
    b.slli(Reg::T3, Reg::T3, 3);
    b.add(Reg::T3, Reg::S0, Reg::T3);
    b.li(Reg::A0, 0);
    for i in 0..4 {
        b.ld(Reg::T4, Reg::T3, i * 16);
        b.xor(Reg::A0, Reg::A0, Reg::T4);
    }
    b.ld(Reg::T5, Reg::S1, 8);
    b.xor(Reg::T5, Reg::T5, Reg::A0);
    b.sd(Reg::T5, Reg::S1, 8);
    b.label("next");
    loop_epilogue(&mut b, Reg::T0, "dispatch");
    b.build().expect("go workload builds")
}

/// Toy-CPU simulator: every task interprets one synthetic "instruction"
/// from a 256-entry program memory against a 32-entry in-memory register
/// file. The register-file read-modify-writes are the hot edges — and
/// they recur constantly, so the MDPT captures them almost perfectly.
pub fn m88ksim(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_random(&mut b, "progmem", 256, 0, 0x88);
    alloc_random(&mut b, "regfile", 32, 1 << 16, 0x89);
    alloc_random(&mut b, "decodetab", 256, 1 << 10, 0x8a);
    b.la(Reg::S0, "progmem");
    b.la(Reg::S1, "regfile");
    b.la(Reg::S2, "decodetab");
    b.li(Reg::A6, 0); // simulated PC
    b.li(Reg::T0, scale.iterations(20_000));
    b.label("task");
    b.task();
    // fetch: op = progmem[pc & 255]
    b.andi(Reg::T1, Reg::A6, 255);
    b.slli(Reg::T1, Reg::T1, 3);
    b.add(Reg::T1, Reg::S0, Reg::T1);
    b.ld(Reg::A0, Reg::T1, 0);
    // Independent decode-table reads (dilution).
    b.andi(Reg::T6, Reg::A0, 255);
    b.slli(Reg::T6, Reg::T6, 3);
    b.add(Reg::T6, Reg::S2, Reg::T6);
    b.ld(Reg::A4, Reg::T6, 0);
    b.srli(Reg::T6, Reg::A0, 24);
    b.andi(Reg::T6, Reg::T6, 255);
    b.slli(Reg::T6, Reg::T6, 3);
    b.add(Reg::T6, Reg::S2, Reg::T6);
    b.ld(Reg::A5, Reg::T6, 0);
    // decode fields: rs1 = op[4:0] & 31, rs2 = op[9:5] & 31, rd = op[14:10] & 31
    b.andi(Reg::T2, Reg::A0, 31);
    b.srli(Reg::T3, Reg::A0, 5);
    b.andi(Reg::T3, Reg::T3, 31);
    b.srli(Reg::T4, Reg::A0, 10);
    b.andi(Reg::T4, Reg::T4, 31);
    // read register operands
    b.slli(Reg::T2, Reg::T2, 3);
    b.add(Reg::T2, Reg::S1, Reg::T2);
    b.ld(Reg::A1, Reg::T2, 0);
    b.slli(Reg::T3, Reg::T3, 3);
    b.add(Reg::T3, Reg::S1, Reg::T3);
    b.ld(Reg::A2, Reg::T3, 0);
    // execute: two "opcodes"
    b.srli(Reg::T5, Reg::A0, 15);
    b.andi(Reg::T5, Reg::T5, 1);
    b.beq(Reg::T5, Reg::ZERO, "alu_add");
    b.xor(Reg::A3, Reg::A1, Reg::A2);
    b.j("writeback");
    b.label("alu_add");
    b.add(Reg::A3, Reg::A1, Reg::A2);
    b.label("writeback");
    b.slli(Reg::T4, Reg::T4, 3);
    b.add(Reg::T4, Reg::S1, Reg::T4);
    b.sd(Reg::A3, Reg::T4, 0);
    b.addi(Reg::A6, Reg::A6, 1);
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("m88ksim workload builds")
}

/// The gcc kernel with a larger node pool and more rounds per task —
/// the 95 input set exposes an even wider dependence working set.
pub fn gcc95(scale: Scale) -> Program {
    int92::gcc_kernel(scale, 256, 4, 0x29cc)
}

/// Lisp interpreter, 95 flavor: the xlisp allocator kernel interleaved
/// with a mark-sweep-style pass every 32 tasks (a burst of cell reads
/// and flag writes).
pub fn li(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    let cells = alloc_linked_ring(&mut b, "heap", 128, 2, 1, 0x11);
    b.alloc_init("liglobals", &[cells, 0]);
    b.alloc("marks", 128);
    b.la(Reg::S1, "liglobals");
    b.la(Reg::S2, "marks");
    b.la(Reg::S4, "heap");
    b.li(Reg::A3, 0); // task counter
    seed_rng(&mut b, Reg::A7, 0x111);
    b.li(Reg::T0, scale.iterations(12_000));
    b.label("task");
    b.task();
    b.addi(Reg::A3, Reg::A3, 1);
    xorshift(&mut b, Reg::A7, Reg::T1);
    // Independent work: four-hop traversal over the heap arena.
    b.andi(Reg::T2, Reg::A7, 127);
    b.slli(Reg::T2, Reg::T2, 4);
    b.add(Reg::A5, Reg::S4, Reg::T2);
    for _ in 0..4 {
        b.ld(Reg::A5, Reg::A5, 8);
    }
    // Every 4th task allocates (free-list pop; the hot recurrence at a
    // fixed task distance).
    b.andi(Reg::T3, Reg::A3, 3);
    b.bne(Reg::T3, Reg::ZERO, "no_alloc95");
    b.ld(Reg::A1, Reg::S1, 0);
    b.ld(Reg::A2, Reg::A1, 8);
    b.sd(Reg::A2, Reg::S1, 0);
    b.sd(Reg::A7, Reg::A1, 0);
    // Free it again (push).
    b.ld(Reg::T2, Reg::S1, 0);
    b.sd(Reg::T2, Reg::A1, 8);
    b.sd(Reg::A1, Reg::S1, 0);
    b.label("no_alloc95");
    // Every 32nd task: a small GC sweep over 16 mark words.
    b.ld(Reg::A3, Reg::S1, 8);
    b.addi(Reg::A3, Reg::A3, 1);
    b.sd(Reg::A3, Reg::S1, 8);
    b.andi(Reg::T3, Reg::A3, 31);
    b.bne(Reg::T3, Reg::ZERO, "no_gc");
    for i in 0..16 {
        b.ld(Reg::T4, Reg::S2, i * 8);
        b.addi(Reg::T4, Reg::T4, 1);
        b.sd(Reg::T4, Reg::S2, i * 8);
    }
    b.label("no_gc");
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("li workload builds")
}

/// Blocked pixel transform: each task processes one 8-sample strip with
/// a butterfly of adds/shifts into a disjoint output strip; every 8th
/// task folds a checksum into a shared accumulator. Tasks are almost
/// entirely independent — the paper's ijpeg gains are moderate.
pub fn ijpeg(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_random(&mut b, "src", 1024, 256, 0x1e6);
    b.alloc("dst", 1024);
    b.alloc("jpgglobals", 1);
    b.la(Reg::S0, "src");
    b.la(Reg::S1, "dst");
    b.la(Reg::S3, "jpgglobals");
    b.li(Reg::A6, 0); // strip index
    b.li(Reg::T0, scale.iterations(12_000));
    b.label("task");
    b.task();
    b.andi(Reg::T1, Reg::A6, 127);
    b.slli(Reg::T1, Reg::T1, 6); // strip of 8 words
    b.add(Reg::T2, Reg::S0, Reg::T1);
    b.add(Reg::T3, Reg::S1, Reg::T1);
    // Butterfly: out[i] = in[i] + in[7-i]; out[7-i] = in[i] - in[7-i].
    for i in 0..4 {
        b.ld(Reg::A0, Reg::T2, i * 8);
        b.ld(Reg::A1, Reg::T2, (7 - i) * 8);
        b.add(Reg::A2, Reg::A0, Reg::A1);
        b.sub(Reg::A3, Reg::A0, Reg::A1);
        b.sd(Reg::A2, Reg::T3, i * 8);
        b.sd(Reg::A3, Reg::T3, (7 - i) * 8);
    }
    b.addi(Reg::A6, Reg::A6, 1);
    // Every 8th strip: fold into the shared checksum.
    b.andi(Reg::T4, Reg::A6, 7);
    b.bne(Reg::T4, Reg::ZERO, "no_sum");
    b.ld(Reg::T5, Reg::S3, 0);
    b.add(Reg::T5, Reg::T5, Reg::A2);
    b.sd(Reg::T5, Reg::S3, 0);
    b.label("no_sum");
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("ijpeg workload builds")
}

/// Symbol-table hashing: each task hashes a 4-"character" word through
/// an inner loop, read-modify-writes the bucket, and bumps a hot
/// operation counter.
pub fn perl(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    b.alloc("buckets", 512);
    b.alloc("perlglobals", 1);
    b.la(Reg::S0, "buckets");
    b.la(Reg::S1, "perlglobals");
    b.li(Reg::S5, crate::util::HASH_K);
    b.li(Reg::A6, 0x9e1); // task counter (offset by a seed)
    b.li(Reg::T0, scale.iterations(14_000));
    b.label("task");
    b.task();
    b.addi(Reg::A6, Reg::A6, 1);
    crate::util::task_hash(&mut b, Reg::A7, Reg::A6, Reg::S5, Reg::T1);
    // Hash 4 "characters" (bytes of the RNG word).
    b.li(Reg::A0, 5381);
    b.mv(Reg::A1, Reg::A7);
    b.li(Reg::T2, 4);
    b.label("hash_char");
    b.andi(Reg::T3, Reg::A1, 0xff);
    b.slli(Reg::T4, Reg::A0, 5);
    b.add(Reg::A0, Reg::A0, Reg::T4);
    b.add(Reg::A0, Reg::A0, Reg::T3);
    b.srli(Reg::A1, Reg::A1, 8);
    b.addi(Reg::T2, Reg::T2, -1);
    b.bne(Reg::T2, Reg::ZERO, "hash_char");
    // Bucket read-modify-write: the address depends on the hashed word,
    // so it resolves late (NEVER pays for it).
    b.andi(Reg::T5, Reg::A0, 511);
    b.slli(Reg::T5, Reg::T5, 3);
    b.add(Reg::T5, Reg::S0, Reg::T5);
    b.ld(Reg::A2, Reg::T5, 0);
    b.addi(Reg::A2, Reg::A2, 1);
    b.sd(Reg::A2, Reg::T5, 0);
    // Hot op counter: every 8th task (fixed distance).
    b.andi(Reg::T6, Reg::A6, 7);
    b.bne(Reg::T6, Reg::ZERO, "no_opcount");
    b.ld(Reg::A3, Reg::S1, 0);
    b.addi(Reg::A3, Reg::A3, 1);
    b.sd(Reg::A3, Reg::S1, 0);
    b.label("no_opcount");
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("perl workload builds")
}

/// Object database: each task updates a pseudo-random record and appends
/// to a transaction log through a shared log pointer (the hot
/// recurrence); every 4th task reads a recent log entry back (a
/// medium-distance edge).
pub fn vortex(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_random(&mut b, "records", 1024 * 2, 1 << 24, 0x0b);
    b.alloc("log", 512);
    b.alloc("vtxglobals", 1);
    b.la(Reg::S0, "records");
    b.la(Reg::S2, "log");
    b.la(Reg::S1, "vtxglobals");
    b.li(Reg::S5, crate::util::HASH_K);
    b.li(Reg::A6, 0x10b); // task counter (offset by a seed)
    b.li(Reg::T0, scale.iterations(12_000));
    b.label("task");
    b.task();
    b.addi(Reg::A6, Reg::A6, 1);
    crate::util::task_hash(&mut b, Reg::A7, Reg::A6, Reg::S5, Reg::T1);
    // Update a record field.
    b.srli(Reg::T2, Reg::A7, 8);
    b.andi(Reg::T2, Reg::T2, 1023);
    b.slli(Reg::T2, Reg::T2, 4); // 2-word records
    b.add(Reg::T2, Reg::S0, Reg::T2);
    b.ld(Reg::A0, Reg::T2, 0);
    b.addi(Reg::A0, Reg::A0, 7);
    b.sd(Reg::A0, Reg::T2, 0);
    // A second, independent record read (dilution).
    b.srli(Reg::T3, Reg::A7, 20);
    b.andi(Reg::T3, Reg::T3, 1023);
    b.slli(Reg::T3, Reg::T3, 4);
    b.add(Reg::T3, Reg::S0, Reg::T3);
    b.ld(Reg::A4, Reg::T3, 8);
    // Commit a transaction every 4th task: the hot log-pointer recurrence
    // plus the log write through the (late) loaded pointer value.
    b.andi(Reg::T4, Reg::A6, 3);
    b.bne(Reg::T4, Reg::ZERO, "no_commit");
    b.ld(Reg::A1, Reg::S1, 0);
    b.addi(Reg::A2, Reg::A1, 1);
    b.sd(Reg::A2, Reg::S1, 0);
    b.andi(Reg::A1, Reg::A1, 511);
    b.slli(Reg::A1, Reg::A1, 3);
    b.add(Reg::A1, Reg::S2, Reg::A1);
    b.sd(Reg::A0, Reg::A1, 0);
    b.label("no_commit");
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("vortex workload builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_emu::Emulator;

    #[test]
    fn go_alternates_task_types() {
        let p = go(Scale::Tiny);
        let mut heads = std::collections::HashSet::new();
        Emulator::new(&p)
            .run_with(|d| {
                if d.new_task {
                    heads.insert(d.pc);
                }
            })
            .unwrap();
        // Dispatch reaches all three task-type entry points (plus the
        // implicit first task at pc 0).
        assert!(heads.len() >= 3, "task heads: {heads:?}");
    }

    #[test]
    fn m88ksim_interprets_every_iteration() {
        let p = m88ksim(Scale::Tiny);
        let sum = Emulator::new(&p).run_into(&mut ()).unwrap();
        // fetch + 2 operand reads + writeback per task
        assert!(sum.loads >= 3 * (sum.tasks - 1));
        assert!(sum.stores >= sum.tasks - 1);
    }

    #[test]
    fn li_gc_burst_runs() {
        let p = li(Scale::Tiny);
        let sum = Emulator::new(&p).run_into(&mut ()).unwrap();
        // The GC path adds 32 memory ops every 32 tasks.
        let per_task = sum.instructions as f64 / sum.tasks as f64;
        assert!(per_task > 15.0, "per task {per_task}");
    }

    #[test]
    fn ijpeg_outputs_butterflies() {
        let p = ijpeg(Scale::Tiny);
        let mut e = Emulator::new(&p);
        e.run_into(&mut ()).unwrap();
        let src = p.symbol("src").unwrap();
        let dst = p.symbol("dst").unwrap();
        let in0 = e.state().mem.read_u64(src) as i64;
        let in7 = e.state().mem.read_u64(src + 56) as i64;
        let out0 = e.state().mem.read_u64(dst) as i64;
        assert_eq!(out0, in0.wrapping_add(in7));
    }

    #[test]
    fn perl_buckets_fill() {
        let p = perl(Scale::Tiny);
        let mut e = Emulator::new(&p);
        e.run_into(&mut ()).unwrap();
        let buckets = p.symbol("buckets").unwrap();
        let filled = (0..512)
            .filter(|i| e.state().mem.read_u64(buckets + i * 8) != 0)
            .count();
        assert!(filled > 100, "only {filled} buckets touched");
    }

    #[test]
    fn vortex_log_pointer_advances() {
        let p = vortex(Scale::Tiny);
        let mut e = Emulator::new(&p);
        let sum = e.run_into(&mut ()).unwrap();
        let ptr = e.state().mem.read_u64(p.symbol("vtxglobals").unwrap());
        // Commits are sampled at roughly one task in four.
        assert!(
            ptr > 0 && ptr < sum.tasks,
            "log ptr {ptr} of {} tasks",
            sum.tasks
        );
    }
}
