//! The SPECint92-substitute suite: compress, espresso, gcc, sc, xlisp.
//!
//! Each builder documents the dependence phenotype it reproduces and why
//! it stands in for its paper counterpart (see the crate docs for the
//! overall substitution argument).
//!
//! # Calibration
//!
//! Three properties make these programs behave like the paper's (rather
//! than like dependence-saturated microkernels):
//!
//! 1. **Dilution** — most dynamic loads are independent work (streaming
//!    buffers, pointer walks, metadata reads); the *hot* store→load edges
//!    fire on a hash-selected fraction of tasks, so blind speculation
//!    mis-speculates on a few percent of committed loads (the paper's
//!    regime), not on every task.
//! 2. **Late store addresses** — key stores compute their addresses from
//!    loaded/derived values, so refusing to speculate (NEVER) really does
//!    serialize execution, which is why blind speculation wins big in
//!    figure 5.
//! 3. **Path structure** — where the paper reports path-dependent
//!    dependences (compress), the paths are separate task types so the
//!    ESYNC predictor has task PCs to key on.

use crate::util::{alloc_linked_ring, alloc_random, loop_epilogue, task_hash, HASH_K};
use crate::{Builder, Scale, Suite, Workload};
use mds_isa::{Program, ProgramBuilder, Reg};

/// The five int92 workloads in the paper's order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "compress",
        suite: Suite::Int92,
        description: "LZW-style compressor: streaming I/O, hash-table probes, sampled \
                          global counters",
        phenotype: "few hot store->load edges on globals with hit/miss path-dependent \
                        dependences; table inserts resolve their addresses late",
        builder: Builder::Static(compress),
    },
    Workload {
        name: "espresso",
        suite: Suite::Int92,
        description: "logic minimizer: pointer walks over cube lists, ~100-instruction tasks",
        phenotype: "an intermittent result-index recurrence; large tasks make each \
                        mis-speculation expensive, so synchronization pays a lot",
        builder: Builder::Static(espresso),
    },
    Workload {
        name: "gcc",
        suite: Suite::Int92,
        description: "compiler: irregular IR-node rewriting across many code paths",
        phenotype: "many static dependence edges with poor temporal locality — the \
                        workload where even large DDCs keep missing",
        builder: Builder::Static(gcc),
    },
    Workload {
        name: "sc",
        suite: Suite::Int92,
        description: "spreadsheet: cell recalculation with interpreter overhead",
        phenotype: "neighbor-cell dependences at task distances 1 and 8, plus \
                        late-addressed writes to referenced cells that punish WAIT",
        builder: Builder::Static(sc),
    },
    Workload {
        name: "xlisp",
        suite: Suite::Int92,
        description: "lisp interpreter: list traversal with sampled cons-cell allocation",
        phenotype: "a scorching free-list-head recurrence firing on a quarter of the \
                        tasks, buried in independent pointer-chasing work",
        builder: Builder::Static(xlisp),
    },
];

/// LZW-flavored compressor kernel. Per task (one input symbol): stream
/// one word of private input to output (independent work), hash-probe a
/// 512-entry table, take the hit or miss path, and insert into the table
/// *last* through a multiplicative rehash — so the insert's address is
/// the latest-resolving store in the task. Counter updates are sampled
/// (1/8 of each path) so the hot global edges fire intermittently.
pub fn compress(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    b.alloc("htab", 512);
    b.alloc("pad0", 24); // stagger bank alignment between arrays
    b.alloc("globals", 4); // free_code, in_count, out_count, checksum
    b.alloc("pad1", 4);
    alloc_random(&mut b, "inbuf", 256, 1 << 16, 0xc0);
    b.alloc("pad2", 12);
    b.alloc("outbuf", 256);
    b.la(Reg::S0, "htab");
    b.la(Reg::S1, "globals");
    b.la(Reg::S2, "inbuf");
    b.la(Reg::S3, "outbuf");
    b.li(Reg::S5, 509); // prime modulus for the insert rehash
    b.li(Reg::A6, 0); // prefix
    b.li(Reg::A4, 0); // stream index
    b.li(Reg::T0, scale.iterations(40_000));
    b.label("task");
    b.task();
    // Read the next input word (independent streaming) and copy it out;
    // the input symbol comes from the *data*, as in the real compress.
    b.andi(Reg::T3, Reg::A4, 254);
    b.slli(Reg::T3, Reg::T3, 3);
    b.add(Reg::T4, Reg::S2, Reg::T3);
    b.ld(Reg::A0, Reg::T4, 0);
    b.ld(Reg::A1, Reg::T4, 8);
    b.add(Reg::A1, Reg::A0, Reg::A1);
    b.add(Reg::T4, Reg::S3, Reg::T3);
    b.sd(Reg::A1, Reg::T4, 0);
    b.addi(Reg::A4, Reg::A4, 1);
    b.xor(Reg::A7, Reg::A0, Reg::A4); // data-driven "entropy" word
    b.andi(Reg::T2, Reg::A7, 0x3f); // next input symbol (64-symbol alphabet)
                                    // key = prefix << 8 | symbol; probe at key % 509 so hits find what
                                    // the (late) insert below stored.
    b.slli(Reg::A5, Reg::A6, 8);
    b.or(Reg::A5, Reg::A5, Reg::T2);
    b.rem(Reg::T3, Reg::A5, Reg::S5);
    b.slli(Reg::T4, Reg::T3, 3);
    b.add(Reg::T4, Reg::S0, Reg::T4);
    b.ld(Reg::T5, Reg::T4, 0); // table probe
    b.li(Reg::A3, 0); // insert flag
    b.beq(Reg::T5, Reg::A5, "hit");
    // Miss path: remember to insert, sampled free_code bump.
    b.li(Reg::A3, 1);
    b.andi(Reg::T6, Reg::A7, 7);
    b.bne(Reg::T6, Reg::ZERO, "miss_nocount");
    b.ld(Reg::A2, Reg::S1, 0); // free_code (hot, sampled)
    b.addi(Reg::A2, Reg::A2, 1);
    b.sd(Reg::A2, Reg::S1, 0);
    b.label("miss_nocount");
    b.mv(Reg::A6, Reg::T2);
    b.j("cont");
    b.label("hit");
    b.andi(Reg::A6, Reg::T5, 0x3f); // follow the chain
    b.andi(Reg::T6, Reg::A7, 7);
    b.bne(Reg::T6, Reg::ZERO, "hit_nocount");
    b.ld(Reg::A2, Reg::S1, 8); // in_count (hot, sampled)
    b.addi(Reg::A2, Reg::A2, 1);
    b.sd(Reg::A2, Reg::S1, 8);
    b.label("hit_nocount");
    b.label("cont");
    // Checksum: shared by both paths, sampled at 1/16.
    b.andi(Reg::T6, Reg::A7, 15);
    b.bne(Reg::T6, Reg::ZERO, "no_cksum");
    b.ld(Reg::A2, Reg::S1, 24);
    b.xor(Reg::A2, Reg::A2, Reg::A5);
    b.sd(Reg::A2, Reg::S1, 24);
    b.label("no_cksum");
    // The table insert happens LAST, through a multiplicative rehash of
    // the key — its address is the latest-resolving store in the task,
    // which is what makes NEVER (wait for all store addresses) expensive.
    b.beq(Reg::A3, Reg::ZERO, "no_insert");
    b.rem(Reg::T4, Reg::A5, Reg::S5); // modulo-by-prime: 12-cycle address
    b.slli(Reg::T4, Reg::T4, 3);
    b.add(Reg::T4, Reg::S0, Reg::T4);
    b.sd(Reg::A5, Reg::T4, 0);
    b.label("no_insert");
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("compress workload builds")
}

/// Cube-list minimizer kernel. Per task (~100 instructions): walk 12
/// nodes of a linked ring (independent loads), store the folded result to
/// a slot *addressed by the result itself* (a late-resolving store that
/// punishes NEVER), and — on a quarter of the tasks — read-modify-write
/// the shared result index (the intermittent hot recurrence).
pub fn espresso(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_linked_ring(&mut b, "cubes", 64, 3, 2, 0xe5);
    b.alloc("resglobals", 1); // shared result count
    b.alloc("results", 256);
    b.la(Reg::S2, "cubes");
    b.la(Reg::S3, "resglobals");
    b.la(Reg::S4, "results");
    b.li(Reg::S5, HASH_K);
    b.li(Reg::S6, 3);
    b.li(Reg::A6, 0); // task counter
    b.li(Reg::A3, 0); // claim phase counter (mod 3)
    b.li(Reg::T0, scale.iterations(8_000));
    b.label("task");
    b.task();
    // Walk start derived from the task counter (no serial walker chain).
    b.addi(Reg::A6, Reg::A6, 1);
    task_hash(&mut b, Reg::T1, Reg::A6, Reg::S5, Reg::T2);
    b.andi(Reg::A2, Reg::T1, 63);
    b.slli(Reg::T2, Reg::A2, 3);
    b.slli(Reg::T3, Reg::A2, 4);
    b.add(Reg::T2, Reg::T2, Reg::T3); // index * 24 (3-word nodes)
    b.add(Reg::A5, Reg::S2, Reg::T2);
    // Every 3rd task claims the shared count: the load happens HERE
    // (task start) and the store after the walk — a split
    // read-modify-write spanning ~90 instructions at a fixed task
    // distance of 3 (inside even a 4-stage window), the paper's
    // expensive espresso recurrence.
    b.addi(Reg::A3, Reg::A3, 1);
    b.bne(Reg::A3, Reg::S6, "no_claim_ld");
    b.mv(Reg::A3, Reg::ZERO);
    b.ld(Reg::T5, Reg::S3, 0);
    b.label("no_claim_ld");
    b.li(Reg::A0, -1); // AND-accumulator
    b.li(Reg::A1, 0); // OR-accumulator
    b.li(Reg::T2, 12); // nodes per task
    b.label("walk");
    b.ld(Reg::T3, Reg::A5, 0);
    b.ld(Reg::T4, Reg::A5, 8);
    b.and(Reg::A0, Reg::A0, Reg::T3);
    b.or(Reg::A1, Reg::A1, Reg::T4);
    b.xor(Reg::A0, Reg::A0, Reg::A1);
    b.ld(Reg::A5, Reg::A5, 16); // follow the ring
    b.addi(Reg::T2, Reg::T2, -1);
    b.bne(Reg::T2, Reg::ZERO, "walk");
    // Result slot addressed by the folded value: the store address is not
    // known until the walk completes.
    b.andi(Reg::T6, Reg::A0, 255);
    b.slli(Reg::T6, Reg::T6, 3);
    b.add(Reg::T6, Reg::S4, Reg::T6);
    b.sd(Reg::A0, Reg::T6, 0);
    // Publish the claimed count (second half of the split RMW). The
    // phase counter is zero exactly on claiming tasks.
    b.bne(Reg::A3, Reg::ZERO, "no_claim_st");
    b.addi(Reg::T5, Reg::T5, 1);
    b.sd(Reg::T5, Reg::S3, 0);
    b.label("no_claim_st");
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("espresso workload builds")
}

/// IR-rewriting kernel. Per task: read three operand nodes early through
/// three static load PCs, compute through a multiply (so the rewritten
/// value lands late), then dispatch on the node kind to one of eight
/// distinct rewrite paths (eight static store PCs). 3 loads × 8 stores
/// over a small random node pool yields the paper's gcc phenotype: a
/// large static dependence set with poor temporal locality.
pub fn gcc(scale: Scale) -> Program {
    gcc_kernel(scale, 64, 3, 0x19cc)
}

/// The parameterized IR-rewriting kernel behind [`gcc`] (and the larger
/// `gcc95` variant in the SPEC95 suite): `nodes` must be a power of two.
///
/// # Panics
///
/// Panics if `nodes` is not a power of two.
pub fn gcc_kernel(scale: Scale, nodes: usize, rounds: i32, seed: i32) -> Program {
    assert!(nodes.is_power_of_two(), "node pool must be a power of two");
    let _ = rounds; // operand loads are unrolled below
    let mut b = ProgramBuilder::new();
    alloc_random(&mut b, "nodes", nodes * 4, 1 << 20, 0x9cc);
    alloc_random(&mut b, "strtab", 1024, 1 << 12, 0x9cd);
    b.alloc("gccglobals", 1);
    b.la(Reg::S0, "nodes");
    b.la(Reg::S1, "gccglobals");
    b.la(Reg::S2, "strtab");
    b.li(Reg::S5, HASH_K);
    b.li(Reg::A6, seed); // task counter (seed offsets the sequence)
    b.li(Reg::T0, scale.iterations(12_000));
    let mask = (nodes - 1) as i32;
    b.label("task");
    b.task();
    b.addi(Reg::A6, Reg::A6, 1);
    task_hash(&mut b, Reg::A7, Reg::A6, Reg::S5, Reg::T1);
    // Independent dilution: two string-table reads.
    b.andi(Reg::T1, Reg::A6, 1023);
    b.slli(Reg::T1, Reg::T1, 3);
    b.add(Reg::T1, Reg::S2, Reg::T1);
    b.ld(Reg::A4, Reg::T1, 0);
    b.xori(Reg::T1, Reg::A6, 512);
    b.andi(Reg::T1, Reg::T1, 1023);
    b.slli(Reg::T1, Reg::T1, 3);
    b.add(Reg::T1, Reg::S2, Reg::T1);
    b.ld(Reg::A5, Reg::T1, 0);
    // Read three operand nodes EARLY (three static load PCs)...
    b.srli(Reg::T3, Reg::A7, 3);
    b.andi(Reg::T3, Reg::T3, mask);
    b.slli(Reg::T3, Reg::T3, 5);
    b.add(Reg::T3, Reg::S0, Reg::T3);
    b.ld(Reg::A0, Reg::T3, 0);
    b.srli(Reg::T4, Reg::A7, 13);
    b.andi(Reg::T4, Reg::T4, mask);
    b.slli(Reg::T4, Reg::T4, 5);
    b.add(Reg::T4, Reg::S0, Reg::T4);
    b.ld(Reg::A1, Reg::T4, 0);
    // The third operand's address is chased off the SECOND node's loaded
    // value — so the rewrite store below resolves its address late,
    // punishing NEVER.
    b.xor(Reg::T5, Reg::A7, Reg::A1);
    b.andi(Reg::T5, Reg::T5, mask);
    b.slli(Reg::T5, Reg::T5, 5);
    b.add(Reg::T5, Reg::S0, Reg::T5);
    b.ld(Reg::A2, Reg::T5, 0);
    // ...compute through a multiply (so the rewritten value lands LATE)...
    b.add(Reg::A3, Reg::A0, Reg::A1);
    b.xor(Reg::A3, Reg::A3, Reg::A2);
    b.add(Reg::A3, Reg::A3, Reg::A4);
    b.xor(Reg::A3, Reg::A3, Reg::A5);
    b.mul(Reg::A3, Reg::A3, Reg::A3);
    b.srli(Reg::A3, Reg::A3, 7);
    // ...then dispatch on the node kind to one of eight distinct rewrite
    // paths (eight static store PCs).
    b.andi(Reg::T2, Reg::A7, 7);
    for kind in 0..8 {
        let path = format!("path{kind}");
        if kind < 7 {
            b.beq(Reg::T2, Reg::ZERO, path.as_str());
            b.addi(Reg::T2, Reg::T2, -1);
        } else {
            b.j(path.as_str());
        }
    }
    for kind in 0..8u8 {
        b.label(&format!("path{kind}"));
        // Most rewrite paths write the chased node (late address); a
        // couple write the directly-indexed ones.
        let target = match kind {
            6 => Reg::T3,
            7 => Reg::T4,
            _ => Reg::T5,
        };
        match kind / 3 {
            0 => b.addi(Reg::A3, Reg::A3, kind as i32 + 1),
            1 => b.xori(Reg::A3, Reg::A3, 0x5a5),
            _ => b.ori(Reg::A3, Reg::A3, 1),
        };
        b.sd(Reg::A3, target, 0);
        b.j("joined");
    }
    b.label("joined");
    // Every 16th task touches a shared statistics word.
    b.andi(Reg::T6, Reg::A7, 15);
    b.bne(Reg::T6, Reg::ZERO, "skipstat");
    b.ld(Reg::T6, Reg::S1, 0);
    b.addi(Reg::T6, Reg::T6, 1);
    b.sd(Reg::T6, Reg::S1, 0);
    b.label("skipstat");
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("gcc workload builds")
}

/// Spreadsheet recalculation kernel. Per task: interpreter-style metadata
/// reads (independent), a formula, and the cell store *through a loaded
/// cell pointer* (every task's store address resolves late — the behavior
/// that makes refusing to speculate expensive). One task in eight is a
/// dependent formula that reads the left neighbor (task distance 1) and
/// the row above (task distance 8).
pub fn sc(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    let cells = alloc_random(&mut b, "cells", 512, 1000, 0x5c);
    b.alloc("scpad", 12); // stagger bank alignment
    alloc_random(&mut b, "meta", 256, 1 << 8, 0x5d);
    b.alloc("scpad2", 4);
    // Cell pointer table: cell i is written through celltab[i], as a real
    // spreadsheet writes through its cell objects.
    let ptrs: Vec<u64> = (0..512).map(|i| cells + i * 8).collect();
    b.alloc_init("celltab", &ptrs);
    b.la(Reg::S0, "cells");
    b.la(Reg::S1, "meta");
    b.la(Reg::S2, "celltab");
    b.li(Reg::S5, HASH_K);
    b.li(Reg::A4, 16); // current cell index
    b.li(Reg::T0, scale.iterations(24_000));
    b.label("task");
    b.task();
    // Interpreter overhead: two independent metadata reads.
    b.andi(Reg::T1, Reg::A4, 255);
    b.slli(Reg::T1, Reg::T1, 3);
    b.add(Reg::T1, Reg::S1, Reg::T1);
    b.ld(Reg::A2, Reg::T1, 0);
    b.xori(Reg::T2, Reg::A4, 128);
    b.andi(Reg::T2, Reg::T2, 255);
    b.slli(Reg::T2, Reg::T2, 3);
    b.add(Reg::T2, Reg::S1, Reg::T2);
    b.ld(Reg::A3, Reg::T2, 0);
    b.add(Reg::A2, Reg::A2, Reg::A3);
    // Formula kind from a task-counter hash: half the cells reference
    // their neighbors (the dependent kind), half are literal formulas.
    task_hash(&mut b, Reg::T3, Reg::A4, Reg::S5, Reg::T6);
    b.andi(Reg::T4, Reg::T3, 7);
    b.bne(Reg::T4, Reg::ZERO, "literal_formula");
    // Dependent kind: read the left neighbor (task distance 1) and the
    // row above (task distance 8), late in the task.
    b.addi(Reg::T1, Reg::A4, -1);
    b.andi(Reg::T1, Reg::T1, 511);
    b.slli(Reg::T1, Reg::T1, 3);
    b.add(Reg::T1, Reg::S0, Reg::T1);
    b.ld(Reg::A0, Reg::T1, 0);
    b.addi(Reg::T2, Reg::A4, -8);
    b.andi(Reg::T2, Reg::T2, 511);
    b.slli(Reg::T2, Reg::T2, 3);
    b.add(Reg::T2, Reg::S0, Reg::T2);
    b.ld(Reg::A1, Reg::T2, 0);
    b.mul(Reg::A2, Reg::A0, Reg::A1);
    b.srai(Reg::A2, Reg::A2, 5);
    b.j("store_cell");
    b.label("literal_formula");
    b.mv(Reg::A0, Reg::A2);
    b.mv(Reg::A1, Reg::A3);
    b.add(Reg::A2, Reg::A2, Reg::A3);
    b.addi(Reg::A2, Reg::A2, 1);
    b.label("store_cell");
    // Write the cell through its pointer, after a bounds clamp on the
    // computed value: the store address depends on both a loaded pointer
    // and the formula result, so it resolves at the end of the task.
    b.andi(Reg::T5, Reg::A4, 511);
    b.slli(Reg::T5, Reg::T5, 3);
    b.add(Reg::T5, Reg::S2, Reg::T5);
    b.ld(Reg::T5, Reg::T5, 0);
    b.slt(Reg::T6, Reg::A2, Reg::ZERO); // clamp slot for negative results
    b.slli(Reg::T6, Reg::T6, 3);
    b.add(Reg::T5, Reg::T5, Reg::T6);
    b.sd(Reg::A2, Reg::T5, 0);
    b.addi(Reg::A4, Reg::A4, 1);
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("sc workload builds")
}

/// Lisp-interpreter kernel. Per task: a five-hop pointer traversal over
/// the cell arena (independent, chained loads) and a helper call through
/// the stack; a quarter of the tasks additionally allocate a cons cell —
/// the scorching free-list-head recurrence (two loads and a store on one
/// address) plus a late-addressed payload write.
pub fn xlisp(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    let cells = alloc_linked_ring(&mut b, "cells", 128, 2, 1, 0x115);
    b.alloc_init("xlglobals", &[cells]); // free-list head
    b.alloc("intern", 64);
    b.la(Reg::S1, "xlglobals");
    b.la(Reg::S2, "cells");
    b.la(Reg::S3, "intern");
    b.li(Reg::S5, HASH_K);
    b.li(Reg::S6, 3);
    b.li(Reg::A6, 0); // task counter
    b.li(Reg::A4, 0); // allocation phase counter (mod 3)
    b.li(Reg::T0, scale.iterations(16_000));
    b.j("task");

    // fn mix(a0) -> a0: squares through the stack (call/return traffic).
    b.label("mix");
    b.addi(Reg::SP, Reg::SP, -16);
    b.sd(Reg::RA, Reg::SP, 0);
    b.sd(Reg::A0, Reg::SP, 8);
    b.mul(Reg::A0, Reg::A0, Reg::A0);
    b.ld(Reg::T6, Reg::SP, 8);
    b.add(Reg::A0, Reg::A0, Reg::T6);
    b.ld(Reg::RA, Reg::SP, 0);
    b.addi(Reg::SP, Reg::SP, 16);
    b.ret();

    b.label("task");
    b.task();
    b.addi(Reg::A6, Reg::A6, 1);
    task_hash(&mut b, Reg::T1, Reg::A6, Reg::S5, Reg::T2);
    // Every 3rd task allocates a cell. The hot free-list-head LOAD
    // happens here at the top of the task; the balancing head STORE
    // happens at the bottom — a split read-modify-write at a fixed task
    // distance of 3, the regular recurrence the paper's distance-tagged
    // synchronization captures perfectly (and blind speculation
    // violates, because the producer store lands ~30 instructions into
    // its task).
    b.addi(Reg::A4, Reg::A4, 1);
    b.bne(Reg::A4, Reg::S6, "no_alloc_ld");
    b.mv(Reg::A4, Reg::ZERO);
    b.ld(Reg::A1, Reg::S1, 0); // head (hot load, early)
    b.label("no_alloc_ld");
    // Independent work: five-hop traversal from a hashed start cell.
    b.andi(Reg::T2, Reg::T1, 127);
    b.slli(Reg::T2, Reg::T2, 4); // 2-word cells
    b.add(Reg::A5, Reg::S2, Reg::T2);
    for _ in 0..5 {
        b.ld(Reg::A5, Reg::A5, 8); // follow cdr
    }
    b.ld(Reg::A0, Reg::A5, 0); // read the car at the end of the chain
    b.call("mix");
    // Intern the result: the store address is a hash of the *computed*
    // value, so it resolves at the end of the task (late for NEVER).
    b.andi(Reg::T5, Reg::A0, 63);
    b.slli(Reg::T5, Reg::T5, 3);
    b.add(Reg::T5, Reg::S3, Reg::T5);
    b.sd(Reg::A0, Reg::T5, 0);
    // Allocation epilogue: pop the cell, fill it, push it back.
    b.bne(Reg::A4, Reg::ZERO, "no_alloc_st");
    b.ld(Reg::A2, Reg::A1, 8); // cdr -> next free
    b.sd(Reg::A0, Reg::A1, 0); // payload write (late address)
    b.sd(Reg::A2, Reg::A1, 8); // relink through itself
    b.sd(Reg::A1, Reg::S1, 0); // head store (hot, late)
    b.label("no_alloc_st");
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("xlisp workload builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_emu::{Emulator, Trace};
    use mds_ooo::{WindowAnalyzer, WindowConfig};

    fn profile(p: &Program) -> mds_ooo::WindowReport {
        let a = WindowAnalyzer::new(WindowConfig {
            window_sizes: vec![32, 256],
            ddc_sizes: vec![64],
        });
        a.analyze(Trace::capture(p).unwrap().replay_plan())
    }

    #[test]
    fn compress_has_hot_dependences_with_strong_locality() {
        let p = compress(Scale::Small);
        let r = profile(&p);
        let w = r.for_window(256).unwrap();
        assert!(w.misspeculations > 1000, "misspecs: {}", w.misspeculations);
        // Few static edges responsible for nearly everything.
        assert!(
            w.edges_covering(0.999) <= 64,
            "edges: {}",
            w.edges_covering(0.999)
        );
        assert!(w.ddc_miss_rate(64).unwrap().value() < 10.0);
    }

    #[test]
    fn compress_takes_both_paths() {
        let p = compress(Scale::Tiny);
        let mut e = Emulator::new(&p);
        e.run_into(&mut ()).unwrap();
        let globals = p.symbol("globals").unwrap();
        let free_code = e.state().mem.read_u64(globals);
        let in_count = e.state().mem.read_u64(globals + 8);
        assert!(free_code > 0, "no hash misses counted");
        assert!(in_count > 0, "no hash hits counted");
    }

    #[test]
    fn espresso_tasks_are_large() {
        let p = espresso(Scale::Tiny);
        let sum = Emulator::new(&p).run_into(&mut ()).unwrap();
        let per_task = sum.instructions as f64 / sum.tasks as f64;
        assert!((60.0..220.0).contains(&per_task), "task size {per_task}");
    }

    #[test]
    fn gcc_has_many_static_edges_and_poor_locality() {
        // Collisions are probabilistic; a full Small run gives the edge
        // census enough samples.
        let gcc_p = gcc(Scale::Small);
        let comp_p = compress(Scale::Small);
        let g = profile(&gcc_p);
        let c = profile(&comp_p);
        let g256 = g.for_window(256).unwrap();
        let c256 = c.for_window(256).unwrap();
        assert!(
            g256.static_edges() > 2 * c256.static_edges(),
            "gcc {} vs compress {}",
            g256.static_edges(),
            c256.static_edges()
        );
    }

    #[test]
    fn sc_dependences_grow_with_window() {
        let p = sc(Scale::Tiny);
        let r = profile(&p);
        let near = r.for_window(32).unwrap().misspeculations;
        let far = r.for_window(256).unwrap().misspeculations;
        assert!(far > near, "far {far} vs near {near}");
    }

    #[test]
    fn xlisp_free_list_stays_consistent() {
        let p = xlisp(Scale::Tiny);
        let mut e = Emulator::new(&p);
        e.run_into(&mut ()).unwrap();
        // The free-list head must still point into the cell arena.
        let head = e.state().mem.read_u64(p.symbol("xlglobals").unwrap());
        let cells = p.symbol("cells").unwrap();
        assert!(head >= cells && head < cells + 128 * 16, "head {head:#x}");
    }

    #[test]
    fn hot_edges_fire_on_a_fraction_of_loads() {
        // The dilution calibration: blind speculation should mis-speculate
        // on a few percent of committed loads, as in the paper — not on
        // every task.
        use mds_core::Policy;
        use mds_multiscalar::{MsConfig, Multiscalar};
        for (name, build) in [
            ("compress", compress as fn(Scale) -> Program),
            ("espresso", espresso),
            ("sc", sc),
            ("xlisp", xlisp),
        ] {
            let p = build(Scale::Tiny);
            let r = Multiscalar::new(MsConfig::paper(4, Policy::Always))
                .run(&p)
                .unwrap();
            let rate = r.misspec_per_committed_load();
            assert!(
                rate > 0.001 && rate < 0.25,
                "{name}: misspec/load {rate} out of the calibrated range"
            );
        }
    }
}
