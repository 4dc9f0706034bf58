//! The SPECfp95-substitute suite: tomcatv, swim, su2cor, hydro2d, mgrid,
//! applu, turb3d, fpppp, apsi, wave5 (the paper's figure 7, FP half).

use crate::util::{loop_epilogue, xorshift};
use crate::{Builder, Scale, Suite, Workload};
use mds_harness::rng::Rng;
use mds_isa::{Program, ProgramBuilder, Reg};

/// The ten SPECfp95 workloads in the paper's order.
pub const WORKLOADS: [Workload; 10] = [
    Workload {
        name: "tomcatv",
        suite: Suite::Spec95Fp,
        description: "mesh generation: relaxation sweeps with loop-carried recurrences",
        phenotype: "a distance-1 FP recurrence through memory — exactly what the \
                        synchronization mechanism captures (near-ideal gains)",
        builder: Builder::Static(tomcatv),
    },
    Workload {
        name: "swim",
        suite: Suite::Spec95Fp,
        description: "shallow-water model: wide array sweeps",
        phenotype: "pure streaming with no cross-task dependences; the memory system \
                        saturates and dependence speculation has nothing to gain",
        builder: Builder::Static(swim),
    },
    Workload {
        name: "su2cor",
        suite: Suite::Spec95Fp,
        description: "quantum physics: large lattice updates in very large tasks",
        phenotype: "a dependence working set larger than the MDPT inside big tasks — \
                        the mechanism falls short of ideal",
        builder: Builder::Static(su2cor),
    },
    Workload {
        name: "hydro2d",
        suite: Suite::Spec95Fp,
        description: "hydrodynamics: stencil reads into private rows",
        phenotype: "read-mostly tasks with rare shared writes — little to gain",
        builder: Builder::Static(hydro2d),
    },
    Workload {
        name: "mgrid",
        suite: Suite::Spec95Fp,
        description: "multigrid solver: 3D gather sweeps",
        phenotype: "bus-bound gathers; another saturated configuration",
        builder: Builder::Static(mgrid),
    },
    Workload {
        name: "applu",
        suite: Suite::Spec95Fp,
        description: "SSOR solver: blocked forward substitution",
        phenotype: "short-distance FP recurrences (with divides) captured nearly \
                        perfectly",
        builder: Builder::Static(applu),
    },
    Workload {
        name: "turb3d",
        suite: Suite::Spec95Fp,
        description: "turbulence: FFT-style butterflies on private buffers",
        phenotype: "independent compute-heavy tasks; FP units saturate",
        builder: Builder::Static(turb3d),
    },
    Workload {
        name: "fpppp",
        suite: Suite::Spec95Fp,
        description: "quantum chemistry: enormous (~800-instruction) tasks",
        phenotype: "a dense wavefront of fixed-distance dependences inside huge tasks: \
                        every mis-speculation costs ~800 instructions, so synchronization \
                        delivers the suite's largest win",
        builder: Builder::Static(fpppp),
    },
    Workload {
        name: "apsi",
        suite: Suite::Spec95Fp,
        description: "mesoscale weather: mixed recurrences",
        phenotype: "half the tasks carry a distance-2 FP recurrence, half are \
                        independent — moderate gains",
        builder: Builder::Static(apsi),
    },
    Workload {
        name: "wave5",
        suite: Suite::Spec95Fp,
        description: "plasma simulation: particle scatter/gather updates",
        phenotype: "pseudo-random particle collisions produce medium-frequency, \
                        medium-locality dependences",
        builder: Builder::Static(wave5),
    },
];

fn alloc_fp(b: &mut ProgramBuilder, name: &str, words: usize, seed: u64) -> u64 {
    let mut rng = Rng::seed_from_u64(seed);
    let values: Vec<u64> = (0..words)
        .map(|_| f64::to_bits(rng.gen_range(0.5..2.0)))
        .collect();
    b.alloc_init(name, &values)
}

/// Relaxation sweep: task k computes `a[k] = 0.25*(a[k-1] + 2*a[k-1])`
/// style smoothing over a ring, where `a[k-1]` was produced by the
/// previous task — the canonical captured recurrence.
pub fn tomcatv(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_fp(&mut b, "mesh", 1024, 0x70);
    b.la(Reg::S0, "mesh");
    b.li(Reg::A4, 1); // element index
    b.li(Reg::T0, scale.iterations(20_000));
    b.label("task");
    b.task();
    // prev = mesh[(i-1) & 1023] (written by the previous task)
    b.addi(Reg::T1, Reg::A4, -1);
    b.andi(Reg::T1, Reg::T1, 1023);
    b.slli(Reg::T1, Reg::T1, 3);
    b.add(Reg::T1, Reg::S0, Reg::T1);
    b.fld(Reg::f(1), Reg::T1, 0);
    b.fadd(Reg::f(2), Reg::f(1), Reg::f(1));
    b.fadd(Reg::f(2), Reg::f(2), Reg::f(1));
    b.fmul(Reg::f(3), Reg::f(2), Reg::f(1));
    b.fadd(Reg::f(3), Reg::f(3), Reg::f(1));
    b.andi(Reg::T2, Reg::A4, 1023);
    b.slli(Reg::T2, Reg::T2, 3);
    b.add(Reg::T2, Reg::S0, Reg::T2);
    b.fsd(Reg::f(3), Reg::T2, 0);
    b.addi(Reg::A4, Reg::A4, 1);
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("tomcatv workload builds")
}

/// Streaming sweep: each task reads 8 elements of one array, adds a
/// constant field, and writes 8 elements of a disjoint array. No
/// cross-task dependences; the bus is the bottleneck.
pub fn swim(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_fp(&mut b, "u", 4096, 0x51);
    b.alloc("v", 4096);
    b.la(Reg::S0, "u");
    b.la(Reg::S1, "v");
    b.li(Reg::A4, 0); // strip index
    b.li(Reg::T0, scale.iterations(10_000));
    b.label("task");
    b.task();
    b.andi(Reg::T1, Reg::A4, 511);
    b.slli(Reg::T1, Reg::T1, 6);
    b.add(Reg::T2, Reg::S0, Reg::T1);
    b.add(Reg::T3, Reg::S1, Reg::T1);
    for i in 0..8 {
        b.fld(Reg::f(1), Reg::T2, i * 8);
        b.fadd(Reg::f(2), Reg::f(1), Reg::f(1));
        b.fsd(Reg::f(2), Reg::T3, i * 8);
    }
    b.addi(Reg::A4, Reg::A4, 1);
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("swim workload builds")
}

/// Lattice updates in large tasks: each task read-modify-writes 12
/// pseudo-random lattice sites through 12 *distinct static code paths*
/// (unrolled), so the dynamic dependence working set (~144 edges) exceeds
/// a 64-entry MDPT.
pub fn su2cor(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_fp(&mut b, "lattice", 512, 0x52);
    b.la(Reg::S0, "lattice");
    b.li(Reg::S5, crate::util::HASH_K);
    b.li(Reg::A6, 0x152); // task counter (offset by a seed)
    b.li(Reg::T0, scale.iterations(3_000));
    b.label("task");
    b.task();
    b.addi(Reg::A6, Reg::A6, 1);
    crate::util::task_hash(&mut b, Reg::A7, Reg::A6, Reg::S5, Reg::T1);
    for site in 0..12 {
        // Each unrolled site update is its own static load/store pair.
        xorshift(&mut b, Reg::A7, Reg::T1);
        b.srli(Reg::T2, Reg::A7, 5);
        b.andi(Reg::T2, Reg::T2, 511);
        b.slli(Reg::T2, Reg::T2, 3);
        b.add(Reg::T2, Reg::S0, Reg::T2);
        b.fld(Reg::f(1), Reg::T2, 0);
        match site % 3 {
            0 => b.fadd(Reg::f(2), Reg::f(1), Reg::f(1)),
            1 => b.fmul(Reg::f(2), Reg::f(1), Reg::f(1)),
            _ => b.fsub(Reg::f(2), Reg::f(1), Reg::f(0)),
        };
        b.fsd(Reg::f(2), Reg::T2, 0);
    }
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("su2cor workload builds")
}

/// Stencil reads into a private output row; only one shared write per 32
/// tasks.
pub fn hydro2d(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_fp(&mut b, "grid", 2048, 0x42);
    b.alloc("row", 64);
    b.alloc("hglobals", 1);
    b.la(Reg::S0, "grid");
    b.la(Reg::S1, "row");
    b.la(Reg::S2, "hglobals");
    b.li(Reg::A4, 0);
    b.li(Reg::T0, scale.iterations(10_000));
    b.label("task");
    b.task();
    b.andi(Reg::T1, Reg::A4, 2040);
    b.slli(Reg::T1, Reg::T1, 3);
    b.add(Reg::T1, Reg::S0, Reg::T1);
    b.fld(Reg::f(1), Reg::T1, 0);
    b.fld(Reg::f(2), Reg::T1, 8);
    b.fld(Reg::f(3), Reg::T1, 16);
    b.fadd(Reg::f(4), Reg::f(1), Reg::f(2));
    b.fadd(Reg::f(4), Reg::f(4), Reg::f(3));
    b.andi(Reg::T2, Reg::A4, 63);
    b.slli(Reg::T2, Reg::T2, 3);
    b.add(Reg::T2, Reg::S1, Reg::T2);
    b.fsd(Reg::f(4), Reg::T2, 0);
    b.addi(Reg::A4, Reg::A4, 1);
    b.andi(Reg::T3, Reg::A4, 31);
    b.bne(Reg::T3, Reg::ZERO, "no_share");
    b.fld(Reg::f(5), Reg::S2, 0);
    b.fadd(Reg::f(5), Reg::f(5), Reg::f(4));
    b.fsd(Reg::f(5), Reg::S2, 0);
    b.label("no_share");
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("hydro2d workload builds")
}

/// 3D-style gather: each task reads 16 spread-out elements (guaranteed
/// cache misses) and writes one private result — bus-bound.
pub fn mgrid(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_fp(&mut b, "vol", 8192, 0x33);
    b.alloc("res", 1024);
    b.la(Reg::S0, "vol");
    b.la(Reg::S1, "res");
    b.li(Reg::A4, 0);
    b.li(Reg::T0, scale.iterations(6_000));
    b.label("task");
    b.task();
    b.fmov(Reg::f(4), Reg::f(0));
    for i in 0..16 {
        // Stride of 67 words scatters the gather across blocks and banks.
        let off = ((i * 67) % 1024) * 8;
        b.andi(Reg::T1, Reg::A4, 4095);
        b.slli(Reg::T1, Reg::T1, 3);
        b.add(Reg::T1, Reg::S0, Reg::T1);
        b.fld(Reg::f(1), Reg::T1, off);
        b.fadd(Reg::f(4), Reg::f(4), Reg::f(1));
    }
    b.andi(Reg::T2, Reg::A4, 1023);
    b.slli(Reg::T2, Reg::T2, 3);
    b.add(Reg::T2, Reg::S1, Reg::T2);
    b.fsd(Reg::f(4), Reg::T2, 0);
    b.addi(Reg::A4, Reg::A4, 37);
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("mgrid workload builds")
}

/// Forward substitution: a distance-1 recurrence with an FP divide in
/// the loop — high mis-speculation cost, fully captured by the MDPT.
pub fn applu(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_fp(&mut b, "diag", 512, 0x1b);
    alloc_fp(&mut b, "rhs", 512, 0x1c);
    b.la(Reg::S0, "diag");
    b.la(Reg::S1, "rhs");
    b.li(Reg::A4, 1);
    b.li(Reg::T0, scale.iterations(12_000));
    b.label("task");
    b.task();
    b.addi(Reg::T1, Reg::A4, -1);
    b.andi(Reg::T1, Reg::T1, 511);
    b.slli(Reg::T1, Reg::T1, 3);
    b.add(Reg::T1, Reg::S1, Reg::T1);
    b.fld(Reg::f(1), Reg::T1, 0); // rhs[i-1], written by previous task
    b.andi(Reg::T2, Reg::A4, 511);
    b.slli(Reg::T2, Reg::T2, 3);
    b.add(Reg::T3, Reg::S0, Reg::T2);
    b.fld(Reg::f(2), Reg::T3, 0); // diag[i] (read-only)
    b.fdiv(Reg::f(3), Reg::f(1), Reg::f(2));
    b.fadd(Reg::f(3), Reg::f(3), Reg::f(2));
    b.add(Reg::T4, Reg::S1, Reg::T2);
    b.fsd(Reg::f(3), Reg::T4, 0); // rhs[i]
    b.addi(Reg::A4, Reg::A4, 1);
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("applu workload builds")
}

/// FFT-style butterflies on a private 16-word buffer per task (the
/// buffer rotates over a pool, far wider than the task window).
pub fn turb3d(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_fp(&mut b, "buf", 4096, 0x3d);
    b.la(Reg::S0, "buf");
    b.li(Reg::A4, 0);
    b.li(Reg::T0, scale.iterations(8_000));
    b.label("task");
    b.task();
    b.andi(Reg::T1, Reg::A4, 255);
    b.slli(Reg::T1, Reg::T1, 7); // 16-word private strips
    b.add(Reg::T1, Reg::S0, Reg::T1);
    for i in 0..4 {
        b.fld(Reg::f(1), Reg::T1, i * 16);
        b.fld(Reg::f(2), Reg::T1, i * 16 + 8);
        b.fadd(Reg::f(3), Reg::f(1), Reg::f(2));
        b.fsub(Reg::f(4), Reg::f(1), Reg::f(2));
        b.fmul(Reg::f(3), Reg::f(3), Reg::f(3));
        b.fmul(Reg::f(4), Reg::f(4), Reg::f(4));
        b.fsd(Reg::f(3), Reg::T1, i * 16);
        b.fsd(Reg::f(4), Reg::T1, i * 16 + 8);
    }
    b.addi(Reg::A4, Reg::A4, 1);
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("turb3d workload builds")
}

/// Quantum-chemistry-style giant tasks: ~160 unrolled load-compute-store
/// steps per task (~800 instructions). Step *i* reads shared scalar *i*
/// and writes scalar *(i+80) mod 160*, so for half the scalars the
/// producing store lands ~400 instructions later in the previous task
/// than the consuming load — a dense wavefront of fixed-distance edges.
/// Blind speculation squash-replays these enormous tasks repeatedly;
/// the synchronization mechanism recovers essentially the whole oracle
/// gain.
pub fn fpppp(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_fp(&mut b, "scalars", 160, 0x0f);
    b.la(Reg::S0, "scalars");
    b.li(Reg::T0, scale.iterations(1_200));
    b.label("task");
    b.task();
    for i in 0..160 {
        b.fld(Reg::f(1), Reg::S0, i * 8);
        if i % 2 == 0 {
            b.fadd(Reg::f(1), Reg::f(1), Reg::f(1));
        } else {
            b.fmul(Reg::f(1), Reg::f(1), Reg::f(1));
        }
        b.fsd(Reg::f(1), Reg::S0, ((i + 80) % 160) * 8);
    }
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("fpppp workload builds")
}

/// Mixed recurrences: odd tasks update a shared pair of accumulators
/// (distance-2 recurrence), even tasks do independent work.
pub fn apsi(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_fp(&mut b, "acc", 2, 0xa0);
    alloc_fp(&mut b, "field", 1024, 0xa1);
    b.la(Reg::S0, "acc");
    b.la(Reg::S1, "field");
    b.li(Reg::A4, 0);
    b.li(Reg::T0, scale.iterations(14_000));
    b.label("task");
    b.task();
    b.andi(Reg::T1, Reg::A4, 1);
    b.beq(Reg::T1, Reg::ZERO, "independent");
    // Recurrent task: acc[i & 1] += f(field[...]) — the same slot is
    // touched every other task, a distance-2 recurrence.
    b.andi(Reg::T2, Reg::A4, 1023);
    b.slli(Reg::T2, Reg::T2, 3);
    b.add(Reg::T2, Reg::S1, Reg::T2);
    b.fld(Reg::f(1), Reg::T2, 0);
    b.fld(Reg::f(2), Reg::S0, 8);
    b.fadd(Reg::f(2), Reg::f(2), Reg::f(1));
    b.fsd(Reg::f(2), Reg::S0, 8);
    b.j("apsi_next");
    b.label("independent");
    b.andi(Reg::T2, Reg::A4, 1023);
    b.slli(Reg::T2, Reg::T2, 3);
    b.add(Reg::T2, Reg::S1, Reg::T2);
    b.fld(Reg::f(3), Reg::T2, 0);
    b.fmul(Reg::f(3), Reg::f(3), Reg::f(3));
    b.fsd(Reg::f(3), Reg::T2, 0);
    b.label("apsi_next");
    b.addi(Reg::A4, Reg::A4, 1);
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("apsi workload builds")
}

/// Particle push: each task updates two pseudo-random particles
/// (position += velocity); collisions between nearby tasks create
/// medium-frequency dependences.
pub fn wave5(scale: Scale) -> Program {
    let mut b = ProgramBuilder::new();
    alloc_fp(&mut b, "pos", 256, 0x71);
    alloc_fp(&mut b, "vel", 256, 0x72);
    b.la(Reg::S0, "pos");
    b.la(Reg::S1, "vel");
    b.li(Reg::S5, crate::util::HASH_K);
    b.li(Reg::A6, 0x371); // task counter (offset by a seed)
    b.li(Reg::T0, scale.iterations(12_000));
    b.label("task");
    b.task();
    b.addi(Reg::A6, Reg::A6, 1);
    crate::util::task_hash(&mut b, Reg::A7, Reg::A6, Reg::S5, Reg::T1);
    // Independent field reads (dilution).
    b.andi(Reg::T2, Reg::A6, 255);
    b.slli(Reg::T2, Reg::T2, 3);
    b.add(Reg::T3, Reg::S1, Reg::T2);
    b.fld(Reg::f(4), Reg::T3, 0);
    b.fadd(Reg::f(5), Reg::f(4), Reg::f(4));
    // One particle push per task: pos[p] += vel[p] on a pseudo-random p.
    b.srli(Reg::T2, Reg::A7, 3);
    b.andi(Reg::T2, Reg::T2, 255);
    b.slli(Reg::T2, Reg::T2, 3);
    b.add(Reg::T3, Reg::S0, Reg::T2);
    b.add(Reg::T4, Reg::S1, Reg::T2);
    b.fld(Reg::f(1), Reg::T3, 0);
    b.fld(Reg::f(2), Reg::T4, 0);
    b.fadd(Reg::f(1), Reg::f(1), Reg::f(2));
    b.fsd(Reg::f(1), Reg::T3, 0);
    loop_epilogue(&mut b, Reg::T0, "task");
    b.build().expect("wave5 workload builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_emu::{Emulator, Trace};
    use mds_ooo::{WindowAnalyzer, WindowConfig, WindowReport};

    fn profile(p: &Program, window_sizes: Vec<u32>, ddc_sizes: Vec<usize>) -> WindowReport {
        let a = WindowAnalyzer::new(WindowConfig {
            window_sizes,
            ddc_sizes,
        });
        a.analyze(Trace::capture(p).unwrap().replay_plan())
    }

    fn misspecs_at(p: &Program, ws: u32) -> u64 {
        let r = profile(p, vec![ws], vec![]);
        r.for_window(ws).unwrap().misspeculations
    }

    #[test]
    fn tomcatv_has_a_tight_recurrence() {
        assert!(misspecs_at(&tomcatv(Scale::Tiny), 64) > 100);
    }

    #[test]
    fn swim_has_no_dependences_in_window() {
        assert_eq!(misspecs_at(&swim(Scale::Tiny), 256), 0);
    }

    #[test]
    fn fpppp_tasks_are_huge_with_wide_working_set() {
        let p = fpppp(Scale::Tiny);
        let sum = Emulator::new(&p).run_into(&mut ()).unwrap();
        let per_task = sum.instructions as f64 / sum.tasks as f64;
        assert!(per_task > 250.0, "task size {per_task}");
        let r = profile(&p, vec![512], vec![64]);
        let w = r.for_window(512).unwrap();
        assert!(w.static_edges() >= 90, "static edges {}", w.static_edges());
    }

    #[test]
    fn su2cor_has_many_static_edges() {
        // An 8-stage Multiscalar window spans ~8 tasks (~2000 instructions
        // here); measure at that reach over a full Small run.
        let p = su2cor(Scale::Small);
        let r = profile(&p, vec![2048], vec![]);
        let edges = r.for_window(2048).unwrap().static_edges();
        assert!(edges > 60, "static edges {edges}");
    }

    #[test]
    fn applu_values_stay_finite() {
        let p = applu(Scale::Tiny);
        let mut e = Emulator::new(&p);
        e.run_into(&mut ()).unwrap();
        let rhs = p.symbol("rhs").unwrap();
        let v = e.state().mem.read_f64(rhs + 8);
        assert!(v.is_finite());
    }

    #[test]
    fn apsi_alternates_task_kinds() {
        let p = apsi(Scale::Tiny);
        // Both dependence-carrying and independent stores must appear.
        let mut acc_stores = 0u64;
        let mut field_stores = 0u64;
        let acc = p.symbol("acc").unwrap();
        Emulator::new(&p)
            .run_with(|d| {
                if let Some(m) = d.mem {
                    if m.is_store {
                        if m.addr < acc + 16 {
                            acc_stores += 1;
                        } else {
                            field_stores += 1;
                        }
                    }
                }
            })
            .unwrap();
        assert!(acc_stores > 0 && field_stores > 0);
    }

    #[test]
    fn wave5_has_moderate_collision_rate() {
        let m = misspecs_at(&wave5(Scale::Tiny), 256);
        assert!(m > 0, "no collisions at all");
    }
}
