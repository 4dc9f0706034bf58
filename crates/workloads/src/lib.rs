//! Synthetic benchmark programs with documented memory-dependence
//! phenotypes.
//!
//! The paper evaluates on SPECint92 (compress, espresso, gcc, sc, xlisp)
//! and SPEC95 binaries compiled by the Multiscalar compiler. Those
//! binaries and that compiler are not available, so this crate substitutes
//! **hand-written synthetic programs** in the `mds` ISA, one per paper
//! benchmark, each constructed to exhibit the *dependence phenotype* the
//! paper reports for its counterpart:
//!
//! - few hot store→load pairs on globals with strong temporal locality
//!   (compress-like), and hit/miss *path-dependent* dependences that
//!   defeat a plain counter predictor but not ESYNC;
//! - pointer-walk tasks of ~100 instructions whose mis-speculations are
//!   simple recurrences (espresso-like);
//! - irregular code with many static dependence edges and poor locality
//!   (gcc-like, go-like);
//! - loop-carried recurrences through memory at short and medium task
//!   distances (sc-like, tomcatv-like, applu-like);
//! - allocator/stack churn (xlisp-like, li-like);
//! - dependence working sets that overflow a 64-entry MDPT inside huge
//!   tasks (fpppp-like, su2cor-like);
//! - saturated streaming codes with nothing for dependence speculation to
//!   gain (swim-like, mgrid-like).
//!
//! Every workload is deterministic: in-program "randomness" comes from an
//! xorshift generator computed in registers, and initial data is generated
//! from a fixed per-workload seed.
//!
//! # Examples
//!
//! ```
//! use mds_workloads::{by_name, Scale};
//! use mds_emu::Emulator;
//!
//! let wl = by_name("compress").expect("registered workload");
//! let program = wl.build(Scale::Tiny);
//! let summary = Emulator::new(&program).run_into(&mut ())?;
//! assert!(summary.tasks > 10);
//! assert!(summary.loads > 0 && summary.stores > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod int92;
pub mod registry;
pub mod spec95fp;
pub mod spec95int;
pub mod util;

pub use registry::{register_generated, GeneratedSpec, RegistryError};

use mds_isa::Program;

/// How big a run to generate.
///
/// `Tiny` keeps unit tests fast; `Small` is the default for the
/// reproduction harness; `Full` approaches the paper's run lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// A few hundred tasks — unit tests.
    Tiny,
    /// Tens of thousands of tasks — the reproduction harness default.
    Small,
    /// Hundreds of thousands of tasks — closest to the paper's runs.
    Full,
}

impl Scale {
    /// Multiplies a workload's base iteration count.
    pub fn iterations(self, base: i32) -> i32 {
        match self {
            Scale::Tiny => base / 64,
            Scale::Small => base,
            Scale::Full => base.saturating_mul(8),
        }
        .max(16)
    }
}

/// Which paper suite a workload substitutes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPECint92 (the paper's primary five programs).
    Int92,
    /// SPECint95 (figure 7, integer half).
    Spec95Int,
    /// SPECfp95 (figure 7, floating-point half).
    Spec95Fp,
    /// Generated at runtime from a WDL scenario or imported trace.
    Generated,
}

impl Suite {
    /// Stable lowercase label used by `repro list` and results tables.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Int92 => "int92",
            Suite::Spec95Int => "spec95-int",
            Suite::Spec95Fp => "spec95-fp",
            Suite::Generated => "generated",
        }
    }
}

/// How a workload's program is constructed.
///
/// Hand-written workloads carry a plain function pointer so the registry
/// tables stay `const`; generated workloads are resolved by name through
/// the [`registry`], whose entries close over their compiled spec.
#[derive(Debug, Clone, Copy)]
pub enum Builder {
    /// A hand-written constructor, resolved at compile time.
    Static(fn(Scale) -> Program),
    /// Resolved through [`registry::build_dynamic`] by workload name.
    Dynamic,
}

/// A registered synthetic workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Short name (the paper benchmark it substitutes for).
    pub name: &'static str,
    /// Which suite it belongs to.
    pub suite: Suite,
    /// What the original program does.
    pub description: &'static str,
    /// The dependence phenotype this synthetic program reproduces.
    pub phenotype: &'static str,
    /// How to construct the program.
    pub builder: Builder,
}

impl Workload {
    /// Builds the program at the given scale.
    ///
    /// Deterministic: two calls with the same name and scale yield
    /// byte-identical programs (the trace cache relies on this).
    pub fn build(&self, scale: Scale) -> Program {
        match self.builder {
            Builder::Static(f) => f(scale),
            Builder::Dynamic => registry::build_dynamic(self.name, scale),
        }
    }
}

/// All hand-written workloads, int92 suite first, then SPEC95 int, then
/// SPEC95 fp. Generated workloads are listed by [`generated`] instead.
pub fn all() -> Vec<Workload> {
    let mut v = int92_suite();
    v.extend(spec95_suite());
    v
}

/// The SPECint92-substitute suite (the paper's five primary programs).
pub fn int92_suite() -> Vec<Workload> {
    int92::WORKLOADS.to_vec()
}

/// The SPEC95-substitute suite (figure 7).
pub fn spec95_suite() -> Vec<Workload> {
    let mut v = spec95int::WORKLOADS.to_vec();
    v.extend_from_slice(&spec95fp::WORKLOADS);
    v
}

/// Workloads registered at runtime through the dynamic [`registry`], in
/// registration order.
pub fn generated() -> Vec<Workload> {
    registry::generated()
}

/// Looks up a workload by name: the static tables first, then the
/// dynamic registry.
///
/// Scans the `const` name tables directly — no per-lookup allocation.
pub fn by_name(name: &str) -> Option<Workload> {
    static_by_name(name).or_else(|| registry::by_name(name))
}

/// Looks up a hand-written workload in the `const` suite tables.
pub(crate) fn static_by_name(name: &str) -> Option<Workload> {
    int92::WORKLOADS
        .iter()
        .chain(spec95int::WORKLOADS.iter())
        .chain(spec95fp::WORKLOADS.iter())
        .find(|w| w.name == name)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_emu::Emulator;

    #[test]
    fn registry_has_expected_sizes() {
        assert_eq!(int92_suite().len(), 5);
        assert_eq!(spec95_suite().len(), 18);
        assert_eq!(all().len(), 23);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all().iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all().len());
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("compress").is_some());
        assert!(by_name("tomcatv").is_some());
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn every_workload_builds_and_halts_at_tiny_scale() {
        for wl in all() {
            let p = wl.build(Scale::Tiny);
            let mut emu = Emulator::new(&p).with_limit(20_000_000);
            let sum = emu
                .run_into(&mut ())
                .unwrap_or_else(|e| panic!("{} failed: {e}", wl.name));
            assert!(sum.instructions > 500, "{}: too few instructions", wl.name);
            assert!(sum.tasks > 8, "{}: too few tasks ({})", wl.name, sum.tasks);
            assert!(sum.loads > 0, "{}: no loads", wl.name);
            assert!(sum.stores > 0, "{}: no stores", wl.name);
        }
    }

    #[test]
    fn scale_multiplies_iterations() {
        assert!(Scale::Tiny.iterations(6400) < Scale::Small.iterations(6400));
        assert!(Scale::Small.iterations(6400) < Scale::Full.iterations(6400));
        assert_eq!(Scale::Tiny.iterations(1), 16); // floor
    }

    #[test]
    fn workloads_are_deterministic() {
        for wl in [by_name("compress").unwrap(), by_name("gcc").unwrap()] {
            let a = wl.build(Scale::Tiny);
            let b = wl.build(Scale::Tiny);
            assert_eq!(a.instructions(), b.instructions(), "{}", wl.name);
            assert_eq!(
                a.initial_data().collect::<Vec<_>>(),
                b.initial_data().collect::<Vec<_>>(),
                "{}",
                wl.name
            );
        }
    }
}
