//! Multiscalar processor configuration (the paper's §5.2).

use mds_core::{MdptConfig, Policy, TagScheme};
use mds_isa::Opcode;
use mds_mem::{BankedCacheConfig, CacheConfig};
use mds_sim::ConfigError;

/// Largest latency, penalty or fill size, in cycles or words, that
/// [`MsConfig::validate`] accepts. An attempt's port ledgers hold one slot
/// per cycle it spans, so unbounded latencies could exhaust memory.
const MAX_CYCLES: u64 = 1024;

/// Largest entry count [`MsConfig::validate`] accepts for a table the
/// simulator allocates up front (descriptor cache, MDPT, DDCs, window).
const MAX_ENTRIES: u64 = 1 << 16;

/// Functional-unit latencies in cycles — the paper's table 2 (the exact
/// table is OCR-garbled in the source; these are the values legible there
/// plus the standard Multiscalar-literature latencies, documented in
/// DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuLatencies {
    /// Simple integer ALU (add, logic, shifts, compares).
    pub simple_int: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide/remainder.
    pub int_div: u64,
    /// FP add/subtract.
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide.
    pub fp_div: u64,
    /// FP square root.
    pub fp_sqrt: u64,
    /// FP compares, moves, negation, conversions.
    pub fp_misc: u64,
    /// Branch resolution.
    pub branch: u64,
}

impl Default for FuLatencies {
    fn default() -> Self {
        FuLatencies {
            simple_int: 1,
            int_mul: 4,
            int_div: 12,
            fp_add: 2,
            fp_mul: 4,
            fp_div: 12,
            fp_sqrt: 18,
            fp_misc: 2,
            branch: 1,
        }
    }
}

impl FuLatencies {
    /// The execution latency of one opcode (memory ops return 0 — their
    /// latency comes from the cache model).
    pub fn of(&self, op: Opcode) -> u64 {
        use Opcode::*;
        match op {
            Mul => self.int_mul,
            Div | Rem => self.int_div,
            FAdd | FSub => self.fp_add,
            FMul => self.fp_mul,
            FDiv => self.fp_div,
            FSqrt => self.fp_sqrt,
            FMov | FNeg | Feq | Flt | Fle | FCvtDl | FCvtLd => self.fp_misc,
            Beq | Bne | Blt | Bge | Bltu | Bgeu | J | Jal | Jr | Halt => self.branch,
            Ld | Lb | Sd | Sb | Fld | Fsd => 0,
            _ => self.simple_int,
        }
    }

    /// Rows for the table 2 reproduction: `(unit, operation, latency)`.
    pub fn table_rows(&self) -> Vec<(&'static str, &'static str, u64)> {
        vec![
            ("simple integer", "add/logic/shift/compare", self.simple_int),
            ("complex integer", "multiply", self.int_mul),
            ("complex integer", "divide/remainder", self.int_div),
            ("floating point", "add/subtract", self.fp_add),
            ("floating point", "multiply", self.fp_mul),
            ("floating point", "divide", self.fp_div),
            ("floating point", "square root", self.fp_sqrt),
            ("floating point", "compare/move/convert", self.fp_misc),
            ("branch", "resolve", self.branch),
        ]
    }
}

/// Full configuration of a [`crate::Multiscalar`] simulator.
#[derive(Debug, Clone)]
pub struct MsConfig {
    /// Number of processing units (the paper simulates 4 and 8).
    pub stages: usize,
    /// The memory dependence speculation policy.
    pub policy: Policy,
    /// Instructions issued per cycle per unit (paper: 2-way OOO issue).
    pub issue_width: u32,
    /// Instructions fetched per cycle per unit (paper: an I-cache access
    /// returns 4 words in 1 cycle).
    pub fetch_width: u32,
    /// Per-unit instruction window entries.
    pub window: usize,
    /// Functional-unit counts per unit, in the paper's mix.
    pub simple_int_units: u32,
    /// Complex-integer units per stage.
    pub complex_int_units: u32,
    /// FP units per stage.
    pub fp_units: u32,
    /// Branch units per stage.
    pub branch_units: u32,
    /// Memory (address) units per stage.
    pub mem_units: u32,
    /// Functional-unit latencies.
    pub latencies: FuLatencies,
    /// Per-unit instruction cache (paper: 32 KiB, 2-way, 64-byte blocks).
    pub icache: CacheConfig,
    /// Shared banked data cache (paper: 2×units banks of 8 KiB direct
    /// mapped, 2-cycle hits).
    pub dcache: BankedCacheConfig,
    /// Ring hop latency between adjacent units (paper: 1 cycle).
    pub ring_latency: u64,
    /// Cycles from violation detection until the squashed task restarts.
    pub squash_penalty: u64,
    /// Extra cycles before a mispredicted task can start (after the
    /// previous task's last branch resolves).
    pub mispredict_penalty: u64,
    /// Task-descriptor cache entries (paper: 1024, 2-way); a miss delays
    /// task startup by `descriptor_miss_penalty`.
    pub descriptor_cache: usize,
    /// Cycles added on a descriptor-cache miss.
    pub descriptor_miss_penalty: u64,
    /// Path-history depth for the sequencer's control predictor.
    pub path_depth: usize,
    /// MDPT configuration for the SYNC/ESYNC policies (paper: 64 entries,
    /// 3-bit counters, threshold 3).
    pub mdpt: MdptConfig,
    /// How dynamic dependence instances are tagged (§3): the paper's
    /// dependence-distance scheme, or the data-address alternative.
    pub tagging: TagScheme,
    /// Cycles for an MDST signal to reach a waiting load.
    pub signal_latency: u64,
    /// Optional DDC sizes to measure on the mis-speculation stream
    /// (tables 7); empty to skip.
    pub ddc_sizes: Vec<usize>,
}

impl Default for MsConfig {
    fn default() -> Self {
        let stages = 4;
        MsConfig {
            stages,
            policy: Policy::Always,
            issue_width: 2,
            fetch_width: 4,
            window: 32,
            simple_int_units: 2,
            complex_int_units: 1,
            fp_units: 1,
            branch_units: 1,
            mem_units: 1,
            latencies: FuLatencies::default(),
            icache: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 2,
                block_bytes: 64,
            },
            dcache: BankedCacheConfig::paper_default(stages),
            ring_latency: 1,
            squash_penalty: 5,
            mispredict_penalty: 3,
            descriptor_cache: 1024,
            descriptor_miss_penalty: 2,
            path_depth: 4,
            mdpt: MdptConfig::default(),
            tagging: TagScheme::default(),
            signal_latency: 1,
            ddc_sizes: Vec::new(),
        }
    }
}

impl MsConfig {
    /// A paper-faithful configuration with the given unit count and
    /// policy, scaling the data banks with the units as in §5.2.
    pub fn paper(stages: usize, policy: Policy) -> Self {
        MsConfig {
            stages,
            policy,
            dcache: BankedCacheConfig::paper_default(stages),
            ..Default::default()
        }
    }

    /// Checks that the simulators can run this configuration: every count
    /// they divide by or size a structure with is positive, the cache
    /// geometries are consistent, and no size or latency is large enough
    /// to exhaust memory. The bounds leave at least 4× room over every
    /// value the experiments use.
    ///
    /// # Errors
    ///
    /// The first field out of bounds.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let check = ConfigError::check_range;
        check("stages", self.stages as u64, 1..=64)?;
        for (field, count) in [
            ("issue_width", self.issue_width),
            ("fetch_width", self.fetch_width),
            ("simple_int_units", self.simple_int_units),
            ("complex_int_units", self.complex_int_units),
            ("fp_units", self.fp_units),
            ("branch_units", self.branch_units),
            ("mem_units", self.mem_units),
        ] {
            check(field, count.into(), 1..=256)?;
        }
        check("window", self.window as u64, 1..=MAX_ENTRIES)?;
        let l = &self.latencies;
        for latency in [
            l.simple_int,
            l.int_mul,
            l.int_div,
            l.fp_add,
            l.fp_mul,
            l.fp_div,
            l.fp_sqrt,
            l.fp_misc,
            l.branch,
        ] {
            check("latencies", latency, 0..=MAX_CYCLES)?;
        }
        self.icache.validate("icache")?;
        let banks = self.dcache.banks;
        check("dcache.banks", banks as u64, 1..=256)?;
        if !banks.is_power_of_two() {
            return Err(ConfigError {
                field: "dcache.banks",
                message: format!("must be a power of two, found {banks}"),
            });
        }
        self.dcache.bank_config.validate("dcache.bank_config")?;
        check(
            "dcache.hit_latency",
            self.dcache.hit_latency,
            0..=MAX_CYCLES,
        )?;
        check("dcache.fill_words", self.dcache.fill_words, 0..=MAX_CYCLES)?;
        for (field, cycles) in [
            ("ring_latency", self.ring_latency),
            ("squash_penalty", self.squash_penalty),
            ("mispredict_penalty", self.mispredict_penalty),
            ("descriptor_miss_penalty", self.descriptor_miss_penalty),
            ("signal_latency", self.signal_latency),
        ] {
            check(field, cycles, 0..=MAX_CYCLES)?;
        }
        check(
            "descriptor_cache",
            self.descriptor_cache as u64,
            1..=MAX_ENTRIES,
        )?;
        check("path_depth", self.path_depth as u64, 1..=64)?;
        let m = &self.mdpt;
        check("mdpt.capacity", m.capacity as u64, 1..=MAX_ENTRIES)?;
        check("mdpt.counter_bits", m.counter_bits.into(), 1..=16)?;
        let max = (1u64 << m.counter_bits) - 1;
        check("mdpt.threshold", m.threshold.into(), 0..=max)?;
        check("mdpt.initial", m.initial.into(), 0..=max)?;
        check("ddc_sizes", self.ddc_sizes.len() as u64, 0..=64)?;
        for &size in &self.ddc_sizes {
            check("ddc_sizes", size as u64, 1..=MAX_ENTRIES)?;
        }
        Ok(())
    }

    /// Enables DDC measurement at the given sizes.
    pub fn with_ddc_sizes(mut self, sizes: &[usize]) -> Self {
        self.ddc_sizes = sizes.to_vec();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_table_covers_all_opcodes() {
        let l = FuLatencies::default();
        for &op in Opcode::ALL {
            let lat = l.of(op);
            if op.is_mem() {
                assert_eq!(lat, 0, "{op}: memory latency comes from the cache model");
            } else {
                assert!(lat >= 1, "{op} must take at least a cycle");
            }
        }
    }

    #[test]
    fn specific_latencies_match_table2() {
        let l = FuLatencies::default();
        assert_eq!(l.of(Opcode::Add), 1);
        assert_eq!(l.of(Opcode::Mul), 4);
        assert_eq!(l.of(Opcode::Div), 12);
        assert_eq!(l.of(Opcode::FAdd), 2);
        assert_eq!(l.of(Opcode::FMul), 4);
        assert_eq!(l.of(Opcode::FDiv), 12);
        assert_eq!(l.of(Opcode::FSqrt), 18);
        assert_eq!(l.of(Opcode::Beq), 1);
    }

    #[test]
    fn table_rows_render() {
        assert_eq!(FuLatencies::default().table_rows().len(), 9);
    }

    #[test]
    fn paper_config_scales_banks() {
        let c4 = MsConfig::paper(4, Policy::Always);
        let c8 = MsConfig::paper(8, Policy::Always);
        assert_eq!(c4.dcache.banks, 8);
        assert_eq!(c8.dcache.banks, 16);
        assert_eq!(c4.issue_width, 2);
    }

    #[test]
    fn paper_configs_validate_and_bad_values_do_not() {
        for stages in [1, 4, 8] {
            let c = MsConfig::paper(stages, Policy::Esync).with_ddc_sizes(&[16, 64, 256]);
            assert_eq!(c.validate(), Ok(()));
        }
        let rejects = |field: &str, edit: fn(&mut MsConfig)| {
            let mut c = MsConfig::default();
            edit(&mut c);
            assert_eq!(c.validate().unwrap_err().field, field);
        };
        rejects("path_depth", |c| c.path_depth = 0);
        rejects("dcache.banks", |c| c.dcache.banks = 6);
        rejects("icache", |c| c.icache.size_bytes = 1 << 34);
        rejects("mdpt.threshold", |c| c.mdpt.threshold = 8);
    }

    #[test]
    fn with_ddc_sizes_sets_sizes() {
        let c = MsConfig::default().with_ddc_sizes(&[16, 64]);
        assert_eq!(c.ddc_sizes, vec![16, 64]);
    }
}
