//! The sliding-window dependence analyzer (tables 3, 4, and 5).

use mds_core::{Ddc, DepEdge};
use mds_emu::{DynInst, PlanBuilder, ReplayPlan};
use mds_harness::hash::FxHashMap;
use mds_sim::stats::{Histogram, Percent};
use mds_sim::ConfigError;

/// Configuration for a [`WindowAnalyzer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowConfig {
    /// Window sizes to evaluate simultaneously (paper: 8…512).
    pub window_sizes: Vec<u32>,
    /// DDC sizes to evaluate per window size (paper: 32, 128, 512).
    pub ddc_sizes: Vec<usize>,
}

impl WindowConfig {
    /// Checks that [`WindowAnalyzer`] can run this configuration: at least
    /// one window size, positive sizes, and DDCs small enough to allocate.
    /// The bounds leave at least 4× room over every value the experiments
    /// use.
    ///
    /// # Errors
    ///
    /// The first field out of bounds.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let check = ConfigError::check_range;
        check("window_sizes", self.window_sizes.len() as u64, 1..=64)?;
        for &size in &self.window_sizes {
            check("window_sizes", size.into(), 1..=1 << 16)?;
        }
        check("ddc_sizes", self.ddc_sizes.len() as u64, 0..=64)?;
        for &size in &self.ddc_sizes {
            check("ddc_sizes", size as u64, 1..=1 << 16)?;
        }
        Ok(())
    }
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window_sizes: vec![8, 16, 32, 64, 128, 256, 512],
            ddc_sizes: vec![32, 128, 512],
        }
    }
}

/// Per-window-size measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// The window size `n` these numbers belong to.
    pub window_size: u32,
    /// Dynamic mis-speculations: loads whose producing store is fewer than
    /// `n` instructions earlier in the committed order (table 3).
    pub misspeculations: u64,
    /// Dynamic mis-speculation count per static edge.
    pub edge_counts: FxHashMap<DepEdge, u64>,
    /// `(ddc_size, hits, misses)` per configured DDC (table 5).
    pub ddcs: Vec<(usize, u64, u64)>,
}

impl WindowStats {
    /// Number of distinct static edges that mis-speculated at least once.
    pub fn static_edges(&self) -> usize {
        self.edge_counts.len()
    }

    /// The minimum number of static edges covering `fraction` (e.g.
    /// `0.999`) of all dynamic mis-speculations — the table 4 metric.
    pub fn edges_covering(&self, fraction: f64) -> usize {
        if self.misspeculations == 0 {
            return 0;
        }
        let mut counts: Vec<u64> = self.edge_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let target = (self.misspeculations as f64 * fraction).ceil() as u64;
        let mut acc = 0u64;
        for (i, c) in counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return i + 1;
            }
        }
        counts.len()
    }

    /// DDC miss rate for the given DDC size (table 5 cell).
    pub fn ddc_miss_rate(&self, ddc_size: usize) -> Option<Percent> {
        self.ddcs
            .iter()
            .find(|(s, _, _)| *s == ddc_size)
            .map(|&(_, hits, misses)| Percent::of(misses, hits + misses))
    }
}

/// The finished analysis over a whole committed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    per_window: Vec<WindowStats>,
    /// Committed instructions observed.
    pub instructions: u64,
    /// Committed loads observed.
    pub loads: u64,
    /// Committed stores observed.
    pub stores: u64,
    /// Distribution of store→load distances (in committed instructions)
    /// over *all* dependent loads, regardless of window size — the raw
    /// data behind the paper's observation that dependences "are spread
    /// across several instructions".
    pub dependence_distances: Histogram,
}

impl WindowReport {
    /// Reassembles a report from its parts — the inverse of reading
    /// [`WindowReport::windows`] and the public totals. Exists for wire
    /// codecs that ship reports between processes; the analyzer itself
    /// always builds reports via [`WindowAnalyzer::analyze`].
    pub fn from_parts(
        per_window: Vec<WindowStats>,
        instructions: u64,
        loads: u64,
        stores: u64,
        dependence_distances: Histogram,
    ) -> WindowReport {
        WindowReport {
            per_window,
            instructions,
            loads,
            stores,
            dependence_distances,
        }
    }

    /// Stats for one window size, if it was configured.
    pub fn for_window(&self, window_size: u32) -> Option<&WindowStats> {
        self.per_window
            .iter()
            .find(|w| w.window_size == window_size)
    }

    /// All per-window stats in configuration order.
    pub fn windows(&self) -> &[WindowStats] {
        &self.per_window
    }
}

/// Implements the paper's unrealistic OOO model: every load whose
/// producing store lies within the window is counted as mis-speculated —
/// the worst case for blind speculation (§5).
///
/// [`WindowAnalyzer::analyze`] reads each load's producer — the youngest
/// earlier store whose bytes overlap the load's — from the
/// [`ReplayPlan`] ([`ReplayPlan::producer`]), so the plan's matcher is
/// the only one. All configured window sizes and DDC sizes are measured in
/// one walk over the loads.
pub struct WindowAnalyzer {
    config: WindowConfig,
    /// The stream fed through [`WindowAnalyzer::observe`].
    records: PlanBuilder,
}

impl WindowAnalyzer {
    /// Creates an analyzer for the given window/DDC size matrix.
    ///
    /// # Panics
    ///
    /// Panics if no window sizes are configured.
    pub fn new(config: WindowConfig) -> Self {
        assert!(
            !config.window_sizes.is_empty(),
            "need at least one window size"
        );
        WindowAnalyzer {
            config,
            records: PlanBuilder::new(),
        }
    }

    /// Analyzes one committed stream through its replay plan.
    pub fn analyze(&self, plan: &ReplayPlan) -> WindowReport {
        let config = &self.config;
        let mut windows: Vec<(WindowStats, Vec<Ddc>)> = config
            .window_sizes
            .iter()
            .map(|&window_size| {
                let stats = WindowStats {
                    window_size,
                    misspeculations: 0,
                    edge_counts: FxHashMap::default(),
                    ddcs: Vec::new(),
                };
                (
                    stats,
                    config.ddc_sizes.iter().map(|&n| Ddc::new(n)).collect(),
                )
            })
            .collect();
        let mut distances = Histogram::new("store->load distance");
        for (lo, &rec) in plan.load_rec.iter().enumerate() {
            let Some(producer) = plan.producer(lo) else {
                continue;
            };
            let store_rec = plan.store_rec[producer];
            let distance = u64::from(rec - store_rec);
            distances.record(distance);
            let edge = DepEdge {
                load_pc: plan.pc[rec as usize],
                store_pc: plan.pc[store_rec as usize],
            };
            for (w, ddcs) in &mut windows {
                if distance < u64::from(w.window_size) {
                    w.misspeculations += 1;
                    *w.edge_counts.entry(edge).or_insert(0) += 1;
                    for ddc in ddcs {
                        ddc.observe(edge);
                    }
                }
            }
        }
        WindowReport {
            per_window: windows
                .into_iter()
                .map(|(mut w, ddcs)| {
                    w.ddcs = ddcs
                        .iter()
                        .map(|d| (d.capacity(), d.hits(), d.misses()))
                        .collect();
                    w
                })
                .collect(),
            instructions: plan.len() as u64,
            loads: plan.load_rec.len() as u64,
            stores: plan.store_rec.len() as u64,
            dependence_distances: distances,
        }
    }

    /// Record adapter: feeds one committed record into a plan that
    /// [`WindowAnalyzer::finish`] analyzes. Only the benchmark's traced
    /// waterfall still feeds records; ROADMAP item 4 deletes this adapter
    /// with it.
    pub fn observe(&mut self, d: &DynInst) {
        self.records.push(d);
    }

    /// Record adapter: analyzes the records fed through
    /// [`WindowAnalyzer::observe`].
    pub fn finish(mut self) -> WindowReport {
        let plan = std::mem::take(&mut self.records).finish();
        self.analyze(&plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_emu::MemAccess;
    use mds_isa::{Addr, Instruction, Opcode, Pc, Reg};

    /// A committed stream under construction: each record takes the next
    /// sequence number.
    #[derive(Default)]
    struct Stream(Vec<DynInst>);

    impl Stream {
        fn push(&mut self, pc: Pc, inst: Instruction, mem: Option<MemAccess>) {
            self.0.push(DynInst {
                seq: self.0.len() as u64,
                pc,
                inst,
                mem,
                branch: None,
                new_task: false,
            });
        }

        /// A store (`is_store`) or load of `size` bytes at `addr`.
        fn mem(&mut self, pc: Pc, addr: Addr, size: u8, is_store: bool) {
            let inst = match (is_store, size) {
                (true, 1) => Instruction::store(Opcode::Sb, Reg::T0, Reg::S0, 0),
                (true, _) => Instruction::store(Opcode::Sd, Reg::T0, Reg::S0, 0),
                (false, 1) => Instruction::load(Opcode::Lb, Reg::T0, Reg::S0, 0),
                (false, _) => Instruction::load(Opcode::Ld, Reg::T0, Reg::S0, 0),
            };
            let access = MemAccess {
                addr,
                size,
                is_store,
            };
            self.push(pc, inst, Some(access));
        }

        /// `n` non-memory records.
        fn plain(&mut self, n: u64) {
            for _ in 0..n {
                self.push(0, Instruction::NOP, None);
            }
        }

        fn report(&self, ws: &[u32]) -> WindowReport {
            let analyzer = WindowAnalyzer::new(WindowConfig {
                window_sizes: ws.to_vec(),
                ddc_sizes: vec![2],
            });
            analyzer.analyze(&ReplayPlan::build(&self.0))
        }
    }

    #[test]
    fn dependence_within_window_counts() {
        let mut s = Stream::default();
        s.mem(1, 0x100, 8, true);
        s.mem(2, 0x100, 8, false);
        let r = s.report(&[8]);
        assert_eq!(r.for_window(8).unwrap().misspeculations, 1);
        assert_eq!(r.loads, 1);
        assert_eq!(r.stores, 1);
    }

    #[test]
    fn dependence_outside_window_does_not_count() {
        let mut s = Stream::default();
        s.mem(1, 0x100, 8, true);
        s.plain(9);
        s.mem(2, 0x100, 8, false); // distance 10
        let r = s.report(&[4, 64]);
        assert_eq!(r.for_window(4).unwrap().misspeculations, 0);
        assert_eq!(r.for_window(64).unwrap().misspeculations, 1);
    }

    #[test]
    fn youngest_store_wins() {
        let mut s = Stream::default();
        s.mem(1, 0x100, 8, true);
        s.mem(3, 0x100, 8, true); // younger store, pc 3
        s.mem(9, 0x100, 8, false);
        let r = s.report(&[64]);
        let w = r.for_window(64).unwrap();
        assert_eq!(w.misspeculations, 1);
        let edge = DepEdge {
            load_pc: 9,
            store_pc: 3,
        };
        assert_eq!(w.edge_counts.get(&edge), Some(&1));
    }

    #[test]
    fn byte_and_word_overlap_detected() {
        let mut s = Stream::default();
        // Byte store into the middle of a word; word load sees it.
        s.mem(1, 0x103, 1, true);
        s.mem(2, 0x100, 8, false);
        // Word store; byte load within it sees it.
        s.mem(3, 0x200, 8, true);
        s.mem(4, 0x205, 1, false);
        // Unaligned word store; an aligned load of its upper word sees
        // it, a byte load of its lower word outside its bytes does not.
        s.mem(5, 0x305, 8, true);
        s.mem(6, 0x308, 8, false);
        s.mem(7, 0x302, 1, false);
        let r = s.report(&[64]);
        assert_eq!(r.for_window(64).unwrap().misspeculations, 3);
    }

    #[test]
    fn disjoint_addresses_no_dependence() {
        let mut s = Stream::default();
        s.mem(1, 0x100, 8, true);
        s.mem(2, 0x108, 8, false);
        s.mem(3, 0x0f8, 8, false);
        let r = s.report(&[64]);
        assert_eq!(r.for_window(64).unwrap().misspeculations, 0);
    }

    #[test]
    fn misspeculations_monotone_in_window_size() {
        let mut s = Stream::default();
        // Dependences at distances 4, 20, 100.
        for (gap, addr) in [(4, 0x100), (20, 0x200), (100, 0x300)] {
            s.mem(1, addr, 8, true);
            s.plain(gap - 1);
            s.mem(2, addr, 8, false);
        }
        let r = s.report(&[8, 32, 128]);
        let m8 = r.for_window(8).unwrap().misspeculations;
        let m32 = r.for_window(32).unwrap().misspeculations;
        let m128 = r.for_window(128).unwrap().misspeculations;
        assert_eq!((m8, m32, m128), (1, 2, 3));
    }

    #[test]
    fn edges_covering_selects_hot_subset() {
        let mut s = WindowStats {
            window_size: 8,
            misspeculations: 1000,
            edge_counts: FxHashMap::default(),
            ddcs: vec![],
        };
        s.edge_counts.insert(DepEdge::new(1, 2), 990);
        s.edge_counts.insert(DepEdge::new(3, 4), 9);
        s.edge_counts.insert(DepEdge::new(5, 6), 1);
        assert_eq!(s.edges_covering(0.99), 1);
        assert_eq!(s.edges_covering(0.999), 2);
        assert_eq!(s.edges_covering(1.0), 3);
        assert_eq!(s.static_edges(), 3);
    }

    #[test]
    fn edges_covering_empty_is_zero() {
        let s = WindowStats {
            window_size: 8,
            misspeculations: 0,
            edge_counts: FxHashMap::default(),
            ddcs: vec![],
        };
        assert_eq!(s.edges_covering(0.999), 0);
    }

    #[test]
    fn ddc_miss_rate_reported_per_size() {
        let mut s = Stream::default();
        // Same edge repeatedly: first observation misses, rest hit.
        for _ in 0..10 {
            s.mem(1, 0x100, 8, true);
            s.mem(2, 0x100, 8, false);
        }
        let r = s.report(&[64]);
        let rate = r.for_window(64).unwrap().ddc_miss_rate(2).unwrap();
        assert_eq!(rate.value(), 10.0);
        assert!(r.for_window(64).unwrap().ddc_miss_rate(999).is_none());
    }

    #[test]
    fn distance_histogram_records_every_dependent_load() {
        let mut s = Stream::default();
        s.mem(1, 0x100, 8, true);
        s.mem(2, 0x100, 8, false); // distance 1
        s.plain(10);
        s.mem(3, 0x100, 8, false); // distance 12
        let r = s.report(&[8]);
        assert_eq!(r.dependence_distances.count(), 2);
        assert_eq!(r.dependence_distances.max(), 12);
        // The 12-away dependence is invisible at WS 8 but still recorded
        // in the distance distribution.
        assert_eq!(r.for_window(8).unwrap().misspeculations, 1);
    }

    #[test]
    #[should_panic(expected = "at least one window size")]
    fn empty_config_panics() {
        let _ = WindowAnalyzer::new(WindowConfig {
            window_sizes: vec![],
            ddc_sizes: vec![],
        });
    }
}
