//! The sliding-window dependence analyzer (tables 3, 4, and 5).

use mds_core::{Ddc, DepEdge};
use mds_emu::Row;
use mds_harness::hash::FxHashMap;
use mds_isa::{Addr, Pc};
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
    /// always builds reports via [`WindowAnalyzer::finish`].
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

#[derive(Debug, Clone, Copy)]
struct LastStore {
    seq: u64,
    pc: Pc,
}

struct PerWindow {
    window_size: u32,
    misspecs: u64,
    edges: FxHashMap<DepEdge, u64>,
    ddcs: Vec<(usize, Ddc)>,
}

/// Implements the paper's unrealistic OOO model: every load whose
/// producing store lies within the window is counted as mis-speculated —
/// the worst case for blind speculation (§5).
///
/// Feed every committed instruction to [`WindowAnalyzer::observe`] — as
/// a [`mds_emu::DynInst`] record or a [`mds_emu::ReplayPlan`] row — then
/// call [`WindowAnalyzer::finish`]. All configured window sizes and DDC
/// sizes are measured in a single pass.
pub struct WindowAnalyzer {
    per_window: Vec<PerWindow>,
    // Most recent store covering each 8-byte-aligned word.
    word_stores: FxHashMap<Addr, LastStore>,
    // Most recent single-byte store per byte address.
    byte_stores: FxHashMap<Addr, LastStore>,
    instructions: u64,
    loads: u64,
    stores: u64,
    distances: Histogram,
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
        let per_window = config
            .window_sizes
            .iter()
            .map(|&ws| PerWindow {
                window_size: ws,
                misspecs: 0,
                edges: FxHashMap::default(),
                ddcs: config
                    .ddc_sizes
                    .iter()
                    .map(|&cs| (cs, Ddc::new(cs)))
                    .collect(),
            })
            .collect();
        WindowAnalyzer {
            per_window,
            word_stores: FxHashMap::default(),
            byte_stores: FxHashMap::default(),
            instructions: 0,
            loads: 0,
            stores: 0,
            distances: Histogram::new("store->load distance"),
        }
    }

    /// Feeds one committed instruction.
    pub fn observe(&mut self, d: impl Into<Row>) {
        let d = d.into();
        self.instructions += 1;
        let Some(mem) = d.mem else { return };
        if mem.is_store {
            self.stores += 1;
            let rec = LastStore {
                seq: d.seq,
                pc: d.pc,
            };
            if mem.size == 1 {
                self.byte_stores.insert(mem.addr, rec);
            } else {
                self.word_stores.insert(mem.addr & !7, rec);
                if mem.addr & 7 != 0 {
                    self.word_stores.insert((mem.addr + 7) & !7, rec);
                }
            }
            return;
        }
        self.loads += 1;
        // Find the youngest earlier store overlapping this load.
        let mut producer: Option<LastStore> = None;
        let mut consider = |s: Option<&LastStore>| {
            if let Some(s) = s {
                if producer.is_none_or(|p| s.seq > p.seq) {
                    producer = Some(*s);
                }
            }
        };
        if mem.size == 1 {
            consider(self.byte_stores.get(&mem.addr));
            consider(self.word_stores.get(&(mem.addr & !7)));
        } else {
            consider(self.word_stores.get(&(mem.addr & !7)));
            if mem.addr & 7 != 0 {
                consider(self.word_stores.get(&((mem.addr + 7) & !7)));
            }
            // Byte stores only exist in programs that use `sb`; skip the
            // 8-probe scan entirely for the common all-word case.
            if !self.byte_stores.is_empty() {
                for b in 0..8 {
                    consider(self.byte_stores.get(&(mem.addr + b)));
                }
            }
        }
        let Some(st) = producer else { return };
        let distance = d.seq - st.seq;
        self.distances.record(distance);
        let edge = DepEdge {
            load_pc: d.pc,
            store_pc: st.pc,
        };
        for w in &mut self.per_window {
            if distance < w.window_size as u64 {
                w.misspecs += 1;
                *w.edges.entry(edge).or_insert(0) += 1;
                for (_, ddc) in &mut w.ddcs {
                    ddc.observe(edge);
                }
            }
        }
    }

    /// Finishes the analysis.
    pub fn finish(self) -> WindowReport {
        WindowReport {
            per_window: self
                .per_window
                .into_iter()
                .map(|w| WindowStats {
                    window_size: w.window_size,
                    misspeculations: w.misspecs,
                    edge_counts: w.edges,
                    ddcs: w
                        .ddcs
                        .into_iter()
                        .map(|(cs, d)| (cs, d.hits(), d.misses()))
                        .collect(),
                })
                .collect(),
            instructions: self.instructions,
            loads: self.loads,
            stores: self.stores,
            dependence_distances: self.distances,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_emu::{DynInst, MemAccess};
    use mds_isa::Instruction;

    fn dyn_mem(seq: u64, pc: Pc, addr: Addr, size: u8, is_store: bool) -> DynInst {
        DynInst {
            seq,
            pc,
            inst: Instruction::NOP,
            mem: Some(MemAccess {
                addr,
                size,
                is_store,
            }),
            branch: None,
            new_task: false,
        }
    }

    fn dyn_plain(seq: u64) -> DynInst {
        DynInst {
            seq,
            pc: 0,
            inst: Instruction::NOP,
            mem: None,
            branch: None,
            new_task: false,
        }
    }

    fn analyzer(ws: &[u32]) -> WindowAnalyzer {
        WindowAnalyzer::new(WindowConfig {
            window_sizes: ws.to_vec(),
            ddc_sizes: vec![2],
        })
    }

    #[test]
    fn dependence_within_window_counts() {
        let mut a = analyzer(&[8]);
        a.observe(&dyn_mem(0, 1, 0x100, 8, true));
        a.observe(&dyn_mem(1, 2, 0x100, 8, false));
        let r = a.finish();
        assert_eq!(r.for_window(8).unwrap().misspeculations, 1);
        assert_eq!(r.loads, 1);
        assert_eq!(r.stores, 1);
    }

    #[test]
    fn dependence_outside_window_does_not_count() {
        let mut a = analyzer(&[4, 64]);
        a.observe(&dyn_mem(0, 1, 0x100, 8, true));
        for s in 1..10 {
            a.observe(&dyn_plain(s));
        }
        a.observe(&dyn_mem(10, 2, 0x100, 8, false)); // distance 10
        let r = a.finish();
        assert_eq!(r.for_window(4).unwrap().misspeculations, 0);
        assert_eq!(r.for_window(64).unwrap().misspeculations, 1);
    }

    #[test]
    fn youngest_store_wins() {
        let mut a = analyzer(&[64]);
        a.observe(&dyn_mem(0, 1, 0x100, 8, true));
        a.observe(&dyn_mem(1, 3, 0x100, 8, true)); // younger store, pc 3
        a.observe(&dyn_mem(2, 9, 0x100, 8, false));
        let r = a.finish();
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
        let mut a = analyzer(&[64]);
        // Byte store into the middle of a word; word load sees it.
        a.observe(&dyn_mem(0, 1, 0x103, 1, true));
        a.observe(&dyn_mem(1, 2, 0x100, 8, false));
        // Word store; byte load within it sees it.
        a.observe(&dyn_mem(2, 3, 0x200, 8, true));
        a.observe(&dyn_mem(3, 4, 0x205, 1, false));
        let r = a.finish();
        assert_eq!(r.for_window(64).unwrap().misspeculations, 2);
    }

    #[test]
    fn disjoint_addresses_no_dependence() {
        let mut a = analyzer(&[64]);
        a.observe(&dyn_mem(0, 1, 0x100, 8, true));
        a.observe(&dyn_mem(1, 2, 0x108, 8, false));
        a.observe(&dyn_mem(2, 3, 0x0f8, 8, false));
        let r = a.finish();
        assert_eq!(r.for_window(64).unwrap().misspeculations, 0);
    }

    #[test]
    fn misspeculations_monotone_in_window_size() {
        let mut a = analyzer(&[8, 32, 128]);
        // Dependences at distances 4, 20, 100.
        let mut seq = 0u64;
        let mut emit_dep = |a: &mut WindowAnalyzer, gap: u64, addr: Addr| {
            a.observe(&dyn_mem(seq, 1, addr, 8, true));
            for s in 1..gap {
                a.observe(&dyn_plain(seq + s));
            }
            a.observe(&dyn_mem(seq + gap, 2, addr, 8, false));
            seq += gap + 1;
        };
        emit_dep(&mut a, 4, 0x100);
        emit_dep(&mut a, 20, 0x200);
        emit_dep(&mut a, 100, 0x300);
        let r = a.finish();
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
        let mut a = analyzer(&[64]);
        // Same edge repeatedly: first observation misses, rest hit.
        for i in 0..10 {
            a.observe(&dyn_mem(i * 2, 1, 0x100, 8, true));
            a.observe(&dyn_mem(i * 2 + 1, 2, 0x100, 8, false));
        }
        let r = a.finish();
        let rate = r.for_window(64).unwrap().ddc_miss_rate(2).unwrap();
        assert_eq!(rate.value(), 10.0);
        assert!(r.for_window(64).unwrap().ddc_miss_rate(999).is_none());
    }

    #[test]
    fn distance_histogram_records_every_dependent_load() {
        let mut a = analyzer(&[8]);
        a.observe(&dyn_mem(0, 1, 0x100, 8, true));
        a.observe(&dyn_mem(1, 2, 0x100, 8, false)); // distance 1
        for s in 2..12 {
            a.observe(&dyn_plain(s));
        }
        a.observe(&dyn_mem(12, 3, 0x100, 8, false)); // distance 12
        let r = a.finish();
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
