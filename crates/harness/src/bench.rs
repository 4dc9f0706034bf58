//! A benchmark harness with machine-readable baselines.
//!
//! The in-tree replacement for `criterion`, covering what this workspace
//! needs: per-benchmark warmup, fixed-size iteration batches, a robust
//! median/MAD summary, a wall-clock guard so no benchmark can run away,
//! and a `BENCH_<suite>.json` report written through the in-tree
//! [`json`](crate::json) codec so the performance trajectory of the hot
//! paths is tracked in version control.
//!
//! A bench target is a plain `main`:
//!
//! ```no_run
//! use mds_harness::bench::Harness;
//! use std::hint::black_box;
//!
//! fn main() {
//!     let mut h = Harness::new("structures");
//!     h.bench("add", |b| {
//!         let mut x = 0u64;
//!         b.iter(|| {
//!             x = x.wrapping_add(1);
//!             black_box(x)
//!         });
//!     });
//!     h.finish();
//! }
//! ```
//!
//! `cargo bench` passes `--bench`, which selects measurement mode and
//! writes the JSON report; under `cargo test` (no `--bench`) every
//! routine runs once as a smoke test and nothing is written. Extra
//! arguments: `--scale <name>` forwards a workload scale to the bench
//! (see [`Harness::scale`]), and any bare argument filters benchmarks by
//! substring, as with libtest.
//!
//! Environment knobs (all optional): `MDS_BENCH_WARMUP_MS`,
//! `MDS_BENCH_BATCH_MS`, `MDS_BENCH_BATCHES`, `MDS_BENCH_MAX_MS`,
//! `MDS_BENCH_DIR` (report directory, default: the workspace root).

use crate::json::{Json, ParseError, ToJson};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timing parameters for every benchmark in a harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchConfig {
    /// Warmup duration before measurement, in milliseconds.
    pub warmup_ms: u64,
    /// Target wall-clock length of one measurement batch, in milliseconds.
    pub batch_ms: u64,
    /// Number of measurement batches per benchmark.
    pub batches: u32,
    /// Wall-clock guard: hard cap on one benchmark's total measurement
    /// time, in milliseconds. Batches past the cap are skipped.
    pub max_ms: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup_ms: 60,
            batch_ms: 12,
            batches: 25,
            max_ms: 3000,
        }
    }
}

impl BenchConfig {
    fn from_env() -> Self {
        let get = |key: &str, dflt: u64| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(dflt)
        };
        let d = BenchConfig::default();
        BenchConfig {
            warmup_ms: get("MDS_BENCH_WARMUP_MS", d.warmup_ms),
            batch_ms: get("MDS_BENCH_BATCH_MS", d.batch_ms),
            batches: get("MDS_BENCH_BATCHES", d.batches as u64) as u32,
            max_ms: get("MDS_BENCH_MAX_MS", d.max_ms),
        }
    }
}

impl ToJson for BenchConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("warmup_ms", Json::from(self.warmup_ms)),
            ("batch_ms", Json::from(self.batch_ms)),
            ("batches", Json::from(self.batches)),
            ("max_ms", Json::from(self.max_ms)),
        ])
    }
}

impl BenchConfig {
    /// Reads a config back from its [`ToJson`] form.
    pub fn from_json(v: &Json) -> Option<Self> {
        Some(BenchConfig {
            warmup_ms: v.get("warmup_ms")?.as_u64()?,
            batch_ms: v.get("batch_ms")?.as_u64()?,
            batches: v.get("batches")?.as_u64()? as u32,
            max_ms: v.get("max_ms")?.as_u64()?,
        })
    }
}

/// The measured summary of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (unique within a suite).
    pub name: String,
    /// Iterations per measurement batch (fixed after calibration).
    pub iters_per_batch: u64,
    /// Batches actually measured (may be short of the configured count if
    /// the wall-clock guard fired).
    pub batches: u32,
    /// Median per-iteration time across batches, in nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation of per-iteration time, in nanoseconds.
    pub mad_ns: f64,
    /// Fastest batch's per-iteration time, in nanoseconds.
    pub min_ns: f64,
    /// Slowest batch's per-iteration time, in nanoseconds.
    pub max_ns: f64,
    /// Optional elements-per-iteration, for throughput reporting.
    pub throughput_elems: Option<u64>,
}

impl BenchResult {
    /// Elements processed per second, if a throughput was declared.
    pub fn elems_per_sec(&self) -> Option<f64> {
        let elems = self.throughput_elems?;
        if self.median_ns <= 0.0 {
            return None;
        }
        Some(elems as f64 * 1e9 / self.median_ns)
    }
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("iters_per_batch", Json::from(self.iters_per_batch)),
            ("batches", Json::from(self.batches)),
            ("median_ns", Json::from(self.median_ns)),
            ("mad_ns", Json::from(self.mad_ns)),
            ("min_ns", Json::from(self.min_ns)),
            ("max_ns", Json::from(self.max_ns)),
            ("throughput_elems", self.throughput_elems.to_json()),
            (
                "elems_per_sec",
                self.elems_per_sec().map(Json::from).unwrap_or(Json::Null),
            ),
        ])
    }
}

impl BenchResult {
    /// Reads a result back from its [`ToJson`] form.
    pub fn from_json(v: &Json) -> Option<Self> {
        Some(BenchResult {
            name: v.get("name")?.as_str()?.to_string(),
            iters_per_batch: v.get("iters_per_batch")?.as_u64()?,
            batches: v.get("batches")?.as_u64()? as u32,
            median_ns: v.get("median_ns")?.as_f64()?,
            mad_ns: v.get("mad_ns")?.as_f64()?,
            min_ns: v.get("min_ns")?.as_f64()?,
            max_ns: v.get("max_ns")?.as_f64()?,
            throughput_elems: match v.get("throughput_elems")? {
                Json::Null => None,
                other => Some(other.as_u64()?),
            },
        })
    }
}

/// The machine a report was measured on: timings are only comparable
/// between reports whose hosts match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Logical CPUs available to the measuring process (`nproc`).
    pub nproc: u64,
    /// Kernel release (`uname -r`), or `"unknown"` where it cannot be
    /// read.
    pub kernel: String,
}

impl Host {
    /// The machine this process runs on.
    pub fn current() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        }
    }

    /// Reads host facts back from their [`ToJson`] form.
    pub fn from_json(v: &Json) -> Option<Host> {
        Some(Host {
            nproc: v.get("nproc")?.as_u64()?,
            kernel: v.get("kernel")?.as_str()?.to_string(),
        })
    }
}

impl ToJson for Host {
    fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::from(self.nproc)),
            ("kernel", Json::from(self.kernel.as_str())),
        ])
    }
}

/// A whole suite's report: what `BENCH_<suite>.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Suite name (the `BENCH_<suite>.json` stem).
    pub suite: String,
    /// Workload scale the suite ran at.
    pub scale: String,
    /// Timing parameters the measurements used.
    pub config: BenchConfig,
    /// The measuring machine; `None` for reports written before reports
    /// recorded it.
    pub host: Option<Host>,
    /// Per-benchmark summaries, in declaration order.
    pub results: Vec<BenchResult>,
}

impl ToJson for BenchReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("suite", Json::from(self.suite.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("config", self.config.to_json()),
            ("host", self.host.to_json()),
            ("results", self.results.to_json()),
        ])
    }
}

impl BenchReport {
    /// Parses a report from `BENCH_*.json` text.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let v = Json::parse(text)?;
        Self::from_json(&v).ok_or(ParseError {
            message: "not a bench report".to_string(),
            offset: 0,
        })
    }

    /// Reads a report back from its [`ToJson`] form.
    pub fn from_json(v: &Json) -> Option<Self> {
        Some(BenchReport {
            suite: v.get("suite")?.as_str()?.to_string(),
            scale: v.get("scale")?.as_str()?.to_string(),
            config: BenchConfig::from_json(v.get("config")?)?,
            host: match v.get("host") {
                None | Some(Json::Null) => None,
                Some(host) => Some(Host::from_json(host)?),
            },
            results: v
                .get("results")?
                .as_array()?
                .iter()
                .map(BenchResult::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// Handed to each benchmark closure; call [`Bencher::iter`] once with the
/// routine to measure.
pub struct Bencher {
    cfg: BenchConfig,
    smoke: bool,
    samples_ns: Vec<f64>,
    iters_per_batch: u64,
    measured_batches: u32,
}

impl Bencher {
    fn new(cfg: BenchConfig, smoke: bool) -> Self {
        Bencher {
            cfg,
            smoke,
            samples_ns: Vec::new(),
            iters_per_batch: 0,
            measured_batches: 0,
        }
    }

    /// Measures `routine`: calibrates an iteration count so one batch
    /// lasts about `batch_ms`, warms up for `warmup_ms`, then times
    /// `batches` fixed-size batches (stopping early at the `max_ms`
    /// wall-clock guard).
    ///
    /// In smoke mode (under `cargo test`) the routine runs exactly once.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        if self.smoke {
            black_box(routine());
            self.iters_per_batch = 1;
            self.measured_batches = 0;
            return;
        }
        let batch_target = Duration::from_millis(self.cfg.batch_ms);
        let guard = Duration::from_millis(self.cfg.max_ms);
        let started = Instant::now();

        // Calibrate: double the batch size until a batch reaches the
        // target length (or the guard budget says stop growing).
        let mut n = 1u64;
        loop {
            let took = time_batch(&mut routine, n);
            if took >= batch_target || started.elapsed() >= guard / 4 {
                break;
            }
            n = n.saturating_mul(2);
        }
        self.iters_per_batch = n;

        // Warmup.
        let warmup = Duration::from_millis(self.cfg.warmup_ms);
        let warmup_started = Instant::now();
        while warmup_started.elapsed() < warmup && started.elapsed() < guard {
            time_batch(&mut routine, n);
        }

        // Measurement batches under the wall-clock guard.
        for _ in 0..self.cfg.batches {
            if self.measured_batches > 0 && started.elapsed() >= guard {
                break;
            }
            let took = time_batch(&mut routine, n);
            self.samples_ns.push(took.as_nanos() as f64 / n as f64);
            self.measured_batches += 1;
        }
        if self.samples_ns.is_empty() {
            // Guard fired before any batch ran: take a single sample so
            // the result is still meaningful.
            let took = time_batch(&mut routine, 1);
            self.samples_ns.push(took.as_nanos() as f64);
            self.iters_per_batch = 1;
            self.measured_batches = 1;
        }
    }
}

fn time_batch<R>(routine: &mut impl FnMut() -> R, n: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..n {
        black_box(routine());
    }
    start.elapsed()
}

/// Median of a sample set; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median absolute deviation around the median; a robust spread measure.
pub fn median_abs_deviation(samples: &[f64]) -> f64 {
    let m = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|s| (s - m).abs()).collect();
    median(&deviations)
}

enum Mode {
    /// `cargo bench`: measure and write the JSON report.
    Measure,
    /// `cargo test` on a `harness = false` bench target: run each routine
    /// once so the code is exercised, write nothing.
    Smoke,
}

/// Collects benchmarks of one suite and writes `BENCH_<suite>.json`.
pub struct Harness {
    suite: String,
    cfg: BenchConfig,
    mode: Mode,
    scale: String,
    filters: Vec<String>,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Creates a harness, reading mode, scale, and name filters from the
    /// process arguments (see the module docs).
    pub fn new(suite: &str) -> Self {
        let mut mode = Mode::Smoke;
        let mut scale = "tiny".to_string();
        let mut filters = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--bench" => mode = Mode::Measure,
                "--scale" => {
                    if let Some(s) = args.next() {
                        scale = s;
                    }
                }
                "--test" | "--nocapture" | "--quiet" | "-q" => {}
                a if a.starts_with("--") => {}
                a => filters.push(a.to_string()),
            }
        }
        let cfg = BenchConfig::from_env();
        match mode {
            Mode::Measure => eprintln!("benchmarking suite '{suite}' (scale {scale})"),
            Mode::Smoke => eprintln!("smoke-running suite '{suite}' (pass --bench to measure)"),
        }
        Harness {
            suite: suite.to_string(),
            cfg,
            mode,
            scale,
            filters,
            results: Vec::new(),
        }
    }

    /// The workload scale requested with `--scale` (default `"tiny"`).
    pub fn scale(&self) -> &str {
        &self.scale
    }

    /// Declares one benchmark. The closure does its setup, then calls
    /// [`Bencher::iter`] with the routine to measure.
    pub fn bench(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) {
        self.bench_inner(name, None, f);
    }

    /// Like [`Harness::bench`], declaring that one iteration processes
    /// `elems` elements so the report includes throughput.
    pub fn bench_with_throughput(&mut self, name: &str, elems: u64, f: impl FnOnce(&mut Bencher)) {
        self.bench_inner(name, Some(elems), f);
    }

    fn bench_inner(&mut self, name: &str, elems: Option<u64>, f: impl FnOnce(&mut Bencher)) {
        if !self.filters.is_empty() && !self.filters.iter().any(|p| name.contains(p.as_str())) {
            return;
        }
        let smoke = matches!(self.mode, Mode::Smoke);
        let mut b = Bencher::new(self.cfg.clone(), smoke);
        f(&mut b);
        if smoke {
            eprintln!("  {name}: ok (smoke)");
            return;
        }
        let result = BenchResult {
            name: name.to_string(),
            iters_per_batch: b.iters_per_batch,
            batches: b.measured_batches,
            median_ns: median(&b.samples_ns),
            mad_ns: median_abs_deviation(&b.samples_ns),
            min_ns: b.samples_ns.iter().copied().fold(f64::INFINITY, f64::min),
            max_ns: b.samples_ns.iter().copied().fold(0.0, f64::max),
            throughput_elems: elems,
        };
        let throughput = result
            .elems_per_sec()
            .map(|eps| format!(", {:.2} Melem/s", eps / 1e6))
            .unwrap_or_default();
        eprintln!(
            "  {:<32} {:>12.1} ns/iter (±{:.1} MAD, {} batches × {} iters{})",
            result.name,
            result.median_ns,
            result.mad_ns,
            result.batches,
            result.iters_per_batch,
            throughput
        );
        self.results.push(result);
    }

    /// The report accumulated so far (measurement mode only).
    pub fn report(&self) -> BenchReport {
        BenchReport {
            suite: self.suite.clone(),
            scale: self.scale.clone(),
            config: self.cfg.clone(),
            host: Some(Host::current()),
            results: self.results.clone(),
        }
    }

    /// In measurement mode, writes `BENCH_<suite>.json` and prints its
    /// path; in smoke mode, does nothing. A report that cannot be written
    /// (say, `MDS_BENCH_DIR` names a missing directory) ends the process
    /// with exit status 1, so a caller that checks the status never takes
    /// an unwritten baseline for a recorded one.
    pub fn finish(self) {
        if matches!(self.mode, Mode::Smoke) {
            return;
        }
        let path = report_dir().join(format!("BENCH_{}.json", self.suite));
        let text = self.report().to_json().pretty();
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// The directory reports are written to: `MDS_BENCH_DIR` if set, else the
/// enclosing workspace root, else the current directory.
///
/// Public because other machine-readable artifacts (the `repro` binary's
/// `RESULTS_*.json` files) follow the same placement convention.
pub fn report_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("MDS_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let mut dir = start.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir.to_path_buf();
                }
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median_abs_deviation(&[1.0, 3.0, 5.0]), 2.0);
        assert_eq!(median_abs_deviation(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn smoke_bencher_runs_routine_once() {
        let mut b = Bencher::new(BenchConfig::default(), true);
        let mut calls = 0u32;
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
        assert!(b.samples_ns.is_empty());
    }

    #[test]
    fn measured_bencher_collects_samples() {
        let cfg = BenchConfig {
            warmup_ms: 1,
            batch_ms: 1,
            batches: 5,
            max_ms: 200,
        };
        let mut b = Bencher::new(cfg, false);
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(x)
        });
        assert!(!b.samples_ns.is_empty());
        assert!(b.iters_per_batch >= 1);
        assert!(b.samples_ns.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            suite: "structures".into(),
            scale: "small".into(),
            config: BenchConfig::default(),
            host: Some(Host {
                nproc: 2,
                kernel: "6.1.0".into(),
            }),
            results: vec![
                BenchResult {
                    name: "mdpt_lookup_hit".into(),
                    iters_per_batch: 1 << 16,
                    batches: 25,
                    median_ns: 13.25,
                    mad_ns: 0.5,
                    min_ns: 12.0,
                    max_ns: 19.75,
                    throughput_elems: None,
                },
                BenchResult {
                    name: "emulator/compress_tiny".into(),
                    iters_per_batch: 8,
                    batches: 25,
                    median_ns: 1.5e6,
                    mad_ns: 2.5e4,
                    min_ns: 1.4e6,
                    max_ns: 1.9e6,
                    throughput_elems: Some(120_000),
                },
            ],
        };
        let text = report.to_json().pretty();
        assert_eq!(BenchReport::parse(&text).unwrap(), report);
    }

    #[test]
    fn reports_without_host_facts_parse_with_none() {
        let mut report = BenchReport {
            suite: "older".into(),
            scale: "tiny".into(),
            config: BenchConfig::default(),
            host: Some(Host::current()),
            results: Vec::new(),
        };
        let Json::Object(pairs) = report.to_json() else {
            unreachable!("a report renders as an object")
        };
        let older = Json::Object(pairs.into_iter().filter(|(k, _)| k != "host").collect());
        assert!(!older.pretty().contains("nproc"));
        report.host = None;
        assert_eq!(BenchReport::parse(&older.pretty()).unwrap(), report);
        assert!(Host::current().nproc >= 1);
        assert!(!Host::current().kernel.is_empty());
    }

    #[test]
    fn elems_per_sec_derivation() {
        let r = BenchResult {
            name: "x".into(),
            iters_per_batch: 1,
            batches: 1,
            median_ns: 1000.0,
            mad_ns: 0.0,
            min_ns: 1000.0,
            max_ns: 1000.0,
            throughput_elems: Some(2000),
        };
        assert_eq!(r.elems_per_sec(), Some(2e9));
    }
}
