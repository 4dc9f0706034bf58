//! `mds-perfbench` — the repository benchmark.
//!
//! ```text
//! mds-perfbench --workload <paper_cold|serve_mix|grid_cluster> --seed <n> \
//!               --seconds <s> --trace <0|1>
//! mds-perfbench record-digests
//! ```
//!
//! Run from the repository root (it reads `ci/pinned/` and `examples/`
//! and keeps its scratch files and records under `.bench_work/`). The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (and tracing overhead) with
//! `--trace 1`. The line before it is the full result record: host
//! facts, per-timing summaries and the issue-level detail.

mod check;
mod grid;
mod metrics;
mod paper;
mod serve_mix;
mod stats;
mod tracer;

use check::Checker;
use mds_harness::json::Json;
use metrics::Values;
use std::path::PathBuf;
use std::process::ExitCode;
use tracer::Tracer;

/// What every workload needs from the command line and the checkout.
pub struct Env {
    /// The workload seed.
    pub seed: u64,
    /// Threads and connections the load may use.
    pub nproc: usize,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
    /// The repository root (the current directory).
    pub root: PathBuf,
    /// Expected output bytes.
    pub checker: Checker,
}

/// Operation counts: a non-2xx, a timeout or a byte mismatch fails.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds `other`'s counts.
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One workload measurement: end-to-end values, counts and detail.
pub struct Measured {
    /// Every end-to-end metric.
    pub values: Values,
    /// Operation counts.
    pub ops: Ops,
    /// Timing summaries and issue-level metrics for the record.
    pub detail: Json,
}

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["paper_cold", "serve_mix", "grid_cluster"];

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Cli {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Host facts carried by every result record, so a baseline from a
/// one-core host is never read as one from a bigger host.
fn host_facts(nproc: usize) -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    // Only ask git inside a git checkout, so an enclosing repository is
    // never reported by mistake.
    let commit = if std::path::Path::new(".git").exists() {
        run("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    Json::object()
        .field("nproc", nproc)
        .field("kernel", kernel)
        .field("rustc", run("rustc", &["--version"]))
        .field("commit", commit)
        .field(
            "output_epoch",
            format!("{:016x}", mds_bench::output_epoch()),
        )
}

/// Resident-set high-water mark of this process, MiB (0 if unreadable).
pub fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs this binary with `args` in the current directory, waits for it,
/// and parses the last line of its standard output. A fresh process
/// starts from a fresh heap, so its VmHWM is the peak of its own work.
pub fn run_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("child {args:?} printed no result: {e}"))
}

impl Measured {
    /// The child-process form of a measurement, with its spans.
    fn to_json(&self, spans: Json) -> Json {
        Json::object()
            .field("values", self.values.to_object())
            .field("attempted", self.ops.attempted)
            .field("failed", self.ops.failed)
            .field("detail", self.detail.clone())
            .field("spans", spans)
    }

    /// Reads [`Measured::to_json`] back: the measurement and its spans.
    fn from_json(doc: &Json) -> Result<(Measured, Json), String> {
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("child result lacks {key}"))
        };
        let field = |key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
        let measured = Measured {
            values: Values::from_object(&field("values"))?,
            ops: Ops {
                attempted: count("attempted")?,
                failed: count("failed")?,
            },
            detail: field("detail"),
        };
        Ok((measured, field("spans")))
    }
}

fn measure(workload: &str, env: &Env, tracer: &Tracer, seconds: f64) -> Result<Measured, String> {
    match workload {
        "paper_cold" => paper::measure(env, tracer, seconds),
        "serve_mix" => serve_mix::measure(env, tracer, seconds),
        "grid_cluster" => grid::measure(env, tracer, seconds),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The traced run: the workload untraced and traced (half the time
/// each) for the tracing overhead, then every layer section.
fn traced_run(
    workload: &str,
    env: &Env,
    seconds: f64,
) -> Result<(Values, Ops, Json, Json), String> {
    // Each half runs in its own process, so neither inherits the other's
    // heap or resident-set high-water mark.
    let half = |trace: &str| {
        let args: Vec<String> = [
            "measure",
            "--workload",
            workload,
            "--seed",
            &env.seed.to_string(),
            "--seconds",
            &(seconds / 2.0).to_string(),
            "--trace",
            trace,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        Measured::from_json(&run_child(&args)?)
    };
    let (untraced, _) = half("0")?;
    let (traced, workload_spans) = half("1")?;
    let tracer = Tracer::new(true);
    let mut values = Values::default();
    for def in metrics::END_TO_END {
        let (t, u) = (traced.values.get(def.name), untraced.values.get(def.name));
        if let (Some(t), Some(u)) = (t, u) {
            values.set(&metrics::overhead_name(def.name), t - u);
        }
    }
    let mut ops = untraced.ops;
    ops.add(traced.ops);
    let mut detail = Json::object()
        .field("untraced", untraced.detail)
        .field("traced", traced.detail);
    for (name, section) in [
        ("serve", serve_mix::layers as fn(&Env, &Tracer) -> _),
        ("cluster", grid::layers),
        ("paper", paper::layers),
    ] {
        eprintln!("perfbench: layer section {name}");
        let (v, o, d) = section(env, &tracer)?;
        values.extend(v);
        ops.add(o);
        detail = detail.field(name, d);
    }
    let spans = Json::object()
        .field("workload", workload_spans)
        .field("layers", tracer.report());
    Ok((values, ops, detail, spans))
}

/// The environment for `seed`, rooted at the current directory.
pub fn make_env(seed: u64) -> Result<Env, String> {
    let root = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
    let work = root.join(".bench_work");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    Ok(Env {
        seed,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        checker: Checker::load(&root)?,
        work,
        root,
    })
}

/// `measure ...`: one workload measurement in this (child) process,
/// printed as one JSON line.
fn measure_child(args: &[String]) -> Result<Json, String> {
    let cli = parse_cli(args)?;
    let env = make_env(cli.seed)?;
    let tracer = Tracer::new(cli.trace);
    let m = measure(&cli.workload, &env, &tracer, cli.seconds)?;
    Ok(m.to_json(tracer.report()))
}

fn run(cli: &Cli) -> Result<(Json, Json), String> {
    let env = make_env(cli.seed)?;
    let nproc = env.nproc;
    let stem = format!(
        "{}-seed{}-trace{}",
        cli.workload,
        cli.seed,
        u8::from(cli.trace)
    );
    let (metrics, ops, detail) = if cli.trace {
        let (values, ops, detail, spans) = traced_run(&cli.workload, &env, cli.seconds)?;
        let spans_path = env.work.join(format!("{stem}.spans.json"));
        std::fs::write(&spans_path, spans.to_string())
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
        eprintln!("perfbench: wrote spans to {}", spans_path.display());
        (values.to_json(&metrics::per_layer_names())?, ops, detail)
    } else {
        let m = measure(&cli.workload, &env, &Tracer::new(false), cli.seconds)?;
        (
            m.values.to_json(&metrics::end_to_end_names())?,
            m.ops,
            m.detail,
        )
    };
    let result = Json::object()
        .field("correct", ops.failed == 0)
        .field("attempted", ops.attempted)
        .field("failed", ops.failed)
        .field("metrics", metrics);
    let record = Json::object()
        .field("host", host_facts(nproc))
        .field("workload", cli.workload.as_str())
        .field("seed", cli.seed)
        .field("seconds", cli.seconds)
        .field("trace", cli.trace)
        .field("result", result.clone())
        .field("detail", detail)
        .field("catalogue", metrics::catalogue());
    let record_path = env.work.join(format!("{stem}.record.json"));
    std::fs::write(&record_path, record.pretty())
        .map_err(|e| format!("cannot write {}: {e}", record_path.display()))?;
    Ok((record, result))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record-digests") => return paper::record_digests(),
        Some("record-wdl") => return paper::record_wdl(args.get(1)),
        Some(child @ ("measure" | "paper-cold-op" | "serve-setups")) => {
            let out = match child {
                "measure" => measure_child(&args[1..]),
                "paper-cold-op" => paper::cold_op(&args[1..]),
                _ => serve_mix::setups_op(&args[1..]),
            };
            return match out {
                Ok(doc) => {
                    println!("{doc}");
                    ExitCode::SUCCESS
                }
                Err(msg) => {
                    eprintln!("perfbench: {msg}");
                    ExitCode::from(1)
                }
            };
        }
        _ => {}
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok((record, result)) => {
            println!("{}", Json::object().field("record", record));
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(1)
        }
    }
}
