//! `paper_cold`: what a researcher running `repro all` pays.
//!
//! A closed batch with one caller. Each cold operation is a fresh process
//! that builds a `Runner` (nproc workers, its own trace cache) and a
//! `Harness` and produces all 12 paper documents plus the `wdl` document
//! over members of `examples/compress_like.wdl` and
//! `examples/swim_like.wdl` drawn with the seed. The warm operation is
//! the same reproduction on a runner whose persistent trace cache (traces
//! and plans) was filled during set-up, so only replay remains.
//!
//! The layer section replays a cold small-scale reproduction as a
//! waterfall from outside the runner — capture, plan, fused replay,
//! window analysis, render — then every Multiscalar cell on its own
//! through `run_planned` (the path grids take), and reports what a
//! one-worker cold reproduction spends outside those layers.

use crate::check::digest_line;
use crate::metrics::Values;
use crate::stats::{median, Summary};
use crate::tracer::{self, Ctx, Tracer};
use crate::{Env, Measured, Ops};
use mds_bench::grid::{cells, Cell};
use mds_bench::{Demand, Harness, PAPER_IDS};
use mds_emu::Trace;
use mds_harness::json::Json;
use mds_multiscalar::{forkable_twins, run_fused, run_planned, MsConfig};
use mds_ooo::{OooConfig, WindowAnalyzer};
use mds_runner::{Grid, JobKind, JobOutput, Runner, TraceCache};
use mds_workloads::Scale;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// WDL family seeds with recorded digests; the workload seed picks one.
pub const WDL_SEEDS: u64 = 16;
/// Members drawn per WDL scenario.
const WDL_COUNT: u32 = 2;
/// The WDL specs the `wdl` document is drawn from (held back from tuning).
const WDL_FILES: [&str; 2] = ["examples/compress_like.wdl", "examples/swim_like.wdl"];
/// The scale of the workload's operations. At small scale the
/// reproduction is memory-bandwidth bound and its wall time drifts 15–25%
/// between runs on a shared host; tiny scale stays in cache.
const WORKLOAD_SCALE: Scale = Scale::Tiny;
/// The scale of the layer waterfall: `repro all`'s default.
const LAYER_SCALE: Scale = Scale::Small;
/// Set-ups (trace-cache fills) per run; the median is reported.
const SETUP_REPEATS: usize = 30;
/// Fewest cold (and warm) operations, whatever the time budget.
const MIN_SAMPLES: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;

/// The WDL family seed used for workload seed `seed`.
pub fn wdl_seed(seed: u64) -> u64 {
    seed % WDL_SEEDS
}

/// The checker key of the WDL document at `scale` for a family seed.
pub fn wdl_key(scale: Scale, wdl_seed: u64) -> String {
    format!("{}/wdl-s{wdl_seed}", mds_bench::scale_name(scale))
}

/// Every document id a reproduction produces, in output order.
fn experiment_ids() -> Vec<String> {
    PAPER_IDS
        .iter()
        .map(|id| id.to_string())
        .chain(["wdl".to_string()])
        .collect()
}

fn doc_key(id: &str, scale: Scale, wdl_seed: u64) -> String {
    if id == "wdl" {
        wdl_key(scale, wdl_seed)
    } else {
        format!("{}/{id}", mds_bench::scale_name(scale))
    }
}

/// Registers the seeded WDL members (idempotent per process).
fn register_wdl(root: &Path, wdl_seed: u64) -> Result<(), String> {
    for file in WDL_FILES {
        let src = std::fs::read_to_string(root.join(file))
            .map_err(|e| format!("cannot read {file}: {e}"))?;
        let spec = mds_wdl::parse_spec(&src).map_err(|d| d.render(file))?;
        mds_wdl::register_spec(&spec, wdl_seed, WDL_COUNT).map_err(|d| d.render(file))?;
    }
    Ok(())
}

/// Builds every document from a harness that holds (or computes) its
/// results: `(checker key, document bytes)`.
fn render(h: &mut Harness, ids: &[String], wdl_seed: u64) -> Vec<(String, String)> {
    ids.iter()
        .map(|id| {
            let title = mds_bench::experiment_title(id).expect("registered id");
            let table = mds_bench::experiment(h, id).expect("registered id");
            let doc = mds_bench::results_doc(id, title, h.scale(), &table).pretty();
            (doc_key(id, h.scale(), wdl_seed), doc)
        })
        .collect()
}

/// One reproduction of every document on `runner`, as `repro` runs it:
/// one prefetched grid, then the tables.
fn reproduce(
    runner: Runner,
    scale: Scale,
    wdl_seed: u64,
    tracer: &Tracer,
    ctx: Ctx,
) -> (Vec<(String, String)>, Harness) {
    let ids = experiment_ids();
    let mut h = Harness::with_runner(scale, runner);
    let union: Vec<Demand> = ids.iter().flat_map(|id| mds_bench::demands(id)).collect();
    tracer.span("runner.prefetch", ctx, |_| h.prefetch(&union));
    let docs = tracer.span("bench.render", ctx, |_| render(&mut h, &ids, wdl_seed));
    (docs, h)
}

fn all_match(env: &Env, docs: &[(String, String)]) -> bool {
    docs.iter()
        .all(|(key, doc)| env.checker.check(key, doc.as_bytes()))
}

fn replays(kind: &JobKind) -> bool {
    !matches!(kind, JobKind::Summary)
}

/// Trace instructions replayed by every timing and analysis cell of the
/// experiments `ids` at the harness's scale (summary cells replay
/// nothing). Summaries the harness lacks are computed.
pub fn replayed_instructions(h: &mut Harness, ids: &[String]) -> u64 {
    cells(ids, h.scale())
        .iter()
        .filter(|c| replays(&c.job.kind))
        .map(|c| h.summary(&c.job.workload).instructions)
        .sum()
}

/// A persistent trace cache holding every workload's small trace and its
/// lowered replay plan, as a long-lived server holds them after its first
/// requests; warm operations then only replay.
fn fill_trace_cache(nproc: usize, scale: Scale) -> Arc<TraceCache> {
    let cache = Arc::new(TraceCache::persistent());
    let workloads: Vec<_> = mds_workloads::all()
        .into_iter()
        .chain(mds_workloads::generated())
        .collect();
    let mut grid = Grid::new(scale);
    for wl in &workloads {
        grid.summary(wl);
    }
    Runner::new(nproc)
        .with_shared_cache(Arc::clone(&cache))
        .run(&grid);
    mds_runner::run_indexed(nproc, workloads.len(), |i| {
        cache
            .fetch(&workloads[i], scale)
            .replay_plan()
            .resident_bytes()
    });
    cache
}

/// The untraced (or traced) workload measurement: set-up fills the warm
/// trace cache, then cold operations — each in a child process, as
/// `repro all` runs — alternate with warm operations in this process
/// until the time budget is spent.
pub fn measure(env: &Env, tracer: &Tracer, seconds: f64) -> Result<Measured, String> {
    let ws = wdl_seed(env.seed);
    register_wdl(&env.root, ws)?;
    let mut ops = Ops::default();
    let mut setup = Vec::new();
    let mut cache = None;
    for _ in 0..SETUP_REPEATS {
        drop(cache.take());
        let t = Instant::now();
        cache = Some(fill_trace_cache(env.nproc, WORKLOAD_SCALE));
        setup.push(t.elapsed().as_secs_f64());
    }
    let cache = cache.expect("at least one set-up");

    let child = ["paper-cold-op".to_string(), env.seed.to_string()];
    let (mut cold, mut warm, mut hwm) = (Vec::new(), Vec::new(), Vec::new());
    let mut instructions = 0u64;
    let started = Instant::now();
    while cold.len() < MIN_SAMPLES || started.elapsed().as_secs_f64() < seconds {
        let op = tracer.span("paper.cold", tracer.request(), |_| crate::run_child(&child))?;
        let number = |key: &str| {
            op.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cold operation result lacks {key}"))
        };
        ops.record(op.get("ok") == Some(&Json::Bool(true)));
        cold.push(number("wall_s")?);
        hwm.push(number("hwm_mib")?);
        instructions = number("instructions")? as u64;

        let runner = Runner::new(env.nproc).with_shared_cache(Arc::clone(&cache));
        let t = Instant::now();
        let (docs, _) = tracer.span("paper.warm", tracer.request(), |c| {
            reproduce(runner, WORKLOAD_SCALE, ws, tracer, c)
        });
        warm.push(t.elapsed().as_secs_f64());
        ops.record(all_match(env, &docs));
    }
    let peak_rss = median(&hwm);

    let mut values = Values::default();
    values.set("setup_s", median(&setup));
    values.set("cold_p50_ms", median(&cold) * 1e3);
    values.set("warm_p50_ms", median(&warm) * 1e3);
    values.set("sim_minst_per_s", instructions as f64 / median(&cold) / 1e6);
    values.set("peak_rss_mib", peak_rss);
    let ms = |s: &[f64]| Summary::of(&s.iter().map(|v| v * 1e3).collect::<Vec<_>>());
    let detail = Json::object()
        .field("wdl_seed", ws)
        .field("documents", experiment_ids().len())
        .field("replayed_instructions", instructions)
        .field("setup_s", Summary::of(&setup).to_json("s"))
        .field("cold_reproduction", ms(&cold).to_json("ms"))
        .field("warm_trace_reproduction", ms(&warm).to_json("ms"))
        .field("sim_minst_per_s", instructions as f64 / median(&cold) / 1e6)
        .field("peak_rss_mib", Summary::of(&hwm).to_json("MiB"));
    Ok(Measured {
        values,
        ops,
        detail,
    })
}

/// Partitions cells into scheduling groups for the waterfall: first-fit
/// over cell order, fusing Multiscalar policy twins and superscalar cells
/// that replay the same trace. This copies the rule `Runner::run` applied
/// when the benchmark was defined (the runner keeps its own private); the
/// layer section's detail sets this group count beside the runner's, so
/// a runner that fuses differently shows there.
fn plan_groups(cells: &[Cell]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (idx, cell) in cells.iter().enumerate() {
        let job = &cell.job;
        let home = groups.iter_mut().find(|g| {
            let first = &cells[g[0]].job;
            first.trace_key() == job.trace_key()
                && match (&first.kind, &job.kind) {
                    (JobKind::Multiscalar(a), JobKind::Multiscalar(b)) => forkable_twins(a, b),
                    (JobKind::Superscalar(_), JobKind::Superscalar(_)) => true,
                    _ => false,
                }
        });
        match home {
            Some(group) => group.push(idx),
            None => groups.push(vec![idx]),
        }
    }
    groups
}

fn ms_config(cell: &Cell) -> MsConfig {
    match &cell.job.kind {
        JobKind::Multiscalar(config) => config.clone(),
        _ => unreachable!("fused groups are homogeneous"),
    }
}

fn ooo_config(cell: &Cell) -> OooConfig {
    match &cell.job.kind {
        JobKind::Superscalar(config) => *config,
        _ => unreachable!("fused groups are homogeneous"),
    }
}

/// Replays one scheduling group over its trace, inside the layer span
/// of its kind.
fn replay_group(
    cells: &[Cell],
    group: &[usize],
    trace: &Trace,
    tracer: &Tracer,
    ctx: Ctx,
) -> Vec<JobOutput> {
    let members: Vec<&Cell> = group.iter().map(|&i| &cells[i]).collect();
    match &members[0].job.kind {
        JobKind::Multiscalar(_) => {
            let configs: Vec<MsConfig> = members.iter().map(|c| ms_config(c)).collect();
            tracer
                .span("multiscalar.fused", ctx, |_| {
                    if configs.len() == 1 {
                        vec![run_planned(trace, &configs[0])]
                    } else {
                        run_fused(trace, &configs)
                    }
                })
                .into_iter()
                .map(JobOutput::Multiscalar)
                .collect()
        }
        JobKind::Superscalar(_) => {
            let configs: Vec<OooConfig> = members.iter().map(|c| ooo_config(c)).collect();
            tracer
                .span("ooo.timing", ctx, |_| {
                    mds_ooo::run_fused(trace.records(), &configs)
                })
                .into_iter()
                .map(JobOutput::Superscalar)
                .collect()
        }
        JobKind::Window(config) => {
            let report = tracer.span("ooo.window", ctx, |_| {
                let mut analyzer = WindowAnalyzer::new(config.clone());
                for d in trace.records() {
                    analyzer.observe(d);
                }
                analyzer.finish()
            });
            vec![JobOutput::Window(report)]
        }
        JobKind::Summary => vec![JobOutput::Summary(trace.summary())],
    }
}

/// Sizes of what the waterfall captured and replayed.
#[derive(Default)]
struct Captured {
    instructions: u64,
    trace_bytes: usize,
    plan_bytes: usize,
    ms_instructions: u64,
}

/// The cold waterfall, one workload at a time as a one-worker runner
/// holds it: capture → plan → the workload's replay groups (fused
/// Multiscalar, window analysis) → drop the trace; then render every
/// document from the merged outputs and check it. With `planned`, each
/// Multiscalar cell is also replayed on its own through `run_planned`,
/// under that request.
fn waterfall(
    env: &Env,
    tracer: &Tracer,
    cold: Ctx,
    planned: Option<Ctx>,
    cells: &[Cell],
    wdl_seed: u64,
) -> Result<(Captured, bool), String> {
    let groups = plan_groups(cells);
    let mut captured = Captured::default();
    let mut outputs: Vec<Option<JobOutput>> = cells.iter().map(|_| None).collect();
    let mut done: Vec<&str> = Vec::new();
    for cell in cells {
        let wl = cell.job.workload;
        if done.contains(&wl.name) {
            continue;
        }
        done.push(wl.name);
        let trace = tracer
            .span("emu.capture", cold, |_| {
                Trace::capture(&wl.build(LAYER_SCALE))
            })
            .map_err(|e| format!("workload {} failed to emulate: {e}", wl.name))?;
        let plan_bytes = tracer.span("plan.build", cold, |_| trace.replay_plan().resident_bytes());
        captured.instructions += trace.summary().instructions;
        captured.trace_bytes += trace.resident_bytes();
        captured.plan_bytes += plan_bytes;
        for group in groups
            .iter()
            .filter(|g| cells[g[0]].job.workload.name == wl.name)
        {
            for (idx, out) in group
                .iter()
                .zip(replay_group(cells, group, &trace, tracer, cold))
            {
                outputs[*idx] = Some(out);
            }
        }
        for c in cells.iter().filter(|c| c.job.workload.name == wl.name) {
            if let JobKind::Multiscalar(config) = &c.job.kind {
                captured.ms_instructions += trace.summary().instructions;
                if let Some(planned) = planned {
                    black_box(tracer.span("multiscalar.planned", planned, |_| {
                        run_planned(&trace, config)
                    }));
                }
            }
        }
    }
    let mut h = Harness::with_runner(LAYER_SCALE, Runner::new(1));
    for (cell, out) in cells.iter().zip(outputs) {
        if !h.insert(&cell.demand, out.expect("every cell replayed")) {
            return Err(format!("output kind mismatch for cell {}", cell.id()));
        }
    }
    let docs = tracer.span("bench.render", cold, |_| {
        render(&mut h, &experiment_ids(), wdl_seed)
    });
    Ok((captured, all_match(env, &docs)))
}

/// Self seconds per span name over the spans of one request.
fn request_self_times(tracer: &Tracer, ctx: Ctx) -> BTreeMap<&'static str, f64> {
    let spans: Vec<_> = tracer
        .spans()
        .into_iter()
        .filter(|s| s.request == ctx.request)
        .collect();
    tracer::self_times(&spans)
}

/// The layers a cold reproduction is attributed to.
const WATERFALL_LAYERS: [&str; 6] = [
    "emu.capture",
    "plan.build",
    "multiscalar.fused",
    "ooo.window",
    "ooo.timing",
    "bench.render",
];
/// Alternating (one-worker reproduction, waterfall) pairs; per-layer
/// times and the remainder are medians over them.
const WATERFALL_REPS: usize = 3;

/// The paper layer section of the traced run.
pub fn layers(env: &Env, tracer: &Tracer) -> Result<(Values, Ops, Json), String> {
    let ws = wdl_seed(env.seed);
    register_wdl(&env.root, ws)?;
    let mut ops = Ops::default();
    let quiet = Tracer::new(false);

    // Runner statistics of one parallel cold reproduction.
    let (docs, h) = reproduce(
        Runner::new(env.nproc),
        LAYER_SCALE,
        ws,
        &quiet,
        quiet.request(),
    );
    ops.record(all_match(env, &docs));
    let stats = h.run_stats().to_vec();
    drop(h);

    // The untraced one-worker reproduction the layer times are held
    // against, alternated with the traced waterfall.
    let cells = cells(&experiment_ids(), LAYER_SCALE);
    let planned = tracer.request();
    let mut captured = Captured::default();
    let mut serial = Vec::new();
    let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut unattributed = Vec::new();
    for rep in 0..WATERFALL_REPS {
        let t = Instant::now();
        let (docs, h) = reproduce(Runner::new(1), LAYER_SCALE, ws, &quiet, quiet.request());
        let serial_s = t.elapsed().as_secs_f64();
        ops.record(all_match(env, &docs));
        drop(h);
        let cold = tracer.request();
        let (c, ok) = waterfall(env, tracer, cold, (rep == 0).then_some(planned), &cells, ws)?;
        ops.record(ok);
        captured = c;
        let st = request_self_times(tracer, cold);
        let mut attributed = 0.0;
        for name in WATERFALL_LAYERS {
            let s = st.get(name).copied().unwrap_or(0.0);
            attributed += s;
            per_layer.entry(name).or_default().push(s);
        }
        serial.push(serial_s);
        unattributed.push(serial_s - attributed);
    }
    let planned_s = request_self_times(tracer, planned)
        .get("multiscalar.planned")
        .copied()
        .unwrap_or(0.0);

    // Spec parsing, member expansion and lowering to programs.
    let sources: Vec<(&str, String)> = WDL_FILES
        .iter()
        .map(|f| {
            Ok((
                *f,
                std::fs::read_to_string(env.root.join(f)).map_err(|e| e.to_string())?,
            ))
        })
        .collect::<Result<_, String>>()?;
    let expand = tracer.request();
    tracer.span("wdl.expand", expand, |_| {
        for (file, src) in &sources {
            let spec = mds_wdl::parse_spec(src).map_err(|d| d.render(file))?;
            for scenario in &spec.scenarios {
                for inst in mds_wdl::expand(scenario, ws, WDL_COUNT) {
                    black_box(mds_wdl::compile(&inst, LAYER_SCALE));
                }
            }
        }
        Ok::<(), String>(())
    })?;
    let expand_s = request_self_times(tracer, expand)
        .get("wdl.expand")
        .copied()
        .unwrap_or(0.0);

    let t = |name: &str| per_layer.get(name).map_or(0.0, |v| median(v));
    let ms_cells = cells
        .iter()
        .filter(|c| matches!(c.job.kind, JobKind::Multiscalar(_)))
        .count();
    // The runner's own fusion: every scheduled group is one pool task.
    let runner_jobs: usize = stats.iter().map(|s| s.jobs).sum();
    let runner_groups: u64 = stats.iter().map(|s| s.pool.executed.iter().sum::<u64>()).sum();

    let mut v = Values::default();
    v.set("emu.capture_s", t("emu.capture"));
    v.set(
        "emu.minst_per_s",
        captured.instructions as f64 / t("emu.capture") / 1e6,
    );
    v.set("emu.trace_mib", captured.trace_bytes as f64 / MIB);
    v.set("plan.build_s", t("plan.build"));
    v.set("plan.resident_mib", captured.plan_bytes as f64 / MIB);
    v.set("multiscalar.fused_s", t("multiscalar.fused"));
    v.set("multiscalar.planned_s", planned_s);
    v.set(
        "runner.cells_per_group",
        runner_jobs as f64 / runner_groups as f64,
    );
    v.set(
        "multiscalar.minst_per_s",
        captured.ms_instructions as f64 / t("multiscalar.fused") / 1e6,
    );
    v.set("ooo.window_s", t("ooo.window"));
    let wall_ns: u128 = stats.iter().map(|s| s.wall_ns).sum();
    let busy_ns: u128 = stats.iter().map(|s| s.pool.total_busy_ns()).sum();
    let capacity_ns: u128 = stats.iter().map(|s| s.wall_ns * s.workers as u128).sum();
    v.set("runner.wall_s", wall_ns as f64 / 1e9);
    v.set("runner.utilization", busy_ns as f64 / capacity_ns as f64);
    v.set(
        "runner.steals",
        stats.iter().map(|s| s.pool.steals).sum::<u64>() as f64,
    );
    v.set(
        "runner.trace_hits",
        stats.iter().map(|s| s.cache_hits).sum::<u64>() as f64,
    );
    v.set(
        "runner.trace_misses",
        stats.iter().map(|s| s.cache_misses).sum::<u64>() as f64,
    );
    v.set(
        "runner.peak_trace_mib",
        stats.iter().map(|s| s.peak_trace_bytes).max().unwrap_or(0) as f64 / MIB,
    );
    v.set("bench.render_s", t("bench.render"));
    v.set("wdl.expand_s", expand_s);
    v.set("paper.serial_wall_s", median(&serial));
    v.set("paper.unattributed_s", median(&unattributed));

    let waterfall = WATERFALL_LAYERS
        .iter()
        .fold(Json::object(), |doc, name| doc.field(name, t(name)))
        .field("unattributed", median(&unattributed))
        .field("serial_wall", median(&serial));
    let detail = Json::object()
        .field("wdl_seed", ws)
        .field("cells", cells.len())
        .field("multiscalar_cells", ms_cells)
        .field("runner_jobs", runner_jobs)
        .field("runner_groups", runner_groups)
        .field("waterfall_groups", plan_groups(&cells).len())
        .field("waterfall_repetitions", WATERFALL_REPS)
        .field("waterfall_s", waterfall);
    Ok((v, ops, detail))
}

/// `paper-cold-op <seed>`: one cold reproduction in this fresh process;
/// reports its wall time, whether every document matched, this process's
/// VmHWM, and the instructions the reproduction replayed.
pub fn cold_op(args: &[String]) -> Result<Json, String> {
    let seed: u64 = match args {
        [seed] => seed.parse().map_err(|_| format!("bad seed {seed:?}"))?,
        _ => return Err("usage: paper-cold-op <seed>".to_string()),
    };
    let env = crate::make_env(seed)?;
    let ws = wdl_seed(seed);
    register_wdl(&env.root, ws)?;
    let quiet = Tracer::new(false);
    let t = Instant::now();
    let (docs, mut h) = reproduce(
        Runner::new(env.nproc),
        WORKLOAD_SCALE,
        ws,
        &quiet,
        quiet.request(),
    );
    let wall_s = t.elapsed().as_secs_f64();
    let hwm_mib = crate::vm_hwm_mib();
    Ok(Json::object()
        .field("ok", all_match(&env, &docs))
        .field("wall_s", wall_s)
        .field("hwm_mib", hwm_mib)
        .field(
            "instructions",
            replayed_instructions(&mut h, &experiment_ids()),
        ))
}

/// `record-digests`: writes `perfbench/digests.txt` from the current
/// code — every small paper document, and the WDL document for each
/// family seed (one child process per seed, since WDL registration is
/// process-global).
pub fn record_digests() -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut h = Harness::with_runner(LAYER_SCALE, Runner::new(nproc));
    let ids: Vec<String> = PAPER_IDS.iter().map(|id| id.to_string()).collect();
    let mut lines = vec![
        "# key length fnv1a-64: documents the benchmark checks by digest.".to_string(),
        "# Regenerate with `mds-perfbench record-digests` from the repository root.".to_string(),
    ];
    for (key, doc) in render(&mut h, &ids, 0) {
        lines.push(digest_line(&key, doc.as_bytes()));
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own binary: {e}");
            return ExitCode::from(1);
        }
    };
    for seed in 0..WDL_SEEDS {
        let out = std::process::Command::new(&exe)
            .args(["record-wdl", &seed.to_string()])
            .output();
        match out {
            Ok(out) if out.status.success() => {
                lines.push(String::from_utf8_lossy(&out.stdout).trim().to_string());
            }
            _ => {
                eprintln!("perfbench: recording the WDL digest for seed {seed} failed");
                return ExitCode::from(1);
            }
        }
    }
    let path = Path::new("perfbench/digests.txt");
    match std::fs::write(path, lines.join("\n") + "\n") {
        Ok(()) => {
            eprintln!("perfbench: wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            ExitCode::from(1)
        }
    }
}

/// `record-wdl <seed>`: prints the digest lines of one family seed's WDL
/// document at the workload and layer scales.
pub fn record_wdl(seed: Option<&String>) -> ExitCode {
    let Some(seed) = seed.and_then(|s| s.parse::<u64>().ok()) else {
        eprintln!("perfbench: record-wdl needs a family seed");
        return ExitCode::from(2);
    };
    if let Err(e) = register_wdl(Path::new("."), seed) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for scale in [WORKLOAD_SCALE, LAYER_SCALE] {
        let mut h = Harness::with_runner(scale, Runner::new(nproc));
        for (key, doc) in render(&mut h, &["wdl".to_string()], seed) {
            println!("{}", digest_line(&key, doc.as_bytes()));
        }
    }
    ExitCode::SUCCESS
}
