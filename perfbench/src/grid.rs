//! `grid_cluster`: scatter-gather grids through the cluster gateway.
//!
//! An in-process `Fleet` of nproc backends, each with one simulation
//! thread, behind a `Gateway`; every cache starts empty. One cold
//! `POST /v1/grids` with fig5 and fig6, then repeats of the same grid. The
//! seed permutes the experiment order, and the merged bytes must follow
//! it. The layer section runs the same grid at small scale.

use crate::metrics::Values;
use crate::serve_mix::{connect, wait_ready};
use crate::stats::{median, Summary};
use crate::tracer::Tracer;
use crate::{Env, Measured, Ops};
use mds_cluster::fleet::{Fleet, FleetConfig};
use mds_cluster::gateway::{Gateway, GatewayConfig};
use mds_harness::json::Json;
use mds_harness::rng::Rng;
use mds_runner::{Grid, Runner, TraceCache};
use mds_serve::{Connection, LogTarget, Server, ServerConfig};
use mds_workloads::Scale;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The experiments of every grid.
const GRID_IDS: [&str; 2] = ["fig5", "fig6"];
/// Repeats of the grid per fleet.
const REPEATS: usize = 2;
/// Fewest fleets (cold grids) per run, whatever the time budget.
const MIN_FLEETS: usize = 3;
/// The scale of the workload's grids. Small-scale grids are
/// memory-bandwidth bound and drift 15–25% between runs on a shared host;
/// tiny-scale grids stay in cache, and per-cell dispatch weighs more.
const WORKLOAD_SCALE: Scale = Scale::Tiny;
/// The scale of the cluster layer section.
const LAYER_SCALE: Scale = Scale::Small;

/// The seed's permutation of [`GRID_IDS`].
pub fn grid_order(seed: u64) -> Vec<String> {
    let mut ids: Vec<String> = GRID_IDS.iter().map(|s| s.to_string()).collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0x6e1d_0a7d_e2b0_0002);
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..i + 1));
    }
    ids
}

fn grid_body(order: &[String], scale: Scale, fresh: bool) -> String {
    let list: Vec<String> = order.iter().map(|id| format!("{id:?}")).collect();
    format!(
        r#"{{"experiments":[{}],"scale":"{}","fresh":{fresh}}}"#,
        list.join(","),
        mds_bench::scale_name(scale)
    )
}

/// Sends one grid and checks the merged bytes; returns (ok, seconds).
fn send_grid(
    env: &Env,
    conn: &mut Connection,
    order: &[String],
    scale: Scale,
    fresh: bool,
) -> (bool, f64) {
    let name = mds_bench::scale_name(scale);
    let keys: Vec<String> = order.iter().map(|id| format!("{name}/{id}")).collect();
    let t = Instant::now();
    let response = conn.send(
        "POST",
        "/v1/grids",
        grid_body(order, scale, fresh).as_bytes(),
    );
    let elapsed = t.elapsed().as_secs_f64();
    let ok = response.is_ok_and(|r| r.status == 200 && env.checker.check_concat(&keys, &r.body));
    (ok, elapsed)
}

/// Set-up: a fleet of nproc one-thread backends and a gateway, ready.
fn spawn(env: &Env) -> Result<(Fleet, Gateway), String> {
    let fleet = Fleet::spawn(&FleetConfig {
        backends: env.nproc,
        jobs: Some(1),
        ..FleetConfig::default()
    })?;
    let gateway = Gateway::start(GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: fleet.addrs(),
        log: LogTarget::Discard,
        ..GatewayConfig::default()
    })?;
    wait_ready(&gateway.local_addr().to_string())?;
    Ok((fleet, gateway))
}

fn shutdown(fleet: Fleet, gateway: Gateway) {
    gateway.shutdown();
    fleet.shutdown();
}

/// The untraced (or traced) workload measurement.
pub fn measure(env: &Env, tracer: &Tracer, seconds: f64) -> Result<Measured, String> {
    let order = grid_order(env.seed);
    let mut ops = Ops::default();
    let (mut setup_s, mut cold_s, mut repeat_s) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while cold_s.len() < MIN_FLEETS || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let (fleet, gateway) = spawn(env)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let mut conn = connect(&gateway.local_addr().to_string())?;
        let ctx = tracer.request();
        let (ok, s) = tracer.span("gateway.grid_cold", ctx, |_| {
            send_grid(env, &mut conn, &order, WORKLOAD_SCALE, false)
        });
        ops.record(ok);
        cold_s.push(s);
        for _ in 0..REPEATS {
            let ctx = tracer.request();
            let (ok, s) = tracer.span("gateway.grid_repeat", ctx, |_| {
                send_grid(env, &mut conn, &order, WORKLOAD_SCALE, false)
            });
            ops.record(ok);
            repeat_s.push(s);
        }
        drop(conn);
        shutdown(fleet, gateway);
    }
    let peak_rss = crate::vm_hwm_mib();
    let mut h = mds_bench::Harness::with_runner(WORKLOAD_SCALE, Runner::new(1));
    let instructions = crate::paper::replayed_instructions(&mut h, &order);

    let mut values = Values::default();
    values.set("setup_s", median(&setup_s));
    values.set("cold_p50_ms", median(&cold_s) * 1e3);
    values.set("warm_p50_ms", median(&repeat_s) * 1e3);
    values.set(
        "sim_minst_per_s",
        instructions as f64 / median(&cold_s) / 1e6,
    );
    values.set("peak_rss_mib", peak_rss);
    let ms = |s: &[f64]| Summary::of(&s.iter().map(|v| v * 1e3).collect::<Vec<_>>());
    let detail = Json::object()
        .field("backends", env.nproc)
        .field(
            "order",
            Json::Array(order.iter().map(|s| Json::from(s.as_str())).collect()),
        )
        .field("replayed_instructions", instructions)
        .field("setup_s", Summary::of(&setup_s).to_json("s"))
        .field("grid_cold", ms(&cold_s).to_json("ms"))
        .field("grid_repeat", ms(&repeat_s).to_json("ms"))
        .field("peak_rss_mib", peak_rss);
    Ok(Measured {
        values,
        ops,
        detail,
    })
}

/// Gateway counters the layer section differences.
struct Counters {
    cells: u64,
    upstream: (u64, u64),
    retries: u64,
    cell_failures: u64,
}

fn counters(gateway: &Gateway) -> Counters {
    let m = gateway.metrics();
    let load = |v: &AtomicU64| v.load(Ordering::Relaxed);
    Counters {
        cells: load(&m.grid_cells_total),
        upstream: (m.upstream_latency.count(), m.upstream_latency.sum_us()),
        retries: load(&m.retries_total),
        cell_failures: load(&m.grid_cell_failures_total),
    }
}

fn backend_sum(fleet: &Fleet, n: usize, f: impl Fn(&Server) -> u64) -> u64 {
    (0..n).filter_map(|i| fleet.server(i)).map(f).sum()
}

/// The cluster layer section of the traced run.
pub fn layers(env: &Env, tracer: &Tracer) -> Result<(Values, Ops, Json), String> {
    let ctx = tracer.request();
    let mut ops = Ops::default();
    let order = grid_order(env.seed);
    let (fleet, gateway) = spawn(env)?;
    let mut conn = connect(&gateway.local_addr().to_string())?;

    let c0 = counters(&gateway);
    let (ok, cold_s) = tracer.span("gateway.grid_cold", ctx, |_| {
        send_grid(env, &mut conn, &order, LAYER_SCALE, false)
    });
    ops.record(ok);
    let c1 = counters(&gateway);
    let trace_misses = backend_sum(&fleet, env.nproc, |s| s.trace_cache().misses());
    let hits = |fleet: &Fleet| {
        backend_sum(fleet, env.nproc, |s| {
            s.metrics().result_cache_hits.load(Ordering::Relaxed)
        })
    };
    let hits0 = hits(&fleet);
    let mut repeats = Vec::new();
    for _ in 0..REPEATS {
        let (ok, s) = tracer.span("gateway.grid_repeat", ctx, |_| {
            send_grid(env, &mut conn, &order, LAYER_SCALE, false)
        });
        ops.record(ok);
        repeats.push(s);
    }
    let c2 = counters(&gateway);
    let cache_hits = hits(&fleet) - hits0;
    drop(conn);
    shutdown(fleet, gateway);

    // One grid cell at a time through an in-process runner whose traces
    // are warm, as a backend answers a repeat cell.
    let cells = mds_bench::grid::cells(&order, LAYER_SCALE);
    let cache = Arc::new(TraceCache::persistent());
    let runner = Runner::new(1).with_shared_cache(Arc::clone(&cache));
    let mut warm = Grid::new(LAYER_SCALE);
    for cell in &cells {
        warm.summary(&cell.job.workload);
    }
    runner.run(&warm);
    let mut one_cell_ms = Vec::new();
    for cell in &cells {
        let mut grid = Grid::new(LAYER_SCALE);
        grid.push(cell.job.clone());
        let t = Instant::now();
        std::hint::black_box(tracer.span("runner.one_cell", ctx, |_| runner.run(&grid)));
        one_cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(runner);
    drop(cache);

    // The same grid sent fresh to a lone backend whose traces are warm.
    let lone = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: Some(env.nproc),
        log: LogTarget::Discard,
        ..ServerConfig::default()
    })?;
    let mut conn = connect(&lone.local_addr().to_string())?;
    let mut lone_s = Vec::new();
    for i in 0..=REPEATS {
        let (ok, s) = tracer.span("serve.grid_fresh", ctx, |_| {
            send_grid(env, &mut conn, &order, LAYER_SCALE, true)
        });
        ops.record(ok);
        if i > 0 {
            lone_s.push(s);
        }
    }
    drop(conn);
    lone.shutdown();

    let calls = c1.upstream.0 - c0.upstream.0;
    let repeat_calls = c2.upstream.0 - c1.upstream.0;
    let mut v = Values::default();
    v.set(
        "gateway.cells_per_call",
        (c1.cells - c0.cells) as f64 / calls as f64,
    );
    v.set(
        "gateway.cell_rtt_ms",
        (c2.upstream.1 - c1.upstream.1) as f64 / repeat_calls as f64 / 1e3,
    );
    v.set("runner.one_cell_ms", median(&one_cell_ms));
    v.set("cluster.trace_misses", trace_misses as f64);
    v.set("cluster.result_cache_hits", cache_hits as f64);
    v.set("gateway.repeat_gap_s", median(&repeats) - median(&lone_s));
    v.set("gateway.retries", (c2.retries - c0.retries) as f64);
    v.set(
        "gateway.local_recomputes",
        (c2.cell_failures - c0.cell_failures) as f64,
    );
    let detail = Json::object()
        .field("cells", cells.len())
        .field("upstream_calls_cold", calls)
        .field("grid_cold_s", cold_s)
        .field("grid_repeat_s", median(&repeats))
        .field("lone_fresh_s", median(&lone_s))
        .field("one_cell", Summary::of(&one_cell_ms).to_json("ms"));
    Ok((v, ops, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_permutes_the_grid_order() {
        let orders: std::collections::BTreeSet<Vec<String>> = (0..16).map(grid_order).collect();
        assert_eq!(orders.len(), 2, "both orders occur over 16 seeds");
        assert_eq!(grid_order(5), grid_order(5));
        assert_eq!(
            grid_body(&grid_order(5), Scale::Tiny, false)
                .matches("fig")
                .count(),
            GRID_IDS.len()
        );
    }
}
