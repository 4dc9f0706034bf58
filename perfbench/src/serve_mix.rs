//! `serve_mix`: open-loop warm reads with a few fresh recomputes against
//! one in-process, store-backed `mds-serve`.
//!
//! Arrivals come at a fixed offered rate from a seeded schedule: most are
//! warm reads spread with a Zipf skew over the 12 paper documents, a few
//! percent are `"fresh": true` recomputes of fig5, fig6, table6 or table9
//! at tiny scale — the writes (result cache and store) beside the reads.
//! At most nproc client threads, each with one keep-alive connection,
//! send them: fresh recomputes on one connection, warm reads on the rest. Latency is charged from the scheduled send time, and the
//! generator's lateness is reported.

use crate::metrics::Values;
use crate::stats::{median, Summary};
use crate::tracer::Tracer;
use crate::{Env, Measured, Ops};
use mds_bench::PAPER_IDS;
use mds_harness::json::Json;
use mds_harness::rng::Rng;
use mds_serve::{Connection, ExperimentRequest, Server, ServerConfig, Service};
use mds_workloads::Scale;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load, requests per second.
pub const RATE: f64 = 1500.0;
/// Share of arrivals that are fresh recomputes.
pub const FRESH_SHARE: f64 = 0.02;
/// The experiments fresh arrivals recompute.
pub const FRESH_IDS: [&str; 4] = ["fig5", "fig6", "table6", "table9"];
/// Server set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 15;
/// Seconds of load in the layer section's loaded run.
const LOADED_SECONDS: f64 = 3.0;
/// Round trips per quiet-server probe.
const PROBES: usize = 200;
/// Fresh executions per quiet-server probe.
const FRESH_PROBES: usize = 20;
/// Client read/write timeout; a cold small-scale grid answers well within it.
const IO_TIMEOUT: Duration = Duration::from_secs(170);
/// How long before a send is due the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(100);

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the run, seconds.
    pub at_s: f64,
    /// Experiment id.
    pub id: &'static str,
    /// Fresh recompute (`true`) or warm read.
    pub fresh: bool,
}

/// The seeded arrival schedule: Poisson arrivals at `rate` for
/// `seconds`, each a warm read (Zipf over the paper documents) or, with
/// probability [`FRESH_SHARE`], a fresh recompute.
pub fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5e7e_a11a_b1e5_0001);
    let weights: Vec<f64> = (1..=PAPER_IDS.len()).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        let fresh = rng.gen::<f64>() < FRESH_SHARE;
        let id = if fresh {
            FRESH_IDS[rng.gen_range(0..FRESH_IDS.len())]
        } else {
            let mut pick = rng.gen::<f64>() * total;
            let mut chosen = PAPER_IDS[PAPER_IDS.len() - 1];
            for (id, w) in PAPER_IDS.iter().zip(&weights) {
                if pick < *w {
                    chosen = id;
                    break;
                }
                pick -= w;
            }
            chosen
        };
        out.push(Arrival { at_s: t, id, fresh });
    }
}

fn body(id: &str, fresh: bool) -> String {
    if fresh {
        format!(r#"{{"experiment":"{id}","scale":"tiny","fresh":true}}"#)
    } else {
        format!(r#"{{"experiment":"{id}","scale":"tiny"}}"#)
    }
}

/// A keep-alive client connection to `addr`.
pub fn connect(addr: &str) -> Result<Connection, String> {
    Connection::connect(addr, Duration::from_secs(5), IO_TIMEOUT)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// POSTs one experiment and checks the answer against the pinned bytes.
/// Reconnects after a response that closes the connection (the server's
/// keep-alive cap) or a failed exchange.
fn post_checked(env: &Env, conn: &mut Connection, id: &str, fresh: bool) -> bool {
    let addr = conn.stream_mut().peer_addr().map(|a| a.to_string());
    let (ok, reconnect) = match conn.send("POST", "/v1/experiments", body(id, fresh).as_bytes()) {
        Ok(r) => (
            r.status == 200 && env.checker.check(&format!("tiny/{id}"), &r.body),
            Connection::must_close(&r),
        ),
        Err(_) => (false, true),
    };
    if reconnect {
        if let Some(fresh_conn) = addr.ok().and_then(|a| connect(&a).ok()) {
            *conn = fresh_conn;
        }
    }
    ok
}

/// Polls `GET /readyz` until it answers 200.
pub fn wait_ready(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut conn) = connect(addr) {
            if conn
                .send("GET", "/readyz", b"")
                .is_ok_and(|r| r.status == 200)
            {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became ready"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn start_server(env: &Env, store: &Path) -> Result<Server, String> {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: Some(env.nproc),
        store_dir: Some(store.to_path_buf()),
        log: mds_serve::LogTarget::Discard,
        ..ServerConfig::default()
    })
}

/// An empty store directory under the work directory.
fn fresh_store(env: &Env, n: usize) -> Result<PathBuf, String> {
    let dir = env
        .work
        .join(format!("serve-store-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Set-up: start a server over an empty store, wait until it is ready,
/// and fill its result cache (and store) with the 12 paper documents.
fn setup(env: &Env, store: &Path, ops: &mut Ops) -> Result<Server, String> {
    let server = start_server(env, store)?;
    let addr = server.local_addr().to_string();
    wait_ready(&addr)?;
    let mut conn = connect(&addr)?;
    for id in PAPER_IDS {
        ops.record(post_checked(env, &mut conn, id, false));
    }
    Ok(server)
}

/// What one load run observed.
#[derive(Default)]
struct Load {
    warm_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    fresh_minst: Vec<f64>,
    late_ms: Vec<f64>,
    ops: Ops,
    /// CPU time the process (server and generator) used during the load,
    /// as a share of wall time × nproc.
    cpu_share: f64,
}

/// Trace instructions a fresh recompute of each fresh id replays.
fn fresh_instructions() -> Vec<(&'static str, u64)> {
    let mut h = mds_bench::Harness::with_runner(Scale::Tiny, mds_runner::Runner::new(1));
    FRESH_IDS
        .iter()
        .map(|&id| {
            (
                id,
                crate::paper::replayed_instructions(&mut h, &[id.to_string()]),
            )
        })
        .collect()
}

/// Sends `arrivals` open-loop from `env.nproc` threads, each with one
/// keep-alive connection. With two or more, fresh recomputes get one
/// connection and warm reads the rest, so a warm read never queues behind
/// a recompute in the client — only in the server, which is the
/// interaction this workload measures.
fn drive(
    env: &Env,
    tracer: &Tracer,
    addr: &str,
    arrivals: &[Arrival],
    instructions: &[(&str, u64)],
) -> Result<Load, String> {
    let conns = (0..env.nproc)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let queues: Vec<(Vec<&Arrival>, AtomicUsize)> = if env.nproc >= 2 {
        [true, false]
            .iter()
            .map(|&fresh| {
                let q = arrivals.iter().filter(|a| a.fresh == fresh).collect();
                (q, AtomicUsize::new(0))
            })
            .collect()
    } else {
        vec![(arrivals.iter().collect(), AtomicUsize::new(0))]
    };
    let merged = Mutex::new(Load::default());
    let cpu_before = cpu_seconds();
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for (lane, mut conn) in conns.into_iter().enumerate() {
            let (queue, next) = &queues[lane.min(queues.len() - 1)];
            let merged = &merged;
            scope.spawn(move || {
                let mut load = Load::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(a) = queue.get(i) else { break };
                    let due = start + Duration::from_secs_f64(a.at_s);
                    // Sleep to just short of the due time, then spin, so a
                    // send leaves on schedule rather than at timer slack.
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        if wait > SPIN {
                            std::thread::sleep(wait - SPIN);
                        }
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                    }
                    let sent = Instant::now();
                    let ctx = tracer.request();
                    let ok = tracer.span("client.request", ctx, |_| {
                        post_checked(env, &mut conn, a.id, a.fresh)
                    });
                    let done = Instant::now();
                    load.ops.record(ok);
                    if !ok {
                        continue;
                    }
                    let latency_s = done.duration_since(due).as_secs_f64();
                    load.late_ms
                        .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                    if a.fresh {
                        load.fresh_ms.push(latency_s * 1e3);
                        let n = instructions
                            .iter()
                            .find(|(id, _)| *id == a.id)
                            .map_or(0, |&(_, n)| n);
                        load.fresh_minst.push(n as f64 / latency_s / 1e6);
                    } else {
                        load.warm_ms.push(latency_s * 1e3);
                    }
                }
                let mut m = merged.lock().expect("load merge poisoned");
                m.warm_ms.extend(load.warm_ms);
                m.fresh_ms.extend(load.fresh_ms);
                m.fresh_minst.extend(load.fresh_minst);
                m.late_ms.extend(load.late_ms);
                m.ops.add(load.ops);
            });
        }
    });
    let mut load = merged.into_inner().expect("load merge poisoned");
    let wall = start.elapsed().as_secs_f64();
    load.cpu_share = (cpu_seconds() - cpu_before) / (wall * env.nproc as f64);
    Ok(load)
}

/// CPU seconds this process has used (user + system), from
/// `/proc/self/stat` at the usual 100 ticks per second; 0 if unreadable.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// `serve-setups <seed>`: every set-up but the one that serves the load,
/// in this fresh process, so the heaps of servers already shut down stay
/// out of the measuring process's VmHWM. Prints the set-up times and the
/// prewarm operation counts.
pub fn setups_op(args: &[String]) -> Result<Json, String> {
    let seed: u64 = match args {
        [seed] => seed.parse().map_err(|_| format!("bad seed {seed:?}"))?,
        _ => return Err("usage: serve-setups <seed>".to_string()),
    };
    let env = crate::make_env(seed)?;
    let mut ops = Ops::default();
    let mut setup_s = Vec::new();
    for n in 1..SETUP_REPEATS {
        let store = fresh_store(&env, n)?;
        let t = Instant::now();
        let server = setup(&env, &store, &mut ops)?;
        setup_s.push(t.elapsed().as_secs_f64());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&store);
    }
    Ok(Json::object()
        .field("setup_s", setup_s)
        .field("attempted", ops.attempted)
        .field("failed", ops.failed))
}

/// The untraced (or traced) workload measurement.
pub fn measure(env: &Env, tracer: &Tracer, seconds: f64) -> Result<Measured, String> {
    let instructions = fresh_instructions();
    let child = ["serve-setups".to_string(), env.seed.to_string()];
    let earlier = crate::run_child(&child)?;
    let count = |key: &str| {
        earlier
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("set-up result lacks {key}"))
    };
    let mut ops = Ops {
        attempted: count("attempted")?,
        failed: count("failed")?,
    };
    let mut setup_s: Vec<f64> = earlier
        .get("setup_s")
        .and_then(Json::as_array)
        .ok_or("set-up result lacks setup_s")?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let store = fresh_store(env, 0)?;
    let t = Instant::now();
    let server = setup(env, &store, &mut ops)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let addr = server.local_addr().to_string();
    let arrivals = schedule(env.seed, RATE, seconds);
    let load = drive(env, tracer, &addr, &arrivals, &instructions)?;
    let peak_rss = crate::vm_hwm_mib();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
    ops.add(load.ops);

    let mut values = Values::default();
    values.set("setup_s", median(&setup_s));
    values.set("cold_p50_ms", median(&load.fresh_ms));
    values.set("warm_p50_ms", median(&load.warm_ms));
    values.set("sim_minst_per_s", median(&load.fresh_minst));
    values.set("peak_rss_mib", peak_rss);
    let detail = Json::object()
        .field("offered_rps", RATE)
        .field("fresh_share", FRESH_SHARE)
        .field("connections", env.nproc)
        .field("arrivals", arrivals.len())
        .field("cpu_busy_share", load.cpu_share)
        .field("setup_s", Summary::of(&setup_s).to_json("s"))
        .field("warm_latency", Summary::of(&load.warm_ms).to_json("ms"))
        .field("fresh_latency", Summary::of(&load.fresh_ms).to_json("ms"))
        .field(
            "generator_lateness",
            Summary::of(&load.late_ms).to_json("ms"),
        )
        .field("peak_rss_mib", peak_rss);
    Ok(Measured {
        values,
        ops,
        detail,
    })
}

/// Median round trip of `n` requests on one keep-alive connection, µs.
fn probe_us(
    conn: &mut Connection,
    n: usize,
    mut send: impl FnMut(&mut Connection) -> bool,
    ops: &mut Ops,
) -> f64 {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let ok = send(conn);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        ops.record(ok);
    }
    median(&samples)
}

/// A snapshot of the server counters the loaded run differences.
struct Counters {
    queue_wait: (u64, u64),
    compute: (u64, u64),
    hits: u64,
    misses: u64,
    shed: u64,
    appends: u64,
}

fn counters(server: &Server) -> Counters {
    let m = server.metrics();
    let load = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::Relaxed);
    Counters {
        queue_wait: (m.queue_wait.count(), m.queue_wait.sum_us()),
        compute: (m.compute.count(), m.compute.sum_us()),
        hits: load(&m.result_cache_hits),
        misses: load(&m.result_cache_misses),
        shed: load(&m.rejected_total),
        appends: server.store().map_or(0, |s| s.appends()),
    }
}

fn mean_delta(before: (u64, u64), after: (u64, u64)) -> f64 {
    let n = after.0.saturating_sub(before.0);
    if n == 0 {
        return 0.0;
    }
    after.1.saturating_sub(before.1) as f64 / n as f64
}

/// The serve and store layer section of the traced run.
pub fn layers(env: &Env, tracer: &Tracer) -> Result<(Values, Ops, Json), String> {
    let ctx = tracer.request();
    let mut ops = Ops::default();
    let store = fresh_store(env, 0)?;
    let server = setup(env, &store, &mut ops)?;
    let addr = server.local_addr().to_string();
    let mut conn = connect(&addr)?;

    let healthz_us = tracer.span("serve.healthz", ctx, |_| {
        let healthz = |c: &mut Connection| {
            c.send("GET", "/healthz", b"")
                .is_ok_and(|r| r.status == 200)
        };
        probe_us(&mut conn, PROBES, healthz, &mut ops)
    });
    let warm_hit_us = tracer.span("serve.warm_hit", ctx, |_| {
        let warm = |c: &mut Connection| post_checked(env, c, "fig5", false);
        probe_us(&mut conn, PROBES, warm, &mut ops)
    });
    let service = Service::new(Some(env.nproc))?;
    let request = ExperimentRequest {
        experiment: "fig5".to_string(),
        scale: Scale::Tiny,
        fresh: true,
    };
    let mut execute_ms = Vec::new();
    for i in 0..=FRESH_PROBES {
        let t = Instant::now();
        let doc = tracer.span("serve.execute", ctx, |_| service.execute(&request));
        // The first execution emulates; the server's fresh path has warm
        // traces, so only the rest are timed.
        if i > 0 {
            execute_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        ops.record(doc.is_ok_and(|d| env.checker.check("tiny/fig5", d.as_bytes())));
    }
    let fresh_rt_ms = tracer.span("serve.fresh", ctx, |_| {
        let fresh = |c: &mut Connection| post_checked(env, c, "fig5", true);
        probe_us(&mut conn, FRESH_PROBES, fresh, &mut ops) / 1e3
    });
    drop(conn);

    let before = counters(&server);
    let instructions = fresh_instructions();
    let quiet = Tracer::new(false);
    let arrivals = schedule(env.seed, RATE, LOADED_SECONDS);
    let load = tracer.span("serve.loaded", ctx, |_| {
        drive(env, &quiet, &addr, &arrivals, &instructions)
    })?;
    ops.add(load.ops);
    let after = counters(&server);
    server.shutdown();

    // Restart over the filled store until the first warm answer.
    let t = Instant::now();
    let (reborn, conn, ok) = tracer.span("store.boot", ctx, |_| {
        let reborn = start_server(env, &store)?;
        let mut conn = connect(&reborn.local_addr().to_string())?;
        let ok = post_checked(env, &mut conn, "fig5", false);
        Ok::<_, String>((reborn, conn, ok))
    })?;
    let boot_s = t.elapsed().as_secs_f64();
    ops.record(ok);
    let emulated = reborn.trace_cache().misses();
    drop(conn);
    reborn.shutdown();
    let _ = std::fs::remove_dir_all(&store);

    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    let late = Summary::of(&load.late_ms);
    let mut v = Values::default();
    v.set("serve.healthz_us", healthz_us);
    v.set("serve.warm_hit_us", warm_hit_us);
    v.set("serve.execute_ms", median(&execute_ms));
    v.set("serve.fresh_overhead_ms", fresh_rt_ms - median(&execute_ms));
    v.set(
        "serve.queue_wait_us",
        mean_delta(before.queue_wait, after.queue_wait),
    );
    v.set(
        "serve.compute_ms",
        mean_delta(before.compute, after.compute) / 1e3,
    );
    v.set("serve.result_cache_hit_ratio", hits as f64 / lookups as f64);
    v.set("serve.shed", (after.shed - before.shed) as f64);
    v.set("client.late_ms", late.tail.map_or(late.median, |(_, v)| v));
    v.set("store.boot_s", boot_s);
    // Since the store opened empty: set-up's prewarm plus the loaded run.
    v.set("store.appends", after.appends as f64);
    let detail = Json::object()
        .field("fresh_round_trip_ms", fresh_rt_ms)
        .field("loaded_seconds", LOADED_SECONDS)
        .field(
            "loaded_warm_latency",
            Summary::of(&load.warm_ms).to_json("ms"),
        )
        .field(
            "loaded_fresh_latency",
            Summary::of(&load.fresh_ms).to_json("ms"),
        )
        .field("generator_lateness", late.to_json("ms"))
        .field("restart_emulations", emulated);
    Ok((v, ops, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_arrivals_and_mix() {
        let a = schedule(7, 1000.0, 2.0);
        assert_eq!(a, schedule(7, 1000.0, 2.0));
        assert_ne!(a, schedule(8, 1000.0, 2.0));
        // Poisson at 1000/s for 2 s: about 2000 arrivals, time-ordered.
        assert!((1700..2300).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        let fresh = a.iter().filter(|x| x.fresh).count();
        assert!(fresh > 0 && fresh < a.len() / 10, "{fresh} fresh");
        assert!(a
            .iter()
            .filter(|x| x.fresh)
            .all(|x| FRESH_IDS.contains(&x.id)));
        // The skew: the first document is read more than the last.
        let reads = |id| a.iter().filter(|x| !x.fresh && x.id == id).count();
        assert!(reads(PAPER_IDS[0]) > reads(PAPER_IDS[PAPER_IDS.len() - 1]));
    }
}
