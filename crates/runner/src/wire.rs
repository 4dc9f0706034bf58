//! Lossless wire codecs for [`Job`]s and [`JobOutput`]s.
//!
//! The cluster tier fans a grid's cells out to backends as HTTP bodies
//! and merges the partial results back into one document; this module is
//! that serialization seam. It is deliberately distinct from
//! [`JobOutput::to_json`]: that rendering is a *derived view* (it
//! collapses window edge counts into coverage metrics and adds computed
//! ratios) and feeds identity-gated artifacts, while this codec must
//! round-trip every field a result table could consume. Everything on
//! the wire is integers and strings — no floats — so results decoded
//! from a remote backend are indistinguishable from locally-computed
//! ones and downstream documents stay byte-identical.
//!
//! Two deliberate lossy corners, neither observable by any result
//! document:
//!
//! - A window report's `edge_counts` maps static [`DepEdge`]s to
//!   mis-speculation counts, but every consumer (`static_edges`,
//!   `edges_covering`) depends only on the *multiset of counts*. The
//!   codec ships the counts sorted descending and resynthesizes
//!   distinct placeholder edges on decode.
//! - `dependence_distances` is observability-only (never enters a
//!   table); it decodes as an empty histogram.

use crate::job::{Job, JobKind, JobOutput};
use mds_core::{DepEdge, MdptConfig, Policy, PredictionBreakdown, TagScheme};
use mds_emu::TraceSummary;
use mds_harness::json::{DecodeError, Json, ToJson};
use mds_mem::{BankedCacheConfig, CacheConfig, CacheStats};
use mds_multiscalar::{FuLatencies, MsConfig, MsResult};
use mds_ooo::{OooConfig, OooResult, WindowConfig, WindowReport, WindowStats};
use mds_sim::stats::Histogram;
use mds_sim::ConfigError;
use mds_workloads::Scale;

/// Wire name of a [`Scale`] (`mds-bench` uses the same names).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

fn scale_from_name(name: &str) -> Option<Scale> {
    match name {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

/// Encodes one job, config and all, as a self-contained JSON object.
pub fn encode_job(job: &Job) -> Json {
    let (kind, config) = match &job.kind {
        JobKind::Multiscalar(c) => ("ms", encode_ms_config(c)),
        JobKind::Window(c) => ("window", encode_window_config(c)),
        JobKind::Superscalar(c) => ("ooo", encode_ooo_config(c)),
        JobKind::Summary => ("summary", Json::object()),
    };
    Json::object()
        .field("id", job.id.as_str())
        .field("workload", job.workload.name)
        .field("scale", scale_name(job.scale))
        .field("kind", kind)
        .field("config", config)
}

/// Decodes a job encoded by [`encode_job`]. The workload is resolved
/// through the registry by name, so decoding also validates that this
/// process knows the workload (static suites and WDL registrations
/// alike), and the config must pass its `validate`, so a decoded job
/// never hands a simulator a value it cannot run.
pub fn decode_job(v: &Json) -> Result<Job, DecodeError> {
    let id: String = v.field_as("id")?;
    let workload_name: String = v.field_as("workload")?;
    let workload = mds_workloads::by_name(&workload_name).ok_or_else(|| {
        DecodeError::new(format!("unknown workload '{workload_name}'")).in_field("workload")
    })?;
    let scale_str: String = v.field_as("scale")?;
    let scale = scale_from_name(&scale_str).ok_or_else(|| {
        DecodeError::new(format!(
            "unknown scale '{scale_str}' (expected tiny|small|full)"
        ))
        .in_field("scale")
    })?;
    let kind_str: String = v.field_as("kind")?;
    let config = v.required("config")?;
    let kind = match kind_str.as_str() {
        "ms" => JobKind::Multiscalar(decode_ms_config(config).map_err(|e| e.in_field("config"))?),
        "window" => {
            JobKind::Window(decode_window_config(config).map_err(|e| e.in_field("config"))?)
        }
        "ooo" => JobKind::Superscalar(decode_ooo_config(config).map_err(|e| e.in_field("config"))?),
        "summary" => JobKind::Summary,
        other => {
            return Err(DecodeError::new(format!(
                "unknown job kind '{other}' (expected ms|window|ooo|summary)"
            ))
            .in_field("kind"))
        }
    };
    let checked = match &kind {
        JobKind::Multiscalar(c) => c.validate(),
        JobKind::Window(c) => c.validate(),
        JobKind::Superscalar(c) => c.validate(),
        JobKind::Summary => Ok(()),
    };
    checked.map_err(|e: ConfigError| {
        DecodeError::new(e.message)
            .in_field(e.field)
            .in_field("config")
    })?;
    Ok(Job {
        id,
        workload,
        scale,
        kind,
    })
}

fn policy_field(v: &Json, key: &str) -> Result<Policy, DecodeError> {
    let name: String = v.field_as(key)?;
    name.parse::<Policy>()
        .map_err(|e| DecodeError::new(e.to_string()).in_field(key))
}

fn encode_cache_config(c: &CacheConfig) -> Json {
    Json::Array(vec![
        c.size_bytes.to_json(),
        c.ways.to_json(),
        c.block_bytes.to_json(),
    ])
}

fn decode_cache_config(v: &Json) -> Result<CacheConfig, DecodeError> {
    let (size_bytes, ways, block_bytes): (usize, usize, usize) = v.decode()?;
    Ok(CacheConfig {
        size_bytes,
        ways,
        block_bytes,
    })
}

fn encode_ms_config(c: &MsConfig) -> Json {
    let l = &c.latencies;
    Json::object()
        .field("stages", c.stages)
        .field("policy", c.policy)
        .field("issue_width", c.issue_width)
        .field("fetch_width", c.fetch_width)
        .field("window", c.window)
        .field("simple_int_units", c.simple_int_units)
        .field("complex_int_units", c.complex_int_units)
        .field("fp_units", c.fp_units)
        .field("branch_units", c.branch_units)
        .field("mem_units", c.mem_units)
        .field(
            "latencies",
            vec![
                l.simple_int,
                l.int_mul,
                l.int_div,
                l.fp_add,
                l.fp_mul,
                l.fp_div,
                l.fp_sqrt,
                l.fp_misc,
                l.branch,
            ],
        )
        .field("icache", encode_cache_config(&c.icache))
        .field(
            "dcache",
            Json::object()
                .field("banks", c.dcache.banks)
                .field("bank_config", encode_cache_config(&c.dcache.bank_config))
                .field("hit_latency", c.dcache.hit_latency)
                .field("fill_words", c.dcache.fill_words),
        )
        .field("ring_latency", c.ring_latency)
        .field("squash_penalty", c.squash_penalty)
        .field("mispredict_penalty", c.mispredict_penalty)
        .field("descriptor_cache", c.descriptor_cache)
        .field("descriptor_miss_penalty", c.descriptor_miss_penalty)
        .field("path_depth", c.path_depth)
        .field(
            "mdpt",
            vec![
                c.mdpt.capacity as u64,
                u64::from(c.mdpt.counter_bits),
                u64::from(c.mdpt.threshold),
                u64::from(c.mdpt.initial),
            ],
        )
        .field(
            "tagging",
            match c.tagging {
                TagScheme::DependenceDistance => "dependence_distance",
                TagScheme::DataAddress => "data_address",
            },
        )
        .field("signal_latency", c.signal_latency)
        .field("ddc_sizes", c.ddc_sizes.clone())
}

fn decode_ms_config(v: &Json) -> Result<MsConfig, DecodeError> {
    let l: Vec<u64> = v.field_as("latencies")?;
    if l.len() != 9 {
        return Err(
            DecodeError::new(format!("expected 9 latencies, found {}", l.len()))
                .in_field("latencies"),
        );
    }
    let latencies = FuLatencies {
        simple_int: l[0],
        int_mul: l[1],
        int_div: l[2],
        fp_add: l[3],
        fp_mul: l[4],
        fp_div: l[5],
        fp_sqrt: l[6],
        fp_misc: l[7],
        branch: l[8],
    };
    let m: Vec<u64> = v.field_as("mdpt")?;
    if m.len() != 4 {
        return Err(
            DecodeError::new(format!("expected 4 mdpt fields, found {}", m.len())).in_field("mdpt"),
        );
    }
    let narrow = |i: usize, name: &str, max: u64| {
        if m[i] <= max {
            Ok(m[i])
        } else {
            Err(
                DecodeError::new(format!("{name} must be at most {max}, found {}", m[i]))
                    .in_field("mdpt"),
            )
        }
    };
    let mdpt = MdptConfig {
        capacity: narrow(0, "capacity", usize::MAX as u64)? as usize,
        counter_bits: narrow(1, "counter_bits", u8::MAX.into())? as u8,
        threshold: narrow(2, "threshold", u16::MAX.into())? as u16,
        initial: narrow(3, "initial", u16::MAX.into())? as u16,
    };
    let tagging_str: String = v.field_as("tagging")?;
    let tagging = match tagging_str.as_str() {
        "dependence_distance" => TagScheme::DependenceDistance,
        "data_address" => TagScheme::DataAddress,
        other => {
            return Err(
                DecodeError::new(format!("unknown tagging scheme '{other}'")).in_field("tagging"),
            )
        }
    };
    let dcache = v.required("dcache")?;
    Ok(MsConfig {
        stages: v.field_as("stages")?,
        policy: policy_field(v, "policy")?,
        issue_width: v.field_as("issue_width")?,
        fetch_width: v.field_as("fetch_width")?,
        window: v.field_as("window")?,
        simple_int_units: v.field_as("simple_int_units")?,
        complex_int_units: v.field_as("complex_int_units")?,
        fp_units: v.field_as("fp_units")?,
        branch_units: v.field_as("branch_units")?,
        mem_units: v.field_as("mem_units")?,
        latencies,
        icache: decode_cache_config(v.required("icache")?).map_err(|e| e.in_field("icache"))?,
        dcache: BankedCacheConfig {
            banks: dcache.field_as("banks").map_err(|e| e.in_field("dcache"))?,
            bank_config: decode_cache_config(dcache.required("bank_config")?)
                .map_err(|e| e.in_field("dcache"))?,
            hit_latency: dcache
                .field_as("hit_latency")
                .map_err(|e| e.in_field("dcache"))?,
            fill_words: dcache
                .field_as("fill_words")
                .map_err(|e| e.in_field("dcache"))?,
        },
        ring_latency: v.field_as("ring_latency")?,
        squash_penalty: v.field_as("squash_penalty")?,
        mispredict_penalty: v.field_as("mispredict_penalty")?,
        descriptor_cache: v.field_as("descriptor_cache")?,
        descriptor_miss_penalty: v.field_as("descriptor_miss_penalty")?,
        path_depth: v.field_as("path_depth")?,
        mdpt,
        tagging,
        signal_latency: v.field_as("signal_latency")?,
        ddc_sizes: v.field_as("ddc_sizes")?,
    })
}

fn encode_window_config(c: &WindowConfig) -> Json {
    Json::object()
        .field("window_sizes", c.window_sizes.clone())
        .field("ddc_sizes", c.ddc_sizes.clone())
}

fn decode_window_config(v: &Json) -> Result<WindowConfig, DecodeError> {
    Ok(WindowConfig {
        window_sizes: v.field_as("window_sizes")?,
        ddc_sizes: v.field_as("ddc_sizes")?,
    })
}

fn encode_ooo_config(c: &OooConfig) -> Json {
    Json::object()
        .field("window", c.window)
        .field("dispatch_width", c.dispatch_width)
        .field("mem_ports", c.mem_ports)
        .field("mem_latency", c.mem_latency)
        .field("squash_penalty", c.squash_penalty)
        .field("policy", c.policy)
        .field("mdpt_entries", c.mdpt_entries)
}

fn decode_ooo_config(v: &Json) -> Result<OooConfig, DecodeError> {
    Ok(OooConfig {
        window: v.field_as("window")?,
        dispatch_width: v.field_as("dispatch_width")?,
        mem_ports: v.field_as("mem_ports")?,
        mem_latency: v.field_as("mem_latency")?,
        squash_penalty: v.field_as("squash_penalty")?,
        policy: policy_field(v, "policy")?,
        mdpt_entries: v.field_as("mdpt_entries")?,
    })
}

fn encode_breakdown(b: &PredictionBreakdown) -> Json {
    vec![
        b.count(false, false),
        b.count(false, true),
        b.count(true, false),
        b.count(true, true),
    ]
    .to_json()
}

fn decode_breakdown(v: &Json) -> Result<PredictionBreakdown, DecodeError> {
    let counts: Vec<u64> = v.decode()?;
    if counts.len() != 4 {
        return Err(DecodeError::new(format!(
            "expected 4 breakdown counts, found {}",
            counts.len()
        )));
    }
    Ok(PredictionBreakdown::from_counts(
        counts[0], counts[1], counts[2], counts[3],
    ))
}

fn encode_cache_stats(s: &CacheStats) -> Json {
    vec![s.hits, s.misses].to_json()
}

fn decode_cache_stats(v: &Json) -> Result<CacheStats, DecodeError> {
    let (hits, misses): (u64, u64) = v.decode()?;
    Ok(CacheStats { hits, misses })
}

/// Encodes one job output losslessly (see the module docs for the two
/// non-observable exceptions).
pub fn encode_output(output: &JobOutput) -> Json {
    match output {
        JobOutput::Multiscalar(r) => Json::object()
            .field("kind", "ms")
            .field("cycles", r.cycles)
            .field("instructions", r.instructions)
            .field("committed_loads", r.committed_loads)
            .field("committed_stores", r.committed_stores)
            .field("tasks", r.tasks)
            .field("misspeculations", r.misspeculations)
            .field("control_predictions", r.control_predictions)
            .field("control_mispredicts", r.control_mispredicts)
            .field("synchronized_loads", r.synchronized_loads)
            .field("false_dep_releases", r.false_dep_releases)
            .field("breakdown", encode_breakdown(&r.breakdown))
            .field("dcache", encode_cache_stats(&r.dcache))
            .field("icache", encode_cache_stats(&r.icache))
            .field("bus_transactions", r.bus_transactions)
            .field("ddc", r.ddc.clone()),
        JobOutput::Window(r) => Json::object()
            .field("kind", "window")
            .field("instructions", r.instructions)
            .field("loads", r.loads)
            .field("stores", r.stores)
            .field(
                "windows",
                Json::Array(
                    r.windows()
                        .iter()
                        .map(|w| {
                            // Only the multiset of per-edge counts is
                            // observable downstream; ship it sorted so
                            // the encoding is deterministic.
                            let mut counts: Vec<u64> = w.edge_counts.values().copied().collect();
                            counts.sort_unstable_by(|a, b| b.cmp(a));
                            Json::object()
                                .field("window_size", w.window_size)
                                .field("misspeculations", w.misspeculations)
                                .field("edge_counts", counts)
                                .field("ddcs", w.ddcs.clone())
                        })
                        .collect(),
                ),
            ),
        JobOutput::Superscalar(r) => Json::object()
            .field("kind", "ooo")
            .field("cycles", r.cycles)
            .field("instructions", r.instructions)
            .field("loads", r.loads)
            .field("misspeculations", r.misspeculations)
            .field("synchronized_loads", r.synchronized_loads)
            .field("breakdown", encode_breakdown(&r.breakdown)),
        JobOutput::Summary(s) => Json::object()
            .field("kind", "summary")
            .field("instructions", s.instructions)
            .field("loads", s.loads)
            .field("stores", s.stores)
            .field("branches", s.branches)
            .field("taken_branches", s.taken_branches)
            .field("tasks", s.tasks),
    }
}

/// Decodes an output encoded by [`encode_output`].
pub fn decode_output(v: &Json) -> Result<JobOutput, DecodeError> {
    let kind: String = v.field_as("kind")?;
    match kind.as_str() {
        "ms" => Ok(JobOutput::Multiscalar(MsResult {
            cycles: v.field_as("cycles")?,
            instructions: v.field_as("instructions")?,
            committed_loads: v.field_as("committed_loads")?,
            committed_stores: v.field_as("committed_stores")?,
            tasks: v.field_as("tasks")?,
            misspeculations: v.field_as("misspeculations")?,
            control_predictions: v.field_as("control_predictions")?,
            control_mispredicts: v.field_as("control_mispredicts")?,
            synchronized_loads: v.field_as("synchronized_loads")?,
            false_dep_releases: v.field_as("false_dep_releases")?,
            breakdown: decode_breakdown(v.required("breakdown")?)
                .map_err(|e| e.in_field("breakdown"))?,
            dcache: decode_cache_stats(v.required("dcache")?).map_err(|e| e.in_field("dcache"))?,
            icache: decode_cache_stats(v.required("icache")?).map_err(|e| e.in_field("icache"))?,
            bus_transactions: v.field_as("bus_transactions")?,
            ddc: v.field_as("ddc")?,
        })),
        "window" => {
            let windows = v.required("windows")?;
            let per_window = windows
                .as_array()
                .ok_or_else(|| DecodeError::new("expected an array").in_field("windows"))?
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let counts: Vec<u64> = w.field_as("edge_counts")?;
                    let mut edge_counts = mds_harness::hash::FxHashMap::default();
                    for (j, &count) in counts.iter().enumerate() {
                        // Placeholder edges: distinct keys carrying the
                        // original count multiset (the real PCs never
                        // leave the producing process).
                        edge_counts.insert(DepEdge::new(j as u32, 0), count);
                    }
                    Ok(WindowStats {
                        window_size: w.field_as("window_size")?,
                        misspeculations: w.field_as("misspeculations")?,
                        edge_counts,
                        ddcs: w.field_as("ddcs")?,
                    })
                    .map_err(|e: DecodeError| e.in_index(i).in_field("windows"))
                })
                .collect::<Result<Vec<WindowStats>, DecodeError>>()?;
            Ok(JobOutput::Window(WindowReport::from_parts(
                per_window,
                v.field_as("instructions")?,
                v.field_as("loads")?,
                v.field_as("stores")?,
                Histogram::new("store->load distance"),
            )))
        }
        "ooo" => Ok(JobOutput::Superscalar(OooResult {
            cycles: v.field_as("cycles")?,
            instructions: v.field_as("instructions")?,
            loads: v.field_as("loads")?,
            misspeculations: v.field_as("misspeculations")?,
            synchronized_loads: v.field_as("synchronized_loads")?,
            breakdown: decode_breakdown(v.required("breakdown")?)
                .map_err(|e| e.in_field("breakdown"))?,
        })),
        "summary" => Ok(JobOutput::Summary(TraceSummary {
            instructions: v.field_as("instructions")?,
            loads: v.field_as("loads")?,
            stores: v.field_as("stores")?,
            branches: v.field_as("branches")?,
            taken_branches: v.field_as("taken_branches")?,
            tasks: v.field_as("tasks")?,
        })),
        other => Err(DecodeError::new(format!(
            "unknown output kind '{other}' (expected ms|window|ooo|summary)"
        ))
        .in_field("kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::hash::FxHashMap;
    use mds_workloads::by_name;

    fn roundtrip_job(job: &Job) -> Job {
        let encoded = encode_job(job).to_string();
        decode_job(&Json::parse(&encoded).unwrap()).unwrap()
    }

    fn roundtrip_output(output: &JobOutput) -> JobOutput {
        let encoded = encode_output(output).to_string();
        decode_output(&Json::parse(&encoded).unwrap()).unwrap()
    }

    #[test]
    fn ms_job_roundtrips_every_config_field() {
        let compress = by_name("compress").unwrap();
        let config = MsConfig {
            stages: 8,
            policy: Policy::Esync,
            issue_width: 3,
            window: 48,
            squash_penalty: 7,
            tagging: TagScheme::DataAddress,
            ddc_sizes: vec![16, 64, 256],
            mdpt: MdptConfig {
                capacity: 128,
                counter_bits: 2,
                threshold: 1,
                initial: 2,
            },
            ..MsConfig::paper(8, Policy::Esync)
        };
        let job = Job {
            id: "compress/ms/s8/ESYNC".to_string(),
            workload: compress,
            scale: Scale::Small,
            kind: JobKind::Multiscalar(config.clone()),
        };
        let back = roundtrip_job(&job);
        assert_eq!(back.id, job.id);
        assert_eq!(back.workload.name, "compress");
        assert_eq!(back.scale, Scale::Small);
        match back.kind {
            JobKind::Multiscalar(c) => {
                assert_eq!(format!("{c:?}"), format!("{config:?}"));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn window_ooo_and_summary_jobs_roundtrip() {
        let sc = by_name("sc").unwrap();
        for kind in [
            JobKind::Window(WindowConfig::default()),
            JobKind::Superscalar(OooConfig {
                policy: Policy::Sync,
                window: 64,
                ..OooConfig::default()
            }),
            JobKind::Summary,
        ] {
            let job = Job {
                id: "x".to_string(),
                workload: sc,
                scale: Scale::Tiny,
                kind,
            };
            let back = roundtrip_job(&job);
            assert_eq!(format!("{:?}", back.kind), format!("{:?}", job.kind));
        }
    }

    #[test]
    fn decode_rejects_unknown_workload_scale_and_kind() {
        let good = encode_job(&Job {
            id: "x".to_string(),
            workload: by_name("compress").unwrap(),
            scale: Scale::Tiny,
            kind: JobKind::Summary,
        })
        .to_string();
        for (needle, replacement, path) in [
            ("compress", "no-such-workload", "$.workload"),
            ("tiny", "huge", "$.scale"),
            ("summary", "frob", "$.kind"),
        ] {
            let bad = good.replace(needle, replacement);
            let err = decode_job(&Json::parse(&bad).unwrap()).unwrap_err();
            assert_eq!(err.path, path, "{err}");
        }
    }

    /// Every config field a simulator would panic on, or allocate in
    /// proportion to, is rejected at decode with its path.
    #[test]
    fn decode_rejects_configs_the_simulators_cannot_run() {
        const HUGE: usize = 1 << 34;
        let ms = MsConfig::paper(8, Policy::Esync);
        let ooo = OooConfig::default();
        let window = WindowConfig::default();
        let mut cases: Vec<(JobKind, &str)> = Vec::new();
        let mut bad_ms = |path: &'static str, edit: &dyn Fn(&mut MsConfig)| {
            let mut c = ms.clone();
            edit(&mut c);
            cases.push((JobKind::Multiscalar(c), path));
        };
        bad_ms("stages", &|c| c.stages = 0);
        bad_ms("stages", &|c| c.stages = HUGE);
        bad_ms("issue_width", &|c| c.issue_width = 0);
        bad_ms("fetch_width", &|c| c.fetch_width = 0);
        bad_ms("window", &|c| c.window = 0);
        bad_ms("window", &|c| c.window = HUGE);
        bad_ms("simple_int_units", &|c| c.simple_int_units = 0);
        bad_ms("complex_int_units", &|c| c.complex_int_units = 0);
        bad_ms("fp_units", &|c| c.fp_units = 0);
        bad_ms("branch_units", &|c| c.branch_units = 0);
        bad_ms("mem_units", &|c| c.mem_units = 0);
        bad_ms("latencies", &|c| c.latencies.fp_sqrt = 1 << 40);
        bad_ms("icache", &|c| c.icache.size_bytes = HUGE);
        bad_ms("icache", &|c| c.icache.ways = 0);
        bad_ms("dcache.banks", &|c| c.dcache.banks = 0);
        bad_ms("dcache.banks", &|c| c.dcache.banks = 3);
        bad_ms("dcache.bank_config", &|c| {
            c.dcache.bank_config.block_bytes = 24
        });
        bad_ms("dcache.hit_latency", &|c| c.dcache.hit_latency = 1 << 40);
        bad_ms("dcache.fill_words", &|c| c.dcache.fill_words = 1 << 40);
        bad_ms("ring_latency", &|c| c.ring_latency = 1 << 40);
        bad_ms("squash_penalty", &|c| c.squash_penalty = 1 << 40);
        bad_ms("mispredict_penalty", &|c| c.mispredict_penalty = 1 << 40);
        bad_ms("descriptor_cache", &|c| c.descriptor_cache = 0);
        bad_ms("descriptor_cache", &|c| c.descriptor_cache = HUGE);
        bad_ms("descriptor_miss_penalty", &|c| {
            c.descriptor_miss_penalty = 1 << 40
        });
        bad_ms("path_depth", &|c| c.path_depth = 0);
        bad_ms("mdpt.capacity", &|c| c.mdpt.capacity = 0);
        bad_ms("mdpt.counter_bits", &|c| c.mdpt.counter_bits = 17);
        bad_ms("mdpt.threshold", &|c| c.mdpt.threshold = 8);
        bad_ms("mdpt.initial", &|c| c.mdpt.initial = 8);
        bad_ms("signal_latency", &|c| c.signal_latency = 1 << 40);
        bad_ms("ddc_sizes", &|c| c.ddc_sizes = vec![0]);
        bad_ms("ddc_sizes", &|c| c.ddc_sizes = vec![HUGE]);
        let mut bad_ooo = |path: &'static str, edit: &dyn Fn(&mut OooConfig)| {
            let mut c = ooo;
            edit(&mut c);
            cases.push((JobKind::Superscalar(c), path));
        };
        bad_ooo("window", &|c| c.window = 0);
        bad_ooo("window", &|c| c.window = HUGE);
        bad_ooo("dispatch_width", &|c| c.dispatch_width = 0);
        bad_ooo("mem_ports", &|c| c.mem_ports = 0);
        bad_ooo("mem_latency", &|c| c.mem_latency = 1 << 40);
        bad_ooo("squash_penalty", &|c| c.squash_penalty = 1 << 40);
        bad_ooo("mdpt_entries", &|c| c.mdpt_entries = HUGE);
        let mut bad_window = |path: &'static str, edit: &dyn Fn(&mut WindowConfig)| {
            let mut c = window.clone();
            edit(&mut c);
            cases.push((JobKind::Window(c), path));
        };
        bad_window("window_sizes", &|c| c.window_sizes.clear());
        bad_window("window_sizes", &|c| c.window_sizes = vec![0]);
        bad_window("ddc_sizes", &|c| c.ddc_sizes = vec![0]);
        bad_window("ddc_sizes", &|c| c.ddc_sizes = vec![HUGE]);

        let compress = by_name("compress").unwrap();
        for (kind, field) in cases {
            let label = format!("{kind:?}");
            let job = Job {
                id: "x".to_string(),
                workload: compress,
                scale: Scale::Tiny,
                kind,
            };
            let err = decode_job(&encode_job(&job)).expect_err(&label);
            assert_eq!(err.path, format!("$.config.{field}"), "{label}: {err}");
        }

        // Wire values wider than their field are rejected, not truncated.
        let good = encode_job(&Job {
            id: "x".to_string(),
            workload: compress,
            scale: Scale::Tiny,
            kind: JobKind::Multiscalar(ms),
        })
        .to_string();
        let wide = good.replace("\"mdpt\":[64,3,3,3]", "\"mdpt\":[64,259,3,3]");
        assert_ne!(wide, good);
        let err = decode_job(&Json::parse(&wide).unwrap()).unwrap_err();
        assert_eq!(err.path, "$.config.mdpt", "{err}");
    }

    #[test]
    fn ms_output_roundtrips_including_breakdown_and_ddc() {
        let mut breakdown = PredictionBreakdown::default();
        breakdown.record(false, false);
        breakdown.record(false, true);
        breakdown.record(true, false);
        breakdown.record(true, true);
        breakdown.record(true, true);
        let r = MsResult {
            cycles: 123_456,
            instructions: 1_000_000,
            committed_loads: 250_000,
            committed_stores: 90_000,
            tasks: 4000,
            misspeculations: 321,
            control_predictions: 4000,
            control_mispredicts: 37,
            synchronized_loads: 555,
            false_dep_releases: 7,
            breakdown,
            dcache: CacheStats {
                hits: 9000,
                misses: 100,
            },
            icache: CacheStats {
                hits: 8000,
                misses: 50,
            },
            bus_transactions: 42,
            ddc: vec![(16, 1, 2), (64, 3, 4)],
        };
        match roundtrip_output(&JobOutput::Multiscalar(r.clone())) {
            JobOutput::Multiscalar(back) => assert_eq!(format!("{back:?}"), format!("{r:?}")),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn window_output_preserves_every_table_metric() {
        let mut edge_counts = FxHashMap::default();
        edge_counts.insert(DepEdge::new(0x100, 0x200), 990);
        edge_counts.insert(DepEdge::new(0x104, 0x204), 9);
        edge_counts.insert(DepEdge::new(0x108, 0x208), 1);
        let report = WindowReport::from_parts(
            vec![WindowStats {
                window_size: 32,
                misspeculations: 1000,
                edge_counts,
                ddcs: vec![(32, 900, 100), (128, 950, 50)],
            }],
            50_000,
            12_000,
            4000,
            Histogram::new("store->load distance"),
        );
        let back = match roundtrip_output(&JobOutput::Window(report.clone())) {
            JobOutput::Window(back) => back,
            other => panic!("wrong kind: {other:?}"),
        };
        assert_eq!(back.instructions, 50_000);
        assert_eq!(back.loads, 12_000);
        assert_eq!(back.stores, 4000);
        let (w, b) = (report.for_window(32).unwrap(), back.for_window(32).unwrap());
        assert_eq!(b.misspeculations, w.misspeculations);
        assert_eq!(b.static_edges(), w.static_edges());
        for fraction in [0.5, 0.99, 0.999, 1.0] {
            assert_eq!(b.edges_covering(fraction), w.edges_covering(fraction));
        }
        assert_eq!(b.ddcs, w.ddcs);
        assert_eq!(
            b.ddc_miss_rate(128).unwrap().value(),
            w.ddc_miss_rate(128).unwrap().value()
        );
    }

    #[test]
    fn ooo_and_summary_outputs_roundtrip() {
        let ooo = OooResult {
            cycles: 10,
            instructions: 20,
            loads: 5,
            misspeculations: 1,
            synchronized_loads: 2,
            breakdown: PredictionBreakdown::from_counts(1, 2, 3, 4),
        };
        match roundtrip_output(&JobOutput::Superscalar(ooo.clone())) {
            JobOutput::Superscalar(back) => assert_eq!(format!("{back:?}"), format!("{ooo:?}")),
            other => panic!("wrong kind: {other:?}"),
        }
        let s = TraceSummary {
            instructions: 1,
            loads: 2,
            stores: 3,
            branches: 4,
            taken_branches: 5,
            tasks: 6,
        };
        match roundtrip_output(&JobOutput::Summary(s)) {
            JobOutput::Summary(back) => assert_eq!(format!("{back:?}"), format!("{s:?}")),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let job = Job {
            id: "d".to_string(),
            workload: by_name("compress").unwrap(),
            scale: Scale::Tiny,
            kind: JobKind::Multiscalar(MsConfig::paper(4, Policy::Sync)),
        };
        assert_eq!(encode_job(&job).to_string(), encode_job(&job).to_string());
        // encode → decode → encode is byte-stable (nothing floats).
        let once = encode_job(&job).to_string();
        let twice = encode_job(&decode_job(&Json::parse(&once).unwrap()).unwrap()).to_string();
        assert_eq!(once, twice);
    }
}
