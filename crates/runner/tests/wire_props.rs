//! Round-trip properties for the `mds_runner::wire` codec.
//!
//! The serving tier caches grid-cell outputs under the compact encoding
//! of the job that produced them, so the encoding must be canonical: a
//! job decoded from the wire and encoded again must produce the same
//! bytes, whatever field values it carries. The same holds for outputs,
//! which travel between backends and the gateway and sit in the result
//! cache in encoded form.

use mds_core::{DepEdge, MdptConfig, Policy, PredictionBreakdown, TagScheme};
use mds_emu::TraceSummary;
use mds_harness::hash::FxHashMap;
use mds_harness::json::Json;
use mds_harness::prelude::*;
use mds_harness::rng::Rng;
use mds_mem::{BankedCacheConfig, CacheConfig, CacheStats};
use mds_multiscalar::{FuLatencies, MsConfig, MsResult};
use mds_ooo::{OooConfig, OooResult, WindowConfig, WindowReport, WindowStats};
use mds_runner::wire::{decode_job, decode_output, encode_job, encode_output};
use mds_runner::{Job, JobKind, JobOutput};
use mds_sim::stats::Histogram;
use mds_workloads::Scale;

/// Job ids exercise JSON string escaping: quotes, backslashes, control
/// characters and non-ASCII text all have to survive the trip.
const ID_PIECES: [&str; 7] = ["compress", "/ms/s8", "\"q\"", "\\", "\n\t", "é→", "\u{1}"];

fn id(rng: &mut Rng) -> String {
    (0..rng.gen_range(0..5))
        .map(|_| ID_PIECES[rng.gen_range(0..ID_PIECES.len())])
        .collect()
}

fn usizes(rng: &mut Rng) -> Vec<usize> {
    (0..rng.gen_range(0..5)).map(|_| rng.gen()).collect()
}

fn cache_config(rng: &mut Rng) -> CacheConfig {
    CacheConfig {
        size_bytes: rng.gen(),
        ways: rng.gen(),
        block_bytes: rng.gen(),
    }
}

fn ms_config(rng: &mut Rng) -> MsConfig {
    let policy = Policy::ALL[rng.gen_range(0..Policy::ALL.len())];
    MsConfig {
        stages: rng.gen(),
        policy,
        issue_width: rng.gen(),
        fetch_width: rng.gen(),
        window: rng.gen(),
        simple_int_units: rng.gen(),
        complex_int_units: rng.gen(),
        fp_units: rng.gen(),
        branch_units: rng.gen(),
        mem_units: rng.gen(),
        latencies: FuLatencies {
            simple_int: rng.gen(),
            int_mul: rng.gen(),
            int_div: rng.gen(),
            fp_add: rng.gen(),
            fp_mul: rng.gen(),
            fp_div: rng.gen(),
            fp_sqrt: rng.gen(),
            fp_misc: rng.gen(),
            branch: rng.gen(),
        },
        icache: cache_config(rng),
        dcache: BankedCacheConfig {
            banks: rng.gen(),
            bank_config: cache_config(rng),
            hit_latency: rng.gen(),
            fill_words: rng.gen(),
        },
        ring_latency: rng.gen(),
        squash_penalty: rng.gen(),
        mispredict_penalty: rng.gen(),
        descriptor_cache: rng.gen(),
        descriptor_miss_penalty: rng.gen(),
        path_depth: rng.gen(),
        mdpt: MdptConfig {
            capacity: rng.gen(),
            counter_bits: rng.gen(),
            threshold: rng.gen(),
            initial: rng.gen(),
        },
        tagging: if rng.gen() {
            TagScheme::DependenceDistance
        } else {
            TagScheme::DataAddress
        },
        signal_latency: rng.gen(),
        ddc_sizes: usizes(rng),
    }
}

fn random_job(kind: u8, seed: u64) -> Job {
    let mut rng = Rng::seed_from_u64(seed);
    let workloads = mds_workloads::all();
    let policy = Policy::ALL[rng.gen_range(0..Policy::ALL.len())];
    let kind = match kind {
        0 => JobKind::Multiscalar(ms_config(&mut rng)),
        1 => JobKind::Window(WindowConfig {
            window_sizes: (0..rng.gen_range(0..5)).map(|_| rng.gen()).collect(),
            ddc_sizes: usizes(&mut rng),
        }),
        2 => JobKind::Superscalar(OooConfig {
            window: rng.gen(),
            dispatch_width: rng.gen(),
            mem_ports: rng.gen(),
            mem_latency: rng.gen(),
            squash_penalty: rng.gen(),
            policy,
            mdpt_entries: rng.gen(),
        }),
        _ => JobKind::Summary,
    };
    Job {
        id: id(&mut rng),
        workload: workloads[rng.gen_range(0..workloads.len())],
        scale: [Scale::Tiny, Scale::Small, Scale::Full][rng.gen_range(0..3usize)],
        kind,
    }
}

fn breakdown(rng: &mut Rng) -> PredictionBreakdown {
    PredictionBreakdown::from_counts(rng.gen(), rng.gen(), rng.gen(), rng.gen())
}

fn cache_stats(rng: &mut Rng) -> CacheStats {
    CacheStats {
        hits: rng.gen(),
        misses: rng.gen(),
    }
}

fn ddcs(rng: &mut Rng) -> Vec<(usize, u64, u64)> {
    (0..rng.gen_range(0..4))
        .map(|_| (rng.gen(), rng.gen(), rng.gen()))
        .collect()
}

fn random_output(kind: u8, seed: u64) -> JobOutput {
    let mut rng = Rng::seed_from_u64(seed);
    match kind {
        0 => JobOutput::Multiscalar(MsResult {
            cycles: rng.gen(),
            instructions: rng.gen(),
            committed_loads: rng.gen(),
            committed_stores: rng.gen(),
            tasks: rng.gen(),
            misspeculations: rng.gen(),
            control_predictions: rng.gen(),
            control_mispredicts: rng.gen(),
            synchronized_loads: rng.gen(),
            false_dep_releases: rng.gen(),
            breakdown: breakdown(&mut rng),
            dcache: cache_stats(&mut rng),
            icache: cache_stats(&mut rng),
            bus_transactions: rng.gen(),
            ddc: ddcs(&mut rng),
        }),
        1 => {
            let windows = (0..rng.gen_range(0..4))
                .map(|_| {
                    let mut edge_counts = FxHashMap::default();
                    for _ in 0..rng.gen_range(0..6) {
                        edge_counts.insert(DepEdge::new(rng.gen(), rng.gen()), rng.gen());
                    }
                    WindowStats {
                        window_size: rng.gen(),
                        misspeculations: rng.gen(),
                        edge_counts,
                        ddcs: ddcs(&mut rng),
                    }
                })
                .collect();
            JobOutput::Window(WindowReport::from_parts(
                windows,
                rng.gen(),
                rng.gen(),
                rng.gen(),
                Histogram::new("store->load distance"),
            ))
        }
        2 => JobOutput::Superscalar(OooResult {
            cycles: rng.gen(),
            instructions: rng.gen(),
            loads: rng.gen(),
            misspeculations: rng.gen(),
            synchronized_loads: rng.gen(),
            breakdown: breakdown(&mut rng),
        }),
        _ => JobOutput::Summary(TraceSummary {
            instructions: rng.gen(),
            loads: rng.gen(),
            stores: rng.gen(),
            branches: rng.gen(),
            taken_branches: rng.gen(),
            tasks: rng.gen(),
        }),
    }
}

properties! {
    #![config(PropConfig { cases: 256, ..PropConfig::default() })]

    #[test]
    fn job_encoding_is_canonical(kind in 0u8..4, seed: u64) {
        let once = encode_job(&random_job(kind, seed)).to_string();
        let parsed = Json::parse(&once).expect("encoded job is JSON");
        let job = decode_job(&parsed).expect("encoded job decodes");
        prop_assert_eq!(encode_job(&job).to_string(), once);
    }

    #[test]
    fn output_encoding_is_canonical(kind in 0u8..4, seed: u64) {
        let once = encode_output(&random_output(kind, seed)).to_string();
        let parsed = Json::parse(&once).expect("encoded output is JSON");
        let output = decode_output(&parsed).expect("encoded output decodes");
        prop_assert_eq!(encode_output(&output).to_string(), once);
    }
}
