//! Round-trip properties for the `mds_runner::wire` codec.
//!
//! The serving tier caches grid-cell outputs under the compact encoding
//! of the job that produced them, so the encoding must be canonical: a
//! job decoded from the wire and encoded again must produce the same
//! bytes, whatever field values it carries within the bounds its
//! config's `validate` accepts (values outside them are rejected at
//! decode). The same holds for outputs, which travel between backends
//! and the gateway and sit in the result cache in encoded form.

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

/// Table sizes (DDCs): 0 to 4 of them, each a valid entry count.
fn sizes(rng: &mut Rng) -> Vec<usize> {
    (0..rng.gen_range(0..5))
        .map(|_| rng.gen_range(1..(1usize << 16) + 1))
        .collect()
}

/// A latency or penalty `validate` accepts.
fn cycles(rng: &mut Rng) -> u64 {
    rng.gen_range(0..1025u64)
}

/// A unit count or issue width `validate` accepts.
fn width(rng: &mut Rng) -> u32 {
    rng.gen_range(1..257u32)
}

/// A consistent geometry: power-of-two sets and blocks, any way count.
fn cache_config(rng: &mut Rng) -> CacheConfig {
    let ways = rng.gen_range(1..9usize);
    let block_bytes = 1usize << rng.gen_range(1..8u32);
    let sets = 1usize << rng.gen_range(0..8u32);
    CacheConfig {
        size_bytes: ways * block_bytes * sets,
        ways,
        block_bytes,
    }
}

fn ms_config(rng: &mut Rng) -> MsConfig {
    let policy = Policy::ALL[rng.gen_range(0..Policy::ALL.len())];
    let counter_bits = rng.gen_range(1..17u8);
    let counter_max = ((1u32 << counter_bits) - 1) as u16;
    MsConfig {
        stages: rng.gen_range(1..65),
        policy,
        issue_width: width(rng),
        fetch_width: width(rng),
        window: rng.gen_range(1..(1 << 16) + 1),
        simple_int_units: width(rng),
        complex_int_units: width(rng),
        fp_units: width(rng),
        branch_units: width(rng),
        mem_units: width(rng),
        latencies: FuLatencies {
            simple_int: cycles(rng),
            int_mul: cycles(rng),
            int_div: cycles(rng),
            fp_add: cycles(rng),
            fp_mul: cycles(rng),
            fp_div: cycles(rng),
            fp_sqrt: cycles(rng),
            fp_misc: cycles(rng),
            branch: cycles(rng),
        },
        icache: cache_config(rng),
        dcache: BankedCacheConfig {
            banks: 1 << rng.gen_range(0..9u32),
            bank_config: cache_config(rng),
            hit_latency: cycles(rng),
            fill_words: cycles(rng),
        },
        ring_latency: cycles(rng),
        squash_penalty: cycles(rng),
        mispredict_penalty: cycles(rng),
        descriptor_cache: rng.gen_range(1..(1 << 16) + 1),
        descriptor_miss_penalty: cycles(rng),
        path_depth: rng.gen_range(1..65),
        mdpt: MdptConfig {
            capacity: rng.gen_range(1..(1 << 16) + 1),
            counter_bits,
            threshold: rng.gen_range(0..u32::from(counter_max) + 1) as u16,
            initial: rng.gen_range(0..u32::from(counter_max) + 1) as u16,
        },
        tagging: if rng.gen() {
            TagScheme::DependenceDistance
        } else {
            TagScheme::DataAddress
        },
        signal_latency: cycles(rng),
        ddc_sizes: sizes(rng),
    }
}

fn random_job(kind: u8, seed: u64) -> Job {
    let mut rng = Rng::seed_from_u64(seed);
    let workloads = mds_workloads::all();
    let policy = Policy::ALL[rng.gen_range(0..Policy::ALL.len())];
    let kind = match kind {
        0 => JobKind::Multiscalar(ms_config(&mut rng)),
        1 => JobKind::Window(WindowConfig {
            window_sizes: (0..rng.gen_range(1..5))
                .map(|_| rng.gen_range(1..(1u32 << 16) + 1))
                .collect(),
            ddc_sizes: sizes(&mut rng),
        }),
        2 => JobKind::Superscalar(OooConfig {
            window: rng.gen_range(1..(1 << 16) + 1),
            dispatch_width: width(&mut rng),
            mem_ports: width(&mut rng),
            mem_latency: cycles(&mut rng),
            squash_penalty: cycles(&mut rng),
            policy,
            mdpt_entries: rng.gen_range(1..(1 << 16) + 1),
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
