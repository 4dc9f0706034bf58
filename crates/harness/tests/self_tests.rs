//! End-to-end self-tests for the dev harness: the reproducibility,
//! shrinking, and serialization guarantees the rest of the workspace
//! relies on.

use mds_harness::bench::{BenchConfig, BenchReport, BenchResult, Host};
use mds_harness::json::{FromJson, Json, ToJson};
use mds_harness::prelude::*;
use mds_harness::prop;
use mds_harness::rng::Rng;
use std::panic::catch_unwind;

// --- PRNG reproducibility ---------------------------------------------

#[test]
fn prng_is_reproducible_for_any_seed() {
    for seed in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
        let a: Vec<u64> = {
            let mut rng = Rng::seed_from_u64(seed);
            (0..256).map(|_| rng.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = Rng::seed_from_u64(seed);
            (0..256).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(a, b, "seed {seed} must replay identically");
    }
}

#[test]
fn prng_distinct_seeds_are_decorrelated() {
    let mut streams: Vec<Vec<u64>> = (0..8u64)
        .map(|seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..32).map(|_| rng.next_u64()).collect()
        })
        .collect();
    streams.sort();
    streams.dedup();
    assert_eq!(
        streams.len(),
        8,
        "consecutive seeds must give distinct streams"
    );
}

// --- Property runner and shrinking ------------------------------------

fn failure_message(f: impl Fn() + std::panic::UnwindSafe) -> String {
    let payload = catch_unwind(f).expect_err("property should fail");
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        panic!("non-string panic payload")
    }
}

#[test]
fn shrinking_converges_to_minimal_scalar() {
    let msg = failure_message(|| {
        prop::run(
            "minimal_scalar",
            &PropConfig::default(),
            &(0u64..100_000),
            |v| assert!(v < 7777, "got {v}"),
        );
    });
    // The minimal counterexample is exactly the boundary value.
    assert!(
        msg.contains("7777"),
        "expected boundary 7777 in report:\n{msg}"
    );
    assert!(msg.contains("minimal failing input"), "{msg}");
    assert!(msg.contains("MDS_PROP_SEED="), "{msg}");
}

#[test]
fn shrinking_converges_to_minimal_vec() {
    let msg = failure_message(|| {
        prop::run(
            "minimal_vec",
            &PropConfig::default(),
            &vec_of(0u64..1000, 0..50),
            |v: Vec<u64>| assert!(v.iter().all(|&x| x < 100)),
        );
    });
    // Minimal counterexample: a single-element vector holding exactly the
    // smallest offending value.
    assert!(
        msg.contains("[\n    100,\n]"),
        "expected the one-element vector [100] in report:\n{msg}"
    );
}

#[test]
fn failing_runs_are_reproducible_with_a_pinned_seed() {
    let cfg = PropConfig {
        seed: Some(12345),
        ..PropConfig::default()
    };
    let run_once = || {
        failure_message(|| {
            prop::run("pinned_seed", &cfg, &(0u64..1_000_000), |v| {
                assert!(v % 3 != 0)
            });
        })
    };
    assert_eq!(
        run_once(),
        run_once(),
        "same seed must reproduce the same report"
    );
}

#[test]
fn passing_properties_run_quietly() {
    prop::run("tautology", &PropConfig::default(), &any::<u64>(), |v| {
        assert_eq!(v, v);
    });
}

// The macro surface, exercised from outside the defining crate (this is
// what every other crate's test modules use).
properties! {
    #![config(PropConfig { cases: 32, ..PropConfig::default() })]

    #[test]
    fn macro_tuple_and_shorthand_args(a in 0u32..100, b: bool) {
        prop_assert!(a < 100);
        let _ = b;
    }

    #[test]
    fn macro_composite_strategies(
        v in vec_of(prop_oneof![Just(1u8), Just(2u8)], 0..10),
        o in option_of(any::<u16>()),
    ) {
        prop_assert!(v.iter().all(|&x| x == 1 || x == 2));
        let _ = o;
    }
}

// --- JSON writer/parser round-trip ------------------------------------

/// Strings mixing ASCII, escapes, and non-ASCII code points.
fn arb_string() -> impl Strategy<Value = String> {
    vec_of(
        prop_oneof![
            0x20u32..0x7f,
            Just(0x09u32),
            Just(0x0au32),
            Just(0x22u32),
            Just(0x5cu32),
            Just(0x3c0u32), // π
        ],
        0..8,
    )
    .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// Arbitrary documents in the writer's canonical form: `Int` only for
/// negatives (the writer normalizes non-negatives to `UInt`) and finite
/// floats (non-finite ones serialize as `null` by design).
fn arb_json(depth: usize) -> Union<Json> {
    let mut u = Union::new()
        .or(Just(Json::Null))
        .or(any::<bool>().prop_map(Json::Bool))
        .or(any::<u64>().prop_map(Json::UInt))
        .or((i64::MIN..0).prop_map(Json::Int))
        .or(any::<i64>().prop_map(|m| Json::Float(m as f64 / 4096.0)))
        .or(arb_string().prop_map(Json::Str));
    if depth > 0 {
        u = u
            .or(vec_of(arb_json(depth - 1), 0..4).prop_map(Json::Array))
            .or(vec_of((arb_string(), arb_json(depth - 1)), 0..4).prop_map(Json::Object));
    }
    u
}

properties! {
    #![config(PropConfig { cases: 128, ..PropConfig::default() })]

    #[test]
    fn json_documents_round_trip_compact(doc in arb_json(3)) {
        prop_assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn json_documents_round_trip_pretty(doc in arb_json(3)) {
        prop_assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn typed_values_survive_serialize_then_decode(
        n: u64,
        i: i64,
        b: bool,
        s in arb_string(),
        v in vec_of(any::<u64>(), 0..6),
    ) {
        prop_assert_eq!(u64::from_json(&n.to_json()).unwrap(), n);
        prop_assert_eq!(i64::from_json(&i.to_json()).unwrap(), i);
        prop_assert_eq!(bool::from_json(&b.to_json()).unwrap(), b);
        let f = i as f64 / 4096.0;
        prop_assert_eq!(f64::from_json(&f.to_json()).unwrap(), f);
        prop_assert_eq!(String::from_json(&s.to_json()).unwrap(), s);
        prop_assert_eq!(Vec::<u64>::from_json(&v.to_json()).unwrap(), v);
    }
}

// --- Bench JSON round-trip --------------------------------------------

#[test]
fn bench_report_round_trips_through_json() {
    let report = BenchReport {
        suite: "selftest".into(),
        scale: "small".into(),
        config: BenchConfig::default(),
        host: Some(Host::current()),
        results: vec![BenchResult {
            name: "roundtrip".into(),
            iters_per_batch: 4096,
            batches: 25,
            median_ns: 17.5,
            mad_ns: 0.25,
            min_ns: 16.0,
            max_ns: 21.75,
            throughput_elems: Some(1_000_000),
        }],
    };
    let parsed = BenchReport::parse(&report.to_json().pretty()).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(
        parsed.results[0].elems_per_sec(),
        report.results[0].elems_per_sec()
    );
}

#[test]
fn committed_baselines_parse() {
    // The BENCH_*.json files at the workspace root are the canonical
    // performance record; they must stay readable by the in-tree parser.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for suite in ["structures", "simulators"] {
        let path = root.join(format!("BENCH_{suite}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing baseline {}: {e}", path.display()));
        let report = BenchReport::parse(&text)
            .unwrap_or_else(|e| panic!("unparseable baseline {}: {e}", path.display()));
        assert_eq!(report.suite, suite);
        assert!(!report.results.is_empty(), "empty baseline {suite}");
    }
}
