//! The `bench_gate` binary, driven end to end on temporary reports.

use mds_harness::bench::{BenchConfig, BenchReport, BenchResult};
use mds_harness::json::ToJson;
use std::path::PathBuf;
use std::process::Command;

fn report(series: &[(&str, f64)]) -> BenchReport {
    BenchReport {
        suite: "gate_test".to_string(),
        scale: "tiny".to_string(),
        config: BenchConfig::default(),
        results: series
            .iter()
            .map(|&(name, median_ns)| BenchResult {
                name: name.to_string(),
                iters_per_batch: 1,
                batches: 1,
                median_ns,
                mad_ns: 0.0,
                min_ns: median_ns,
                max_ns: median_ns,
                throughput_elems: None,
            })
            .collect(),
    }
}

/// Writes both reports to a fresh temporary directory and runs
/// `bench_gate <baseline> <fresh>`.
fn gate(test: &str, baseline: &BenchReport, fresh: &BenchReport) -> (i32, String) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mds-bench-gate-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base_path = dir.join("baseline.json");
    let fresh_path = dir.join("fresh.json");
    std::fs::write(&base_path, baseline.to_json().pretty()).unwrap();
    std::fs::write(&fresh_path, fresh.to_json().pretty()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg(&base_path)
        .arg(&fresh_path)
        .env_remove("MDS_BENCH_TOLERANCE")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.code().unwrap(), text)
}

#[test]
fn a_baseline_series_missing_from_the_fresh_report_fails_the_gate() {
    let baseline = report(&[("a", 100.0), ("b", 100.0), ("gone", 100.0), ("old", 100.0)]);
    let fresh = report(&[("a", 100.0), ("b", 100.0), ("new", 100.0)]);
    let (code, text) = gate("missing", &baseline, &fresh);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("missing"), "{text}");
    assert!(text.contains("gone, old"), "{text}");
    assert!(text.contains("'new' has no baseline yet"), "{text}");
}

#[test]
fn a_fresh_report_covering_its_baseline_passes_and_new_series_get_a_note() {
    let baseline = report(&[("a", 100.0), ("b", 200.0)]);
    let fresh = report(&[("a", 110.0), ("b", 210.0), ("new", 5.0)]);
    let (code, text) = gate("covered", &baseline, &fresh);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("'new' has no baseline yet"), "{text}");
    assert!(text.contains("bench_gate: OK"), "{text}");
}

#[test]
fn a_regressed_series_still_fails_the_gate() {
    let baseline = report(&[("a", 100.0), ("b", 100.0), ("c", 100.0)]);
    let fresh = report(&[("a", 100.0), ("b", 100.0), ("c", 500.0)]);
    let (code, text) = gate("regressed", &baseline, &fresh);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("REGRESSED  c"), "{text}");
}
