//! The `bench_gate` binary, driven end to end on temporary reports.

use mds_harness::bench::{BenchConfig, BenchReport, BenchResult, Host};
use mds_harness::json::ToJson;
use std::path::{Path, PathBuf};
use std::process::Command;

fn report(series: &[(&str, f64)]) -> BenchReport {
    BenchReport {
        suite: "gate_test".to_string(),
        scale: "tiny".to_string(),
        config: BenchConfig::default(),
        host: Some(Host::current()),
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
    gate_against(test, None, baseline, fresh)
}

/// [`gate`], with the baseline read from `baseline_file` as it is on
/// disk when one is given.
fn gate_against(
    test: &str,
    baseline_file: Option<&Path>,
    baseline: &BenchReport,
    fresh: &BenchReport,
) -> (i32, String) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mds-bench-gate-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base_path = match baseline_file {
        Some(path) => path.to_path_buf(),
        None => {
            let path = dir.join("baseline.json");
            std::fs::write(&path, baseline.to_json().pretty()).unwrap();
            path
        }
    };
    let fresh_path = dir.join("fresh.json");
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
fn committed_baselines_gate_against_fresh_reports_with_host_facts() {
    // Baselines recorded before reports carried host facts stay valid:
    // each committed BENCH_*.json, read as it is on disk, parses and
    // gates cleanly against a fresh report of the same timings that
    // records its host.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut checked = 0;
    for entry in std::fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let baseline = BenchReport::parse(&text)
            .unwrap_or_else(|e| panic!("unparseable baseline {name}: {e}"));
        assert_eq!(
            baseline.host.is_some(),
            text.contains("\"nproc\""),
            "{name}: host facts read back as written"
        );
        let fresh = BenchReport {
            host: Some(Host::current()),
            ..baseline.clone()
        };
        let (code, out) = gate_against(&name, Some(&path), &baseline, &fresh);
        assert_eq!(code, 0, "{name}: {out}");
        checked += 1;
    }
    assert!(checked >= 7, "only {checked} committed baselines found");
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
