//! A measured bench run whose report cannot be written fails the process.
//!
//! `Harness::finish` runs at the end of a bench's `main`, so the check
//! needs a process of its own: each test re-runs this test binary on the
//! ignored `measured_suite` test with `--bench` after `--` (libtest takes
//! it as a second name filter; the harness takes it as measurement mode)
//! and `MDS_BENCH_DIR` set, then reads the exit status.

use mds_harness::bench::Harness;
use mds_harness::tempdir::TempDir;
use std::path::Path;
use std::process::{Command, Output};

/// The child's body: one measured suite with no benches, then `finish`.
#[test]
#[ignore = "run as a child process by the tests below"]
fn measured_suite() {
    Harness::new("exit_status").finish();
}

fn run_measured_suite(dir: &Path) -> Output {
    Command::new(std::env::current_exe().unwrap())
        .args([
            "measured_suite",
            "--exact",
            "--ignored",
            "--nocapture",
            "--",
            "--bench",
        ])
        .env("MDS_BENCH_DIR", dir)
        .output()
        .unwrap()
}

#[test]
fn an_unwritable_report_fails_the_run() {
    let tmp = TempDir::new("bench-report").unwrap();
    let missing = tmp.join("no-such-dir");
    let out = run_measured_suite(&missing);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(stderr.contains("failed to write"), "{stderr}");
    assert!(!missing.exists());
}

#[test]
fn a_written_report_exits_zero() {
    let tmp = TempDir::new("bench-report").unwrap();
    let out = run_measured_suite(tmp.path());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(tmp.join("BENCH_exit_status.json").is_file(), "{stderr}");
}
