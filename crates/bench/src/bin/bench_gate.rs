//! Bench-regression gate: compares a freshly measured `BENCH_*.json`
//! against a committed baseline and fails when any benchmark slowed down
//! beyond tolerance.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json>
//! bench_gate --min-speedup <report.json> <slow-name> <fast-name> <factor>
//! bench_gate --max-ratio <report.json> <name-a> <name-b> <factor>
//! ```
//!
//! Absolute medians are not comparable across machines (a CI runner may
//! be uniformly 2x slower than the box that produced the baseline), so
//! the gate normalizes first: it computes each benchmark's fresh/baseline
//! ratio, takes the **median ratio** across the suite as the machine-speed
//! factor, and flags a benchmark only when its own ratio exceeds
//! `median_ratio * tolerance`. A uniform slowdown passes; one benchmark
//! regressing relative to its peers fails.
//!
//! `MDS_BENCH_TOLERANCE` (default `1.6`) sets the per-benchmark headroom
//! over the suite's median ratio — wide enough for shared-runner noise,
//! tight enough to catch a real hot-path regression.
//!
//! The `--min-speedup` mode checks a claimed speedup *within* one report:
//! benchmark `<slow-name>` must be at least `<factor>` times slower than
//! `<fast-name>`. Both sides use the fastest-batch time (`min_ns`), not
//! the median: on a shared machine the minimum over ~25 batches is the
//! best estimate of uncontended speed, so a contention spike during one
//! benchmark's measurement window cannot fake or mask a speedup.
//!
//! The `--max-ratio` mode bounds one benchmark by another *within* one
//! report: `<name-a>`'s median must be at most `<factor>` times
//! `<name-b>`'s. Both sides come from the same run on the same machine,
//! so the bound is machine-independent. This is how the serve suite pins
//! restart-warm serving to steady-warm serving: a restarted server must
//! answer from its store-prewarmed cache, not recompute.
//!
//! Every baseline benchmark must appear in the fresh report: a renamed or
//! deleted benchmark fails the comparison with the missing names listed,
//! so it cannot silently leave the gate. A fresh benchmark with no
//! baseline only gets a note.
//!
//! Exit status: `0` when every baseline benchmark is present and within
//! tolerance (or the speedup holds), `1` on a regression, a missing
//! baseline benchmark, or a missed speedup, `2` on usage or parse errors.

use mds_harness::bench::{median, BenchReport};
use std::process::ExitCode;

/// Checks that `slow` is at least `factor` times slower than `fast`
/// within a single report, comparing fastest-batch times.
fn min_speedup(report_path: &str, slow: &str, fast: &str, factor: f64) -> ExitCode {
    let report = match load(report_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let find = |name: &str| report.results.iter().find(|b| b.name == name);
    let (Some(s), Some(f)) = (find(slow), find(fast)) else {
        eprintln!("bench_gate: '{slow}' or '{fast}' not found in {report_path}");
        return ExitCode::from(2);
    };
    if s.min_ns <= 0.0 || f.min_ns <= 0.0 {
        eprintln!("bench_gate: non-positive min_ns in {report_path}");
        return ExitCode::from(2);
    }
    let ratio = s.min_ns / f.min_ns;
    println!(
        "bench_gate: {slow} {:.1}ms vs {fast} {:.1}ms => speedup x{ratio:.2} (required x{factor:.2})",
        s.min_ns / 1e6,
        f.min_ns / 1e6,
    );
    if ratio >= factor {
        println!("bench_gate: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_gate: FAIL (speedup x{ratio:.2} below required x{factor:.2})");
        ExitCode::FAILURE
    }
}

/// Checks that `a`'s median stays within `factor` times `b`'s median
/// within a single report.
fn max_ratio(report_path: &str, a: &str, b: &str, factor: f64) -> ExitCode {
    let report = match load(report_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let find = |name: &str| report.results.iter().find(|r| r.name == name);
    let (Some(num), Some(den)) = (find(a), find(b)) else {
        eprintln!("bench_gate: '{a}' or '{b}' not found in {report_path}");
        return ExitCode::from(2);
    };
    if num.median_ns <= 0.0 || den.median_ns <= 0.0 {
        eprintln!("bench_gate: non-positive median_ns in {report_path}");
        return ExitCode::from(2);
    }
    let ratio = num.median_ns / den.median_ns;
    println!(
        "bench_gate: {a} {:.3}ms vs {b} {:.3}ms => ratio x{ratio:.2} (allowed x{factor:.2})",
        num.median_ns / 1e6,
        den.median_ns / 1e6,
    );
    if ratio <= factor {
        println!("bench_gate: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_gate: FAIL (ratio x{ratio:.2} above allowed x{factor:.2})");
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<BenchReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("bench_gate: read {path}: {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("bench_gate: parse {path}: {e}"))
}

fn tolerance() -> f64 {
    std::env::var("MDS_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| *t >= 1.0)
        .unwrap_or(1.6)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--min-speedup") {
        let [_, report, slow, fast, factor] = args.as_slice() else {
            eprintln!(
                "usage: bench_gate --min-speedup <report.json> <slow-name> <fast-name> <factor>"
            );
            return ExitCode::from(2);
        };
        let Ok(factor) = factor.parse::<f64>() else {
            eprintln!("bench_gate: bad factor '{factor}'");
            return ExitCode::from(2);
        };
        return min_speedup(report, slow, fast, factor);
    }
    if args.first().is_some_and(|a| a == "--max-ratio") {
        let [_, report, a, b, factor] = args.as_slice() else {
            eprintln!("usage: bench_gate --max-ratio <report.json> <name-a> <name-b> <factor>");
            return ExitCode::from(2);
        };
        let Ok(factor) = factor.parse::<f64>() else {
            eprintln!("bench_gate: bad factor '{factor}'");
            return ExitCode::from(2);
        };
        return max_ratio(report, a, b, factor);
    }
    let [baseline_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    // (name, baseline median, fresh median) for benchmarks present in both.
    let mut shared: Vec<(&str, f64, f64)> = Vec::new();
    let mut missing: Vec<&str> = Vec::new();
    for b in &baseline.results {
        match fresh.results.iter().find(|f| f.name == b.name) {
            Some(f) if b.median_ns > 0.0 => shared.push((&b.name, b.median_ns, f.median_ns)),
            Some(_) => {}
            None => missing.push(&b.name),
        }
    }
    for new in fresh
        .results
        .iter()
        .filter(|f| !baseline.results.iter().any(|b| b.name == f.name))
    {
        println!("bench_gate: note: '{}' has no baseline yet", new.name);
    }
    // A renamed or deleted benchmark must not silently leave the gate.
    if !missing.is_empty() {
        eprintln!(
            "bench_gate: FAIL (baseline benchmarks missing from {fresh_path}: {})",
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }
    if shared.is_empty() {
        eprintln!("bench_gate: no shared benchmarks between the two reports");
        return ExitCode::from(2);
    }

    let ratios: Vec<f64> = shared.iter().map(|(_, b, f)| f / b).collect();
    let machine_factor = median(&ratios);
    let tol = tolerance();
    let limit = machine_factor * tol;
    println!(
        "bench_gate: {} shared benchmarks, machine factor {machine_factor:.3}, \
         tolerance {tol:.2} => per-bench limit {limit:.3}",
        shared.len()
    );

    let mut failed = false;
    for ((name, base_ns, fresh_ns), ratio) in shared.iter().zip(&ratios) {
        let verdict = if *ratio > limit {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "  {verdict:>9}  {name}  {:.1}ms -> {:.1}ms  (x{ratio:.3})",
            base_ns / 1e6,
            fresh_ns / 1e6,
        );
    }
    if failed {
        eprintln!("bench_gate: FAIL (regression beyond x{limit:.3})");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: OK");
        ExitCode::SUCCESS
    }
}
