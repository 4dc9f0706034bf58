//! The metric catalogue: every end-to-end and per-layer metric with its
//! unit, direction, and (for layers) the end-to-end metric and workload
//! it should move. `BENCHMARK.json` lists the same names and units; a
//! test keeps the two in step.

use mds_harness::json::Json;

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// For a layer metric: the end-to-end metric(s) and workload(s) it
    /// should move. For an end-to-end metric: what it measures on each
    /// workload.
    pub meaning: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    meaning: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        meaning,
    }
}

/// End-to-end metrics, reported by every workload untraced.
pub const END_TO_END: [Def; 5] = [
    def(
        "setup_s",
        "s",
        "lower",
        "median set-up before timing: paper_cold fills a persistent trace cache and lowers its \
         plans; serve_mix starts a store-backed server and prewarms 12 documents; grid_cluster \
         starts a fleet and gateway",
    ),
    def(
        "cold_p50_ms",
        "ms",
        "lower",
        "paper_cold: one cold tiny-scale reproduction in a fresh process; serve_mix: a fresh \
         recompute from its scheduled send; grid_cluster: the first tiny-scale grid on an empty fleet",
    ),
    def(
        "warm_p50_ms",
        "ms",
        "lower",
        "paper_cold: the reproduction over a warm trace cache; serve_mix: a warm read from its \
         scheduled send; grid_cluster: a repeat of the same grid",
    ),
    def(
        "sim_minst_per_s",
        "Minst/s",
        "higher",
        "trace instructions replayed by the timing and analysis cells of the cold operation, per \
         second of its median wall time",
    ),
    def(
        "peak_rss_mib",
        "MiB",
        "lower",
        "paper_cold: median VmHWM of the cold-operation processes; serve_mix and grid_cluster: \
         VmHWM of the measuring process after its timed operations",
    ),
];

/// The tracing-overhead metric for an end-to-end metric.
pub fn overhead_name(e2e: &str) -> String {
    format!("overhead.{e2e}")
}

/// Per-layer metrics, reported by every workload's traced run. The
/// overhead metrics (`overhead.<end-to-end>`) follow these.
#[rustfmt::skip]
pub const PER_LAYER: [Def; 39] = [
    def("emu.capture_s", "s", "lower", "sim_minst_per_s, peak_rss_mib on paper_cold; cold_p50_ms on grid_cluster"),
    def("emu.minst_per_s", "Minst/s", "higher", "sim_minst_per_s on paper_cold; cold_p50_ms on grid_cluster"),
    def("emu.trace_mib", "MiB", "lower", "peak_rss_mib on paper_cold and grid_cluster"),
    def("plan.build_s", "s", "lower", "sim_minst_per_s on paper_cold; cold_p50_ms on grid_cluster"),
    def("plan.resident_mib", "MiB", "lower", "peak_rss_mib on paper_cold and grid_cluster"),
    def("multiscalar.fused_s", "s", "lower", "sim_minst_per_s on paper_cold"),
    def("multiscalar.planned_s", "s", "lower", "cold_p50_ms and warm_p50_ms on grid_cluster"),
    def("multiscalar.minst_per_s", "Minst/s", "higher", "sim_minst_per_s on paper_cold"),
    def("ooo.window_s", "s", "lower", "sim_minst_per_s on paper_cold"),
    def("runner.wall_s", "s", "lower", "cold_p50_ms and sim_minst_per_s on paper_cold"),
    def("runner.utilization", "ratio", "higher", "sim_minst_per_s on paper_cold"),
    def("runner.steals", "count", "lower", "sim_minst_per_s on paper_cold"),
    def("runner.trace_hits", "count", "higher", "sim_minst_per_s on paper_cold"),
    def("runner.trace_misses", "count", "lower", "sim_minst_per_s, peak_rss_mib on paper_cold"),
    def("runner.peak_trace_mib", "MiB", "lower", "peak_rss_mib on paper_cold"),
    def("runner.cells_per_group", "ratio", "higher", "sim_minst_per_s on paper_cold; cold_p50_ms and warm_p50_ms on grid_cluster once grid cells fuse"),
    def("runner.one_cell_ms", "ms", "lower", "cold_p50_ms and warm_p50_ms on grid_cluster (compare gateway.cell_rtt_ms)"),
    def("bench.render_s", "s", "lower", "sim_minst_per_s on paper_cold"),
    def("wdl.expand_s", "s", "lower", "sim_minst_per_s on paper_cold"),
    def("paper.serial_wall_s", "s", "lower", "reference for paper.unattributed_s: one cold reproduction on one worker"),
    def("paper.unattributed_s", "s", "lower", "sim_minst_per_s on paper_cold"),
    def("serve.healthz_us", "us", "lower", "warm_p50_ms on serve_mix"),
    def("serve.warm_hit_us", "us", "lower", "warm_p50_ms on serve_mix"),
    def("serve.execute_ms", "ms", "lower", "cold_p50_ms on serve_mix"),
    def("serve.fresh_overhead_ms", "ms", "lower", "cold_p50_ms on serve_mix"),
    def("serve.queue_wait_us", "us", "lower", "warm_p50_ms tail on serve_mix"),
    def("serve.compute_ms", "ms", "lower", "warm_p50_ms tail on serve_mix"),
    def("serve.result_cache_hit_ratio", "ratio", "higher", "warm_p50_ms on serve_mix"),
    def("serve.shed", "count", "lower", "failed operations on serve_mix"),
    def("client.late_ms", "ms", "lower", "failed operations and warm tail on serve_mix"),
    def("store.boot_s", "s", "lower", "setup_s on serve_mix"),
    def("store.appends", "count", "lower", "setup_s on serve_mix (appends from an empty store through set-up and the loaded run: 12, one per prewarmed document, when recomputes repeat stored bytes)"),
    def("gateway.cells_per_call", "ratio", "higher", "cold_p50_ms on grid_cluster"),
    def("gateway.cell_rtt_ms", "ms", "lower", "cold_p50_ms and warm_p50_ms on grid_cluster"),
    def("cluster.trace_misses", "count", "lower", "cold_p50_ms on grid_cluster"),
    def("cluster.result_cache_hits", "count", "higher", "warm_p50_ms on grid_cluster"),
    def("gateway.repeat_gap_s", "s", "lower", "warm_p50_ms on grid_cluster"),
    def("gateway.retries", "count", "lower", "failed operations on grid_cluster"),
    def("gateway.local_recomputes", "count", "lower", "failed operations on grid_cluster"),
];

/// Named metric values, collected in any order.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Records `value` under `name` (a later record replaces an earlier).
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.retain(|(n, _)| n != name);
        self.0.push((name.to_string(), value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The values as one JSON object.
    pub fn to_object(&self) -> Json {
        self.0.iter().fold(Json::object(), |doc, (name, v)| {
            doc.field(name, if v.is_finite() { *v } else { 0.0 })
        })
    }

    /// Reads [`Values::to_object`] back.
    pub fn from_object(doc: &Json) -> Result<Values, String> {
        let Json::Object(pairs) = doc else {
            return Err("metric values must be an object".to_string());
        };
        let mut values = Values::default();
        for (name, v) in pairs {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("metric {name} is not a number"))?;
            values.set(name, v);
        }
        Ok(values)
    }

    /// Adds every value of `other`.
    pub fn extend(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(&name, value);
        }
    }

    /// The `{"name": {"value", "unit"}}` object for `defs`, in catalogue
    /// order. A missing value is an error: every metric must be measured.
    pub fn to_json(&self, defs: &[(String, &'static str)]) -> Result<Json, String> {
        let mut doc = Json::object();
        for (name, unit) in defs {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            // JSON has no NaN or infinity; a degenerate ratio reads 0.
            let value = if value.is_finite() { value } else { 0.0 };
            doc = doc.field(
                name,
                Json::object().field("value", value).field("unit", *unit),
            );
        }
        Ok(doc)
    }
}

/// The catalogue as JSON: for every metric, its unit, direction and what
/// it measures (end-to-end) or should move (per-layer).
pub fn catalogue() -> Json {
    let list = |defs: &[Def]| {
        defs.iter().fold(Json::object(), |doc, d| {
            doc.field(
                d.name,
                Json::object()
                    .field("unit", d.unit)
                    .field("better", d.better)
                    .field("meaning", d.meaning),
            )
        })
    };
    Json::object()
        .field("end_to_end", list(&END_TO_END))
        .field("per_layer", list(&PER_LAYER))
}

/// `(name, unit)` of every end-to-end metric.
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|d| (d.name.to_string(), d.unit))
        .collect()
}

/// `(name, unit)` of every per-layer metric, overheads last.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|d| (d.name.to_string(), d.unit))
        .collect();
    out.extend(END_TO_END.iter().map(|d| (overhead_name(d.name), d.unit)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let doc = benchmark_json();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let mut layers: Vec<_> = PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect();
        layers.extend(END_TO_END.iter().map(|d| {
            let better = if d.better == "higher" {
                "higher"
            } else {
                "lower"
            };
            (
                overhead_name(d.name),
                d.unit.to_string(),
                better.to_string(),
            )
        }));
        assert_eq!(listed(&doc, "per_layer"), layers);
    }

    #[test]
    fn missing_values_are_errors_and_non_finite_values_read_zero() {
        let mut v = Values::default();
        v.set("a", f64::NAN);
        let defs = vec![("a".to_string(), "s"), ("b".to_string(), "s")];
        assert!(v.to_json(&defs).unwrap_err().contains("b"));
        v.set("b", 2.5);
        let doc = v.to_json(&defs).unwrap();
        assert_eq!(
            doc.get("a").and_then(|a| a.get("value")),
            Some(&Json::Float(0.0))
        );
    }
}
