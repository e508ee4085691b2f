//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the names `BENCHMARK.json` declares
//! (a test keeps them equal); every run prints exactly one of the two
//! sets, on every workload. A per-layer metric whose layer a workload
//! never calls reads 0 there.

use std::collections::BTreeMap;

/// The Fig. 9 programs the `batch` workload runs.
pub const FIG9: [&str; 5] = ["rbtree", "rbtree-ck", "deriv", "nqueens", "cfold"];

/// The passes the Perceus pipeline runs, by `PassName::label`.
pub const PASSES: [&str; 7] = [
    "normalize",
    "inline",
    "reuse",
    "insert",
    "reuse-spec",
    "drop-spec",
    "fuse",
];

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("primary_ms", "ms"),
    ("secondary_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for stage in ["lex", "parse", "resolve", "types", "lower"] {
        add(format!("lang.{stage}_us"), "us");
    }
    add("lang.tokens_per_ms".into(), "1/ms");
    for pass in PASSES {
        add(format!("passes.{pass}_us"), "us");
    }
    add("passes.nodes_out".into(), "count");
    add("check.linear_us".into(), "us");
    add("code.compile_us".into(), "us");
    add("analysis.certify.rbtree_ms".into(), "ms");
    add("analysis.certify.rbtree-ck_ms".into(), "ms");
    add("analysis.certify.rest_ms".into(), "ms");
    add("analysis.intervals_us".into(), "us");
    add("codegen.emit_us".into(), "us");
    add("codegen.emit_kb".into(), "KiB");
    add("codegen.build_s".into(), "s");
    for p in FIG9 {
        add(format!("machine.{p}_ms"), "ms");
    }
    add("machine.steps".into(), "count");
    add("machine.ns_per_step".into(), "ns");
    add("machine.read_back_ms".into(), "ms");
    add("machine.drop_result_ms".into(), "ms");
    for p in FIG9 {
        add(format!("native.{p}_ms"), "ms");
    }
    add("native.spawn_ms".into(), "ms");
    add("exec.dispatch_share".into(), "ratio");
    for p in FIG9 {
        add(format!("exec.dispatch_share.{p}"), "ratio");
    }
    for c in HEAP_COUNTS {
        add(format!("heap.{c}"), "count");
    }
    for r in ["reuse_ratio", "unique_hit_ratio", "freelist_hit_ratio"] {
        add(format!("heap.{r}"), "ratio");
    }
    for op in HEAP_OPS {
        add(format!("heap.{op}_ns"), "ns");
    }
    add("heap.est_share".into(), "ratio");
    for p in FIG9 {
        add(format!("heap.est_share.{p}"), "ratio");
    }
    for m in ["service_p50", "service_p99", "wait_p99", "miss_service_p50"] {
        add(format!("serve.{m}_ms"), "ms");
    }
    add("serve.cache_hit_ratio".into(), "ratio");
    for c in ["atomic_ops", "resume_legs", "busy_retries", "backlog_max"] {
        add(format!("serve.{c}"), "count");
    }
    add("serve.gen_lag_p99_ms".into(), "ms");
    add("trace.overhead_share".into(), "ratio");
    add("trace.unattributed_share".into(), "ratio");
    v
}

/// Heap counters summed over the `batch` programs.
pub const HEAP_COUNTS: [&str; 7] = [
    "allocations",
    "reuses",
    "dups",
    "drops",
    "decrefs",
    "frees",
    "peak_live_words",
];

/// Heap primitives timed in tight loops.
pub const HEAP_OPS: [&str; 5] = [
    "dup_drop",
    "alloc_drop",
    "reuse",
    "is_unique",
    "shared_dup_drop",
];

/// Metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `problems` empty means it passed.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }

    /// Marks `count` already-counted operations failed.
    pub fn fail_counted(&mut self, count: u64, why: String) {
        self.failed = (self.failed + count).min(self.attempted);
        self.failures.push(why);
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Renders the final result line. Errors if `metrics` does not hold
/// exactly the names of `catalogue`.
pub fn result_line(
    tally: &Tally,
    metrics: &Metrics,
    catalogue: &[(String, &str)],
) -> Result<String, String> {
    let missing: Vec<&str> = catalogue
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| !metrics.0.contains_key(*n))
        .collect();
    let extra: Vec<&str> = metrics
        .0
        .keys()
        .map(String::as_str)
        .filter(|k| !catalogue.iter().any(|(n, _)| n == k))
        .collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!(
            "metric set mismatch: missing {missing:?}, unexpected {extra:?}"
        ));
    }
    let mut body = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let v = metrics.0[name.as_str()];
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        body.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    ))
}

/// The end-to-end catalogue as owned names.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perceus_serve::json::{self, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(end_to_end()));
        assert_eq!(declared(&doc, "per_layer"), owned(per_layer()));
    }

    #[test]
    fn result_line_refuses_a_partial_metric_set() {
        let mut m = Metrics::default();
        for (n, _) in END_TO_END {
            m.set(n, 1.5);
        }
        let tally = Tally {
            attempted: 4,
            ..Tally::default()
        };
        let line = result_line(&tally, &m, &end_to_end()).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":4,\"failed\":0,"));
        let parsed = json::parse(&line).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        assert!(metrics
            .get("setup_s")
            .and_then(|v| v.get("value"))
            .is_some());

        m.0.remove("setup_s");
        assert!(result_line(&tally, &m, &end_to_end()).is_err());
        m.set("setup_s", 1.0);
        m.set("bogus", 1.0);
        assert!(result_line(&tally, &m, &end_to_end()).is_err());
    }
}
