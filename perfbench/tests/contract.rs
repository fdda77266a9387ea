//! The benchmark's own contract: metric names and counts, the per-layer
//! declarations, `BENCHMARK.json` agreeing with the code, and a tiny run
//! of every workload with its output checks on.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{run, Scale, WORKLOADS};
use serde::Value;

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn metric_names_are_valid_and_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(valid_name(name), "bad metric name {name}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a metric name is used twice");
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
}

#[test]
fn metric_counts_fit_the_contract() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for m in END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
    }
}

#[test]
fn every_per_layer_metric_declares_its_target() {
    for m in PER_LAYER {
        assert!(
            END_TO_END.iter().any(|e| e.name == m.moves),
            "{} moves unknown end-to-end metric {}",
            m.name,
            m.moves
        );
        assert!(!m.on.is_empty(), "{} names no workload", m.name);
        for w in m.on {
            assert!(
                WORKLOADS.contains(w),
                "{} names unknown workload {w}",
                m.name
            );
        }
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text_json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let root = serde_json::parse_value(&text_json).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&root),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = field(&root, "workloads").as_array().expect("workloads");
    let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(field(w, "why"));
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = field(&root, "end_to_end").as_array().expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (v, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(v), ["name", "unit", "better", "bound"]);
        assert_eq!(text(field(v, "name")), m.name);
        assert_eq!(text(field(v, "unit")), m.unit);
        assert_eq!(text(field(v, "better")), m.better);
        assert_eq!(number(field(v, "bound")), m.bound);
    }

    let layers = field(&root, "per_layer").as_array().expect("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (v, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(keys(v), ["name", "unit", "better"]);
        assert_eq!(text(field(v, "name")), m.name);
        assert_eq!(text(field(v, "unit")), m.unit);
        assert_eq!(text(field(v, "better")), m.better);
    }
}

#[test]
fn every_workload_completes_a_tiny_run_with_checks_on() {
    for w in WORKLOADS {
        let untraced = run(w, Scale::Tiny, 3, 0.01, false).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(untraced.attempted >= 1, "{w}: nothing attempted");
        let got: Vec<&str> = untraced.metrics.keys().copied().collect();
        let mut want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(got, want, "{w}: end-to-end metrics");
        assert!(untraced.metrics.values().all(|v| v.is_finite() && *v > 0.0));

        let traced = run(w, Scale::Tiny, 3, 0.01, true).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert_eq!(
            traced.metrics.len(),
            PER_LAYER.len(),
            "{w}: per-layer metrics"
        );
        assert!(traced.metrics.values().all(|v| v.is_finite()));
        assert!(traced.metrics["trace.coverage"] > 0.0);
        assert!(!traced.spans.is_empty());
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run("no_such_workload", Scale::Tiny, 1, 0.01, false).is_err());
}
