//! Replays the committed CI fixture — a calm-then-surge telemetry trace
//! with one corrupted line — through a control loop seeded with the
//! committed (deliberately sub-optimal, connected-algorithm) plan, and
//! pins the behaviour CI asserts on the `rodd` binary:
//!
//! * the corrupted line is counted and classified, not fatal;
//! * the mid-run surge triggers at least one replan;
//! * a rescue plan commits with feasible headroom at the estimate;
//! * every decision-log line round-trips through serde and carries
//!   exactly one externally-tagged variant key, matching the shape the
//!   checked-in `decision_log.schema.json` describes;
//! * the decision log is byte-identical to its golden pin.

mod common;

use std::fs;
use std::io::BufReader;
use std::path::PathBuf;

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::load_model::LoadModel;
use rod_core::QueryGraph;
use rod_ctrl::{ControlConfig, ControlLoop, Decision};

use common::{assert_pins, Pin};

/// The surge fixture's decision log, recorded on the loop as it stood
/// before its sample path read headroom from rows cached per plan.
const SURGE_LOG_PIN: Pin = Pin::new(542, 0x72956a9ba8db595f);

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn replay_fixture() -> ControlLoop {
    let graph: QueryGraph =
        serde_json::from_str(&fs::read_to_string(fixture("graph.json")).unwrap()).unwrap();
    graph.validate().unwrap();
    let initial: Allocation =
        serde_json::from_str(&fs::read_to_string(fixture("plan.json")).unwrap()).unwrap();
    let model = LoadModel::derive(&graph).unwrap();
    let mut loop_ = ControlLoop::new(
        model,
        Cluster::homogeneous(3, 1.0),
        initial,
        ControlConfig::default(),
    )
    .unwrap();
    let file = fs::File::open(fixture("surge.jsonl")).unwrap();
    loop_.replay(BufReader::new(file)).unwrap();
    loop_
}

#[test]
fn corrupt_line_is_counted_not_fatal() {
    let loop_ = replay_fixture();
    let s = loop_.summary();
    assert_eq!(s.lines, 36);
    assert_eq!(s.samples_rejected, 1, "{s:?}");
    assert_eq!(s.samples_accepted, 35, "{s:?}");
    assert!(
        loop_.decisions().iter().any(|d| matches!(
            d,
            Decision::SampleRejected {
                line: 11,
                reason: rod_ctrl::RejectReason::MalformedLine,
            }
        )),
        "expected line 11 rejected as malformed"
    );
}

#[test]
fn surge_decision_log_is_pinned() {
    let log = replay_fixture().decision_log_jsonl();
    assert_pins(
        "surge fixture",
        &[Pin::of(log.as_bytes())],
        &[SURGE_LOG_PIN],
    );
}

#[test]
fn surge_triggers_replan_and_rescue_commit() {
    let loop_ = replay_fixture();
    let s = loop_.summary();
    assert!(s.replans_triggered >= 1, "{s:?}");
    assert!(s.plans_committed >= 1, "{s:?}");
    let committed: Vec<_> = loop_
        .decisions()
        .iter()
        .filter_map(|d| match d {
            Decision::PlanCommitted {
                moves,
                headroom_before,
                headroom_after,
                ..
            } => Some((*moves, *headroom_before, *headroom_after)),
            _ => None,
        })
        .collect();
    assert!(!committed.is_empty());
    for (moves, before, after) in committed {
        assert!(moves >= 1);
        assert!(
            after >= 1.0,
            "committed plan infeasible at estimate: {after}"
        );
        assert!(after > before, "commit did not improve headroom");
    }
    // The rescue moved the loop off the seeded connected plan.
    let seeded: Allocation =
        serde_json::from_str(&fs::read_to_string(fixture("plan.json")).unwrap()).unwrap();
    assert_ne!(loop_.current(), &seeded);
}

/// The running plan's node-load rows are built once at start-up and
/// after each executed commit, and a candidate's once at the gate —
/// never per sample, however many samples arrive.
#[test]
fn plan_rows_are_built_per_plan_not_per_sample() {
    let loop_ = replay_fixture();
    let s = loop_.summary();
    // Every replan on the fixture reaches the gate's feasibility check
    // (no planner faults, no malformed or pinned-move candidates).
    let gates = loop_
        .decisions()
        .iter()
        .filter(|d| matches!(d, Decision::ReplanTriggered { .. }))
        .count() as u64;
    assert!(!loop_.decisions().iter().any(|d| matches!(
        d,
        Decision::ReplanAborted { reason, .. }
            if reason.starts_with("planner") || reason.contains("malformed") || reason.contains("pinned")
    )));
    let built = loop_.metrics().counter("ctrl.plan_rows_built");
    assert_eq!(built, 1 + gates + s.plans_committed, "{s:?}");
    assert!(built < s.samples_accepted, "{built} builds for {s:?}");
}

/// Field lookup on the vendored `Value`'s ordered-pair object repr.
fn obj_get<'a>(pairs: &'a [(String, serde::Value)], key: &str) -> Option<&'a serde::Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[test]
fn decision_log_matches_schema_shape() {
    let loop_ = replay_fixture();
    let log = loop_.decision_log_jsonl();
    assert!(!log.is_empty());
    let schema: serde::Value =
        serde_json::from_str(&fs::read_to_string(fixture("decision_log.schema.json")).unwrap())
            .unwrap();
    let kinds = obj_get(schema.as_object().unwrap(), "properties")
        .unwrap()
        .as_object()
        .unwrap();
    for line in log.lines() {
        // Serde round-trip (the binary writes exactly these bytes).
        let decision: Decision = serde_json::from_str(line).unwrap();
        assert_eq!(serde_json::to_string(&decision).unwrap(), line);
        // Externally tagged: exactly one key, and the schema knows it.
        let value: serde::Value = serde_json::from_str(line).unwrap();
        let object = value.as_object().unwrap();
        assert_eq!(object.len(), 1, "not externally tagged: {line}");
        let (kind, payload) = &object[0];
        let spec = obj_get(kinds, kind)
            .unwrap_or_else(|| panic!("decision kind {kind} missing from schema"))
            .as_object()
            .unwrap();
        let payload = payload.as_object().unwrap();
        for field in obj_get(spec, "required").unwrap().as_array().unwrap() {
            let serde::Value::Str(field) = field else {
                panic!("schema 'required' entries must be strings");
            };
            assert!(
                obj_get(payload, field).is_some(),
                "{kind} missing required field {field}: {line}"
            );
        }
        let allowed = obj_get(spec, "properties").unwrap().as_object().unwrap();
        for (field, _) in payload {
            assert!(
                obj_get(allowed, field).is_some(),
                "{kind} has unknown field {field}"
            );
        }
    }
}
