//! A generated surge at cluster scale: a sparse 16-input, 1 000-operator
//! graph on 16 nodes starts on the Connected plan tuned to calm rates,
//! then a quarter of the streams surges past that plan's capacity and
//! recovers. The decision log is pinned byte for byte, so any change to
//! the loop's headroom, drift or commit-gate arithmetic shows up here on
//! a graph far larger than the paper's toy examples.

mod common;

use common::{assert_pins, Pin};

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::load_model::LoadModel;
use rod_core::{build_planner, PlanEvaluator, PlannerSpec};
use rod_ctrl::{ControlConfig, ControlLoop, Decision};
use rod_sim::TraceRecord;
use rod_workloads::sparse_graphs::SparseGraphGenerator;

const INPUTS: usize = 16;
const NODES: usize = 16;
/// Multiplier of the surging quarter of the streams: enough to take the
/// Connected plan past capacity, which only a full replan rescues.
const SURGE: f64 = 6.0;

fn peak(values: &[f64]) -> f64 {
    values.iter().fold(0.0f64, |a, &b| a.max(b))
}

fn connected(model: &LoadModel, cluster: &Cluster, rates: &[f64]) -> Allocation {
    build_planner(&PlannerSpec::Connected {
        rates: rates.to_vec(),
    })
    .plan(model, cluster)
    .unwrap()
}

/// The model, cluster, initial plan and telemetry lines of the surge.
fn scenario() -> (LoadModel, Cluster, Allocation, Vec<String>) {
    let graph = SparseGraphGenerator::sized(INPUTS, 1_000).generate(7);
    let model = LoadModel::derive(&graph).unwrap();
    let cluster = Cluster::homogeneous(NODES, 1.0);
    let ev = PlanEvaluator::new(&model, &cluster);
    let shape: Vec<f64> = (0..INPUTS)
        .map(|k| 0.5 + ((k * 37) % INPUTS) as f64 / INPUTS as f64)
        .collect();
    let probe = connected(&model, &cluster, &shape);
    let scale = 0.4 / peak(ev.utilisations_at(&probe, &shape).as_slice());
    let calm: Vec<f64> = shape.iter().map(|r| r * scale).collect();
    let initial = connected(&model, &cluster, &calm);
    let mut lines = Vec::new();
    for i in 0..60 {
        let surging = (20..40).contains(&i);
        let rates: Vec<f64> = calm
            .iter()
            .enumerate()
            .map(|(k, r)| {
                let wobble = 1.0 + 0.02 * (((i * 7 + k * 13) % 11) as f64 / 5.0 - 1.0);
                let f = if surging && k < INPUTS / 4 {
                    SURGE
                } else {
                    1.0
                };
                r * f * wobble
            })
            .collect();
        let utilisations = ev.utilisations_at(&initial, &rates).as_slice().to_vec();
        let record =
            TraceRecord::util_sample((i + 1) as f64, utilisations, vec![0; NODES], 0, rates)
                .unwrap();
        lines.push(serde_json::to_string(&record).unwrap());
        if i == 30 {
            lines.push("{\"UtilSample\":{\"time\":".into());
        }
    }
    (model, cluster, initial, lines)
}

/// Recorded on the loop as it stood before its sample path read headroom
/// from rows cached per plan; that change must not move a byte.
const SPARSE_SURGE_PIN: Pin = Pin::new(1078, 0x9dfa824fcc6b0a84);

fn replay() -> ControlLoop {
    let (model, cluster, initial, lines) = scenario();
    let mut l = ControlLoop::new(model, cluster, initial, ControlConfig::default()).unwrap();
    for line in &lines {
        l.observe_line(line);
    }
    l
}

#[test]
fn sparse_surge_decision_log_is_pinned() {
    let l = replay();
    // The scenario exercises both commit-gate outcomes: a routine replan
    // rejected as not worth its downtime, then a rescue.
    let committed = l
        .decisions()
        .iter()
        .filter(|d| matches!(d, Decision::PlanCommitted { headroom_before, .. } if *headroom_before < 1.0))
        .count();
    assert_eq!(committed, 1, "{:?}", l.decisions());
    assert!(l
        .decisions()
        .iter()
        .any(|d| matches!(d, Decision::ReplanAborted { reason, .. } if reason.starts_with("not beneficial"))));
    assert_pins(
        "sparse surge",
        &[Pin::of(l.decision_log_jsonl().as_bytes())],
        &[SPARSE_SURGE_PIN],
    );
}
