//! Golden-file determinism tests for the trace layer: a fixed-seed run
//! must emit the pinned, byte-identical JSONL trace every time, and
//! attaching a sink must not change the simulation outcome at all (the
//! report with a `NullSink` equals the report with a collecting sink,
//! bit for bit through its JSON serialisation — the same bytes the
//! harness persists).

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::ids::{NodeId, OperatorId};
use rod_core::load_model::LoadModel;
use rod_core::operator::OperatorKind;
use rod_core::resilience::FailoverTable;
use rod_sim::{
    FailoverConfig, JsonlSink, Outage, Simulation, SimulationConfig, SourceSpec, TraceRecord,
    TraceSink, VecSink,
};

mod common;

use common::{assert_pins, Pin};

/// The failover scenario's JSONL trace, recorded from the per-tuple
/// reference engine that the strict (batch size 1) mode replaced.
const FAILOVER_TRACE_PIN: Pin = Pin::new(177354, 0x96e0be14a8918eae);

fn chain(k: usize) -> QueryGraph {
    let mut b = GraphBuilder::new();
    let mut up = b.add_input();
    for j in 0..k {
        let (_, s) = b
            .add_operator(format!("m{j}"), OperatorKind::map(5e-4), &[up])
            .unwrap();
        up = s;
    }
    b.build().unwrap()
}

fn spread(graph: &QueryGraph, n: usize) -> Allocation {
    let mut alloc = Allocation::new(graph.num_operators(), n);
    for j in 0..graph.num_operators() {
        alloc.assign(OperatorId(j), NodeId(j % n));
    }
    alloc
}

/// A failover scenario that exercises every record kind: outage, shed
/// (bounded queues), detection, migration, recovery, and samples.
fn scenario(graph: &QueryGraph, cluster: &Cluster, alloc: &Allocation) -> SimulationConfig {
    let model = LoadModel::derive(graph).unwrap();
    let table = FailoverTable::precompute(&model, cluster, alloc);
    SimulationConfig {
        horizon: 20.0,
        warmup: 2.0,
        seed: 7,
        outages: vec![Outage {
            node: NodeId(1),
            start: 5.0,
            end: 15.0,
        }],
        failover: Some(FailoverConfig::new(table, 0.4)),
        // Low enough that the detection-delay backlog overflows it, so
        // the scenario produces Shed records too.
        op_queue_bound: Some(10),
        sample_interval: Some(1.0),
        ..SimulationConfig::default()
    }
}

#[test]
fn jsonl_trace_is_byte_identical_across_reruns() {
    let graph = chain(3);
    let cluster = Cluster::homogeneous(2, 1.0);
    let alloc = spread(&graph, 2);
    let run = || {
        let sim = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(60.0)],
            scenario(&graph, &cluster, &alloc),
        );
        let mut sink = JsonlSink::new(Vec::new());
        sim.run_with_sink(&mut sink);
        sink.into_inner()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must give a byte-identical trace");
    assert_pins(
        "failover scenario trace",
        &[Pin::of(&a)],
        &[FAILOVER_TRACE_PIN],
    );
    // Every line is one valid TraceRecord; the stream is framed by
    // RunStart/RunEnd.
    let text = String::from_utf8(a).unwrap();
    let records: Vec<TraceRecord> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("line parses"))
        .collect();
    assert!(matches!(
        records.first(),
        Some(TraceRecord::RunStart { .. })
    ));
    assert!(matches!(records.last(), Some(TraceRecord::RunEnd { .. })));
    // Record times are monotone in emission order up to the engine's
    // event granularity: every record's time is within the horizon.
    for r in &records {
        if let TraceRecord::UtilSample { time, .. } = r {
            assert!(*time <= 20.0 + 1e-9);
        }
    }
    // The failover scenario produces the interesting kinds.
    for kind in [
        "OutageStart",
        "OutageEnd",
        "FailureDetected",
        "MigrationStart",
        "MigrationEnd",
        "RecoveryComplete",
        "UtilSample",
        "Shed",
    ] {
        assert!(
            text.contains(kind),
            "expected at least one {kind} record in the trace"
        );
    }
}

#[test]
fn tracing_does_not_change_the_simulation_outcome() {
    let graph = chain(3);
    let cluster = Cluster::homogeneous(2, 1.0);
    let alloc = spread(&graph, 2);
    let build = || {
        Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(60.0)],
            scenario(&graph, &cluster, &alloc),
        )
    };
    // run() uses the NullSink path.
    let untraced = build().run();
    let mut sink = VecSink::new();
    let traced = build().run_with_sink(&mut sink);
    assert!(!sink.records.is_empty());
    assert_eq!(
        serde_json::to_string(&untraced).unwrap(),
        serde_json::to_string(&traced).unwrap(),
        "attaching a sink must not perturb the run"
    );
}

#[test]
fn vec_sink_sheds_are_flagged_in_recovery_during_outage() {
    let graph = chain(2);
    let cluster = Cluster::homogeneous(2, 1.0);
    let alloc = spread(&graph, 2);
    let mut sink = VecSink::new();
    Simulation::new(
        &graph,
        &alloc,
        &cluster,
        vec![SourceSpec::ConstantRate(80.0)],
        scenario(&graph, &cluster, &alloc),
    )
    .run_with_sink(&mut sink);
    let sheds: Vec<(f64, bool)> = sink
        .records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Shed {
                time, in_recovery, ..
            } => Some((*time, *in_recovery)),
            _ => None,
        })
        .collect();
    assert!(!sheds.is_empty(), "bounded queues under outage must shed");
    // Sheds attributed to recovery only happen while the failure is
    // outstanding (outage start to last migration landing).
    for &(time, in_recovery) in &sheds {
        if in_recovery {
            assert!(time >= 5.0, "recovery shed at {time} before the outage");
        }
    }
}

#[test]
fn all_shed_run_yields_none_latency_quantiles() {
    // Regression: SimReport::latencies.quantile(...).unwrap() panicked on
    // all-shed runs. A zero op-queue bound sheds every arrival, so the
    // latency accessors must return None rather than aborting.
    let graph = chain(2);
    let cluster = Cluster::homogeneous(2, 1.0);
    let alloc = spread(&graph, 2);
    let report = Simulation::new(
        &graph,
        &alloc,
        &cluster,
        vec![SourceSpec::ConstantRate(50.0)],
        SimulationConfig {
            horizon: 10.0,
            warmup: 1.0,
            seed: 3,
            op_queue_bound: Some(0),
            ..SimulationConfig::default()
        },
    )
    .run();
    assert_eq!(report.tuples_out, 0);
    assert!(report.tuples_shed > 0);
    assert_eq!(report.mean_latency(), None);
    assert_eq!(report.p99_latency(), None);
    assert_eq!(report.latency_quantile(0.5), None);
    assert_eq!(report.latencies.quantile(0.99), None);
}

#[test]
fn disabled_sink_reports_enabled_false_through_generic_dispatch() {
    // The engine's guard is `if self.sink.enabled()`; make sure the
    // monomorphised answer for a generic S: TraceSink matches the
    // concrete sinks' answers.
    fn probe<S: TraceSink>(sink: &S) -> bool {
        sink.enabled()
    }
    assert!(!probe(&rod_sim::NullSink));
    assert!(probe(&VecSink::new()));
    assert!(probe(&JsonlSink::new(Vec::new())));
}
