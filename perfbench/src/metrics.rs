//! The benchmark's metrics: names, units, directions, and — for each
//! per-layer metric — the end-to-end metric and workloads it should
//! move. `BENCHMARK.json` must list exactly these; a test checks it.

use std::collections::BTreeMap;

use crate::trace::Trace;

/// An end-to-end metric, reported by every workload with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "job_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Where a per-layer value comes from in the traced pass.
pub enum Source {
    /// Self time of the named span, in seconds.
    SelfTime(&'static str),
    /// The count of the metric's own name.
    Count,
    /// Sum of layer self times over the pass's wall time.
    Coverage,
    /// Traced over untraced wall time, minus one.
    Overhead,
}

/// A per-layer metric, reported by every workload with tracing on (zero
/// where the workload does not exercise the layer).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
    /// The end-to-end metric this layer should move…
    pub moves: &'static str,
    /// …on these workloads.
    pub on: &'static [&'static str],
}

const ALL: &[&str] = crate::WORKLOADS;
const PLAN: &[&str] = &["plan_m50k_n1000"];
const RESILIENT: &[&str] = &["resilient_d6_n16"];
const RODD: &[&str] = &["rodd_surge_m5k"];
const ONOFF: &[&str] = &["onoff_pipeline"];
const GENERATED: &[&str] = &["plan_m50k_n1000", "resilient_d6_n16", "rodd_surge_m5k"];
const CONNECTED: &[&str] = &["rodd_surge_m5k", "onoff_pipeline"];
const PLAN_RODD: &[&str] = &["plan_m50k_n1000", "rodd_surge_m5k"];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $source:expr, $moves:literal, $on:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            source: $source,
            moves: $moves,
            on: $on,
        }
    };
}

use Source::{Count, Coverage, Overhead, SelfTime};

pub const PER_LAYER: &[PerLayer] = &[
    // Set-up.
    layer!(
        "workloads.generate_s",
        "s",
        "lower",
        SelfTime("workloads.generate"),
        "setup_s",
        GENERATED
    ),
    layer!(
        "traces.onoff.generate_s",
        "s",
        "lower",
        SelfTime("traces.onoff.generate"),
        "setup_s",
        ONOFF
    ),
    layer!(
        "core.load_model.derive_s",
        "s",
        "lower",
        SelfTime("core.load_model.derive"),
        "setup_s",
        ALL
    ),
    layer!(
        "core.load_model.nnz",
        "count",
        "lower",
        Count,
        "setup_s",
        ALL
    ),
    layer!(
        "bench.stream.generate_s",
        "s",
        "lower",
        SelfTime("bench.stream.generate"),
        "setup_s",
        RODD
    ),
    layer!(
        "core.eval.node_loads_s",
        "s",
        "lower",
        SelfTime("core.eval.node_loads"),
        "setup_s",
        CONNECTED
    ),
    layer!(
        "geom.volume.points_s",
        "s",
        "lower",
        SelfTime("geom.volume.points"),
        "setup_s",
        RESILIENT
    ),
    layer!(
        "core.baselines.connected_s",
        "s",
        "lower",
        SelfTime("core.baselines.connected"),
        "setup_s",
        CONNECTED
    ),
    // Placement.
    layer!(
        "core.rod.place_s",
        "s",
        "lower",
        SelfTime("core.rod.place"),
        "job_s",
        PLAN_RODD
    ),
    layer!(
        "core.rod.candidates_scored",
        "count",
        "lower",
        Count,
        "job_s",
        PLAN_RODD
    ),
    layer!(
        "core.hierarchical.place_s",
        "s",
        "lower",
        SelfTime("core.hierarchical.place"),
        "job_s",
        PLAN
    ),
    layer!(
        "core.eval.plane_distance_s",
        "s",
        "lower",
        SelfTime("core.eval.plane_distance"),
        "job_s",
        PLAN
    ),
    layer!(
        "core.rod.plane_distance",
        "1",
        "higher",
        Count,
        "job_s",
        PLAN
    ),
    layer!(
        "core.hierarchical.plane_distance",
        "1",
        "higher",
        Count,
        "job_s",
        PLAN
    ),
    // Resilient planning.
    layer!(
        "core.resilience.place_s",
        "s",
        "lower",
        SelfTime("core.resilience.place"),
        "job_s",
        RESILIENT
    ),
    layer!(
        "core.resilience.moves",
        "count",
        "lower",
        Count,
        "job_s",
        RESILIENT
    ),
    layer!(
        "core.resilience.survivor_ratio",
        "1",
        "higher",
        Count,
        "job_s",
        RESILIENT
    ),
    layer!(
        "core.resilience.serial_place_s",
        "s",
        "lower",
        SelfTime("core.resilience.serial_place"),
        "job_s",
        RESILIENT
    ),
    layer!(
        "geom.volume.estimate_s",
        "s",
        "lower",
        SelfTime("geom.volume.estimate"),
        "job_s",
        RESILIENT
    ),
    layer!(
        "geom.kernel.simd_blocks",
        "count",
        "higher",
        Count,
        "job_s",
        RESILIENT
    ),
    layer!(
        "geom.kernel.scalar_blocks",
        "count",
        "lower",
        Count,
        "job_s",
        RESILIENT
    ),
    layer!(
        "pool.tasks_executed",
        "count",
        "higher",
        Count,
        "job_s",
        RESILIENT
    ),
    layer!(
        "pool.worker_busy_s",
        "s",
        "lower",
        Count,
        "job_s",
        RESILIENT
    ),
    layer!("pool.busy_frac", "1", "higher", Count, "job_s", RESILIENT),
    // The control loop, per sample.
    layer!(
        "core.eval.evaluator_build_s",
        "s",
        "lower",
        SelfTime("core.eval.evaluator_build"),
        "job_s",
        RODD
    ),
    layer!(
        "core.headroom.calls",
        "count",
        "lower",
        Count,
        "job_s",
        RODD
    ),
    layer!(
        "core.headroom.self_s",
        "s",
        "lower",
        SelfTime("core.headroom"),
        "job_s",
        RODD
    ),
    layer!(
        "ctrl.daemon.self_s",
        "s",
        "lower",
        SelfTime("ctrl.daemon"),
        "job_s",
        RODD
    ),
    layer!("ctrl.samples_per_s", "1/s", "higher", Count, "job_s", RODD),
    layer!("ctrl.lag_p50_ms", "ms", "lower", Count, "job_s", RODD),
    layer!("ctrl.lag_p99_ms", "ms", "lower", Count, "job_s", RODD),
    // The control loop, per replan.
    layer!(
        "ctrl.guard.plan_s",
        "s",
        "lower",
        SelfTime("ctrl.guard.plan"),
        "job_s",
        RODD
    ),
    layer!(
        "ctrl.executor.apply_s",
        "s",
        "lower",
        SelfTime("ctrl.executor.apply"),
        "job_s",
        RODD
    ),
    layer!(
        "ctrl.executor.moves",
        "count",
        "lower",
        Count,
        "job_s",
        RODD
    ),
    layer!(
        "ctrl.replans_triggered",
        "count",
        "lower",
        Count,
        "job_s",
        RODD
    ),
    layer!(
        "ctrl.plans_committed",
        "count",
        "lower",
        Count,
        "job_s",
        RODD
    ),
    layer!("ctrl.headroom_after", "1", "higher", Count, "job_s", RODD),
    layer!("ctrl.commit_ratio", "1", "higher", Count, "job_s", RODD),
    layer!("ctrl.reaction_s", "s", "lower", Count, "job_s", RODD),
    // Telemetry ingest and replay.
    layer!(
        "ctrl.telemetry.ingest_s",
        "s",
        "lower",
        SelfTime("ctrl.telemetry.ingest"),
        "job_s",
        ONOFF
    ),
    layer!(
        "ctrl.ingest_fast_path_lines",
        "count",
        "higher",
        Count,
        "job_s",
        ONOFF
    ),
    layer!(
        "ctrl.ingest_fallback_lines",
        "count",
        "lower",
        Count,
        "job_s",
        ONOFF
    ),
    layer!(
        "sim.replay.scan_s",
        "s",
        "lower",
        SelfTime("sim.replay.scan"),
        "job_s",
        ONOFF
    ),
    layer!(
        "ctrl.replay_lines_per_s",
        "1/s",
        "higher",
        Count,
        "job_s",
        ONOFF
    ),
    // The simulator.
    layer!(
        "sim.engine.run_s",
        "s",
        "lower",
        SelfTime("sim.engine.run"),
        "job_s",
        ONOFF
    ),
    layer!(
        "sim.engine.tuples_processed",
        "count",
        "higher",
        Count,
        "job_s",
        ONOFF
    ),
    layer!(
        "sim.engine.tuples_shed",
        "count",
        "lower",
        Count,
        "job_s",
        ONOFF
    ),
    layer!(
        "sim.trace.emit_s",
        "s",
        "lower",
        SelfTime("sim.trace.emit"),
        "job_s",
        ONOFF
    ),
    layer!("sim.trace.records", "count", "lower", Count, "job_s", ONOFF),
    layer!("sim.trace.bytes", "bytes", "lower", Count, "job_s", ONOFF),
    layer!("sim.tuples_per_s", "1/s", "higher", Count, "job_s", ONOFF),
    // The trace itself.
    layer!("trace.coverage", "1", "higher", Coverage, "job_s", ALL),
    layer!("trace.overhead_frac", "1", "lower", Overhead, "job_s", ALL),
];

/// Unit of a metric of either kind.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Every per-layer value of one traced pass.
pub(crate) fn per_layer_values(
    trace: &Trace,
    coverage: f64,
    overhead: f64,
) -> BTreeMap<&'static str, f64> {
    let own = trace.self_seconds();
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.source {
                SelfTime(span) => own.get(span).copied().unwrap_or(0.0),
                Count => trace.counts().get(m.name).copied().unwrap_or(0.0),
                Coverage => coverage,
                Overhead => overhead,
            };
            (m.name, value)
        })
        .collect()
}
