//! `onoff_pipeline`: `rodctl simulate --trace-out` followed by
//! `rodd --trace-in`, in memory.
//!
//! Two bursty ON/OFF streams feed two pipelines of six maps on three
//! nodes, placed by the Connected plan for the mean rates, which the
//! bursts overload. The simulation runs on the simulator's default
//! engine (the config sets no engine, so a change of default shows),
//! writes its JSONL trace with periodic `UtilSample` telemetry, and
//! `ControlLoop::replay_batched` replays those bytes. JSONL emission and
//! the ingest fallback for non-sample records carry the load; the
//! per-sample control work is small.

use std::time::Instant;

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::headroom::headroom;
use rod_core::load_model::LoadModel;
use rod_core::operator::OperatorKind;
use rod_core::PlanEvaluator;
use rod_ctrl::{
    ControlConfig, ControlLoop, Decision, SampleBatch, TelemetryConfig, TelemetryIngest,
};
use rod_sim::replay::scan::{probe_util_sample, LineScanner, UtilScratch};
use rod_sim::{JsonlSink, NullSink, SimReport, Simulation, SimulationConfig, SourceSpec};
use rod_traces::{OnOffAggregate, Trace};

use crate::plan::{derive, model_digest};
use crate::rodd::connected_plan;
use crate::trace::{self, attributed, attributed_id, count, set_count, span, span_id};
use crate::{allocation_digest, check_complete, fnv1a, JobOutput, Scale, Workload, FNV_OFFSET};

/// Maps per pipeline: light enough per operator that the Connected
/// planner stacks chain segments on one node.
const CHAIN_OPS: usize = 6;
/// Nodes of the cluster.
const NODES: usize = 3;
/// CPU seconds per tuple of every map, times the mean rate: the cluster
/// idles at 0.46 mean utilisation, and stream B's 2.4x burst overloads
/// the Connected node that carries most of its chain.
const COST_RATE_PRODUCT: f64 = 2.3e-7 * 5e5;
/// Generator seeds of the two ON/OFF rate shapes: stream A stays calm
/// (peak 1.4x its mean) while stream B bursts to 2.4x for a few seconds.
/// The shapes are fixed so that every benchmark seed meets the same
/// bursts; the benchmark seed drives the simulator's arrival process.
const SHAPE_SEEDS: [u64; 2] = [13, 21];
/// Lines per batch of the fast ingest path, as `rodd` uses by default.
const MAX_BATCH: usize = 256;

pub struct Pipeline {
    mean_rate: f64,
    horizon: f64,
    sample_interval: f64,
}

impl Pipeline {
    pub fn new(scale: Scale) -> Pipeline {
        match scale {
            Scale::Full => Pipeline {
                mean_rate: 1.0e4,
                horizon: 10.0,
                sample_interval: 0.02,
            },
            Scale::Tiny => Pipeline {
                mean_rate: 500.0,
                horizon: 10.0,
                sample_interval: 0.1,
            },
        }
    }
}

pub struct Inputs {
    graph: QueryGraph,
    model: LoadModel,
    cluster: Cluster,
    initial: Allocation,
    traces: Vec<Trace>,
    seed: u64,
}

fn pipelines(cost: f64) -> Result<QueryGraph, String> {
    let mut b = GraphBuilder::new();
    for input in 0..2 {
        let mut up = b.add_input();
        for j in 0..CHAIN_OPS {
            let kind = OperatorKind::map(cost);
            let (_, s) = b
                .add_operator(format!("p{input}m{j}"), kind, &[up])
                .map_err(|e| e.to_string())?;
            up = s;
        }
    }
    b.build().map_err(|e| e.to_string())
}

impl Pipeline {
    fn simulation<'a>(&self, s: &'a Inputs) -> Simulation<'a> {
        Simulation::new(
            &s.graph,
            &s.initial,
            &s.cluster,
            s.traces
                .iter()
                .map(|t| SourceSpec::TraceDriven(t.clone()))
                .collect(),
            SimulationConfig {
                horizon: self.horizon,
                warmup: self.horizon * 0.15,
                seed: s.seed,
                sample_interval: Some(self.sample_interval),
                max_queue: usize::MAX,
                ..SimulationConfig::default()
            },
        )
    }
}

/// One pass over the JSONL trace: arrival records, sample records, and a
/// digest of the bytes.
fn trace_summary(bytes: &[u8]) -> (u64, u64, u64) {
    let (mut arrivals, mut samples) = (0, 0);
    let mut digest = FNV_OFFSET;
    for line in bytes.split(|&b| b == b'\n') {
        arrivals += u64::from(line.starts_with(b"{\"SourceArrival\""));
        samples += u64::from(line.starts_with(b"{\"UtilSample\""));
        // Word-wise FNV: the trace runs to tens of megabytes.
        let mut words = line.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            digest = (digest ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
        digest = fnv1a(digest, words.remainder());
        digest = fnv1a(digest, b"\n");
    }
    (arrivals, samples, digest)
}

impl Workload for Pipeline {
    type Setup = Inputs;

    fn setup(&self, seed: u64) -> Result<(Inputs, u64), String> {
        let onoff = OnOffAggregate {
            sources: 3,
            alpha: 1.2,
            min_period: 4.0,
            on_rate: 1.0,
            bins: self.horizon.ceil() as usize + 1,
            dt: 1.0,
        };
        let traces: Vec<Trace> = span("traces.onoff.generate", || {
            SHAPE_SEEDS
                .iter()
                .map(|&shape| onoff.generate(shape).with_mean(self.mean_rate))
                .collect()
        });
        let graph = span("core.graph.build", || {
            pipelines(COST_RATE_PRODUCT / self.mean_rate)
        })?;
        let model = derive(&graph)?;
        let cluster = Cluster::homogeneous(NODES, 1.0);
        // Planned for the nominal rate, not the traces' measured means:
        // those carry rounding residue that flips the planner's ties.
        let initial = connected_plan(&model, &cluster, &[self.mean_rate; 2])?;
        let loads = span("core.eval.node_loads", || {
            PlanEvaluator::new(&model, &cluster).node_load_matrix(&initial)
        });
        let busiest = (0..traces[0].len())
            .map(|b| {
                let x = model.variable_point(&[traces[0].rates()[b], traces[1].rates()[b]]);
                loads
                    .matvec(&x)
                    .as_slice()
                    .iter()
                    .fold(0.0f64, |a, &u| a.max(u))
            })
            .fold(0.0f64, f64::max);
        if busiest <= 1.0 {
            return Err(format!(
                "the bursts do not overload the Connected plan (peak {busiest:.3})"
            ));
        }

        let mut digest = model_digest(&model);
        digest = allocation_digest(digest, &initial);
        for t in &traces {
            for r in t.rates() {
                digest = fnv1a(digest, &r.to_bits().to_le_bytes());
            }
        }
        Ok((
            Inputs {
                graph,
                model,
                cluster,
                initial,
                traces,
                seed,
            },
            digest,
        ))
    }

    fn job(&self, s: &Inputs) -> Result<JobOutput, String> {
        let sim = self.simulation(s);
        let t = Instant::now();
        let mut sink = JsonlSink::new(Vec::with_capacity(1 << 24));
        let (report, sim_id) = span_id("sim.trace.emit", || sim.run_with_sink(&mut sink));
        let records = sink.records_written();
        let bytes = sink.into_inner();
        let simulate_s = t.elapsed().as_secs_f64();
        if trace::enabled() {
            let plain: SimReport = attributed(sim_id, "sim.engine.run", || {
                sim.run_with_sink(&mut NullSink)
            });
            if plain.tuples_in != report.tuples_in || plain.tuples_shed != report.tuples_shed {
                return Err("the run without a trace sink diverged from the traced run".into());
            }
        }

        let mut lp = span("ctrl.daemon.new", || {
            ControlLoop::new(
                s.model.clone(),
                s.cluster.clone(),
                s.initial.clone(),
                ControlConfig::default(),
            )
        })?;
        let t = Instant::now();
        let (summary, replay_id) =
            span_id("ctrl.daemon", || lp.replay_batched(&bytes[..], MAX_BATCH));
        let replay_s = t.elapsed().as_secs_f64();
        let summary = summary.map_err(|e| format!("replay: {e}"))?;
        let seconds = simulate_s + replay_s;
        if trace::enabled() {
            repeat_ingest(replay_id, s, &bytes);
        }

        // Output checks.
        if report.saturated {
            return Err("the simulation saturated despite load shedding".into());
        }
        let (arrivals, samples, trace_digest) = trace_summary(&bytes);
        if report.tuples_in != arrivals {
            return Err(format!(
                "tuples_in {} differs from the {arrivals} arrivals in the trace",
                report.tuples_in
            ));
        }
        if summary.samples_accepted != samples {
            return Err(format!(
                "the loop accepted {} samples of the {samples} emitted",
                summary.samples_accepted
            ));
        }
        if summary.lines != records {
            return Err(format!(
                "the loop saw {} lines of the {records} records written",
                summary.lines
            ));
        }
        check_complete("the loop's final plan", lp.current())?;
        let quality = PlanEvaluator::new(&s.model, &s.cluster).min_plane_distance(lp.current());
        let planner_faults = lp
            .decisions()
            .iter()
            .filter(|d| matches!(d, Decision::ReplanAborted { reason, .. } if reason.starts_with("planner ")))
            .count() as u64;

        let m = lp.metrics();
        set_count(
            "ctrl.ingest_fast_path_lines",
            m.counter("ctrl.ingest_fast_path_lines") as f64,
        );
        set_count(
            "ctrl.ingest_fallback_lines",
            m.counter("ctrl.ingest_fallback_lines") as f64,
        );
        set_count("ctrl.replans_triggered", summary.replans_triggered as f64);
        set_count("ctrl.plans_committed", summary.plans_committed as f64);
        set_count(
            "ctrl.commit_ratio",
            summary.plans_committed as f64 / summary.replans_triggered.max(1) as f64,
        );
        set_count(
            "sim.engine.tuples_processed",
            report.tuples_processed as f64,
        );
        set_count("sim.engine.tuples_shed", report.tuples_shed as f64);
        set_count("sim.trace.records", records as f64);
        set_count("sim.trace.bytes", bytes.len() as f64);
        set_count("sim.tuples_per_s", report.tuples_in as f64 / simulate_s);
        set_count("ctrl.replay_lines_per_s", summary.lines as f64 / replay_s);

        let digest = fnv1a(trace_digest, lp.decision_log_jsonl().as_bytes());
        Ok(JobOutput {
            seconds,
            quality,
            digest,
            attempted: report.tuples_in + summary.lines + summary.replans_triggered,
            failed: report.tuples_shed + summary.samples_rejected + planner_faults,
        })
    }
}

/// Traced-pass repeats of the work `replay_batched` does inside: the
/// whole ingest path (scan, fast-path probe, batch and fallback ingest),
/// the line scan alone, and the headroom evaluation of each accepted
/// sample's estimate. Headroom is evaluated against the initial plan; its
/// cost depends on the plan's shape only, which every plan shares.
fn repeat_ingest(parent: Option<trace::SpanId>, s: &Inputs, bytes: &[u8]) {
    let cfg = ControlConfig::default();
    let mut ingest = TelemetryIngest::new(TelemetryConfig {
        num_inputs: s.model.num_inputs(),
        num_nodes: s.cluster.num_nodes(),
        window: cfg.telemetry_window,
        ewma_alpha: cfg.ewma_alpha,
    });
    let mut estimates: Vec<Vec<f64>> = Vec::new();
    let (_, ingest_id) = attributed_id(parent, "ctrl.telemetry.ingest", || {
        let mut scanner = LineScanner::new();
        let mut scratch = UtilScratch::default();
        let mut batch = SampleBatch::new();
        let flush =
            |ingest: &mut TelemetryIngest, batch: &mut SampleBatch, est: &mut Vec<Vec<f64>>| {
                ingest.ingest_batch(batch, |ing, _| est.extend(ing.estimate()));
                batch.clear();
            };
        let mut on_line = |line: &[u8]| -> Result<(), std::convert::Infallible> {
            if line.iter().all(|b| b.is_ascii_whitespace()) {
                return Ok(());
            }
            if probe_util_sample(line, &mut scratch) {
                batch.push(scratch.time, &scratch.utilisations, &scratch.rates);
                if batch.len() >= MAX_BATCH {
                    flush(&mut ingest, &mut batch, &mut estimates);
                }
                return Ok(());
            }
            flush(&mut ingest, &mut batch, &mut estimates);
            if let Ok(text) = std::str::from_utf8(line) {
                ingest.ingest_line(text);
            }
            Ok(())
        };
        let _ = scanner.feed(bytes, &mut on_line);
        let _ = scanner.finish(&mut on_line);
        flush(&mut ingest, &mut batch, &mut estimates);
    });
    attributed(ingest_id, "sim.replay.scan", || {
        let mut lines = 0u64;
        let mut scanner = LineScanner::new();
        let _ = scanner.feed(bytes, |_| -> Result<(), std::convert::Infallible> {
            lines += 1;
            Ok(())
        });
        std::hint::black_box(lines)
    });
    for estimate in estimates.iter().filter(|e| e.iter().any(|&r| r > 0.0)) {
        let ev = attributed(parent, "core.eval.evaluator_build", || {
            PlanEvaluator::new(&s.model, &s.cluster)
        });
        attributed(parent, "core.headroom", || {
            let u = ev.utilisations_at(&s.initial, estimate);
            if u.as_slice().iter().all(|&x| x <= 1.0) {
                std::hint::black_box(headroom(&ev, &s.initial, estimate));
            }
        });
        count("core.headroom.calls", 1.0);
    }
}
