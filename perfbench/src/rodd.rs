//! `rodd_surge_m5k`: the control loop riding out a load surge.
//!
//! A sparse 64-input, 5 000-operator graph on 64 nodes starts on the
//! Connected plan tuned to the calm rates. A generated JSONL telemetry
//! stream — calm, then a quarter of the streams surging, then recovery,
//! with a few malformed lines — goes line by line through
//! `ControlLoop::observe_line`. The surge overloads the Connected plan,
//! so the loop must detect drift, replan and commit a rescue plan.
//!
//! Samples fall due on a fixed cadence (open loop). The loop is single
//! threaded, so each sample's lag comes from its measured service time
//! on a virtual clock: it starts at `max(due, previous finish)`. The
//! generator therefore never sleeps and is never late.

use std::time::Instant;

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::headroom::headroom;
use rod_core::load_model::LoadModel;
use rod_core::rod::RodPlanner;
use rod_core::{build_planner, PlanEvaluator, PlannerSpec};
use rod_ctrl::{
    apply_plan, ControlConfig, ControlLoop, Decision, GuardedPlanner, Ingested, PlanMode,
    PlanRequest, ReliableExecutor, RetryPolicy, RodStrategy, TelemetryConfig, TelemetryIngest,
};
use rod_sim::TraceRecord;
use rod_workloads::sparse_graphs::SparseGraphGenerator;

use crate::plan::{derive, model_digest};
use crate::trace::{self, attributed, attributed_id, count, set_count, span, span_id};
use crate::{
    allocation_digest, check_complete, fnv1a, JobOutput, Rng, Scale, Workload, FNV_OFFSET,
};

/// Peak utilisation of the Connected plan at the calm rates. With
/// SURGE_PEAK, the smoothed estimate crosses the Connected plan's
/// capacity on the fifth surge sample, and drift (headroom below 1.25)
/// fires on the third.
const CALM_PEAK: f64 = 0.4;
/// Peak utilisation of the Connected plan at the full surge.
const SURGE_PEAK: f64 = 1.15;
/// Highest peak utilisation the ROD plan may reach at the full surge:
/// the margin that keeps a rescue plan feasible at every estimate.
const ROD_SURGE_LIMIT: f64 = 0.9;
/// Relative per-sample rate jitter.
const JITTER: f64 = 0.02;
/// Seconds between due times of consecutive telemetry lines.
const CADENCE_S: f64 = 0.02;
/// Malformed lines in the stream: expected rejections, not failures.
const MALFORMED: [&str; 3] = [
    "{\"UtilSample\":{\"time\":",
    "not telemetry at all",
    "{\"UtilSample\":{\"time\":1e999}}",
];

/// Per-node utilisations of `alloc` at `rates`, from a node-load matrix
/// built once per plan.
fn utilisations(model: &LoadModel, loads: &rod_geom::Matrix, rates: &[f64]) -> Vec<f64> {
    loads
        .matvec(&model.variable_point(rates))
        .as_slice()
        .to_vec()
}

fn peak(values: &[f64]) -> f64 {
    values.iter().fold(0.0f64, |a, &b| a.max(b))
}

/// The Connected baseline planned at `rates`, under its span.
pub fn connected_plan(
    model: &LoadModel,
    cluster: &Cluster,
    rates: &[f64],
) -> Result<Allocation, String> {
    span("core.baselines.connected", || {
        build_planner(&PlannerSpec::Connected {
            rates: rates.to_vec(),
        })
        .plan(model, cluster)
    })
    .map_err(|e| format!("Connected plan: {e}"))
}

/// Chooses which quarter of the streams surges, and by how much.
///
/// Each Connected node is loaded by a few streams; surging the quarter
/// that loads one node most, by the factor that takes that node to
/// SURGE_PEAK, overloads the Connected plan. Of those candidate surges
/// the one the rate-independent ROD plan absorbs best is chosen, so the
/// loop's full replan can rescue it; the design fails when even that
/// surge takes the ROD plan past ROD_SURGE_LIMIT.
fn design_surge(
    model: &LoadModel,
    cluster: &Cluster,
    ev: &PlanEvaluator,
    loads: &rod_geom::Matrix,
    calm: &[f64],
) -> Result<(Vec<usize>, f64), String> {
    let d = calm.len();
    let base = utilisations(model, loads, calm);
    // Utilisation each stream adds to each node at the calm point.
    let contrib: Vec<Vec<f64>> = (0..d)
        .map(|k| {
            let mut without = calm.to_vec();
            without[k] = 0.0;
            let rest = utilisations(model, loads, &without);
            base.iter().zip(rest).map(|(b, r)| b - r).collect()
        })
        .collect();
    let rod = RodPlanner::new()
        .place(model, cluster)
        .map_err(|e| format!("ROD plan for the surge design: {e}"))?;
    let rod_loads = ev.node_load_matrix(&rod.allocation);
    let mut best: Option<(f64, Vec<usize>, f64)> = None;
    for node in 0..cluster.num_nodes() {
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by(|&a, &b| {
            contrib[b][node]
                .total_cmp(&contrib[a][node])
                .then(a.cmp(&b))
        });
        let quarter = order[..d / 4].to_vec();
        let share: f64 = quarter.iter().map(|&k| contrib[k][node]).sum();
        if share <= 0.0 {
            continue;
        }
        let factor = 1.0 + (SURGE_PEAK - base[node]) / share;
        let surged: Vec<f64> = (0..d)
            .map(|k| {
                if quarter.contains(&k) {
                    calm[k] * factor
                } else {
                    calm[k]
                }
            })
            .collect();
        let rod_peak = peak(&utilisations(model, &rod_loads, &surged)) * (1.0 + JITTER);
        if best.as_ref().is_none_or(|b| rod_peak < b.0) {
            best = Some((rod_peak, quarter, factor));
        }
    }
    let (rod_peak, quarter, factor) = best.ok_or("no stream loads any Connected node")?;
    if rod_peak > ROD_SURGE_LIMIT {
        return Err(format!(
            "every surge that overloads the Connected plan takes the ROD plan to {rod_peak:.3}"
        ));
    }
    Ok((quarter, factor))
}

pub struct Surge {
    inputs: usize,
    operators: usize,
    nodes: usize,
    calm: usize,
    surge: usize,
    recovery: usize,
}

impl Surge {
    pub fn new(scale: Scale) -> Surge {
        match scale {
            Scale::Full => Surge {
                inputs: 64,
                operators: 5_000,
                nodes: 64,
                calm: 30,
                surge: 40,
                recovery: 30,
            },
            Scale::Tiny => Surge {
                inputs: 16,
                operators: 1_000,
                nodes: 16,
                calm: 20,
                surge: 20,
                recovery: 20,
            },
        }
    }
}

impl Surge {
    /// The telemetry lines of one job, and the index of the first surge
    /// sample among them.
    fn stream(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        ev: &PlanEvaluator,
        loads: &rod_geom::Matrix,
        calm: &[f64],
        rng: &mut Rng,
    ) -> Result<(Vec<String>, usize), String> {
        let (surging, factor) = design_surge(model, cluster, ev, loads, calm)?;
        let total = self.calm + self.surge + self.recovery;
        // Malformed lines sit in the calm phase, mid-surge and in the
        // recovery.
        let slots = [
            self.calm / 2,
            self.calm + self.surge / 2,
            total - self.recovery / 2,
        ];
        let mut lines = Vec::with_capacity(total + MALFORMED.len());
        let mut surge_line = 0;
        for i in 0..total {
            let in_surge = (self.calm..self.calm + self.surge).contains(&i);
            if i == self.calm {
                surge_line = lines.len();
            }
            let rates: Vec<f64> = (0..self.inputs)
                .map(|k| {
                    let f = if in_surge && surging.contains(&k) {
                        factor
                    } else {
                        1.0
                    };
                    calm[k] * f * (1.0 + JITTER * (2.0 * rng.unit() - 1.0))
                })
                .collect();
            let record = TraceRecord::UtilSample {
                time: (i + 1) as f64,
                utilisations: utilisations(model, loads, &rates),
                queue_depths: vec![0; self.nodes],
                queued: 0,
                rates,
            };
            lines.push(serde_json::to_string(&record).map_err(|e| e.to_string())?);
            if let Some(m) = slots.iter().position(|&s| s == i) {
                lines.push(MALFORMED[m].to_string());
            }
        }
        Ok((lines, surge_line))
    }
}

pub struct Inputs {
    model: LoadModel,
    cluster: Cluster,
    initial: Allocation,
    lines: Vec<String>,
    /// Index into `lines` of the first surge sample.
    surge_line: usize,
}

impl Workload for Surge {
    type Setup = Inputs;

    fn setup(&self, seed: u64) -> Result<(Inputs, u64), String> {
        let graph = span("workloads.generate", || {
            SparseGraphGenerator::sized(self.inputs, self.operators).generate(seed)
        });
        let model = derive(&graph)?;
        let cluster = Cluster::homogeneous(self.nodes, 1.0);
        let mut rng = Rng::new(seed);
        let shape: Vec<f64> = (0..self.inputs).map(|_| 0.5 + rng.unit()).collect();
        // Scale the rate shape so that the Connected plan peaks at
        // CALM_PEAK, then plan at that calm point itself.
        let probe = connected_plan(&model, &cluster, &shape)?;
        let ev = PlanEvaluator::new(&model, &cluster);
        let probe_loads = span("core.eval.node_loads", || ev.node_load_matrix(&probe));
        let scale = CALM_PEAK / peak(&utilisations(&model, &probe_loads, &shape));
        let calm: Vec<f64> = shape.iter().map(|r| r * scale).collect();
        let initial = connected_plan(&model, &cluster, &calm)?;
        let loads = span("core.eval.node_loads", || ev.node_load_matrix(&initial));
        let (lines, surge_line) = span("bench.stream.generate", || {
            self.stream(&model, &cluster, &ev, &loads, &calm, &mut rng)
        })?;

        let mut digest = model_digest(&model);
        digest = allocation_digest(digest, &initial);
        for line in &lines {
            digest = fnv1a(digest, line.as_bytes());
        }
        Ok((
            Inputs {
                model,
                cluster,
                initial,
                lines,
                surge_line,
            },
            digest,
        ))
    }

    fn job(&self, s: &Inputs) -> Result<JobOutput, String> {
        let mut lp = span("ctrl.daemon.new", || {
            ControlLoop::new(
                s.model.clone(),
                s.cluster.clone(),
                s.initial.clone(),
                ControlConfig::default(),
            )
        })?;
        let mut shadow = Shadow::new(s);

        let mut service = 0.0;
        let mut finish = 0.0f64;
        let mut lags = Vec::with_capacity(s.lines.len());
        // Line, headroom after, and seconds since the surge's first due time.
        let mut rescue: Option<(usize, f64, f64)> = None;
        for (i, line) in s.lines.iter().enumerate() {
            let due = i as f64 * CADENCE_S;
            let seen = lp.decisions().len();
            let pre = shadow.as_ref().map(|_| lp.current().clone());
            let t = Instant::now();
            let (_, id) = span_id("ctrl.daemon", || lp.observe_line(line));
            let took = t.elapsed().as_secs_f64();
            service += took;
            finish = finish.max(due) + took;
            lags.push(finish - due);
            if let (Some(sh), Some(pre)) = (shadow.as_mut(), pre) {
                sh.repeat(id, line, &pre, &lp.decisions()[seen..]);
            }
            if rescue.is_none() {
                rescue = lp.decisions()[seen..].iter().find_map(|d| match d {
                    Decision::PlanCommitted {
                        headroom_before,
                        headroom_after,
                        ..
                    } if *headroom_before < 1.0 => {
                        Some((i, *headroom_after, finish - s.surge_line as f64 * CADENCE_S))
                    }
                    _ => None,
                });
            }
        }

        let Some((rescue_line, headroom_after, reaction)) = rescue else {
            return Err("the surge produced no rescue PlanCommitted".into());
        };
        if rescue_line < s.surge_line {
            return Err("a rescue was committed before the surge began".into());
        }
        check_complete("the loop's final plan", lp.current())?;
        let summary = lp.summary();
        let malformed = lp.metrics().counter("ctrl.samples_rejected.malformed_line");
        if malformed != MALFORMED.len() as u64 {
            return Err(format!(
                "{malformed} malformed-line rejections, expected {}",
                MALFORMED.len()
            ));
        }
        let planner_faults = lp
            .decisions()
            .iter()
            .filter(|d| matches!(d, Decision::ReplanAborted { reason, .. } if reason.starts_with("planner ")))
            .count() as u64;
        let log = lp.decision_log_jsonl();

        lags.sort_by(f64::total_cmp);
        set_count("ctrl.lag_p50_ms", quantile(&lags, 0.5) * 1e3);
        set_count("ctrl.lag_p99_ms", tail_quantile(&lags) * 1e3);
        set_count("ctrl.reaction_s", reaction);
        set_count(
            "ctrl.samples_per_s",
            summary.samples_accepted as f64 / service,
        );
        set_count("ctrl.replans_triggered", summary.replans_triggered as f64);
        set_count("ctrl.plans_committed", summary.plans_committed as f64);
        set_count("ctrl.headroom_after", headroom_after);
        set_count(
            "ctrl.commit_ratio",
            summary.plans_committed as f64 / summary.replans_triggered.max(1) as f64,
        );

        let mut digest = fnv1a(FNV_OFFSET, log.as_bytes());
        digest = allocation_digest(digest, lp.current());
        Ok(JobOutput {
            seconds: service,
            quality: headroom_after,
            digest,
            attempted: summary.lines + summary.replans_triggered,
            failed: summary.samples_rejected - malformed + planner_faults,
        })
    }
}

/// The value below which a share `q` of the sorted values lies.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let i = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[i - 1]
}

/// p99, or the highest percentile that leaves at least ten samples
/// beyond it when there are too few for p99.
fn tail_quantile(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n <= 10 {
        return sorted[n - 1];
    }
    let q = 0.99f64.min((n - 10) as f64 / n as f64);
    quantile(sorted, q)
}

/// Traced-pass repeats of the work `observe_line` does inside, so that
/// each layer's share of a call is measured where it happens.
struct Shadow<'a> {
    s: &'a Inputs,
    ingest: TelemetryIngest,
    candidate: Option<Allocation>,
}

impl<'a> Shadow<'a> {
    fn new(s: &'a Inputs) -> Option<Shadow<'a>> {
        let cfg = ControlConfig::default();
        trace::enabled().then(|| Shadow {
            s,
            ingest: TelemetryIngest::new(TelemetryConfig {
                num_inputs: s.model.num_inputs(),
                num_nodes: s.cluster.num_nodes(),
                window: cfg.telemetry_window,
                ewma_alpha: cfg.ewma_alpha,
            }),
            candidate: None,
        })
    }

    fn repeat(
        &mut self,
        parent: Option<trace::SpanId>,
        line: &str,
        pre: &Allocation,
        decisions: &[Decision],
    ) {
        let s = self.s;
        let outcome = attributed(parent, "ctrl.telemetry.ingest", || {
            self.ingest.ingest_line(line)
        });
        if let (Ingested::Sample { .. }, Some(estimate)) = (outcome, self.ingest.estimate()) {
            if estimate.iter().any(|&r| r > 0.0) {
                let ev = attributed(parent, "core.eval.evaluator_build", || {
                    PlanEvaluator::new(&s.model, &s.cluster)
                });
                // As the loop does: the ray cast runs only while the
                // plan is feasible at the estimate.
                attributed(parent, "core.headroom", || {
                    let u = ev.utilisations_at(pre, &estimate);
                    if peak(u.as_slice()) <= 1.0 {
                        std::hint::black_box(headroom(&ev, pre, &estimate));
                    }
                });
                count("core.headroom.calls", 1.0);
            }
        }
        for d in decisions {
            match d {
                Decision::ReplanTriggered {
                    time,
                    estimate,
                    mode,
                    ..
                } => {
                    let guard = GuardedPlanner::inline(Box::new(RodStrategy::new(
                        s.model.clone(),
                        s.cluster.clone(),
                    )));
                    let req = PlanRequest {
                        rates: estimate.clone(),
                        current: pre.clone(),
                        mode: *mode,
                        now: *time,
                    };
                    let (candidate, gid) =
                        attributed_id(parent, "ctrl.guard.plan", || guard.plan(req));
                    if *mode == PlanMode::Full {
                        attributed(gid, "core.rod.place", || {
                            RodPlanner::new().place(&s.model, &s.cluster)
                        })
                        .map(|p| count("core.rod.candidates_scored", p.candidates_scored as f64))
                        .ok();
                    }
                    self.candidate = candidate.ok();
                    if let Some(c) = &self.candidate {
                        // The commit gate's feasibility and headroom check.
                        let ev = attributed(parent, "core.eval.evaluator_build", || {
                            PlanEvaluator::new(&s.model, &s.cluster)
                        });
                        attributed(parent, "core.headroom", || {
                            if ev.is_feasible_at(c, estimate) {
                                std::hint::black_box(headroom(&ev, c, estimate));
                            }
                        });
                        count("core.headroom.calls", 1.0);
                    }
                }
                Decision::PlanCommitted { moves, .. } => {
                    if let Some(target) = self.candidate.take() {
                        let mut current = pre.clone();
                        attributed(parent, "ctrl.executor.apply", || {
                            apply_plan(
                                &mut current,
                                &target,
                                &mut ReliableExecutor,
                                &RetryPolicy::default(),
                            )
                        });
                        count("ctrl.executor.moves", *moves as f64);
                    }
                }
                _ => {}
            }
        }
    }
}
