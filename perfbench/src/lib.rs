//! The workspace benchmark: four workloads, each driven from outside
//! through the public functions of the `rod-*` crates.
//!
//! A run executes one workload. With tracing off it repeats the
//! workload's job while another round fits in the requested seconds,
//! times fresh set-ups before each job, scales each round's times to
//! the speed of a reference host (see `src/host.rs`), and reports
//! medians of the end-to-end metrics. With tracing on it makes one untraced pass
//! (set-up and one job) and one traced pass of the same work, and reports
//! the per-layer metrics of the traced pass. Every job checks its
//! outputs; a failed check aborts the run.

mod host;
pub mod metrics;
mod onoff;
mod plan;
mod resilient;
mod rodd;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::operator::OperatorKind;

/// Seconds of set-ups before each job of an untraced run, at least one
/// set-up; `setup_s` is the median of all of them.
pub(crate) const SETUP_SECONDS: f64 = 0.05;

/// Jobs an untraced run makes however long they take.
const MIN_JOBS: usize = 3;

/// What one job did and produced.
#[derive(Clone, Debug)]
pub(crate) struct JobOutput {
    /// The job's measured time in seconds.
    pub(crate) seconds: f64,
    /// The workload's plan-quality reading; must repeat bit for bit.
    pub(crate) quality: f64,
    /// Digest of every output that must repeat exactly for one seed.
    pub(crate) digest: u64,
    /// Operations attempted.
    pub(crate) attempted: u64,
    /// Operations that failed.
    pub(crate) failed: u64,
}

/// One workload of the benchmark.
pub(crate) trait Workload {
    /// The inputs a job runs on.
    type Setup;
    /// Generates the inputs from the seed; the same seed gives the same
    /// inputs, whose digest is returned alongside.
    fn setup(&self, seed: u64) -> Result<(Self::Setup, u64), String>;
    /// Runs the job once on the inputs and checks its outputs.
    fn job(&self, setup: &Self::Setup) -> Result<JobOutput, String>;
    /// Checks made once per run, after the jobs.
    fn check_once(&self, _setup: &Self::Setup, _first: &JobOutput) -> Result<(), String> {
        Ok(())
    }
}

/// The benchmark's workloads, by name.
pub const WORKLOADS: &[&str] = &[
    "plan_m50k_n1000",
    "resilient_d6_n16",
    "rodd_surge_m5k",
    "onoff_pipeline",
];

/// Input size of a run: the published sizes, or tiny ones for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small enough for a smoke test; same code and checks.
    Tiny,
}

/// The result of one run, ready to print.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Operations attempted across the run.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric name to value, in the units of [`metrics`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced pass's spans as JSONL (empty with tracing off).
    pub spans: String,
}

/// Runs the named workload.
pub fn run(
    workload: &str,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    match workload {
        "plan_m50k_n1000" => measure(&plan::Plan::new(scale), seed, seconds, traced),
        "resilient_d6_n16" => measure(&resilient::Resilient::new(scale), seed, seconds, traced),
        "rodd_surge_m5k" => measure(&rodd::Surge::new(scale), seed, seconds, traced),
        "onoff_pipeline" => measure(&onoff::Pipeline::new(scale), seed, seconds, traced),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn same_job(first: &JobOutput, other: &JobOutput) -> Result<(), String> {
    if first.digest != other.digest || first.quality.to_bits() != other.quality.to_bits() {
        return Err(format!(
            "outputs differ between two jobs on the same inputs \
             (digest {:016x} vs {:016x}, quality {} vs {})",
            first.digest, other.digest, first.quality, other.quality
        ));
    }
    Ok(())
}

fn measure<W: Workload>(w: &W, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    if traced {
        measure_traced(w, seed)
    } else {
        measure_untraced(w, seed, seconds)
    }
}

fn measure_untraced<W: Workload>(w: &W, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let reference = host::Reference::new();
    let mut before = reference.time();
    let start = Instant::now();
    let mut inputs: Option<(W::Setup, u64)> = None;
    let mut setup_times = Vec::new();
    let mut job_times = Vec::new();
    let mut rounds = Vec::new();
    let mut jobs: Vec<JobOutput> = Vec::new();
    loop {
        let round = Instant::now();
        // Set-ups are sampled before every job rather than all at once,
        // so that they see the same machine as the jobs do.
        let mut burst = Vec::new();
        while burst.is_empty() || round.elapsed().as_secs_f64() < SETUP_SECONDS {
            let t = Instant::now();
            let (setup, d) = w.setup(seed)?;
            burst.push(t.elapsed().as_secs_f64());
            match &inputs {
                None => inputs = Some((setup, d)),
                Some((_, digest)) if d != *digest => {
                    return Err(format!(
                        "set-up is not deterministic for seed {seed}: {digest:016x} vs {d:016x}"
                    ))
                }
                Some(_) => {}
            }
        }
        let (setup, _) = inputs.as_ref().expect("made by the first set-up");
        let job = w.job(setup)?;
        let after = reference.time();
        let host = (before + after) / 2.0;
        let scale = host::REFERENCE_S / host;
        before = after;
        eprintln!(
            "job {}: {:.6} s, reference {:.6} s, scaled {:.6} s",
            jobs.len() + 1,
            job.seconds,
            host,
            job.seconds * scale
        );
        setup_times.extend(burst.iter().map(|t| t * scale));
        job_times.push(job.seconds * scale);
        if let Some(first) = jobs.first() {
            same_job(first, &job)?;
        }
        jobs.push(job);
        rounds.push(round.elapsed().as_secs_f64());
        // Stop before a round that would end past the deadline.
        let typical = median(&mut rounds.clone());
        if jobs.len() >= MIN_JOBS && start.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
    }
    let (setup, _) = inputs.as_ref().expect("made by the first set-up");
    w.check_once(setup, &jobs[0])?;

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", median(&mut setup_times));
    metrics.insert("job_s", median(&mut job_times));
    Ok(RunResult {
        attempted: jobs.iter().map(|j| j.attempted).sum(),
        failed: jobs.iter().map(|j| j.failed).sum(),
        metrics,
        spans: String::new(),
    })
}

fn measure_traced<W: Workload>(w: &W, seed: u64) -> Result<RunResult, String> {
    // Untraced baseline of exactly the work the traced pass repeats.
    let t = Instant::now();
    let (setup, digest) = w.setup(seed)?;
    let untraced = w.job(&setup)?;
    let untraced_wall = t.elapsed().as_secs_f64();
    drop(setup);

    trace::start();
    let t = Instant::now();
    let pass = w.setup(seed).and_then(|(setup, d)| {
        if d != digest {
            return Err(format!("set-up is not deterministic for seed {seed}"));
        }
        let job = w.job(&setup)?;
        same_job(&untraced, &job)?;
        w.check_once(&setup, &job)?;
        Ok(job)
    });
    let traced_wall = t.elapsed().as_secs_f64();
    let tr = trace::finish();
    let job = pass?;

    // Repeats made only to split a call are not part of the pass.
    let wall = traced_wall - tr.attributed_seconds();
    let coverage = tr.covered_seconds() / wall;
    let metrics = metrics::per_layer_values(&tr, coverage, wall / untraced_wall - 1.0);
    Ok(RunResult {
        attempted: untraced.attempted + job.attempted,
        failed: untraced.failed + job.failed,
        metrics,
        spans: tr.to_jsonl(),
    })
}

/// SplitMix64: the benchmark's seeded generator.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Largest relative change the benchmark seed makes to an operator's cost.
pub(crate) const COST_JITTER: f64 = 0.02;

/// `graph` with every operator's per-tuple costs scaled by a seeded factor
/// in `1 ± COST_JITTER`; operators, ports and streams stay as they are.
pub(crate) fn jitter_costs(graph: &QueryGraph, seed: u64) -> Result<QueryGraph, String> {
    let mut rng = Rng::new(seed);
    let mut b = GraphBuilder::new();
    for _ in 0..graph.num_inputs() {
        b.add_input();
    }
    for op in graph.operators() {
        let factor = 1.0 + COST_JITTER * (2.0 * rng.unit() - 1.0);
        let kind = match &op.kind {
            OperatorKind::Linear {
                costs,
                selectivities,
            } => OperatorKind::Linear {
                costs: costs.iter().map(|c| c * factor).collect(),
                selectivities: selectivities.clone(),
            },
            other => other.clone(),
        };
        let (_, out) = b
            .add_operator(op.name.clone(), kind, &op.inputs)
            .map_err(|e| e.to_string())?;
        if out != op.output {
            return Err(format!(
                "rebuilding {} renumbered its output stream",
                op.name
            ));
        }
    }
    b.build().map_err(|e| e.to_string())
}

/// FNV-1a over a byte string; the digest behind every identity check.
pub(crate) fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Initial FNV-1a state.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a placement: each operator's node, in operator order.
pub(crate) fn allocation_digest(state: u64, alloc: &rod_core::allocation::Allocation) -> u64 {
    (0..alloc.num_operators()).fold(state, |h, j| {
        let node = alloc
            .node_of(rod_core::OperatorId(j))
            .map_or(u64::MAX, |n| n.index() as u64);
        fnv1a(h, &node.to_le_bytes())
    })
}

/// Fails when a placement leaves an operator unplaced.
pub(crate) fn check_complete(
    what: &str,
    alloc: &rod_core::allocation::Allocation,
) -> Result<(), String> {
    if alloc.is_complete() {
        Ok(())
    } else {
        Err(format!("{what}: the placement leaves operators unplaced"))
    }
}
