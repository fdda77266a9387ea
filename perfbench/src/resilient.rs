//! `resilient_d6_n16`: failure-resilient placement of the paper's §7.1
//! random trees.
//!
//! Six input trees of five operators on 16 nodes, placed by
//! ResilientRod on `nproc` pool threads and scored by QMC volume
//! estimation on a point set built at set-up. The only workload where
//! the feasibility kernel, the pool and the sampled-feasibility scorer
//! carry the load; the ROD seed plan takes microseconds here.

use std::time::Instant;

use rod_core::cluster::Cluster;
use rod_core::load_model::LoadModel;
use rod_core::resilience::{ResilientPlan, ResilientRodOptions, ResilientRodPlanner};
use rod_core::PlanEvaluator;
use rod_geom::VolumeEstimator;
use rod_workloads::random_graphs::RandomTreeGenerator;

use crate::plan::{derive, model_digest};
use crate::trace::{attributed, set_count, span};
use crate::{
    allocation_digest, check_complete, fnv1a, jitter_costs, JobOutput, Scale, Workload, FNV_OFFSET,
};

/// Generator seed of the trees' structure. As in `plan_m50k_n1000`, the
/// benchmark seed only jitters operator costs: the climb's work varies
/// by a fifth between generated instances.
const TREE_SEED: u64 = 1;
/// QMC points the planner scores survivor volumes on.
const PLANNER_SAMPLES: usize = 2_000;
/// Hill-climb moves: every seed's climb finds at least this many
/// improving moves, so each job does the same number of neighborhood
/// scans whatever the instance.
const MAX_MOVES: usize = 2;
/// QMC points of the scoring estimate.
const SCORE_SAMPLES: usize = 100_000;
/// Seed of the scoring point set.
const SCORE_SEED: u64 = 7;

pub struct Resilient {
    inputs: usize,
    ops_per_tree: usize,
    nodes: usize,
    planner_samples: usize,
}

impl Resilient {
    pub fn new(scale: Scale) -> Resilient {
        match scale {
            Scale::Full => Resilient {
                inputs: 6,
                ops_per_tree: 5,
                nodes: 16,
                planner_samples: PLANNER_SAMPLES,
            },
            Scale::Tiny => Resilient {
                inputs: 3,
                ops_per_tree: 3,
                nodes: 4,
                planner_samples: 500,
            },
        }
    }

    fn place(&self, s: &Inputs, threads: usize) -> Result<ResilientPlan, String> {
        ResilientRodPlanner::with_options(ResilientRodOptions {
            samples: self.planner_samples,
            max_moves: MAX_MOVES,
            threads,
            ..ResilientRodOptions::default()
        })
        .place(&s.model, &s.cluster)
        .map_err(|e| format!("ResilientRod on {threads} threads: {e}"))
    }
}

pub struct Inputs {
    model: LoadModel,
    cluster: Cluster,
    /// The scoring point set, built once per instance.
    scorer: VolumeEstimator,
}

/// Threads the benchmark may use: the machine's hardware parallelism.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload for Resilient {
    type Setup = Inputs;

    fn setup(&self, seed: u64) -> Result<(Inputs, u64), String> {
        let graph = span("workloads.generate", || {
            let fixed = RandomTreeGenerator::paper_default(self.inputs, self.ops_per_tree)
                .generate(TREE_SEED);
            jitter_costs(&fixed, seed)
        })?;
        let model = derive(&graph)?;
        let digest = model_digest(&model);
        let cluster = Cluster::homogeneous(self.nodes, 1.0);
        let scorer = span("geom.volume.points", || {
            VolumeEstimator::new(
                model.total_coeffs().as_slice(),
                cluster.total_capacity(),
                SCORE_SAMPLES,
                SCORE_SEED,
            )
        });
        Ok((
            Inputs {
                model,
                cluster,
                scorer,
            },
            digest,
        ))
    }

    fn job(&self, s: &Inputs) -> Result<JobOutput, String> {
        let pool = rod_pool::global();
        let pool_before = pool.stats();
        let kernel_before = rod_geom::simd::path_counts();
        let t = Instant::now();
        let plan = span("core.resilience.place", || self.place(s, nproc()));
        let place_wall = t.elapsed().as_secs_f64();
        let plan = plan?;
        let pool_after = pool.stats();
        let region = span("core.eval.feasible_region", || {
            PlanEvaluator::new(&s.model, &s.cluster).feasible_region(&plan.allocation)
        });
        let volume = span("geom.volume.estimate", || s.scorer.estimate(&region));
        let seconds = t.elapsed().as_secs_f64();
        let kernel_after = rod_geom::simd::path_counts();

        check_complete("ResilientRod", &plan.allocation)?;
        let ratio = volume.ratio_to_ideal;
        if !(ratio > 0.0 && ratio <= 1.0) {
            return Err(format!("feasible-set ratio {ratio} is outside (0, 1]"));
        }
        let survivors = plan.worst_survivor_ratio();
        if !(survivors > 0.0 && survivors <= 1.0) {
            return Err(format!(
                "worst survivor ratio {survivors} is outside (0, 1]"
            ));
        }
        set_count(
            "geom.kernel.simd_blocks",
            (kernel_after.simd_blocks - kernel_before.simd_blocks) as f64,
        );
        set_count(
            "geom.kernel.scalar_blocks",
            (kernel_after.scalar_blocks - kernel_before.scalar_blocks) as f64,
        );
        let busy = pool_after.busy_seconds - pool_before.busy_seconds;
        set_count(
            "pool.tasks_executed",
            (pool_after.tasks_executed - pool_before.tasks_executed) as f64,
        );
        set_count("pool.worker_busy_s", busy);
        set_count("core.resilience.survivor_ratio", survivors);
        set_count("core.resilience.moves", plan.moves as f64);
        set_count("pool.busy_frac", busy / (pool.size() as f64 * place_wall));

        let mut digest = allocation_digest(FNV_OFFSET, &plan.allocation);
        digest = fnv1a(digest, &ratio.to_bits().to_le_bytes());
        Ok(JobOutput {
            seconds,
            quality: survivors,
            digest,
            attempted: 1,
            failed: 0,
        })
    }

    /// The pooled scan must choose exactly what the serial scan chooses.
    fn check_once(&self, s: &Inputs, first: &JobOutput) -> Result<(), String> {
        let serial = attributed(None, "core.resilience.serial_place", || self.place(s, 1))?;
        let ratio = serial.worst_survivor_ratio();
        if ratio.to_bits() != first.quality.to_bits() {
            return Err(format!(
                "worst survivor ratio differs between 1 and {} threads: {ratio} vs {}",
                nproc(),
                first.quality
            ));
        }
        Ok(())
    }
}
