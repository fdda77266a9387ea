//! `plan_m50k_n1000`: the planners at the scale they claim.
//!
//! A sparse 200-input, 50 000-operator graph on 1 000 unit nodes, placed
//! by flat ROD and by two-level hierarchical ROD, each plan then scored
//! by its MMPD (minimum plane distance). The Phase-2 candidate scan
//! dominates; geometry, simulator and control loop do no work.
//!
//! The graph's structure is fixed (generator seed [`GRAPH_SEED`]): the
//! pruned scan's work differs by a quarter between generated instances,
//! which would drown any change in the planner. The benchmark seed
//! jitters every operator's cost ([`jitter_costs`]), so each seed is a
//! different input of the same shape.

use std::time::Instant;

use rod_core::cluster::Cluster;
use rod_core::hierarchical::HierarchicalRod;
use rod_core::load_model::LoadModel;
use rod_core::rod::RodPlanner;
use rod_core::PlanEvaluator;
use rod_workloads::sparse_graphs::SparseGraphGenerator;

use crate::trace::{count, set_count, span};
use crate::{
    allocation_digest, check_complete, fnv1a, jitter_costs, JobOutput, Scale, Workload, FNV_OFFSET,
};

/// Generator seed of the graph's structure: the seed of the legacy
/// `sparse_d200_m50k_n1000` planner cell.
const GRAPH_SEED: u64 = 42;
pub struct Plan {
    inputs: usize,
    operators: usize,
    nodes: usize,
}

impl Plan {
    pub fn new(scale: Scale) -> Plan {
        match scale {
            Scale::Full => Plan {
                inputs: 200,
                operators: 50_000,
                nodes: 1_000,
            },
            Scale::Tiny => Plan {
                inputs: 8,
                operators: 200,
                nodes: 16,
            },
        }
    }
}

pub struct Inputs {
    model: LoadModel,
    cluster: Cluster,
}

/// Digest of a derived load model: shape, nonzeros and total loads.
pub fn model_digest(model: &LoadModel) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(model.num_operators() as u64).to_le_bytes());
    h = fnv1a(h, &(model.num_inputs() as u64).to_le_bytes());
    h = fnv1a(h, &(model.nnz() as u64).to_le_bytes());
    for &c in model.total_coeffs().as_slice() {
        h = fnv1a(h, &c.to_bits().to_le_bytes());
    }
    h
}

/// Derives the load model under its span and records its size.
pub fn derive(graph: &rod_core::QueryGraph) -> Result<LoadModel, String> {
    let model = span("core.load_model.derive", || LoadModel::derive(graph))
        .map_err(|e| format!("load model: {e}"))?;
    set_count("core.load_model.nnz", model.nnz() as f64);
    Ok(model)
}

impl Workload for Plan {
    type Setup = Inputs;

    fn setup(&self, seed: u64) -> Result<(Inputs, u64), String> {
        let graph = span("workloads.generate", || {
            let fixed =
                SparseGraphGenerator::sized(self.inputs, self.operators).generate(GRAPH_SEED);
            jitter_costs(&fixed, seed)
        })?;
        let model = derive(&graph)?;
        let digest = model_digest(&model);
        let cluster = Cluster::homogeneous(self.nodes, 1.0);
        Ok((Inputs { model, cluster }, digest))
    }

    fn job(&self, s: &Inputs) -> Result<JobOutput, String> {
        let t = Instant::now();
        let flat = span("core.rod.place", || {
            RodPlanner::new().place(&s.model, &s.cluster)
        });
        let flat = flat.map_err(|e| format!("flat ROD: {e}"))?;
        let flat_mmpd = span("core.eval.plane_distance", || {
            PlanEvaluator::new(&s.model, &s.cluster).min_plane_distance(&flat.allocation)
        });
        let hier = span("core.hierarchical.place", || {
            HierarchicalRod::new().place(&s.model, &s.cluster)
        });
        let hier = hier.map_err(|e| format!("hierarchical ROD: {e}"))?;
        let hier_mmpd = span("core.eval.plane_distance", || {
            PlanEvaluator::new(&s.model, &s.cluster).min_plane_distance(&hier.allocation)
        });
        let seconds = t.elapsed().as_secs_f64();

        check_complete("flat ROD", &flat.allocation)?;
        check_complete("hierarchical ROD", &hier.allocation)?;
        for (what, d) in [("flat", flat_mmpd), ("hierarchical", hier_mmpd)] {
            if !(d.is_finite() && d > 0.0) {
                return Err(format!("{what} plan has plane distance {d}"));
            }
        }
        count("core.rod.candidates_scored", flat.candidates_scored as f64);
        set_count("core.rod.plane_distance", flat_mmpd);
        set_count("core.hierarchical.plane_distance", hier_mmpd);

        let mut digest = allocation_digest(FNV_OFFSET, &flat.allocation);
        digest = allocation_digest(digest, &hier.allocation);
        digest = fnv1a(digest, &hier_mmpd.to_bits().to_le_bytes());
        Ok(JobOutput {
            seconds,
            quality: flat_mmpd,
            digest,
            attempted: 2,
            failed: 0,
        })
    }
}
