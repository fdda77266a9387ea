//! Burst-headroom analysis.
//!
//! The feasible-set volume is the paper's *global* resilience metric; an
//! operator of a running system asks the *local* question: "we are at
//! rate point `R` right now — how big a burst can this placement absorb
//! before some node saturates?" Exact answers fall out of the hyperplane
//! geometry by ray casting (no sampling):
//!
//! * **per-stream headroom** — the largest multiplier `m_k` such that
//!   scaling stream `k` alone to `m_k·r_k` stays feasible;
//! * **uniform headroom** — the largest `m` such that `m·R` stays
//!   feasible (the distance to the boundary along the current mix);
//! * the **binding node** for each direction — which machine saturates
//!   first, i.e. where capacity should be added.
//!
//! A plan's feasible set `F(A) = {x ≥ 0 : L^n x ≤ C}` is a fixed polytope,
//! so [`PlanLoadRows`] builds its node-load rows once and answers every
//! later rate point from one sparse row product — O(n·d) per point,
//! independent of the operator count. `rodd` holds the rows of its
//! running plan and reads peak utilisation, feasibility and uniform
//! headroom from them on every sample; [`headroom`] (used by `rodctl
//! explain`, the `burst_resilience` example, and the plan-comparison
//! tests) computes its uniform answer through the same rows.

use serde::{Deserialize, Serialize};

use crate::allocation::{Allocation, PlanEvaluator};
use crate::ids::NodeId;
use crate::load_model::LoadModel;

/// Exact headroom of one plan at one operating point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HeadroomReport {
    /// The operating point analysed (system-input rates).
    pub base_rates: Vec<f64>,
    /// Largest feasible multiplier of each input stream alone
    /// (∞ when the stream loads nothing).
    pub per_stream: Vec<f64>,
    /// Largest feasible multiplier of the whole rate vector.
    pub uniform: f64,
    /// The node that saturates first under uniform scaling.
    pub binding_node: NodeId,
}

impl HeadroomReport {
    /// The most fragile stream: the one with the smallest solo-burst
    /// multiplier. `None` for a zero-dimensional report.
    pub fn tightest_stream(&self) -> Option<(usize, f64)> {
        self.per_stream
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Rows per block of [`PlanLoadRows`]: each block's loads accumulate in
/// this many independent lanes.
const LANES: usize = 8;

/// The node-load rows `L^n` of one plan, with its cluster's capacities:
/// the plan's feasible set, built once and queried per rate point.
///
/// Building costs what [`PlanEvaluator::node_load_matrix`] costs
/// (O(m·nnz)); every query after that is one product of the rows with a
/// variable point, O(n·d) at most. Rows are stored in blocks of `LANES`,
/// column by column, so one pass over a block's columns advances the
/// `LANES` row sums side by side (independent chains the compiler
/// vectorises) while each row still sums its terms in ascending column
/// order, exactly as the dense `Matrix::matvec` row product does. A
/// block skips the columns that are zero in all its rows: a skipped term
/// would only have added `+0.0`, which leaves a nonzero sum unchanged, so
/// every load is bit-identical to the dense product (up to the sign of an
/// all-zero load, which none of the answers reads).
#[derive(Clone, Debug)]
pub struct PlanLoadRows {
    /// Block `b` owns columns `starts[b]..starts[b + 1]` of `cols`/`coeffs`.
    starts: Vec<usize>,
    /// Column index of each stored block column.
    cols: Vec<usize>,
    /// The `LANES` coefficients of each stored block column (rows past
    /// the last node are zero).
    coeffs: Vec<[f64; LANES]>,
    capacities: Vec<f64>,
    num_vars: usize,
}

impl PlanLoadRows {
    /// The rows of `alloc` under the evaluator's model and cluster.
    pub fn new(ev: &PlanEvaluator<'_>, alloc: &Allocation) -> PlanLoadRows {
        let ln = ev.node_load_matrix(alloc);
        let (n, d) = (ln.rows(), ln.cols());
        let mut starts = vec![0];
        let (mut cols, mut coeffs) = (Vec::new(), Vec::new());
        for first in (0..n).step_by(LANES) {
            let rows = first..n.min(first + LANES);
            for k in 0..d {
                let mut column = [0.0; LANES];
                for (lane, i) in rows.clone().enumerate() {
                    column[lane] = ln.row(i)[k];
                }
                if column.iter().any(|&l| l != 0.0) {
                    cols.push(k);
                    coeffs.push(column);
                }
            }
            starts.push(cols.len());
        }
        PlanLoadRows {
            starts,
            cols,
            coeffs,
            capacities: ev.cluster().capacities().as_slice().to_vec(),
            num_vars: d,
        }
    }

    /// Node loads `L^n x` at a point `x` of the model's variable space.
    fn loads(&self, x: &[f64]) -> NodeLoads<'_> {
        assert_eq!(x.len(), self.num_vars, "one value per model variable");
        let n = self.capacities.len();
        let mut loads = Vec::with_capacity(n + LANES);
        for block in self.starts.windows(2) {
            let (lo, hi) = (block[0], block[1]);
            loads.extend_from_slice(&block_product(&self.cols[lo..hi], &self.coeffs[lo..hi], x));
        }
        loads.truncate(n);
        NodeLoads {
            loads,
            capacities: &self.capacities,
        }
    }

    /// Node loads at a system-input rate point of `model` (the model the
    /// rows were built from).
    pub fn loads_at(&self, model: &LoadModel, input_rates: &[f64]) -> NodeLoads<'_> {
        self.loads(model.variable_point(input_rates).as_slice())
    }
}

/// One block's `LANES` row sums, each over its columns in ascending
/// order from `+0.0`. Kept out of line so the accumulators stay in
/// registers across the column loop.
#[inline(never)]
fn block_product(cols: &[usize], coeffs: &[[f64; LANES]], x: &[f64]) -> [f64; LANES] {
    let mut acc = [0.0; LANES];
    for (&k, column) in cols.iter().zip(coeffs) {
        let xk = x[k];
        for (a, l) in acc.iter_mut().zip(column) {
            *a += l * xk;
        }
    }
    acc
}

/// The node loads of one plan at one point, and the questions the
/// control loop asks of them.
#[derive(Clone, Debug)]
pub struct NodeLoads<'a> {
    loads: Vec<f64>,
    capacities: &'a [f64],
}

impl NodeLoads<'_> {
    /// Peak utilisation `max_i load_i / C_i`, folded from 0 exactly as
    /// callers fold [`PlanEvaluator::utilisations_at`].
    pub fn peak_utilisation(&self) -> f64 {
        self.loads
            .iter()
            .zip(self.capacities)
            .fold(0.0f64, |a, (l, c)| a.max(l / c))
    }

    /// True when no node is overloaded — the test
    /// [`PlanEvaluator::is_feasible_at`] applies.
    pub fn is_feasible(&self) -> bool {
        self.loads
            .iter()
            .zip(self.capacities)
            .all(|(l, c)| *l <= c + 1e-12)
    }

    /// The largest `α ≥ 0` with `L^n (x + α·v) ≤ C`, where `self` holds
    /// the loads of `x` and `along` those of `v`: 0 when `x` is already
    /// outside, ∞ when `v` loads no node. Expression for expression the
    /// ray cast of `FeasibleRegion::max_scale_along`, so bit-identical
    /// to it.
    fn max_scale_along(&self, along: &NodeLoads<'_>) -> f64 {
        let mut alpha = f64::INFINITY;
        for ((load, dir_load), cap) in self.loads.iter().zip(&along.loads).zip(self.capacities) {
            let slack = cap - load;
            if slack < 0.0 {
                return 0.0;
            }
            if *dir_load > 0.0 {
                alpha = alpha.min(slack / dir_load);
            }
        }
        alpha
    }

    /// The largest multiplier `m` with `m·x` feasible, by ray casting
    /// along `x` itself: [`HeadroomReport::uniform`]. Saturates at 1.0
    /// once `x` is outside.
    pub fn uniform_scale(&self) -> f64 {
        1.0 + self.max_scale_along(self)
    }

    /// Uniform headroom as the control loop reads it: the ray cast while
    /// the point is inside, and past the boundary — where the ray cast
    /// saturates at 1.0 — `1/peak` utilisation (< 1), which is also the
    /// feasible fraction a shedder should keep.
    pub fn uniform_headroom(&self) -> f64 {
        let peak = self.peak_utilisation();
        if peak > 1.0 {
            return 1.0 / peak;
        }
        self.uniform_scale()
    }

    /// The node that saturates first under uniform scaling: the argmin
    /// of `C_i / load_i` over loaded nodes (node 0 when none is loaded).
    fn binding_node(&self) -> NodeId {
        self.loads
            .iter()
            .zip(self.capacities)
            .enumerate()
            .filter_map(|(i, (&load, cap))| (load > 0.0).then_some((i, cap / load)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| NodeId(i))
            .unwrap_or(NodeId(0))
    }
}

/// Computes the exact headroom of `alloc` at `base_rates`.
///
/// Introduced (linearised) variables scale with their upstream inputs:
/// directions are built by perturbing one input and re-propagating, so a
/// join's output rate responds super-linearly exactly as in the true
/// system. Directions are the *limits* of finite perturbations, computed
/// with a small finite difference — exact for linear graphs, first-order
/// for join outputs.
///
/// The uniform answer scales the base *variable point*, which for a
/// linear graph is the same as scaling every input, so it is exact there.
/// A join's output grows with the product of its inputs, so along the
/// true input ray the region ends sooner and `uniform` is optimistic. For
/// pairwise joins of linear streams (the `rod_workloads::joins`
/// workloads) every node's load along the ray is `a·m + b·m²` with
/// `a, b ≥ 0`, which bounds the true multiplier `m*` to
/// `√uniform ≤ m* ≤ uniform`: the report overstates by at most a factor
/// `√uniform`, and the bound is attained where join load dominates a
/// node (a base point at 10% of such a boundary reports 100 for a true
/// 10). A test in `rod-ctrl` bisects `m*` with
/// [`PlanEvaluator::is_feasible_at`] on those workloads and pins the
/// bound. Per-stream answers have no such gap on pairwise joins: scaling
/// one input moves a join's output linearly.
pub fn headroom(ev: &PlanEvaluator<'_>, alloc: &Allocation, base_rates: &[f64]) -> HeadroomReport {
    let model = ev.model();
    assert_eq!(base_rates.len(), model.num_inputs());
    let rows = PlanLoadRows::new(ev, alloc);
    let base_point = model.variable_point(base_rates);
    let base = rows.loads(base_point.as_slice());

    // Per-stream: direction = d(variable point)/d(rate_k), finite diff.
    let eps = 1e-6;
    let mut per_stream = Vec::with_capacity(base_rates.len());
    for k in 0..base_rates.len() {
        let mut bumped = base_rates.to_vec();
        let step = (base_rates[k].abs() + 1.0) * eps;
        bumped[k] += step;
        let bumped_point = model.variable_point(&bumped);
        let direction: Vec<f64> = bumped_point
            .as_slice()
            .iter()
            .zip(base_point.as_slice())
            .map(|(b, a)| (b - a) / step)
            .collect();
        let alpha = base.max_scale_along(&rows.loads(&direction));
        // alpha is extra *rate* on stream k; convert to a multiplier.
        let multiplier = if base_rates[k] > 0.0 {
            1.0 + alpha / base_rates[k]
        } else {
            f64::INFINITY
        };
        per_stream.push(multiplier);
    }

    HeadroomReport {
        base_rates: base_rates.to_vec(),
        per_stream,
        uniform: base.uniform_scale(),
        binding_node: base.binding_node(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::examples_paper::{example2_plans, figure4_graph};
    use crate::load_model::LoadModel;
    use crate::rod::RodPlanner;

    #[test]
    fn headroom_matches_hand_computation_on_example2() {
        // Plan (a): L^n = [[4,2],[6,9]], C = (1,1). Base R = (0.05, 0.05):
        // loads N1 = 0.3, N2 = 0.75.
        // Solo stream 1: N1 slack 0.7 / 4 = 0.175 extra, N2 slack 0.25/6
        // = 0.04166 → binding. Multiplier = 1 + 0.04166/0.05 = 1.8333.
        // Uniform: N2 ratio C/load = 1/0.75 → m = 1.3333.
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let ev = PlanEvaluator::new(&model, &cluster);
        let [a, _, _] = example2_plans();
        let report = headroom(&ev, &a, &[0.05, 0.05]);
        assert!((report.per_stream[0] - 1.8333).abs() < 1e-3, "{report:?}");
        assert!((report.uniform - 4.0 / 3.0).abs() < 1e-3, "{report:?}");
        assert_eq!(report.binding_node, NodeId(1));
    }

    #[test]
    fn headroom_boundary_is_actually_the_boundary() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let ev = PlanEvaluator::new(&model, &cluster);
        let plan = RodPlanner::new()
            .place(&model, &cluster)
            .unwrap()
            .allocation;
        let base = [0.03, 0.04];
        let report = headroom(&ev, &plan, &base);
        // Just inside is feasible; just outside is not — per stream and
        // uniformly.
        for k in 0..2 {
            let m = report.per_stream[k];
            let mut inside = base.to_vec();
            inside[k] *= m * 0.999;
            let mut outside = base.to_vec();
            outside[k] *= m * 1.001;
            assert!(ev.is_feasible_at(&plan, &inside), "stream {k} inside");
            assert!(!ev.is_feasible_at(&plan, &outside), "stream {k} outside");
        }
        let inside: Vec<f64> = base.iter().map(|r| r * report.uniform * 0.999).collect();
        let outside: Vec<f64> = base.iter().map(|r| r * report.uniform * 1.001).collect();
        assert!(ev.is_feasible_at(&plan, &inside));
        assert!(!ev.is_feasible_at(&plan, &outside));
    }

    #[test]
    fn rod_has_more_solo_burst_headroom_than_concentrated_plans() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let ev = PlanEvaluator::new(&model, &cluster);
        let rod = RodPlanner::new()
            .place(&model, &cluster)
            .unwrap()
            .allocation;
        let [_, _, plan_c] = example2_plans(); // whole chains per node
        let base = [0.04, 0.04];
        let rod_report = headroom(&ev, &rod, &base);
        let conc_report = headroom(&ev, &plan_c, &base);
        let rod_min = rod_report.tightest_stream().unwrap().1;
        let conc_min = conc_report.tightest_stream().unwrap().1;
        assert!(
            rod_min > conc_min,
            "ROD solo headroom {rod_min} vs concentrated {conc_min}"
        );
    }

    #[test]
    fn infeasible_base_reports_no_headroom() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let ev = PlanEvaluator::new(&model, &cluster);
        let [a, _, _] = example2_plans();
        let report = headroom(&ev, &a, &[1.0, 1.0]); // way overloaded
        assert!(report.uniform <= 1.0);
        assert!(report.per_stream.iter().all(|&m| m <= 1.0));
    }
}
