//! Holds the cached-rows answers the control loop reads on every sample
//! ([`PlanLoadRows`], [`NodeLoads`]) to independent references, bit for
//! bit:
//!
//! * uniform headroom against a ray cast through the plan's
//!   `FeasibleRegion` (`1 + max_scale_along(x, x)`), with the loop's
//!   `1/peak` branch past the boundary;
//! * feasibility against [`PlanEvaluator::is_feasible_at`];
//! * the whole [`headroom`] report against the region-based ray casts it
//!   was first written with.
//!
//! Graphs come from the sparse generator (linear) and the join workloads
//! (linearised join variables); plans are random complete assignments
//! that leave some nodes empty; rates land on both sides of, and exactly
//! on, each plan's boundary.
//!
//! A second test measures how far uniform headroom overstates the true
//! multiplier on join graphs, and pins that bound.

use proptest::prelude::*;

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::headroom::{headroom, PlanLoadRows};
use rod_core::ids::{NodeId, OperatorId};
use rod_core::load_model::LoadModel;
use rod_core::rod::RodPlanner;
use rod_core::{PlanEvaluator, QueryGraph};
use rod_workloads::joins::{join_pairs, JoinConfig};
use rod_workloads::sparse_graphs::{SparseGraphConfig, SparseGraphGenerator};

fn sparse_graph(inputs: usize, operators: usize, seed: u64) -> QueryGraph {
    SparseGraphGenerator::new(SparseGraphConfig {
        num_inputs: inputs,
        num_operators: operators,
        max_support: inputs.min(4),
        ..SparseGraphConfig::default()
    })
    .generate(seed)
}

fn join_graph(pairs: usize, window: f64, heads: bool, seed: u64) -> QueryGraph {
    join_pairs(
        &JoinConfig {
            pairs,
            window,
            variable_selectivity_heads: heads,
            ..JoinConfig::default()
        },
        seed,
    )
}

fn random_plan(model: &LoadModel, nodes: usize, picks: &[usize]) -> Allocation {
    let mut alloc = Allocation::new(model.num_operators(), nodes);
    for op in 0..model.num_operators() {
        alloc.assign(OperatorId(op), NodeId(picks[op % picks.len()] % nodes));
    }
    alloc
}

fn peak(ev: &PlanEvaluator<'_>, alloc: &Allocation, rates: &[f64]) -> f64 {
    ev.utilisations_at(alloc, rates)
        .as_slice()
        .iter()
        .fold(0.0f64, |a, &b| a.max(b))
}

/// The uniform headroom the loop read before it cached rows: `1/peak`
/// past the boundary, else a ray cast through the plan's region.
fn reference_uniform(ev: &PlanEvaluator<'_>, alloc: &Allocation, rates: &[f64]) -> f64 {
    let p = peak(ev, alloc, rates);
    if p > 1.0 {
        return 1.0 / p;
    }
    let x = ev.model().variable_point(rates);
    1.0 + ev.feasible_region(alloc).max_scale_along(&x, &x)
}

/// Checks every cached-rows answer at `rates` against its reference.
fn check_at(
    ev: &PlanEvaluator<'_>,
    alloc: &Allocation,
    rows: &PlanLoadRows,
    rates: &[f64],
) -> Result<(), TestCaseError> {
    let model = ev.model();
    let loads = rows.loads_at(model, rates);
    prop_assert_eq!(
        loads.uniform_headroom().to_bits(),
        reference_uniform(ev, alloc, rates).to_bits()
    );
    prop_assert_eq!(loads.is_feasible(), ev.is_feasible_at(alloc, rates));
    // Equal as numbers: an all-idle plan's peak is a zero of either sign.
    prop_assert_eq!(loads.peak_utilisation(), peak(ev, alloc, rates));

    // The full report, against the region-based ray casts.
    let report = headroom(ev, alloc, rates);
    let region = ev.feasible_region(alloc);
    let x = model.variable_point(rates);
    prop_assert_eq!(
        report.uniform.to_bits(),
        (1.0 + region.max_scale_along(&x, &x)).to_bits()
    );
    for (k, &m) in report.per_stream.iter().enumerate() {
        let mut bumped = rates.to_vec();
        let step = (rates[k].abs() + 1.0) * 1e-6;
        bumped[k] += step;
        let b = model.variable_point(&bumped);
        let direction = rod_geom::Vector::new(
            b.as_slice()
                .iter()
                .zip(x.as_slice())
                .map(|(b, a)| (b - a) / step)
                .collect(),
        );
        let alpha = region.max_scale_along(&x, &direction);
        let expected = if rates[k] > 0.0 {
            1.0 + alpha / rates[k]
        } else {
            f64::INFINITY
        };
        prop_assert_eq!(m.to_bits(), expected.to_bits(), "stream {}", k);
    }
    let ln = ev.node_load_matrix(alloc);
    let binding = (0..ln.rows())
        .filter_map(|i| {
            let load: f64 = ln.row(i).iter().zip(x.as_slice()).map(|(l, v)| l * v).sum();
            (load > 0.0).then_some((i, ev.cluster().capacity(NodeId(i)) / load))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| NodeId(i))
        .unwrap_or(NodeId(0));
    prop_assert_eq!(report.binding_node, binding);
    Ok(())
}

/// Checks a plan at rates scaled to sit inside, on and outside its
/// boundary, plus a point where some streams are silent.
fn check_plan(
    model: &LoadModel,
    cluster: &Cluster,
    alloc: &Allocation,
    shape: &[f64],
    scales: &[f64],
) -> Result<(), TestCaseError> {
    let ev = PlanEvaluator::new(model, cluster);
    let rows = PlanLoadRows::new(&ev, alloc);
    let to_boundary = 1.0 / peak(&ev, alloc, shape);
    let mut points: Vec<Vec<f64>> = scales
        .iter()
        .map(|s| shape.iter().map(|r| r * s * to_boundary).collect())
        .collect();
    // Exactly on the boundary (up to rounding), either side of it.
    let u = rows.loads_at(model, shape).uniform_headroom();
    if u.is_finite() {
        points.push(shape.iter().map(|r| r * u).collect());
    }
    let mut partial: Vec<f64> = shape.to_vec();
    for r in partial.iter_mut().step_by(2) {
        *r = 0.0;
    }
    points.push(partial);
    for rates in &points {
        check_at(&ev, alloc, &rows, rates)?;
    }
    Ok(())
}

fn shape(draws: &[u16], d: usize) -> Vec<f64> {
    (0..d)
        .map(|k| 0.1 + draws[k % draws.len()] as f64 / 100.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_rows_match_references_on_sparse_graphs(
        inputs in 1usize..9,
        operators in 1usize..120,
        nodes in 1usize..20,
        seed in 0u64..1_000,
        picks in prop::collection::vec(0usize..64, 1..40),
        draws in prop::collection::vec(0u16..1_000, 1..9),
        scales in prop::collection::vec(0.2f64..1.8, 1..6),
    ) {
        let model = LoadModel::derive(&sparse_graph(inputs, operators, seed)).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let alloc = random_plan(&model, nodes, &picks);
        check_plan(&model, &cluster, &alloc, &shape(&draws, inputs), &scales)?;
    }

    #[test]
    fn cached_rows_match_references_on_join_graphs(
        pairs in 1usize..4,
        window_pick in 0usize..3,
        heads in 0u8..2,
        nodes in 1usize..12,
        seed in 0u64..1_000,
        picks in prop::collection::vec(0usize..64, 1..40),
        caps in prop::collection::vec(0.5f64..2.0, 1..7),
        draws in prop::collection::vec(0u16..1_000, 1..9),
        scales in prop::collection::vec(0.2f64..1.8, 1..6),
    ) {
        let window = [0.25, 0.5, 1.0][window_pick];
        let graph = join_graph(pairs, window, heads == 1, seed);
        let model = LoadModel::derive(&graph).unwrap();
        // Heterogeneous capacities: the tests divide by C_i, not by 1.
        let cluster = Cluster::heterogeneous((0..nodes).map(|i| caps[i % caps.len()]).collect());
        let alloc = random_plan(&model, nodes, &picks);
        check_plan(&model, &cluster, &alloc, &shape(&draws, graph.num_inputs()), &scales)?;
    }
}

/// The largest `m` with `m·R` feasible, to a relative 1e-9.
fn bisect_true_multiplier(ev: &PlanEvaluator<'_>, alloc: &Allocation, rates: &[f64]) -> f64 {
    let feasible = |m: f64| {
        let scaled: Vec<f64> = rates.iter().map(|r| r * m).collect();
        ev.is_feasible_at(alloc, &scaled)
    };
    let (mut lo, mut hi) = (0.0, 1.0);
    while feasible(hi) {
        lo = hi;
        hi *= 2.0;
    }
    while hi - lo > 1e-9 * hi {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Uniform headroom scales the variable point, which a join outruns: its
/// output grows with the product of its inputs. On the join-pair
/// workloads every node's load along the input ray is `a·m + b·m²` with
/// `a, b ≥ 0`, so the true multiplier `m*` lies in `[√u, u]` for a
/// reported `u`: the report overstates by at most a factor `√u`. Each
/// probe's `m*` is bisected with `is_feasible_at` against that bound.
#[test]
fn join_uniform_headroom_overstates_by_at_most_its_square_root() {
    // Largest observed log(u / m*) / log(u): 0 when exact, 1/2 at the bound.
    let mut worst: f64 = 0.0;
    let mut probes = 0;
    for pairs in 1..=3 {
        for window in [0.25, 0.5, 1.0] {
            for heads in [false, true] {
                for seed in 0..4u64 {
                    let graph = join_graph(pairs, window, heads, seed);
                    let model = LoadModel::derive(&graph).unwrap();
                    for nodes in [2, 4, 8] {
                        let cluster = Cluster::homogeneous(nodes, 1.0);
                        let ev = PlanEvaluator::new(&model, &cluster);
                        let alloc = RodPlanner::new()
                            .place(&model, &cluster)
                            .unwrap()
                            .allocation;
                        let shape: Vec<f64> = (0..graph.num_inputs())
                            .map(|k| 1.0 + ((k as u64 * 7 + seed) % 5) as f64)
                            .collect();
                        let to_boundary = bisect_true_multiplier(&ev, &alloc, &shape);
                        for fraction in [0.1, 0.3, 0.5, 0.7, 0.9] {
                            let rates: Vec<f64> =
                                shape.iter().map(|r| r * to_boundary * fraction).collect();
                            let u = headroom(&ev, &alloc, &rates).uniform;
                            let truth = bisect_true_multiplier(&ev, &alloc, &rates);
                            assert!(
                                truth <= u * (1.0 + 1e-6) && truth >= u.sqrt() * (1.0 - 1e-6),
                                "true multiplier {truth} outside [sqrt({u}), {u}]"
                            );
                            worst = worst.max((u / truth).ln() / u.ln());
                            probes += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(probes, 1080);
    // The bound is nearly attained where join load dominates a node.
    assert!(worst > 0.45, "worst overstatement exponent {worst}");
}
