//! Large *sparse* query graphs: many inputs, bounded per-operator support.
//!
//! The paper's random trees ([`crate::random_graphs`]) give every operator
//! a load-coefficient row with exactly one nonzero — maximally sparse but
//! structurally trivial. Real multi-query deployments sit in between:
//! thousands of operators over hundreds of input streams, where each
//! operator depends on a *few* inputs (the streams it unions or joins
//! transitively reach a handful of sources), never on all of them.
//!
//! This generator produces such graphs at planner-stress scale
//! (`m ≈ 50 000`, `d ≈ 200+`): each operator consumes one to
//! [`max_fanin`](SparseGraphConfig::max_fanin) existing streams, and a
//! merge is only accepted when the union of the operands' *input support*
//! (the set of system inputs reaching them) stays within
//! [`max_support`](SparseGraphConfig::max_support). Every load-coefficient
//! row therefore has at most `max_support` nonzeros, so the derived
//! [`LoadModel`](rod_core::load_model::LoadModel) has
//! `nnz ≤ m · max_support ≪ m · d` — the regime the sparse evaluation
//! path and the pruned Phase-2 scan are built for.
//!
//! Generation is a single seeded pass (deterministic per seed, `O(m)`
//! draws), so the perf grid can synthesise a 50 000-operator graph in
//! milliseconds.

use rand::seq::SliceRandom;
use rand::Rng as _;

use rod_geom::rng::seeded_rng;

use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::ids::StreamId;
use rod_core::operator::OperatorKind;

/// Configuration of the sparse large-graph workload.
#[derive(Clone, Debug)]
pub struct SparseGraphConfig {
    /// Number of system input streams, `d`.
    pub num_inputs: usize,
    /// Total operators to generate, `m`.
    pub num_operators: usize,
    /// Maximum input ports per operator (fan-in drawn uniformly from
    /// `1..=max_fanin`).
    pub max_fanin: usize,
    /// Maximum distinct system inputs any operator may transitively
    /// depend on — the per-row nonzero cap of the derived load model.
    pub max_support: usize,
    /// Lower bound of the per-tuple cost range (seconds).
    pub min_cost: f64,
    /// Upper bound of the per-tuple cost range (seconds).
    pub max_cost: f64,
    /// Lower bound of the per-port selectivity range (upper bound is 1).
    pub min_selectivity: f64,
}

impl Default for SparseGraphConfig {
    fn default() -> Self {
        SparseGraphConfig {
            num_inputs: 64,
            num_operators: 1_000,
            max_fanin: 3,
            max_support: 4,
            min_cost: 1e-4,
            max_cost: 1e-3,
            min_selectivity: 0.5,
        }
    }
}

/// Deterministic generator of sparse many-input query graphs.
#[derive(Clone, Debug)]
pub struct SparseGraphGenerator {
    config: SparseGraphConfig,
}

impl SparseGraphGenerator {
    /// Generator with the given configuration.
    pub fn new(config: SparseGraphConfig) -> Self {
        assert!(config.num_inputs > 0);
        assert!(config.num_operators > 0);
        assert!(config.max_fanin >= 1);
        assert!(config.max_support >= 1);
        assert!(0.0 < config.min_cost && config.min_cost <= config.max_cost);
        assert!((0.0..=1.0).contains(&config.min_selectivity));
        SparseGraphGenerator { config }
    }

    /// Default cost/selectivity ranges at the given scale.
    pub fn sized(num_inputs: usize, num_operators: usize) -> Self {
        SparseGraphGenerator::new(SparseGraphConfig {
            num_inputs,
            num_operators,
            ..SparseGraphConfig::default()
        })
    }

    /// Total operator count of generated graphs.
    pub fn num_operators(&self) -> usize {
        self.config.num_operators
    }

    /// Generates one graph.
    pub fn generate(&self, seed: u64) -> QueryGraph {
        let c = &self.config;
        let mut rng = seeded_rng(seed);
        let mut b = GraphBuilder::new();

        // Pool of produced streams, each with its sorted input-support
        // set. Inputs seed the pool with singleton support.
        let mut pool: Vec<(StreamId, Vec<usize>)> = (0..c.num_inputs)
            .map(|k| (b.add_input(), vec![k]))
            .collect();

        for j in 0..c.num_operators {
            // The pool may hold fewer streams than the drawn fan-in (a
            // graph's first operators over one or two inputs).
            let fanin = rng.gen_range(1..=c.max_fanin).min(pool.len());
            let first = rng.gen_range(0..pool.len());
            let mut ports: Vec<usize> = vec![first];
            let mut support = pool[first].1.clone();
            // Grow the port set stream by stream, accepting a candidate
            // only when the merged support stays within the cap. A few
            // rejected draws simply leave the operator with smaller
            // fan-in — the *cap* is the invariant, not the fan-in.
            while ports.len() < fanin {
                let cand = rng.gen_range(0..pool.len());
                if ports.contains(&cand) {
                    continue;
                }
                let merged = merge_sorted(&support, &pool[cand].1);
                if merged.len() > c.max_support {
                    break;
                }
                ports.push(cand);
                support = merged;
            }

            let arity = ports.len();
            let costs: Vec<f64> = (0..arity)
                .map(|_| rng.gen_range(c.min_cost..=c.max_cost))
                .collect();
            let selectivities: Vec<f64> = (0..arity)
                .map(|_| rng.gen_range(c.min_selectivity..=1.0))
                .collect();
            let inputs: Vec<StreamId> = ports.iter().map(|&p| pool[p].0).collect();
            let (_, out) = b
                .add_operator(
                    format!("sp{j}"),
                    OperatorKind::Linear {
                        costs,
                        selectivities,
                    },
                    &inputs,
                )
                .expect("generated operator is valid");
            pool.push((out, support));

            // Keep the pool from drifting toward wide-support streams
            // only: occasionally re-shuffle a fresh input to the front of
            // the draw range. (Uniform draws over the whole pool already
            // reach inputs; this just keeps early inputs in play for
            // very large m.)
            if j % 977 == 0 {
                pool.shuffle(&mut rng);
            }
        }
        b.build().expect("generated graph is valid")
    }
}

/// Union of two sorted, deduplicated index sets.
fn merge_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rod_core::load_model::LoadModel;

    #[test]
    fn counts_and_arity_match_config() {
        let gen = SparseGraphGenerator::sized(32, 400);
        let g = gen.generate(11);
        assert_eq!(g.num_inputs(), 32);
        assert_eq!(g.num_operators(), 400);
        for op in g.operators() {
            assert!((1..=3).contains(&op.inputs.len()));
        }
    }

    #[test]
    fn support_cap_bounds_row_nnz() {
        let gen = SparseGraphGenerator::new(SparseGraphConfig {
            num_inputs: 48,
            num_operators: 600,
            max_support: 4,
            ..SparseGraphConfig::default()
        });
        let model = LoadModel::derive(&gen.generate(3)).unwrap();
        let sparse = model.sparse_lo();
        let mut multi = 0usize;
        for j in 0..model.num_operators() {
            let nnz = sparse.row(j).nnz();
            assert!((1..=4).contains(&nnz), "operator {j} has {nnz} nonzeros");
            if nnz > 1 {
                multi += 1;
            }
        }
        // Merges actually happen — this is not the tree generator.
        assert!(multi > 50, "{multi} multi-support rows");
        // And the whole model is sparse: nnz ≪ m·d.
        assert!(model.nnz() * 6 < model.num_operators() * model.num_inputs());
    }

    #[test]
    fn fan_in_past_the_pool_size_terminates() {
        // One input: the first operator's pool holds a single stream, so
        // any drawn fan-in above 1 must settle for what the pool has.
        for seed in 0..16 {
            let g = SparseGraphGenerator::sized(1, 3).generate(seed);
            assert_eq!(g.num_operators(), 3);
        }
    }

    #[test]
    fn merge_sorted_unions_without_duplicates() {
        assert_eq!(merge_sorted(&[0, 2, 5], &[1, 2, 6]), vec![0, 1, 2, 5, 6]);
        assert_eq!(merge_sorted(&[], &[3]), vec![3]);
        assert_eq!(merge_sorted(&[4], &[]), vec![4]);
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = SparseGraphGenerator::sized(16, 200);
        let a = format!("{:?}", gen.generate(5).operators());
        let b = format!("{:?}", gen.generate(5).operators());
        assert_eq!(a, b);
        let c = format!("{:?}", gen.generate(6).operators());
        assert_ne!(a, c);
    }

    #[test]
    fn every_input_feeds_the_model() {
        // With m ≫ d each input should be consumed by someone and carry
        // load in the derived model.
        let gen = SparseGraphGenerator::sized(20, 500);
        let model = LoadModel::derive(&gen.generate(9)).unwrap();
        let totals = model.total_coeffs();
        let live = totals.as_slice().iter().filter(|&&l| l > 0.0).count();
        assert!(live >= 18, "{live}/20 inputs carry load");
    }

    #[test]
    fn scales_to_many_operators_quickly() {
        let gen = SparseGraphGenerator::sized(128, 20_000);
        let g = gen.generate(1);
        assert_eq!(g.num_operators(), 20_000);
        let model = LoadModel::derive(&g).unwrap();
        assert!(model.nnz() <= 20_000 * 4);
    }
}
