//! Linearisation of nonlinear load models (paper §6.2).
//!
//! The ROD machinery needs every operator's load to be a linear function of
//! a fixed set of rate variables. Filters, maps, unions and aggregates with
//! constant selectivity satisfy this directly in the system input rates.
//! Two things break linearity:
//!
//! * an operator with **data-dependent selectivity** — its own load is
//!   still linear in its input rates, but the rates *downstream* of it are
//!   not expressible, so its output rate becomes a fresh variable
//!   (Example 3, variable `r₃`);
//! * a **windowed join** — its load `c·w·r_u·r_v` is bilinear; the paper's
//!   trick is to introduce its output rate `r_out = s·w·r_u·r_v` as a
//!   fresh variable and rewrite the join's load as `(c/s)·r_out`
//!   (Example 3, variable `r₄`).
//!
//! The pass below walks the graph in topological order, maintaining for
//! every stream a symbolic [`RateExpr`] — a linear combination over the
//! variables discovered so far — and "cuts" the graph (Fig. 13) by minting
//! a new variable exactly where linearity would be lost. The paper's goal
//! of introducing *as few variables as possible* is met by construction:
//! a variable is introduced only at the output of a nonlinear or
//! variable-selectivity operator, never elsewhere.

use serde::{Deserialize, Serialize};

use crate::graph::QueryGraph;
use crate::ids::{InputId, OperatorId, StreamId, VarId};
use crate::operator::OperatorKind;

/// What a rate variable of the linearised model stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarInfo {
    /// The rate of system input stream `I_k` — variables `x_0 … x_{d-1}`.
    SystemInput(InputId),
    /// The output rate of an operator whose output could not be expressed
    /// linearly (a join or a variable-selectivity operator).
    Introduced {
        /// The operator whose output rate this variable is.
        operator: OperatorId,
        /// Its output stream.
        stream: StreamId,
    },
}

/// A sparse linear expression `Σ coeff_v · x_v` over the model variables.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RateExpr {
    /// `(variable, coefficient)` pairs, sorted by variable, no zeros, no
    /// duplicates.
    terms: Vec<(VarId, f64)>,
}

impl RateExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        RateExpr::default()
    }

    /// The single-variable expression `coeff · x_v`.
    pub fn unit(v: VarId, coeff: f64) -> Self {
        if coeff == 0.0 {
            RateExpr::zero()
        } else {
            RateExpr {
                terms: vec![(v, coeff)],
            }
        }
    }

    /// The terms, sorted by variable.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Adds `coeff · other` into `self`.
    pub fn add_scaled(&mut self, other: &RateExpr, coeff: f64) {
        if coeff == 0.0 {
            return;
        }
        let mut merged = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut a, mut b) = (self.terms.iter().peekable(), other.terms.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(va, ca)), Some(&&(vb, cb))) => {
                    if va < vb {
                        merged.push((va, ca));
                        a.next();
                    } else if vb < va {
                        merged.push((vb, cb * coeff));
                        b.next();
                    } else {
                        let c = ca + cb * coeff;
                        if c != 0.0 {
                            merged.push((va, c));
                        }
                        a.next();
                        b.next();
                    }
                }
                (Some(&&(va, ca)), None) => {
                    merged.push((va, ca));
                    a.next();
                }
                (None, Some(&&(vb, cb))) => {
                    merged.push((vb, cb * coeff));
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.terms = merged;
    }

    /// Evaluates the expression at a concrete variable point.
    pub fn eval(&self, var_values: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|&(v, c)| c * var_values[v.index()])
            .sum()
    }

    /// Densifies into a coefficient row of length `num_vars`.
    pub fn to_dense(&self, num_vars: usize) -> Vec<f64> {
        let mut row = vec![0.0; num_vars];
        for &(v, c) in &self.terms {
            row[v.index()] = c;
        }
        row
    }

    /// Number of nonzero coefficients.
    pub fn nnz(&self) -> usize {
        self.terms.len()
    }

    /// Converts into a [`rod_geom::SparseRow`] of width `num_vars` — the
    /// expression already *is* sparse (sorted terms, no zeros), so this is
    /// a direct re-labelling, not a compression pass.
    pub fn to_sparse_row(&self, num_vars: usize) -> rod_geom::SparseRow {
        rod_geom::SparseRow::from_terms(
            num_vars,
            self.terms.iter().map(|&(v, c)| (v.index() as u32, c)),
        )
    }
}

/// Output of the linearisation pass.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linearization {
    /// All rate variables: the `d` system inputs first, then introduced
    /// variables in topological discovery order.
    pub vars: Vec<VarInfo>,
    /// Rate expression of every stream (indexed by [`StreamId`]).
    pub stream_exprs: Vec<RateExpr>,
    /// Load expression of every operator (rows of `L^o`, indexed by
    /// [`OperatorId`]).
    pub op_load_exprs: Vec<RateExpr>,
}

impl Linearization {
    /// Runs the pass over a validated graph.
    pub fn run(graph: &QueryGraph) -> Linearization {
        let mut vars: Vec<VarInfo> = (0..graph.num_inputs())
            .map(|k| VarInfo::SystemInput(InputId(k)))
            .collect();
        let mut stream_exprs: Vec<RateExpr> = vec![RateExpr::zero(); graph.num_streams()];
        for (k, &s) in graph.inputs().iter().enumerate() {
            stream_exprs[s.index()] = RateExpr::unit(VarId(k), 1.0);
        }
        let mut op_load_exprs: Vec<RateExpr> = Vec::with_capacity(graph.num_operators());

        for op in graph.operators() {
            match &op.kind {
                OperatorKind::Linear {
                    costs,
                    selectivities,
                } => {
                    let mut load = RateExpr::zero();
                    let mut out = RateExpr::zero();
                    for (port, &input) in op.inputs.iter().enumerate() {
                        let input_expr = stream_exprs[input.index()].clone();
                        load.add_scaled(&input_expr, costs[port]);
                        out.add_scaled(&input_expr, selectivities[port]);
                    }
                    op_load_exprs.push(load);
                    stream_exprs[op.output.index()] = out;
                }
                OperatorKind::VariableSelectivity { costs, .. } => {
                    // Load is linear in the *input* rates (cost per tuple
                    // is constant) ...
                    let mut load = RateExpr::zero();
                    for (port, &input) in op.inputs.iter().enumerate() {
                        load.add_scaled(&stream_exprs[input.index()].clone(), costs[port]);
                    }
                    op_load_exprs.push(load);
                    // ... but the output rate is unknowable: new variable.
                    let v = VarId(vars.len());
                    vars.push(VarInfo::Introduced {
                        operator: op.id,
                        stream: op.output,
                    });
                    stream_exprs[op.output.index()] = RateExpr::unit(v, 1.0);
                }
                OperatorKind::WindowJoin {
                    cost_per_pair,
                    selectivity_per_pair,
                    ..
                } => {
                    // Introduce r_out; the join's load c·w·r_u·r_v equals
                    // (c/s)·r_out because r_out = s·w·r_u·r_v (§6.2).
                    let v = VarId(vars.len());
                    vars.push(VarInfo::Introduced {
                        operator: op.id,
                        stream: op.output,
                    });
                    op_load_exprs.push(RateExpr::unit(v, cost_per_pair / selectivity_per_pair));
                    stream_exprs[op.output.index()] = RateExpr::unit(v, 1.0);
                }
            }
        }

        Linearization {
            vars,
            stream_exprs,
            op_load_exprs,
        }
    }

    /// Number of variables `d'` (≥ the number of system inputs).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Concrete values of all variables at a system-input rate point,
    /// obtained by propagating true rates through the graph (nominal
    /// selectivities for data-dependent operators). Only introduced
    /// variables need that O(m) propagation; a linear graph's variables
    /// are its input rates, read off in O(d).
    pub fn variable_point(&self, graph: &QueryGraph, input_rates: &[f64]) -> Vec<f64> {
        let introduced = self
            .vars
            .iter()
            .any(|v| matches!(v, VarInfo::Introduced { .. }));
        let rates = if introduced {
            graph.propagate_rates(input_rates)
        } else {
            assert_eq!(input_rates.len(), graph.num_inputs(), "one rate per input");
            Vec::new()
        };
        self.vars
            .iter()
            .map(|v| match v {
                VarInfo::SystemInput(k) => input_rates[k.index()],
                VarInfo::Introduced { stream, .. } => rates[stream.index()],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{example3_graph, figure4_graph};
    use crate::graph::GraphBuilder;

    #[test]
    fn rate_expr_merge() {
        let mut e = RateExpr::unit(VarId(0), 2.0);
        e.add_scaled(&RateExpr::unit(VarId(1), 3.0), 2.0);
        e.add_scaled(&RateExpr::unit(VarId(0), 1.0), -2.0);
        assert_eq!(e.terms(), &[(VarId(1), 6.0)]);
        assert_eq!(e.eval(&[100.0, 10.0]), 60.0);
    }

    #[test]
    fn rate_expr_dense() {
        let mut e = RateExpr::unit(VarId(2), 5.0);
        e.add_scaled(&RateExpr::unit(VarId(0), 1.0), 1.0);
        assert_eq!(e.to_dense(4), vec![1.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn linear_graph_introduces_no_variables() {
        let g = figure4_graph();
        let lin = Linearization::run(&g);
        assert_eq!(lin.num_vars(), 2);
        // Example 1 loads: c1 r1, c2 s1 r1, c3 r2, c4 s3 r2
        // with c=(4,6,9,4), s1=1, s3=0.5:
        assert_eq!(lin.op_load_exprs[0].to_dense(2), vec![4.0, 0.0]);
        assert_eq!(lin.op_load_exprs[1].to_dense(2), vec![6.0, 0.0]);
        assert_eq!(lin.op_load_exprs[2].to_dense(2), vec![0.0, 9.0]);
        assert_eq!(lin.op_load_exprs[3].to_dense(2), vec![0.0, 2.0]);
    }

    #[test]
    fn example3_introduces_two_variables() {
        // Example 3 / Figure 13: o1 has variable selectivity (→ r3) and o5
        // is a join (→ r4): exactly 2 extra variables over the 2 inputs.
        let g = example3_graph();
        let lin = Linearization::run(&g);
        assert_eq!(lin.num_vars(), 4);
        let introduced: Vec<_> = lin
            .vars
            .iter()
            .filter(|v| matches!(v, VarInfo::Introduced { .. }))
            .collect();
        assert_eq!(introduced.len(), 2);
    }

    #[test]
    fn join_load_is_c_over_s_times_output() {
        let mut b = GraphBuilder::new();
        let i0 = b.add_input();
        let i1 = b.add_input();
        b.add_operator(
            "j",
            OperatorKind::WindowJoin {
                window: 2.0,
                cost_per_pair: 6.0,
                selectivity_per_pair: 0.5,
            },
            &[i0, i1],
        )
        .unwrap();
        let g = b.build().unwrap();
        let lin = Linearization::run(&g);
        assert_eq!(lin.num_vars(), 3);
        // load = (6 / 0.5) x2 = 12 x2.
        assert_eq!(lin.op_load_exprs[0].to_dense(3), vec![0.0, 0.0, 12.0]);
    }

    #[test]
    fn linearised_load_equals_true_load_at_any_point() {
        let g = example3_graph();
        let lin = Linearization::run(&g);
        for rates in [[2.0, 3.0], [0.1, 7.0], [5.0, 5.0], [0.0, 1.0]] {
            let x = lin.variable_point(&g, &rates);
            let true_loads = g.operator_loads(&rates);
            for (j, expr) in lin.op_load_exprs.iter().enumerate() {
                let lin_load = expr.eval(&x);
                assert!(
                    (lin_load - true_loads[j]).abs() < 1e-9 * (1.0 + true_loads[j]),
                    "operator {j}: linear {lin_load} vs true {}",
                    true_loads[j]
                );
            }
        }
    }

    #[test]
    fn downstream_of_join_uses_join_variable() {
        let g = example3_graph();
        let lin = Linearization::run(&g);
        // o6 (last operator) consumes the join output; its load must
        // depend only on the join's introduced variable.
        let o6 = lin.op_load_exprs.last().unwrap();
        assert_eq!(o6.terms().len(), 1);
        let (v, _) = o6.terms()[0];
        assert!(matches!(lin.vars[v.index()], VarInfo::Introduced { .. }));
    }
}
