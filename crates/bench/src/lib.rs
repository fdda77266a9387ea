//! # rod-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus
//! Criterion micro-benchmarks and ablations (`benches/`). This library
//! holds the shared machinery:
//!
//! * [`comparison`] — runs the §7.2 algorithm set (ROD, Correlation, LLF,
//!   Random, Connected) over a workload exactly as §7.3 prescribes:
//!   every randomised algorithm repeated with fresh random inputs, ROD
//!   run once (it "does not depend on the input stream rates and produces
//!   only one operator distribution plan");
//! * [`output`] — console tables and JSON result files under `results/`;
//! * [`perf`] — the shared scaffolding and `--check` gates of the
//!   `perf_*` trajectory bins.

#![warn(missing_docs)]
pub mod comparison;
pub mod output;
pub mod perf;
pub mod plot;

pub use comparison::{compare_algorithms, parallel_map, AlgorithmResult, ComparisonConfig};
pub use output::{print_table, write_json};
pub use plot::{downsample, line_chart, scatter, sparkline};
