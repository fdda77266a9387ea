//! **Planner performance trajectory** — times plan construction and
//! QMC volume estimation across instance sizes and records the repo's
//! persistent perf baseline.
//!
//! For each grid cell (d input streams, m operators, n nodes, P sample
//! points) the harness generates the workload — the paper's random
//! trees on the `d*` cells, [`SparseGraphGenerator`] graphs up to
//! n = 1000 / m = 50 000 on the `sparse_*` cells — and times, over
//! `repeats` runs, keeping medians:
//!
//! * `plan_seconds` / `hier_plan_seconds` — a full `RodPlanner::place`
//!   run (pruned Phase-2 scan) and a [`HierarchicalRod`] run; the cell
//!   also records `nnz` and `candidates_scored` (Phase-2 probes, against
//!   the full scan's `ops × nodes`);
//! * `scalar_estimate_seconds` — the reference per-point volume walk
//!   ([`VolumeEstimator::estimate_scalar`]);
//! * `kernel_estimate_seconds` — the blocked
//!   [`FeasibilityKernel`](rod_geom::FeasibilityKernel) pinned to its
//!   scalar loops ([`VolumeEstimator::estimate_kernel_scalar`]);
//! * `simd_estimate_seconds` — the runtime-dispatched kernel, timed only
//!   when it selected the AVX2 path (`simd: true`);
//! * `resilient_serial_seconds` / `resilient_pooled_seconds` — the
//!   ResilientRod hill climb with its neighborhood scan serial and on
//!   [`RESILIENT_THREADS`] chunks.
//!
//! Every repetition asserts the three estimates, and the serial and
//! pooled ResilientRod placements, are bit-identical; the tree cells
//! also re-plan with the exhaustive scan and assert the pruned placement
//! is byte-identical. The perf numbers can never come from a path that
//! changed the result.
//!
//! The sparse cells skip the QMC legs (the Halton point set supports at
//! most [`MAX_QMC_INPUTS`] dimensions) and the ResilientRod legs (O(m·P)
//! tracker memory, O(m·n) scores per move). A skipped leg is recorded
//! as `null`, never as a number the run did not measure.
//!
//! Results go to `BENCH_planner.json` at the repo root (schema in
//! `docs/benchmarks.md`). Flags are the shared ones of
//! [`rod_bench::perf`]. `--check FILE` fails on a >2× drop of any
//! cell's kernel, resilient or SIMD speedup, and on the two hard floors:
//! an AVX2 host's best SIMD cell must reach [`SIMD_GATE_MIN_SPEEDUP`],
//! and on a machine with at least [`RESILIENT_THREADS`] cores every
//! resilient cell whose serial leg runs at least
//! [`SCALING_GATE_MIN_SERIAL_SECONDS`] must show a pooled speedup of at
//! least [`SCALING_GATE_MIN_SPEEDUP`].

use std::time::Instant;

use serde::Serialize;

use rod_bench::output::fmt;
use rod_bench::perf::{self, median, Args, Provenance};
use rod_core::allocation::PlanEvaluator;
use rod_core::cluster::Cluster;
use rod_core::hierarchical::HierarchicalRod;
use rod_core::load_model::LoadModel;
use rod_core::resilience::{ResilientRodOptions, ResilientRodPlanner};
use rod_core::rod::RodPlanner;
use rod_geom::{KernelPath, VolumeEstimator};
use rod_workloads::random_graphs::RandomTreeGenerator;
use rod_workloads::sparse_graphs::SparseGraphGenerator;

/// Schema version of `BENCH_planner.json`; bump on breaking layout
/// changes. v6 records skipped legs as `null`.
const SCHEMA_VERSION: u32 = 6;

/// Chunk count for the pooled ResilientRod timing leg; also the core
/// count at which the thread-scaling gate arms.
const RESILIENT_THREADS: usize = 4;

/// The thread-scaling gate only judges cells whose serial resilient
/// leg runs at least this long — below it, pool dispatch overhead can
/// dominate and "pooled beats serial" is not a fair requirement.
const SCALING_GATE_MIN_SERIAL_SECONDS: f64 = 0.2;

/// Minimum pooled-over-serial speedup the thread-scaling gate demands
/// when armed. Deliberately lenient: it catches the pool silently
/// degrading to serial-or-worse, not a missed scaling curve.
const SCALING_GATE_MIN_SPEEDUP: f64 = 1.05;

/// Dimension cap of the Halton QMC point set (`rod_geom::qmc`); cells
/// with more inputs skip the volume-estimation legs.
const MAX_QMC_INPUTS: usize = 16;

/// Minimum blocked-scalar-over-SIMD speedup of the best QMC cell when
/// the run's kernels selected the AVX2 path: the 4-lane ymm width over
/// the 2-lane SSE2 code LLVM auto-vectorises the scalar loops to.
const SIMD_GATE_MIN_SPEEDUP: f64 = 2.0;

/// Workload seed — fixed so the trajectory tracks code, not instances.
const WORKLOAD_SEED: u64 = 42;

/// QMC seed for the estimators.
const QMC_SEED: u64 = 7;

#[derive(Clone, Copy)]
enum Workload {
    /// The paper's random trees: `inputs × ops_per_tree` operators, one
    /// nonzero per load row.
    Tree { ops_per_tree: usize },
    /// Sparse many-input graphs ([`SparseGraphGenerator`]): `ops` total
    /// operators, at most 4 nonzeros per load row.
    Sparse { ops: usize },
}

#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    inputs: usize,
    workload: Workload,
    nodes: usize,
    samples: usize,
    /// Included in `--quick` runs (must stay a subset of the full grid
    /// with identical parameters, so `--check` can match cells by name).
    quick: bool,
    /// Run the ResilientRod legs and the per-repetition exhaustive-scan
    /// bit-identity check. Off for the large sparse cells, where both
    /// are out of budget by orders of magnitude (see the module docs).
    resilient: bool,
}

const GRID: &[Cell] = &[
    Cell {
        name: "d2_n4",
        inputs: 2,
        workload: Workload::Tree { ops_per_tree: 5 },
        nodes: 4,
        samples: 50_000,
        quick: true,
        resilient: true,
    },
    Cell {
        name: "d4_n8",
        inputs: 4,
        workload: Workload::Tree { ops_per_tree: 5 },
        nodes: 8,
        samples: 50_000,
        quick: false,
        resilient: true,
    },
    Cell {
        name: "d6_n16",
        inputs: 6,
        workload: Workload::Tree { ops_per_tree: 5 },
        nodes: 16,
        samples: 100_000,
        quick: true,
        resilient: true,
    },
    Cell {
        name: "d8_n24",
        inputs: 8,
        workload: Workload::Tree { ops_per_tree: 5 },
        nodes: 24,
        samples: 100_000,
        quick: false,
        resilient: true,
    },
    Cell {
        name: "sparse_d64_m5k_n64",
        inputs: 64,
        workload: Workload::Sparse { ops: 5_000 },
        nodes: 64,
        samples: 20_000,
        quick: false,
        resilient: false,
    },
    Cell {
        name: "sparse_d200_m50k_n1000",
        inputs: 200,
        workload: Workload::Sparse { ops: 50_000 },
        nodes: 1_000,
        samples: 2_000,
        quick: true,
        resilient: false,
    },
];

/// One cell's medians. `None` (serialised as `null`) marks a leg the
/// cell did not run.
#[derive(Serialize)]
struct CellResult {
    name: String,
    inputs: usize,
    ops: usize,
    nodes: usize,
    samples: usize,
    /// Load-matrix nonzeros; `ops × inputs` when dense.
    nnz: usize,
    plan_seconds: f64,
    /// Phase-2 probes the pruned scan paid for; the full scan's count
    /// is `ops × nodes`.
    candidates_scored: u64,
    /// Median `HierarchicalRod` plan time, auto topology.
    hier_plan_seconds: f64,
    scalar_estimate_seconds: Option<f64>,
    kernel_estimate_seconds: Option<f64>,
    kernel_speedup: Option<f64>,
    /// Did this cell's kernel select the explicit AVX2 path?
    simd: Option<bool>,
    /// Runtime-dispatched kernel estimate; run only when `simd`.
    simd_estimate_seconds: Option<f64>,
    /// Blocked-scalar over SIMD — the pure explicit-lane win. Total win
    /// over the per-point walk is `kernel_speedup × simd_speedup`.
    simd_speedup: Option<f64>,
    feasible_ratio: Option<f64>,
    /// Chunk count of the pooled ResilientRod leg.
    threads: Option<usize>,
    resilient_serial_seconds: Option<f64>,
    resilient_pooled_seconds: Option<f64>,
    resilient_speedup: Option<f64>,
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    Some(num? / den?)
}

fn run_cell(cell: &Cell, repeats: usize) -> CellResult {
    let graph = match cell.workload {
        Workload::Tree { ops_per_tree } => {
            RandomTreeGenerator::paper_default(cell.inputs, ops_per_tree).generate(WORKLOAD_SEED)
        }
        Workload::Sparse { ops } => {
            SparseGraphGenerator::sized(cell.inputs, ops).generate(WORKLOAD_SEED)
        }
    };
    let model = LoadModel::derive(&graph).expect("model derives");
    let cluster = Cluster::homogeneous(cell.nodes, 1.0);

    let mut plan_times = Vec::with_capacity(repeats);
    let mut hier_times = Vec::with_capacity(repeats);
    let mut alloc = None;
    let mut candidates_scored = 0;
    for _ in 0..repeats {
        let t = Instant::now();
        let plan = RodPlanner::new()
            .place(&model, &cluster)
            .expect("ROD plans");
        plan_times.push(t.elapsed().as_secs_f64());
        if cell.resilient {
            // Small cells double as the pruning oracle: the full O(m·n)
            // scan must choose byte-identical placements every time.
            let full = RodPlanner::new()
                .with_exhaustive_scan(true)
                .place(&model, &cluster)
                .expect("exhaustive ROD plans");
            assert_eq!(
                plan.allocation, full.allocation,
                "{}: pruned scan diverged from the exhaustive scan",
                cell.name
            );
            assert!(plan.candidates_scored <= full.candidates_scored);
        }
        let t = Instant::now();
        let hier = HierarchicalRod::new()
            .place(&model, &cluster)
            .expect("hierarchical ROD plans");
        hier_times.push(t.elapsed().as_secs_f64());
        assert!(hier.allocation.is_complete());
        candidates_scored = plan.candidates_scored;
        alloc = Some(plan.allocation);
    }
    let alloc = alloc.expect("at least one repeat");

    // QMC volume estimation needs a Halton point set, which exists only
    // up to [`MAX_QMC_INPUTS`] dimensions.
    let mut scalar_times = Vec::with_capacity(repeats);
    let mut kernel_times = Vec::with_capacity(repeats);
    let mut simd_times = Vec::with_capacity(repeats);
    let mut simd = None;
    let mut feasible_ratio = None;
    if cell.inputs <= MAX_QMC_INPUTS {
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            cell.samples,
            QMC_SEED,
        );
        let region = PlanEvaluator::new(&model, &cluster).feasible_region(&alloc);
        let lanes_selected = estimator.kernel_path() == KernelPath::Simd;
        simd = Some(lanes_selected);

        for _ in 0..repeats {
            let t = Instant::now();
            let scalar = estimator.estimate_scalar(&region);
            scalar_times.push(t.elapsed().as_secs_f64());
            // The blocked kernel pinned to its scalar loops, so
            // `kernel_speedup` measures blocking alone.
            let t = Instant::now();
            let kernel = estimator.estimate_kernel_scalar(&region);
            kernel_times.push(t.elapsed().as_secs_f64());
            assert_eq!(
                scalar.ratio_to_ideal.to_bits(),
                kernel.ratio_to_ideal.to_bits(),
                "{}: batched kernel diverged from the scalar path",
                cell.name
            );
            // The runtime-dispatched kernel (AVX2 here, when selected).
            if lanes_selected {
                let t = Instant::now();
                let lanes = estimator.estimate_with_threads(&region, 1);
                simd_times.push(t.elapsed().as_secs_f64());
                assert_eq!(
                    kernel.ratio_to_ideal.to_bits(),
                    lanes.ratio_to_ideal.to_bits(),
                    "{}: SIMD kernel diverged from the blocked-scalar path",
                    cell.name
                );
            }
            feasible_ratio = Some(kernel.ratio_to_ideal);
        }
    }

    // ResilientRod hill climb, serial vs pooled neighborhood scan.
    // Reduced budgets keep the full grid affordable; what matters for
    // the trajectory is the serial/pooled *ratio* on identical work,
    // and the bit-identity assert keeps that work honest.
    let mut serial_times = Vec::new();
    let mut pooled_times = Vec::new();
    if cell.resilient {
        let resilient_opts = ResilientRodOptions {
            samples: 1_500,
            seed: 2006,
            max_failures: 1,
            max_moves: 3,
            threads: 1,
        };
        for _ in 0..repeats.min(3) {
            let t = Instant::now();
            let serial = ResilientRodPlanner::with_options(resilient_opts.clone())
                .place(&model, &cluster)
                .expect("ResilientRod plans");
            serial_times.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let pooled = ResilientRodPlanner::with_options(ResilientRodOptions {
                threads: RESILIENT_THREADS,
                ..resilient_opts.clone()
            })
            .place(&model, &cluster)
            .expect("ResilientRod plans");
            pooled_times.push(t.elapsed().as_secs_f64());
            assert_eq!(
                serial.allocation, pooled.allocation,
                "{}: pooled neighborhood scan diverged from serial",
                cell.name
            );
            assert_eq!(
                serial.worst_alive, pooled.worst_alive,
                "{}: pooled worst-case score diverged from serial",
                cell.name
            );
        }
    }

    let scalar_s = median(&mut scalar_times);
    let kernel_s = median(&mut kernel_times);
    let simd_s = median(&mut simd_times);
    let serial_s = median(&mut serial_times);
    let pooled_s = median(&mut pooled_times);
    CellResult {
        name: cell.name.to_string(),
        inputs: cell.inputs,
        ops: model.num_operators(),
        nodes: cell.nodes,
        samples: cell.samples,
        nnz: model.nnz(),
        plan_seconds: median(&mut plan_times).expect("at least one repeat"),
        candidates_scored,
        hier_plan_seconds: median(&mut hier_times).expect("at least one repeat"),
        scalar_estimate_seconds: scalar_s,
        kernel_estimate_seconds: kernel_s,
        kernel_speedup: ratio(scalar_s, kernel_s),
        simd,
        simd_estimate_seconds: simd_s,
        simd_speedup: ratio(kernel_s, simd_s),
        feasible_ratio,
        threads: cell.resilient.then_some(RESILIENT_THREADS),
        resilient_serial_seconds: serial_s,
        resilient_pooled_seconds: pooled_s,
        resilient_speedup: ratio(serial_s, pooled_s),
    }
}

fn main() {
    let args = Args::parse("BENCH_planner.json");
    let repeats = if args.quick { 3 } else { 7 };
    let grid: Vec<CellResult> = GRID
        .iter()
        .filter(|c| !args.quick || c.quick)
        .map(|cell| {
            eprintln!("[perf_planner] {} ...", cell.name);
            run_cell(cell, repeats)
        })
        .collect();

    // A skipped leg prints as "-".
    let leg = |x: Option<f64>, show: fn(f64) -> String| x.map_or("-".to_string(), show);
    let ms = |x: f64| format!("{:.3}", x * 1e3);
    let ms1 = |x: f64| format!("{:.1}", x * 1e3);
    let speedup = |x: f64| format!("{x:.2}x");
    let rows: Vec<Vec<(&str, String)>> = grid
        .iter()
        .map(|c| {
            vec![
                ("cell", c.name.clone()),
                ("ops", c.ops.to_string()),
                ("nodes", c.nodes.to_string()),
                ("nnz", c.nnz.to_string()),
                ("samples", c.samples.to_string()),
                ("plan ms", ms(c.plan_seconds)),
                ("probes", c.candidates_scored.to_string()),
                ("hier ms", ms(c.hier_plan_seconds)),
                ("scalar ms", leg(c.scalar_estimate_seconds, ms)),
                ("kernel ms", leg(c.kernel_estimate_seconds, ms)),
                ("speedup", leg(c.kernel_speedup, speedup)),
                ("simd ms", leg(c.simd_estimate_seconds, ms)),
                ("simd-speedup", leg(c.simd_speedup, speedup)),
                ("res-ser ms", leg(c.resilient_serial_seconds, ms1)),
                ("res-pool ms", leg(c.resilient_pooled_seconds, ms1)),
                ("res-speedup", leg(c.resilient_speedup, speedup)),
                ("ratio", leg(c.feasible_ratio, fmt)),
            ]
        })
        .collect();

    let prov = Provenance::capture();
    let mut floors = Vec::new();
    // AVX2 hosts: the best SIMD cell must pay for the explicit lanes.
    let best_simd = grid
        .iter()
        .filter_map(|c| Some((c.simd_speedup?, c.name.as_str())))
        .max_by(|a, b| a.0.total_cmp(&b.0));
    if let Some((_, name)) = best_simd {
        floors.push((name, "simd_speedup", SIMD_GATE_MIN_SPEEDUP));
    }
    // Machines that can run the pooled chunks in parallel: pooled must
    // beat serial wherever the serial leg is long enough to judge.
    if prov.cores >= RESILIENT_THREADS {
        for c in &grid {
            if c.resilient_serial_seconds
                .is_some_and(|s| s >= SCALING_GATE_MIN_SERIAL_SECONDS)
            {
                floors.push((
                    c.name.as_str(),
                    "resilient_speedup",
                    SCALING_GATE_MIN_SPEEDUP,
                ));
            }
        }
    }

    let file = perf::envelope(
        SCHEMA_VERSION,
        &prov,
        args.quick,
        repeats,
        &[("workload_seed", WORKLOAD_SEED), ("qmc_seed", QMC_SEED)],
        &grid,
    );
    perf::finish(
        &args,
        &file,
        "planner perf trajectory (medians)",
        &rows,
        &["kernel_speedup", "resilient_speedup", "simd_speedup"],
        &floors,
    );
}
