//! **Simulator performance trajectory** — times the simulator's two
//! delivery modes (one engine, `rod_sim::batched`) against each other at
//! production-volume rates and records the repo's persistent simulator
//! perf baseline. The *reference* leg is strict mode — the default,
//! tuple-by-tuple delivery (`SimulationConfig::batch = None`) — and the
//! *batched* leg runs `BatchConfig::default()`.
//!
//! Each grid cell fixes a workload (a map chain at a constant Poisson
//! rate, or a bursty self-similar ON/OFF trace) and runs it in both
//! modes over `repeats` repetitions, keeping median wall times. The
//! headline column is `batch_speedup` — batched tuples/sec over
//! reference tuples/sec on the same machine, so the number is a
//! machine-relative ratio like `perf_planner`'s speedups and stays
//! comparable across runner hardware.
//!
//! Every repetition cross-checks the modes: the batched run must see
//! exactly the reference's arrival count (identical source RNG draws)
//! and deliver the same tuples within a small horizon-edge tolerance —
//! the perf numbers can never come from a run that dropped work.
//!
//! Results go to `BENCH_sim.json` at the repo root (schema in
//! `docs/benchmarks.md`). Flags and gates are the shared ones of
//! [`rod_bench::perf`]: `--quick`, `--out FILE`, and `--check FILE`,
//! which fails on a >2× `batch_speedup` regression or on a cell under
//! its hard floor (the ≥10× acceptance bar on the 1M-tuples/s cell).

use std::time::Instant;

use serde::Serialize;

use rod_bench::perf::{self, median, Args, Provenance};
use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::ids::{NodeId, OperatorId};
use rod_core::operator::OperatorKind;
use rod_sim::{BatchConfig, SimReport, Simulation, SimulationConfig, SourceSpec};
use rod_traces::OnOffAggregate;

/// Schema version of `BENCH_sim.json`; bump on breaking layout changes.
const SCHEMA_VERSION: u32 = 1;

/// Run seed — fixed so the trajectory tracks code, not instances.
const SEED: u64 = 42;

/// Hard floors under `--check`, as `(cell, column, floor)`: the
/// acceptance cell's batched delivery must stay ≥ 10× strict mode.
const FLOORS: &[(&str, &str, f64)] = &[("chain_1m", "batch_speedup", 10.0)];

#[derive(Clone, Copy)]
enum Load {
    /// Constant-rate Poisson arrivals at `rate` tuples/s.
    Constant { rate: f64 },
    /// A self-similar ON/OFF aggregate scaled to `mean` tuples/s.
    OnOff { mean: f64 },
}

#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    load: Load,
    horizon: f64,
    /// Per-tuple cost of each chain operator (three operators over two
    /// nodes; sized so the busiest node stays clearly under capacity).
    op_cost: f64,
    /// Included in `--quick` runs (must stay a subset of the full grid
    /// with identical parameters so `--check` can match cells by name).
    quick: bool,
}

const GRID: &[Cell] = &[
    Cell {
        name: "chain_100k",
        load: Load::Constant { rate: 1e5 },
        horizon: 5.0,
        op_cost: 2e-6,
        quick: true,
    },
    // The acceptance cell: ≥ 1M tuples/s (floor in `FLOORS`).
    Cell {
        name: "chain_1m",
        load: Load::Constant { rate: 1e6 },
        horizon: 4.0,
        op_cost: 2e-7,
        quick: true,
    },
    // Bursty self-similar ON/OFF aggregate at 500k mean tuples/s: the
    // §7.3 trace-driven regime, where batches form unevenly.
    Cell {
        name: "onoff_500k",
        load: Load::OnOff { mean: 5e5 },
        horizon: 10.0,
        op_cost: 4e-7,
        quick: false,
    },
];

#[derive(Serialize)]
struct CellResult {
    name: String,
    /// Mean source rate (tuples/s) of the cell's workload.
    rate: f64,
    horizon_seconds: f64,
    /// Source tuples generated within the horizon (identical in both
    /// modes by construction).
    tuples: u64,
    reference_seconds: f64,
    batched_seconds: f64,
    reference_tuples_per_sec: f64,
    batched_tuples_per_sec: f64,
    /// The headline machine-relative ratio: batched over reference.
    batch_speedup: f64,
    max_batch: usize,
    bucket_seconds: f64,
}

/// Three-map chain spread over two nodes — the hot path is the event
/// engine, not operator logic, which is exactly what this bench times.
fn chain(op_cost: f64) -> (QueryGraph, Cluster, Allocation) {
    let mut b = GraphBuilder::new();
    let mut up = b.add_input();
    for j in 0..3 {
        let (_, s) = b
            .add_operator(format!("m{j}"), OperatorKind::map(op_cost), &[up])
            .unwrap();
        up = s;
    }
    let graph = b.build().unwrap();
    let cluster = Cluster::homogeneous(2, 1.0);
    let mut alloc = Allocation::new(3, 2);
    for j in 0..3 {
        alloc.assign(OperatorId(j), NodeId(j % 2));
    }
    (graph, cluster, alloc)
}

fn source(load: Load, horizon: f64) -> SourceSpec {
    match load {
        Load::Constant { rate } => SourceSpec::ConstantRate(rate),
        Load::OnOff { mean } => {
            let bins = horizon.ceil() as usize + 1;
            let trace = OnOffAggregate {
                sources: 6,
                alpha: 1.2,
                min_period: 4.0,
                on_rate: 1.0,
                bins,
                dt: 1.0,
            }
            .generate(11)
            .with_mean(mean);
            SourceSpec::TraceDriven(trace)
        }
    }
}

fn run_once(cell: &Cell, batch: Option<BatchConfig>) -> (SimReport, f64) {
    let (graph, cluster, alloc) = chain(cell.op_cost);
    let sim = Simulation::new(
        &graph,
        &alloc,
        &cluster,
        vec![source(cell.load, cell.horizon)],
        SimulationConfig {
            horizon: cell.horizon,
            warmup: 0.5,
            seed: SEED,
            max_queue: 100_000_000,
            batch,
            ..SimulationConfig::default()
        },
    );
    let t = Instant::now();
    let report = sim.run();
    (report, t.elapsed().as_secs_f64())
}

fn run_cell(cell: &Cell, repeats: usize) -> CellResult {
    let batch = BatchConfig::default();
    let mut ref_times = Vec::with_capacity(repeats);
    let mut bat_times = Vec::with_capacity(repeats);
    let mut tuples = 0u64;
    for _ in 0..repeats {
        let (ref_report, ref_s) = run_once(cell, None);
        let (bat_report, bat_s) = run_once(cell, Some(batch));
        // The perf numbers must come from runs doing the same work.
        assert_eq!(
            ref_report.tuples_in, bat_report.tuples_in,
            "{}: the two modes disagree on the arrival count",
            cell.name
        );
        assert!(!ref_report.saturated && !bat_report.saturated);
        let diff = ref_report.tuples_out.abs_diff(bat_report.tuples_out);
        assert!(
            (diff as f64) < 0.02 * ref_report.tuples_out as f64 + 2.0 * batch.max_batch as f64,
            "{}: tuples_out diverged ({} vs {})",
            cell.name,
            ref_report.tuples_out,
            bat_report.tuples_out
        );
        tuples = ref_report.tuples_in;
        ref_times.push(ref_s);
        bat_times.push(bat_s);
    }
    let ref_s = median(&mut ref_times).expect("at least one repeat");
    let bat_s = median(&mut bat_times).expect("at least one repeat");
    let rate = match cell.load {
        Load::Constant { rate } => rate,
        Load::OnOff { mean } => mean,
    };
    CellResult {
        name: cell.name.to_string(),
        rate,
        horizon_seconds: cell.horizon,
        tuples,
        reference_seconds: ref_s,
        batched_seconds: bat_s,
        reference_tuples_per_sec: tuples as f64 / ref_s,
        batched_tuples_per_sec: tuples as f64 / bat_s,
        batch_speedup: ref_s / bat_s,
        max_batch: batch.max_batch,
        bucket_seconds: batch.bucket,
    }
}

fn main() {
    let args = Args::parse("BENCH_sim.json");
    let repeats = if args.quick { 3 } else { 5 };
    let grid: Vec<CellResult> = GRID
        .iter()
        .filter(|c| !args.quick || c.quick)
        .map(|cell| {
            eprintln!("[perf_sim] {} ...", cell.name);
            run_cell(cell, repeats)
        })
        .collect();

    let mega = |x: f64| format!("{:.2}M", x / 1e6);
    let rows: Vec<Vec<(&str, String)>> = grid
        .iter()
        .map(|c| {
            vec![
                ("cell", c.name.clone()),
                ("rate", format!("{:.0}k", c.rate / 1e3)),
                ("tuples", c.tuples.to_string()),
                ("ref s", format!("{:.3}", c.reference_seconds)),
                ("batch s", format!("{:.3}", c.batched_seconds)),
                ("ref tps", mega(c.reference_tuples_per_sec)),
                ("batch tps", mega(c.batched_tuples_per_sec)),
                ("speedup", format!("{:.1}x", c.batch_speedup)),
            ]
        })
        .collect();
    let file = perf::envelope(
        SCHEMA_VERSION,
        &Provenance::capture(),
        args.quick,
        repeats,
        &[("seed", SEED)],
        &grid,
    );
    perf::finish(
        &args,
        &file,
        "simulator perf trajectory (medians)",
        &rows,
        &["batch_speedup"],
        FLOORS,
    );
}
