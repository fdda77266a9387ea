//! **Control-plane ingestion trajectory** — times line-at-a-time
//! `UtilSample` ingestion against the batched zero-copy fast path
//! (`rod_sim::replay::scan` + `TelemetryIngest::ingest_batch`) at
//! production telemetry volumes and records the repo's persistent
//! control-plane perf baseline.
//!
//! The `ingest_*` cells time the telemetry layer alone: the oracle reads
//! the stream with `BufRead::lines` and calls
//! `TelemetryIngest::ingest_line` per line (exactly what
//! `ControlLoop::replay` does); the fast path scans the same bytes with
//! the zero-copy `LineScanner`, probes strict-form samples into a reused
//! `SampleBatch`, and commits them through `ingest_batch`. The `loop_*`
//! cells time the whole daemon — `ControlLoop::replay` vs
//! `ControlLoop::replay_batched` — so the headline ratio survives
//! contact with drift detection and decision logging: `loop_200k` on the
//! paper's Figure 4 graph, `loop_m5k_n64` and `loop_m50k_n1000` on sparse
//! graphs at the planner's scale, where every sample's headroom is read
//! from the running plan's cached node-load rows.
//!
//! Every repetition cross-checks the paths: accepted/rejected counts,
//! the final estimate (to the bit), and — on the loop cell — the full
//! decision log must match, so the perf numbers can never come from a
//! path that dropped or mangled telemetry.
//!
//! Results go to `BENCH_ctrl.json` at the repo root (schema in
//! `docs/benchmarks.md`). Flags and gates are the shared ones of
//! [`rod_bench::perf`]: `--quick`, `--out FILE`, and `--check FILE`,
//! which fails on a >2× `ingest_speedup` regression or on a cell under
//! its hard floor (the ≥5× acceptance bar on the 1M-samples/s cell, and
//! ≥5 000 samples/s through the whole loop at m = 50k, n = 1000).

use std::io::BufRead;
use std::time::Instant;

use serde::Serialize;

use rod_bench::perf::{self, median, Args, Provenance};
use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::examples_paper::figure4_graph;
use rod_core::load_model::LoadModel;
use rod_core::rod::RodPlanner;
use rod_core::{PlanEvaluator, QueryGraph};
use rod_ctrl::{ControlConfig, ControlLoop, SampleBatch, TelemetryConfig, TelemetryIngest};
use rod_sim::replay::scan::{probe_util_sample, LineScanner, UtilScratch};
use rod_workloads::sparse_graphs::SparseGraphGenerator;

/// Schema version of `BENCH_ctrl.json`; bump on breaking layout changes.
const SCHEMA_VERSION: u32 = 1;

/// Stream-generation seed — fixed so the trajectory tracks code.
const SEED: u64 = 42;

/// Hard floors under `--check`, as `(cell, column, floor)`: the
/// acceptance cell's fast path must stay ≥ 5× line-at-a-time, and the
/// whole loop must keep up with 5 000 samples/s at m = 50k, n = 1000.
const FLOORS: &[(&str, &str, f64)] = &[
    ("ingest_1m", "ingest_speedup", 5.0),
    ("loop_m50k_n1000", "batched_samples_per_sec", 5000.0),
];

/// Batch size of the fast path under test (`rodd`'s default).
const MAX_BATCH: usize = 256;

#[derive(Clone, Copy)]
enum Kind {
    /// Telemetry layer alone: `ingest_line` vs scanner + `ingest_batch`.
    Ingest,
    /// Whole daemon on this graph: `replay` vs `replay_batched`.
    Loop(Graph),
}

/// The query graph and cluster a `Loop` cell's daemon controls.
#[derive(Clone, Copy)]
enum Graph {
    /// The paper's Figure 4 graph (2 inputs) on 2 nodes.
    Figure4,
    /// `SparseGraphGenerator::sized(inputs, operators)` on `nodes` nodes.
    Sparse {
        inputs: usize,
        operators: usize,
        nodes: usize,
    },
}

#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    kind: Kind,
    /// Telemetry lines in the generated stream.
    lines: usize,
    /// Included in `--quick` runs (identical parameters so `--check`
    /// can match cells by name).
    quick: bool,
}

const GRID: &[Cell] = &[
    Cell {
        name: "ingest_100k",
        kind: Kind::Ingest,
        lines: 100_000,
        quick: true,
    },
    // The acceptance cell: one simulated second of a 1M-samples/s
    // telemetry firehose (floor in `FLOORS`).
    Cell {
        name: "ingest_1m",
        kind: Kind::Ingest,
        lines: 1_000_000,
        quick: true,
    },
    // Full control loop on the paper's Figure 4 graph: parsing competes
    // with drift detection, headroom evaluation, and decision logging.
    Cell {
        name: "loop_200k",
        kind: Kind::Loop(Graph::Figure4),
        lines: 200_000,
        quick: false,
    },
    // Calm monitoring at the scale of `rodd`'s surge benchmark: the
    // per-sample headroom must not grow with the 5 000 operators.
    Cell {
        name: "loop_m5k_n64",
        kind: Kind::Loop(Graph::Sparse {
            inputs: 64,
            operators: 5_000,
            nodes: 64,
        }),
        lines: 20_000,
        quick: true,
    },
    // Calm monitoring at the planner's claimed scale (floor in `FLOORS`).
    Cell {
        name: "loop_m50k_n1000",
        kind: Kind::Loop(Graph::Sparse {
            inputs: 200,
            operators: 50_000,
            nodes: 1000,
        }),
        lines: 10_000,
        quick: false,
    },
];

#[derive(Serialize)]
struct CellResult {
    name: String,
    /// Telemetry lines in the stream (a handful are deliberately
    /// malformed to keep the fallback path honest).
    lines: u64,
    stream_bytes: u64,
    line_seconds: f64,
    batched_seconds: f64,
    line_samples_per_sec: f64,
    batched_samples_per_sec: f64,
    /// The headline machine-relative ratio: batched over line-at-a-time.
    ingest_speedup: f64,
    max_batch: usize,
}

/// A production-volume telemetry stream: strict-form `UtilSample` lines
/// at 1 µs spacing with rates wandering deterministically around a calm
/// operating point, one malformed line per 10k to keep the fallback
/// path exercised. Shapes match the loop cell's Figure 4 graph
/// (2 inputs) on a small cluster.
fn make_stream(lines: usize) -> String {
    let mut out = String::with_capacity(lines * 130);
    let mut lcg = SEED | 1;
    for i in 0..lines {
        if i % 10_000 == 9_999 {
            out.push_str("{corrupt telemetry line\n");
            continue;
        }
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Two rates in roughly [0.04, 0.06) — calm for Figure 4, so the
        // loop cell measures steady-state monitoring, not replan storms.
        let r0 = 0.04 + (lcg >> 40) as f64 / (1u64 << 24) as f64 * 0.02;
        let r1 = 0.04 + ((lcg >> 16) & 0xffffff) as f64 / (1u64 << 24) as f64 * 0.02;
        let u0 = 0.3 + (lcg & 0xffff) as f64 / 65536.0 * 0.4;
        let time = (i + 1) as f64 * 1e-6;
        out.push_str(&format!(
            "{{\"UtilSample\":{{\"time\":{time},\"utilisations\":[{u0:.4},0.35],\
             \"queue_depths\":[0,0],\"queued\":0,\"rates\":[{r0},{r1}]}}}}\n"
        ));
    }
    out
}

/// A calm telemetry stream for a sparse cell: every rate wanders within
/// ±2% of `calm`, every node reports a utilisation, and one line per
/// 10k is malformed, as in [`make_stream`].
fn make_sparse_stream(lines: usize, calm: &[f64], nodes: usize) -> String {
    let mut out = String::new();
    let mut lcg = SEED | 1;
    let mut unit = || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..lines {
        if i % 10_000 == 9_999 {
            out.push_str("{corrupt telemetry line\n");
            continue;
        }
        let time = (i + 1) as f64 * 1e-6;
        let rates: Vec<String> = calm
            .iter()
            .map(|r| (r * (0.98 + 0.04 * unit())).to_string())
            .collect();
        let utilisations: Vec<String> = (0..nodes)
            .map(|_| format!("{:.4}", 0.3 + 0.2 * unit()))
            .collect();
        out.push_str(&format!(
            "{{\"UtilSample\":{{\"time\":{time},\"utilisations\":[{}],\
             \"queue_depths\":[{}],\"queued\":0,\"rates\":[{}]}}}}\n",
            utilisations.join(","),
            vec!["0"; nodes].join(","),
            rates.join(","),
        ));
    }
    out
}

/// What a `Loop` cell's daemons start from: the model, the cluster, the
/// ROD plan `rodd` bootstraps with, and the telemetry stream.
struct LoopSetup {
    model: LoadModel,
    cluster: Cluster,
    initial: Allocation,
    stream: String,
}

impl LoopSetup {
    /// Figure 4 runs the firehose of the ingest cells. A sparse graph
    /// runs calm rates with the plan's peak utilisation at 0.4: well
    /// clear of the drift trigger, so the cell times steady-state
    /// monitoring, not replans.
    fn new(graph: Graph, lines: usize) -> LoopSetup {
        let (query, nodes): (QueryGraph, usize) = match graph {
            Graph::Figure4 => (figure4_graph(), 2),
            Graph::Sparse {
                inputs,
                operators,
                nodes,
            } => (
                SparseGraphGenerator::sized(inputs, operators).generate(SEED),
                nodes,
            ),
        };
        let model = LoadModel::derive(&query).expect("generated graphs derive");
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let initial = RodPlanner::new()
            .place(&model, &cluster)
            .expect("ROD places every cell")
            .allocation;
        let stream = if let Graph::Figure4 = graph {
            make_stream(lines)
        } else {
            let shape: Vec<f64> = (0..model.num_inputs())
                .map(|k| 0.5 + (k % 7) as f64 / 7.0)
                .collect();
            let peak = PlanEvaluator::new(&model, &cluster)
                .utilisations_at(&initial, &shape)
                .as_slice()
                .iter()
                .fold(0.0f64, |a, &b| a.max(b));
            let calm: Vec<f64> = shape.iter().map(|r| r * 0.4 / peak).collect();
            make_sparse_stream(lines, &calm, nodes)
        };
        LoopSetup {
            model,
            cluster,
            initial,
            stream,
        }
    }

    fn control_loop(&self) -> ControlLoop {
        ControlLoop::new(
            self.model.clone(),
            self.cluster.clone(),
            self.initial.clone(),
            ControlConfig::default(),
        )
        .expect("valid loop setup")
    }
}

fn telemetry_config() -> TelemetryConfig {
    TelemetryConfig {
        num_inputs: 2,
        num_nodes: 2,
        window: 8,
        ewma_alpha: 0.3,
    }
}

/// The oracle: exactly `ControlLoop::replay`'s per-line work at the
/// telemetry layer (allocating `BufRead::lines`, full `parse_line`).
fn ingest_lines(bytes: &[u8]) -> (TelemetryIngest, f64) {
    let mut ingest = TelemetryIngest::new(telemetry_config());
    let t = Instant::now();
    for line in bytes.lines() {
        let line = line.expect("generated stream is valid UTF-8");
        if line.trim().is_empty() {
            continue;
        }
        ingest.ingest_line(&line);
    }
    (ingest, t.elapsed().as_secs_f64())
}

/// The fast path: zero-copy scan + strict-form probe + `ingest_batch`,
/// falling back to `ingest_line` outside the strict grammar — the same
/// split `ControlLoop::replay_batched` performs.
fn ingest_batched(bytes: &[u8]) -> (TelemetryIngest, f64) {
    let mut ingest = TelemetryIngest::new(telemetry_config());
    let mut scanner = LineScanner::new();
    let mut scratch = UtilScratch::default();
    let mut batch = SampleBatch::new();
    let t = Instant::now();
    let mut on_line = |ingest: &mut TelemetryIngest, batch: &mut SampleBatch, line: &[u8]| {
        if line.iter().all(|b| b.is_ascii_whitespace()) {
            return;
        }
        if probe_util_sample(line, &mut scratch) {
            batch.push(scratch.time, &scratch.utilisations, &scratch.rates);
            if batch.len() >= MAX_BATCH {
                ingest.ingest_batch(batch, |_, _| {});
                batch.clear();
            }
            return;
        }
        let text = std::str::from_utf8(line).expect("generated stream is valid UTF-8");
        if text.trim().is_empty() {
            return;
        }
        ingest.ingest_batch(batch, |_, _| {});
        batch.clear();
        ingest.ingest_line(text);
    };
    let mut sink = |line: &[u8]| -> Result<(), std::convert::Infallible> {
        on_line(&mut ingest, &mut batch, line);
        Ok(())
    };
    for chunk in bytes.chunks(64 * 1024) {
        scanner.feed(chunk, &mut sink).unwrap();
    }
    scanner.finish(sink).unwrap();
    ingest.ingest_batch(&batch, |_, _| {});
    (ingest, t.elapsed().as_secs_f64())
}

/// Both paths must land on the same accumulator, to the bit.
fn assert_ingest_equal(cell: &str, a: &TelemetryIngest, b: &TelemetryIngest) {
    assert_eq!(a.accepted(), b.accepted(), "{cell}: accepted diverged");
    assert_eq!(
        a.rejections(),
        b.rejections(),
        "{cell}: rejection counters diverged"
    );
    assert_eq!(a.last_time(), b.last_time(), "{cell}: last_time diverged");
    let (ea, eb) = (a.estimate(), b.estimate());
    let bits = |e: &Option<Vec<f64>>| {
        e.as_ref()
            .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
    };
    assert_eq!(bits(&ea), bits(&eb), "{cell}: estimate bits diverged");
}

fn run_cell(cell: &Cell, repeats: usize) -> CellResult {
    let setup = match cell.kind {
        Kind::Ingest => None,
        Kind::Loop(graph) => Some(LoopSetup::new(graph, cell.lines)),
    };
    let firehose;
    let bytes = match &setup {
        None => {
            firehose = make_stream(cell.lines);
            firehose.as_bytes()
        }
        Some(setup) => setup.stream.as_bytes(),
    };
    let mut line_times = Vec::with_capacity(repeats);
    let mut batch_times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        match cell.kind {
            Kind::Ingest => {
                let (oracle, line_s) = ingest_lines(bytes);
                let (fast, batch_s) = ingest_batched(bytes);
                assert_ingest_equal(cell.name, &oracle, &fast);
                line_times.push(line_s);
                batch_times.push(batch_s);
            }
            Kind::Loop(_) => {
                let setup = setup.as_ref().expect("loop cells have a setup");
                let mut oracle = setup.control_loop();
                let t = Instant::now();
                let s1 = oracle.replay(bytes).expect("valid UTF-8 stream");
                line_times.push(t.elapsed().as_secs_f64());
                let mut fast = setup.control_loop();
                let t = Instant::now();
                let s2 = fast
                    .replay_batched(bytes, MAX_BATCH)
                    .expect("valid UTF-8 stream");
                batch_times.push(t.elapsed().as_secs_f64());
                assert_eq!(
                    serde_json::to_string(&s1).unwrap(),
                    serde_json::to_string(&s2).unwrap(),
                    "{}: summaries diverged",
                    cell.name
                );
                assert_eq!(
                    oracle.decision_log_jsonl(),
                    fast.decision_log_jsonl(),
                    "{}: decision logs diverged",
                    cell.name
                );
                assert_eq!(
                    s1.replans_triggered, 0,
                    "{}: the stream is not calm",
                    cell.name
                );
            }
        }
    }
    let line_s = median(&mut line_times).expect("at least one repeat");
    let batch_s = median(&mut batch_times).expect("at least one repeat");
    CellResult {
        name: cell.name.to_string(),
        lines: cell.lines as u64,
        stream_bytes: bytes.len() as u64,
        line_seconds: line_s,
        batched_seconds: batch_s,
        line_samples_per_sec: cell.lines as f64 / line_s,
        batched_samples_per_sec: cell.lines as f64 / batch_s,
        ingest_speedup: line_s / batch_s,
        max_batch: MAX_BATCH,
    }
}

fn main() {
    let args = Args::parse("BENCH_ctrl.json");
    let repeats = if args.quick { 3 } else { 5 };
    let grid: Vec<CellResult> = GRID
        .iter()
        .filter(|c| !args.quick || c.quick)
        .map(|cell| {
            eprintln!("[perf_ctrl] {} ...", cell.name);
            run_cell(cell, repeats)
        })
        .collect();

    // Samples/s: millions on the ingest cells, thousands at cluster scale.
    let rate = |x: f64| {
        if x >= 1e6 {
            format!("{:.2}M", x / 1e6)
        } else {
            format!("{:.1}k", x / 1e3)
        }
    };
    let rows: Vec<Vec<(&str, String)>> = grid
        .iter()
        .map(|c| {
            vec![
                ("cell", c.name.clone()),
                ("lines", format!("{:.0}k", c.lines as f64 / 1e3)),
                ("bytes", format!("{:.1}M", c.stream_bytes as f64 / 1e6)),
                ("line s", format!("{:.3}", c.line_seconds)),
                ("batch s", format!("{:.3}", c.batched_seconds)),
                ("line sps", rate(c.line_samples_per_sec)),
                ("batch sps", rate(c.batched_samples_per_sec)),
                ("speedup", format!("{:.1}x", c.ingest_speedup)),
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
        "control-plane ingest trajectory (medians)",
        &rows,
        &["ingest_speedup"],
        FLOORS,
    );
}
