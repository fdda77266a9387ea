//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the benchmark and prints its metrics: a table,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed output check prints the reason on
//! stderr and exits with code 1 without a result. With `--trace 1` the
//! traced pass's spans are written to `.bench_trace/` in the current
//! directory.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::{metrics, Scale, WORKLOADS};

/// Coverage below this flags the run: too much of the traced pass's
/// time sits outside every layer's spans.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required ({})", WORKLOADS.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = perfbench::run(
        &args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
    );
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: check failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    if args.trace {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &result.spans))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        let coverage = result.metrics["trace.coverage"];
        if coverage < MIN_COVERAGE {
            eprintln!(
                "perfbench: {}: the layers' self times cover only {:.1}% of the traced wall time",
                args.workload,
                coverage * 100.0
            );
        }
    }

    let mut json = String::new();
    for (name, value) in &result.metrics {
        let unit = metrics::unit(name).expect("every reported metric is declared");
        println!("{name:<36} {value:>18.6} {unit}");
        let sep = if json.is_empty() { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        result.attempted, result.failed
    );
    ExitCode::SUCCESS
}
