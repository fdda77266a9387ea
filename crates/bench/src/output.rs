//! Console tables and JSON result files.

use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (cell, w) in cells.iter().zip(&widths) {
            out.push_str(&format!("{cell:>w$}  ", w = w));
        }
        println!("{}", out.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// The repository root.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Directory where experiment binaries drop machine-readable results.
pub fn results_dir() -> PathBuf {
    let dir = repo_root().join("results");
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Serialises a result payload to `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, payload: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(payload).expect("serialisable payload");
    fs::write(&path, json).expect("write results file");
    println!("[results written to {}]", path.display());
}

/// Value of a `--flag VALUE`-style argument on the command line.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
}

/// Honours the experiment binaries' shared `--metrics-out FILE` flag:
/// when present, freezes `metrics` and writes the snapshot as pretty
/// JSON to FILE. Without the flag this is a no-op, so every `exp_*` bin
/// can call it unconditionally at exit.
pub fn write_metrics(metrics: &rod_core::obs::MetricsRegistry) {
    if let Some(path) = arg_value("--metrics-out") {
        let json = serde_json::to_string_pretty(&metrics.snapshot()).expect("snapshot serialises");
        fs::write(&path, json).expect("write metrics file");
        println!("[metrics written to {path}]");
    }
}

/// Shared lifecycle of the `exp_*`/`fig*` binaries: owns the metrics
/// registry and the experiment wall-clock, and centralises the
/// `--metrics-out FILE` contract so the flag cannot drift per-bin.
///
/// ```no_run
/// let exp = rod_bench::output::Experiment::start();
/// // ... run the experiment, passing `exp.metrics()` around ...
/// exp.finish(); // records `exp.total_seconds`, honours --metrics-out
/// ```
pub struct Experiment {
    metrics: rod_core::obs::MetricsRegistry,
    start: std::time::Instant,
}

impl Experiment {
    /// Starts the experiment clock with a fresh registry.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Self {
        Experiment {
            metrics: rod_core::obs::MetricsRegistry::new(),
            start: std::time::Instant::now(),
        }
    }

    /// The experiment's metrics registry.
    pub fn metrics(&self) -> &rod_core::obs::MetricsRegistry {
        &self.metrics
    }

    /// Records the total wall-clock as `exp.total_seconds` and writes the
    /// snapshot to the `--metrics-out` file when the flag is present.
    pub fn finish(self) {
        self.metrics
            .observe("exp.total_seconds", self.start.elapsed().as_secs_f64());
        write_metrics(&self.metrics);
    }
}

/// Formats a float with 4 significant decimals for tables.
pub fn fmt(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "test",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn fmt_handles_infinity() {
        assert_eq!(fmt(f64::INFINITY), "inf");
        assert_eq!(fmt(0.12344), "0.1234");
        assert_eq!(fmt(0.12346), "0.1235");
    }

    #[test]
    fn json_round_trip() {
        write_json("selftest", &vec![1, 2, 3]);
        let path = results_dir().join("selftest.json");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains('1'));
        std::fs::remove_file(path).unwrap();
    }
}
