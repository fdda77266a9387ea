//! Shared scaffolding of the `perf_*` trajectory bins.
//!
//! Each bin owns its grid, its `run_cell`, its cell struct and its table
//! columns. Everything else lives here as plain functions: the three
//! flags ([`Args`]), provenance ([`Provenance`]), [`median`], the file
//! envelope ([`envelope`]), the two gates `--check` applies — the 2×
//! ratio gate ([`ratio_regressions`]) and per-cell hard floors
//! ([`floor_regressions`]) — and the write / print / check tail
//! ([`finish`]).
//!
//! Bench files are handled as [`serde::Value`] trees: the current run is
//! serialised once and the baseline parsed once, so one checker serves
//! every schema. A leg that was not run is `null` and never compared.

use std::path::PathBuf;
use std::process::Command;

use serde::{Serialize, Value};

use crate::output::{arg_value, print_table, repo_root};

/// Largest tolerated `baseline / current` drop of a speedup column.
/// Speedups are same-machine ratios, so the gate holds on any runner;
/// the slack absorbs noisy neighbours.
pub const MAX_RATIO_DROP: f64 = 2.0;

/// The flags every perf bin takes.
pub struct Args {
    /// `--quick`: the CI subset of the grid with fewer repeats.
    pub quick: bool,
    /// `--out FILE`: where to write the bench file.
    pub out: PathBuf,
    /// `--check FILE`: the baseline to gate against.
    pub check: Option<PathBuf>,
}

impl Args {
    /// Parses the command line; `--out` defaults to `default_file` at
    /// the repo root.
    pub fn parse(default_file: &str) -> Args {
        Args {
            quick: std::env::args().any(|a| a == "--quick"),
            out: arg_value("--out")
                .map(PathBuf::from)
                .unwrap_or_else(|| repo_root().join(default_file)),
            check: arg_value("--check").map(PathBuf::from),
        }
    }
}

fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and when a bench file was recorded.
pub struct Provenance {
    /// Wall-clock seconds since the Unix epoch.
    pub created_unix: u64,
    /// `rustc --version`.
    pub rustc: String,
    /// Git `HEAD` of the checkout.
    pub commit: String,
    /// Logical cores of the recording machine.
    pub cores: usize,
}

impl Provenance {
    /// Captures the current machine and checkout.
    pub fn capture() -> Provenance {
        Provenance {
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            rustc: tool_line("rustc", &["--version"]),
            commit: tool_line(
                "git",
                &["-C", repo_root().to_str().unwrap(), "rev-parse", "HEAD"],
            ),
            cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }
}

/// Median of the samples; `None` when the leg was skipped and took none.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples.get(samples.len() / 2).copied()
}

/// The envelope every `BENCH_*.json` shares: schema version,
/// provenance, run shape, the bin's seeds in order, then the grid.
pub fn envelope(
    schema_version: u32,
    prov: &Provenance,
    quick: bool,
    repeats: usize,
    seeds: &[(&str, u64)],
    grid: &impl Serialize,
) -> Value {
    let mut pairs = vec![
        ("schema_version".to_string(), schema_version.to_value()),
        ("created_unix".to_string(), prov.created_unix.to_value()),
        ("rustc".to_string(), prov.rustc.to_value()),
        ("commit".to_string(), prov.commit.to_value()),
        ("cores".to_string(), prov.cores.to_value()),
        ("quick".to_string(), quick.to_value()),
        ("repeats".to_string(), repeats.to_value()),
    ];
    pairs.extend(seeds.iter().map(|(k, v)| (k.to_string(), v.to_value())));
    pairs.push(("grid".to_string(), grid.to_value()));
    Value::Object(pairs)
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

fn grid(doc: &Value) -> &[Value] {
    field(doc, "grid").and_then(Value::as_array).unwrap_or(&[])
}

fn cell<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    grid(doc)
        .iter()
        .find(|c| matches!(field(c, "name"), Some(Value::Str(n)) if n == name))
}

fn leg(cell: &Value, column: &str) -> Option<f64> {
    field(cell, column).and_then(number)
}

/// The ratio gate: matches `current`'s cells to `baseline`'s by name and
/// flags every speedup in `columns` that dropped by more than
/// [`MAX_RATIO_DROP`]. A leg that was not run (`null` or absent) on
/// either side is skipped. A baseline whose `schema_version` differs
/// from the current one is rejected.
pub fn ratio_regressions(
    current: &Value,
    baseline: &Value,
    columns: &[&str],
) -> Result<Vec<String>, String> {
    // A missing version reads as NaN, which matches nothing.
    let version = |doc| {
        field(doc, "schema_version")
            .and_then(number)
            .unwrap_or(f64::NAN)
    };
    let (cur_v, base_v) = (version(current), version(baseline));
    if cur_v != base_v {
        return Err(format!(
            "baseline schema version {base_v} is not supported (expected {cur_v})"
        ));
    }
    let mut bad = Vec::new();
    for cur in grid(current) {
        let Some(Value::Str(name)) = field(cur, "name") else {
            continue;
        };
        let Some(base) = cell(baseline, name) else {
            continue;
        };
        for &col in columns {
            let (Some(b), Some(c)) = (leg(base, col), leg(cur, col)) else {
                continue;
            };
            if b / c > MAX_RATIO_DROP {
                bad.push(format!("{name}: {col} {c:.2}x vs baseline {b:.2}x"));
            }
        }
    }
    Ok(bad)
}

/// The hard-floor gate: flags every `(cell, column, floor)` whose value
/// in `current` is under the floor. A cell the run did not include, or
/// a leg it did not run, is skipped.
pub fn floor_regressions(current: &Value, floors: &[(&str, &str, f64)]) -> Vec<String> {
    floors
        .iter()
        .filter_map(|&(name, col, floor)| {
            let value = leg(cell(current, name)?, col)?;
            (value < floor).then(|| format!("{name}: {col} {value:.2} under the floor of {floor}"))
        })
        .collect()
}

/// The tail every perf bin ends with: prints the table (one row per
/// cell of `(column, text)` pairs), writes `file` to `--out`, and under
/// `--check` applies the ratio gate over `ratio_columns` and the hard
/// `floors`, exiting 1 on any regression.
pub fn finish(
    args: &Args,
    file: &Value,
    title: &str,
    rows: &[Vec<(&str, String)>],
    ratio_columns: &[&str],
    floors: &[(&str, &str, f64)],
) {
    let header: Vec<&str> = rows
        .first()
        .map_or(vec![], |r| r.iter().map(|c| c.0).collect());
    let text: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.1.clone()).collect())
        .collect();
    print_table(title, &header, &text);
    let json = serde_json::to_string_pretty(file).expect("results serialise");
    std::fs::write(&args.out, json).expect("write bench file");
    println!("[bench written to {}]", args.out.display());

    let Some(path) = &args.check else {
        return;
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
    let baseline = serde_json::parse_value(&text).expect("baseline parses");
    let bad = match ratio_regressions(file, &baseline, ratio_columns) {
        Ok(ratios) => [ratios, floor_regressions(file, floors)].concat(),
        Err(e) => vec![e],
    };
    if bad.is_empty() {
        println!("[check] no >2x speedup regressions vs {}", path.display());
    } else {
        eprintln!("[check] PERF REGRESSION vs {}:", path.display());
        for line in &bad {
            eprintln!("  {line}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(version: u32, cells: &[(&str, Option<f64>)]) -> Value {
        let grid: Vec<Value> = cells
            .iter()
            .map(|(name, speedup)| {
                Value::Object(vec![
                    ("name".to_string(), name.to_value()),
                    ("speedup".to_string(), speedup.to_value()),
                ])
            })
            .collect();
        let prov = Provenance {
            created_unix: 0,
            rustc: String::new(),
            commit: String::new(),
            cores: 1,
        };
        envelope(version, &prov, true, 1, &[("seed", 42)], &grid)
    }

    fn check(current: &[(&str, Option<f64>)], baseline: &[(&str, Option<f64>)]) -> Vec<String> {
        ratio_regressions(&doc(1, current), &doc(1, baseline), &["speedup"]).unwrap()
    }

    #[test]
    fn a_drop_past_twice_is_flagged() {
        let bad = check(&[("a", Some(4.9)), ("b", Some(3.0))], &[("a", Some(10.0))]);
        assert_eq!(bad, ["a: speedup 4.90x vs baseline 10.00x"]);
    }

    #[test]
    fn a_drop_of_at_most_twice_passes() {
        assert!(check(&[("a", Some(5.0))], &[("a", Some(10.0))]).is_empty());
        assert!(check(&[("a", Some(20.0))], &[("a", Some(10.0))]).is_empty());
    }

    #[test]
    fn a_skipped_leg_on_either_side_is_ignored() {
        assert!(check(&[("a", None)], &[("a", Some(10.0))]).is_empty());
        assert!(check(&[("a", Some(1.0))], &[("a", None)]).is_empty());
        assert!(check(&[("a", Some(1.0))], &[("b", Some(10.0))]).is_empty());
    }

    #[test]
    fn a_cell_under_its_floor_is_flagged() {
        let run = doc(1, &[("a", Some(9.9)), ("b", Some(10.0)), ("c", None)]);
        let floors = [("a", "speedup", 10.0), ("b", "speedup", 10.0)];
        assert_eq!(
            floor_regressions(&run, &floors),
            ["a: speedup 9.90 under the floor of 10"]
        );
        // Cells the run did not include and legs it did not run are skipped.
        let absent = [("c", "speedup", 10.0), ("d", "speedup", 10.0)];
        assert!(floor_regressions(&run, &absent).is_empty());
    }

    #[test]
    fn an_unsupported_baseline_schema_is_rejected() {
        let cells = [("a", Some(1.0))];
        let err = ratio_regressions(&doc(6, &cells), &doc(5, &cells), &["speedup"]).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn median_is_none_for_a_skipped_leg() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
    }
}
