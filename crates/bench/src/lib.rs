//! # rvz-bench
//!
//! Benchmark and experiment-regeneration harness.
//!
//! Every table and figure of the paper's evaluation has a regeneration
//! target here (see `DESIGN.md` for the full index):
//!
//! | Paper artefact | Binary (`cargo run --release -p rvz-bench --bin <name>`) |
//! |---|---|
//! | Table 2 (experimental setups)          | `table2` |
//! | Table 3 (violations per target/contract) | `table3` |
//! | Table 4 (detection times)              | `table4` |
//! | Table 5 (inputs to violation, handwritten gadgets) | `table5` |
//! | §6.4 (speculative store eviction)      | `store_eviction` |
//! | §6.5 (fuzzing speed)                   | `fuzzing_speed_report` |
//! | §6.6 / Figure 6 (contract sensitivity) | `contract_sensitivity` |
//! | Figures 3 & 4 (generated / minimized test case) | `figures` |
//!
//! Criterion benches (`cargo bench -p rvz-bench`) measure the throughput of
//! the pipeline stages and the wall-clock detection time of the headline
//! vulnerabilities.
//!
//! The table binaries accept an optional budget argument (test cases per
//! cell / samples per row) so that quick smoke runs and longer, more
//! paper-like runs use the same code.

pub mod binfmt;
pub mod json;
pub mod report;
pub mod wire;

use json::Json;
use report::to_json;
use revizor::orchestrator::MatrixReport;
use std::time::Duration;

/// Parse the first positional numeric CLI argument as a budget, with a
/// default.  The table binaries take flags exclusively in `--name` /
/// `--name=value` form (see [`flag_value_from_args`]), so everything
/// starting with `--` is skipped — a flag's value can never be mistaken
/// for the budget.
pub fn budget_from_args(default: usize) -> usize {
    budget_from(std::env::args().skip(1), default)
}

/// Testable core of [`budget_from_args`].
fn budget_from(args: impl IntoIterator<Item = String>, default: usize) -> usize {
    args.into_iter()
        .filter(|arg| !arg.starts_with("--"))
        .find_map(|arg| arg.parse().ok())
        .unwrap_or(default)
}

/// Is a `--flag` present on the command line?
pub fn flag_from_args(flag: &str) -> bool {
    std::env::args().skip(1).any(|a| a == flag)
}

/// Exit with code 2 when the command line carries a flag that `help` does
/// not document, so a mistyped or removed flag fails loudly instead of
/// being ignored.  A flag is documented when an option line of the help
/// text (a line starting with `-`) names it, as in
/// `  --name=VALUE   description` or `  -h, --help   description`.
pub fn reject_undocumented_flags(program: &str, help: &str) {
    if let Some(flag) = undocumented_flag(std::env::args().skip(1), help) {
        eprintln!("{program}: unknown flag `{flag}` (see --help)");
        std::process::exit(2);
    }
}

/// Testable core of [`reject_undocumented_flags`]: the first argument
/// naming a flag the help text does not document.
fn undocumented_flag(args: impl IntoIterator<Item = String>, help: &str) -> Option<String> {
    let documented: Vec<&str> = help
        .lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with('-'))
        .flat_map(|line| line.split("  ").next().unwrap_or(line).split(", "))
        .map(|option| option.split(['=', ' ']).next().unwrap_or(option))
        .collect();
    args.into_iter()
        .filter(|arg| arg.starts_with('-'))
        .find(|arg| !documented.contains(&arg.split('=').next().unwrap_or(arg)))
}

/// The parsed value of a `--name=value` flag, if present.  Exits with code
/// 2 when the flag is present without a parseable `=value` (a bare
/// `--name`, or a value that does not parse), so `--threads 2` or
/// `--threads=x` fails loudly instead of running with the default.
pub fn flag_value_from_args<T: std::str::FromStr>(name: &str) -> Option<T> {
    flag_value(std::env::args().skip(1), name).unwrap_or_else(|message| {
        let program = std::env::args().next().unwrap_or_default();
        let program = program.rsplit('/').next().unwrap_or_default();
        eprintln!("{program}: {message}");
        std::process::exit(2);
    })
}

/// Testable core of [`flag_value_from_args`].
fn flag_value<T: std::str::FromStr>(
    args: impl IntoIterator<Item = String>,
    name: &str,
) -> Result<Option<T>, String> {
    for arg in args {
        if arg == name {
            return Err(format!("flag `{name}` needs a value: `{name}=VALUE`"));
        }
        if let Some(value) = arg.strip_prefix(name).and_then(|rest| rest.strip_prefix('=')) {
            return match value.parse() {
                Ok(parsed) => Ok(Some(parsed)),
                Err(_) => Err(format!("flag `{name}` has a malformed value `{value}`")),
            };
        }
    }
    Ok(None)
}

/// The machine-readable form of a matrix run (the `table3 --json` output):
/// one object per cell with `target`, `contract`, `found`, `vulnerability`,
/// `gadget_class`, `test_cases`, `statically_filtered`, `effectiveness`,
/// `duration_ms`, `seed`, `predictors` and `scenario` fields, plus the run
/// parameters and the generated / statically-filtered / measured totals.
/// `predictors` is `"default"` for the classic cells and the predictor
/// label (e.g. `"TAGE"`) for zoo cells; `scenario` is the pinned gadget
/// family or null.
/// A cell's `duration_ms` is its group's attributed evaluation time
/// ([`CellReport::detection_time`](revizor::CellReport)) — comparable to an
/// independent per-cell campaign's duration; the top-level `duration_ms` is
/// the matrix's wall clock.
pub fn matrix_report_json(report: &MatrixReport, budget: usize) -> Json {
    let cells: Vec<Json> = report
        .cells
        .iter()
        .map(|cell| {
            Json::obj()
                .field("target", cell.target.id)
                .field("contract", cell.contract.name())
                .field("found", cell.found())
                .field("vulnerability", cell.vulnerability().map(|v| v.to_string()))
                .field(
                    "gadget_class",
                    cell.violation.as_ref().and_then(|v| v.gadget.map(|g| g.label())),
                )
                .field("test_cases", cell.test_cases)
                .field("statically_filtered", cell.filtered)
                .field("effectiveness", to_json(&cell.effectiveness))
                .field("duration_ms", cell.detection_time.as_secs_f64() * 1000.0)
                .field("seed", report.seed)
                .field(
                    "predictors",
                    match cell.target.cpu_config.predictors.label() {
                        l if l.is_empty() => "default".to_string(),
                        l => l,
                    },
                )
                .field("scenario", cell.target.scenario.as_ref().map(|s| s.label()))
        })
        .collect();
    Json::obj()
        .field("budget", budget)
        .field("seed", report.seed)
        .field("measured_test_cases", report.test_cases)
        .field("generated_test_cases", report.generated)
        .field("statically_filtered", report.statically_filtered)
        .field("duration_ms", report.duration.as_secs_f64() * 1000.0)
        .field("cells", Json::Arr(cells))
}

/// Render a duration as the paper does (`4m 51s` / `5.3s`).
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        format!("{}m {:02.0}s", (secs / 60.0) as u64, secs % 60.0)
    } else if secs >= 1.0 {
        format!("{secs:.1}s")
    } else {
        format!("{:.0}ms", secs * 1000.0)
    }
}

/// Render a table row with fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}"))
        .collect::<Vec<_>>()
        .join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(250)), "250ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(5.25)), "5.2s");
        assert_eq!(fmt_duration(Duration::from_secs(300)), "5m 00s");
    }

    #[test]
    fn row_formatting() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "a   | bb  ");
    }

    #[test]
    fn value_flags_need_a_parseable_value() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let threads = |list: &[&str]| flag_value::<usize>(args(list), "--threads");
        assert_eq!(threads(&["60", "--threads=2"]), Ok(Some(2)));
        assert_eq!(threads(&["60", "--json"]), Ok(None));
        // Another flag sharing the prefix is not this one.
        assert_eq!(threads(&["--threadsx=2"]), Ok(None));
        // A bare flag, e.g. `--threads 2` with the value as its own word.
        let bare = threads(&["--threads", "2"]).unwrap_err();
        assert!(bare.contains("`--threads` needs a value"), "{bare}");
        let malformed = threads(&["--threads=x"]).unwrap_err();
        assert!(malformed.contains("malformed value `x`"), "{malformed}");
        assert!(threads(&["--threads="]).is_err());
    }

    #[test]
    fn only_flags_named_on_help_option_lines_are_accepted() {
        let help = "tool: does things\n\nusage: tool [options]\n\n  \
                    --addr=HOST:PORT   listen address, unlike --hidden\n  \
                    --coordinator      fleet mode\n  \
                    -h, --help         this text\n";
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let first_unknown = |list: &[&str]| undocumented_flag(args(list), help);
        assert_eq!(first_unknown(&["--addr=127.0.0.1:0", "--coordinator", "-h", "--help"]), None);
        assert_eq!(first_unknown(&["--addr=x", "--bogus=1"]), Some("--bogus=1".to_string()));
        // Named in a description, not on an option line: still unknown.
        assert_eq!(first_unknown(&["--hidden"]), Some("--hidden".to_string()));
        // A bare name or a prefix of a documented flag is no match.
        assert_eq!(first_unknown(&["--add=x"]), Some("--add=x".to_string()));
        assert_eq!(first_unknown(&["positional"]), None);
    }

    #[test]
    fn default_budget_used_without_args() {
        assert_eq!(budget_from_args(42), 42);
    }

    #[test]
    fn budget_parsing_skips_flags() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(budget_from(args(&["120"]), 42), 120);
        assert_eq!(budget_from(args(&["--json", "120"]), 42), 120);
        assert_eq!(budget_from(args(&["120", "--json"]), 42), 120);
        // A flag's value (`--name=value` form) is never read as the budget.
        assert_eq!(budget_from(args(&["--threads=4"]), 42), 42);
        assert_eq!(budget_from(args(&["--json", "--threads=4"]), 42), 42);
        assert_eq!(budget_from(args(&["--threads=4", "120"]), 42), 120);
        assert_eq!(budget_from(args(&["garbage"]), 42), 42);
    }
}
