//! The Revizor benchmark: end-to-end metrics per workload, and a separate
//! traced run for the per-layer split.  See `README.md` for the workloads,
//! the metric definitions and the layer map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table3|steady|served|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod cli;
mod layers;
mod replay;
mod report;
mod served;
mod stats;
mod steady;
mod sys;
mod table3;
mod trace;
mod verdicts;

use cli::{Args, Workload};
use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

/// Largest share of a pass's CPU time the hypervisor may steal before the
/// pass is repeated (see [`run_passes`]).
const STEAL_LIMIT: f64 = 0.1;

/// The measured passes of a run.
pub(crate) struct Passes<P> {
    /// The kept passes, in the order they ran.
    pub kept: Vec<P>,
    /// Share of each kept pass's CPU time the hypervisor stole.
    pub steal: Vec<f64>,
    /// Passes run but not kept, because more was stolen from them.
    pub repeated: usize,
    /// Peak memory after the first pass, in MiB.
    pub peak_rss_mb: f64,
}

impl<P> Passes<P> {
    /// Report the steal of the kept passes and how many were repeated.
    pub fn steal_line(&self, out: &mut Outcome) {
        let what = format!(
            " kept passes; {} repeated above {STEAL_LIMIT} steal",
            self.repeated
        );
        out.median_line("host steal", &self.steal, "share", &what);
    }
}

/// Run as many whole passes as fit in `seconds` at `nominal_pass_s` each,
/// at least one.  The count depends on the arguments only, so every run
/// of a workload measures the same amount of work.
///
/// Times are never rescaled.  A pass from which the hypervisor stole more
/// than [`STEAL_LIMIT`] of the VM's CPU time is repeated, up to half as
/// many extra passes as the count, and the run keeps the `count` passes
/// with the least steal.  Peak memory is read after the first pass: later
/// passes repeat the same work and would only add allocator fragmentation.
///
/// # Errors
/// Propagates the first failed pass, or unreadable peak memory or steal.
pub(crate) fn run_passes<P>(
    seconds: u64,
    nominal_pass_s: f64,
    mut pass: impl FnMut() -> Result<P, String>,
) -> Result<Passes<P>, String> {
    let count = ((seconds as f64 / nominal_pass_s).round() as usize).max(1);
    let mut timed = || -> Result<(P, f64), String> {
        let start = sys::Stamp::now()?;
        let p = pass()?;
        let steal = sys::Stamp::now()?.steal_since(&start);
        Ok((p, steal))
    };
    let mut runs = vec![timed()?];
    let peak_rss_mb = sys::peak_rss_mb()?;
    let clean = |runs: &[(P, f64)]| runs.iter().filter(|r| r.1 <= STEAL_LIMIT).count();
    let most = count + count.div_ceil(2);
    while runs.len() < count || (clean(&runs) < count && runs.len() < most) {
        runs.push(timed()?);
    }
    let steal: Vec<f64> = runs.iter().map(|r| r.1).collect();
    let keep = least_disturbed(&steal, count);
    let repeated = runs.len() - count;
    let (kept, steal): (Vec<P>, Vec<f64>) = runs
        .into_iter()
        .zip(keep)
        .filter_map(|(run, k)| k.then_some(run))
        .unzip();
    Ok(Passes {
        kept,
        steal,
        repeated,
        peak_rss_mb,
    })
}

/// Which of the passes to keep: the `count` with the least steal (the
/// earlier pass on a tie).
fn least_disturbed(steal: &[f64], count: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let mut keep = vec![false; steal.len()];
    for &i in order.iter().take(count) {
        keep[i] = true;
    }
    keep
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload, args.trace) {
        (Workload::Table3, false) => table3::run(args.seed, args.seconds),
        (Workload::Table3, true) => table3::trace(args.seed),
        (Workload::Steady, false) => steady::run(args.seed, args.seconds),
        (Workload::Steady, true) => steady::trace(args.seed),
        (Workload::Served, false) => served::run(args.seed, args.seconds),
        (Workload::Served, true) => served::trace(args.seed),
        (Workload::All, _) => unreachable!("`all` runs each workload in a child process"),
    }
}

/// Run every workload in its own process (so each reports its own peak
/// memory) and wait for each.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::SINGLE {
        println!("== {w} ==");
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: workload {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.workload == Workload::All {
        return run_all(&args);
    }
    let outcome = run(&args);
    // Every run removes its own scratch directories; the root goes once
    // it is empty.
    let _ = std::fs::remove_dir(sys::scratch_root());
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let line = match outcome.result_line(declared) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mode = if args.trace {
        "traced, per layer"
    } else {
        "end to end"
    };
    println!(
        "{} (seed {}, {mode}): {} operations, {} failed",
        args.workload, args.seed, outcome.attempted, outcome.failed
    );
    for l in &outcome.lines {
        println!("{l}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::least_disturbed;

    #[test]
    fn the_least_disturbed_passes_are_kept_in_order() {
        assert_eq!(
            least_disturbed(&[0.01, 0.2, 0.0, 0.07, 0.01], 3),
            [true, false, true, false, true]
        );
        assert_eq!(least_disturbed(&[0.3, 0.3], 1), [true, false]);
        assert_eq!(least_disturbed(&[0.3], 1), [true]);
    }
}
