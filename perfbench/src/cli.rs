//! Strict command-line parsing.
//!
//! Every flag takes a value, written either `--key value` or `--key=value`.
//! Unknown flags, repeated flags, missing values and malformed values are
//! errors — nothing is silently ignored or defaulted from a typo.

use std::fmt;

/// One of the benchmark's workloads (see the README for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `CampaignMatrix::table3` over the paper-tuned seed and three held-out seeds.
    Table3,
    /// `Revizor::run` on a compliant cell: §6.5 fuzzing speed.
    Steady,
    /// Closed-loop jobs through the TCP service front-end.
    Served,
    /// Every workload above, each in its own child process.
    All,
}

impl Workload {
    /// The workloads that run on their own (every one but `All`).
    pub const SINGLE: [Workload; 3] = [Workload::Table3, Workload::Steady, Workload::Served];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3 => "table3",
            Workload::Steady => "steady",
            Workload::Served => "served",
            Workload::All => "all",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        [
            Workload::Table3,
            Workload::Steady,
            Workload::Served,
            Workload::All,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the measured phase runs (whole passes; at least one).
    pub seconds: u64,
    /// Run the traced per-layer pass instead of the end-to-end measurement.
    pub trace: bool,
}

/// Longest accepted `--seconds`.
const MAX_SECONDS: u64 = 600;

/// The usage line printed with every parse error.
pub const USAGE: &str = "usage: perfbench --workload <table3|steady|served|all> \
                         [--seed <u64>] [--seconds <1..600>] [--trace <0|1>]";

/// Parse the arguments (without the program name).
///
/// # Errors
/// Returns a message naming the offending argument.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        let (key, value) = match flag.split_once('=') {
            Some((key, value)) => (key.to_string(), value.to_string()),
            None => {
                let value = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                (flag.to_string(), value)
            }
        };
        match key.as_str() {
            "workload" => {
                let w = Workload::from_name(&value)
                    .ok_or_else(|| format!("--workload: unknown workload `{value}`"))?;
                set_once(&mut workload, &key, w)?;
            }
            "seed" => set_once(&mut seed, &key, parse_u64(&key, &value)?)?,
            "seconds" => {
                let s = parse_u64(&key, &value)?;
                if !(1..=MAX_SECONDS).contains(&s) {
                    return Err(format!("--seconds must be in 1..={MAX_SECONDS}, got {s}"));
                }
                set_once(&mut seconds, &key, s)?;
            }
            "trace" => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                };
                set_once(&mut trace, &key, t)?;
            }
            _ => return Err(format!("unknown flag --{key}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn set_once<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("--{key} given twice"));
    }
    *slot = Some(value);
    Ok(())
}

/// Decimal digits only: `u64::from_str` would also take a leading `+`.
fn parse_u64(key: &str, value: &str) -> Result<u64, String> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("--{key}: `{value}` is not a non-negative integer"));
    }
    value
        .parse()
        .map_err(|_| format!("--{key}: `{value}` does not fit in 64 bits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn both_value_forms_are_accepted() {
        let spaced = args(&[
            "--workload",
            "steady",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        let joined = args(&["--workload=steady", "--seed=7", "--seconds=3", "--trace=1"]);
        let want = Args {
            workload: Workload::Steady,
            seed: 7,
            seconds: 3,
            trace: true,
        };
        assert_eq!(spaced, Ok(want.clone()));
        assert_eq!(joined, Ok(want));
    }

    #[test]
    fn defaults_apply_only_to_optional_flags() {
        assert_eq!(
            args(&["--workload", "table3"]),
            Ok(Args {
                workload: Workload::Table3,
                seed: 0,
                seconds: 10,
                trace: false
            })
        );
        assert!(args(&[]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }

    #[test]
    fn unknown_and_malformed_arguments_are_rejected() {
        for bad in [
            &["--workload", "table3", "--threads", "2"][..],
            &["--workload", "table4"],
            &["--workload", "table3", "--seed", "-1"],
            &["--workload", "table3", "--seed", "+1"],
            &["--workload", "table3", "--seed", "1.5"],
            &["--workload", "table3", "--seed="],
            &["--workload", "table3", "--seed", "18446744073709551616"],
            &["--workload", "table3", "--seconds", "0"],
            &["--workload", "table3", "--seconds", "601"],
            &["--workload", "table3", "--trace", "yes"],
            &["--workload", "table3", "--trace"],
            &["--workload", "table3", "7"],
            &["-w", "table3"],
            &["--workload", "table3", "--workload", "steady"],
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn a_flag_is_never_taken_as_the_previous_flags_value() {
        // `--seed --trace 1`: "--trace" is the seed's value and is malformed.
        assert!(args(&["--workload", "served", "--seed", "--trace", "1"]).is_err());
    }
}
