//! Recorded verdict digests: the reference each run checks its operations
//! against.
//!
//! `verdicts.txt` has one line per group of operations,
//! `<workload> <key> <digest>`, recorded from one-thread in-process runs:
//!
//! - `table3 <matrix seed>`: the digest of the matrix's cell digests (one
//!   operation per cell);
//! - `steady <campaign seed>`: the campaign's verdict digest (one
//!   operation);
//! - `served <workload seed>`: the digest of a pass's job digests, in job
//!   order (one operation per job).
//!
//! The file covers workload seeds `0..RECORDED_SEEDS`; for other seeds a
//! run computes the same reference itself, on one thread.  When a group's
//! digest differs from its reference, every operation in the group counts
//! as failed.  After a change that is meant to change verdicts, regenerate
//! the file with
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored record_verdicts
//! ```

use crate::report::{digest, Outcome};
use crate::sys::par_map;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Workload seeds `0..RECORDED_SEEDS` have recorded references.
pub const RECORDED_SEEDS: u64 = 64;

const FILE: &str = include_str!("../verdicts.txt");

/// One digest over a group's operation digests, in order.
pub fn combine(digests: &[u64]) -> u64 {
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    digest(&hex.join(","))
}

fn parse(text: &str) -> Result<BTreeMap<(String, u64), u64>, String> {
    let mut map = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("verdicts.txt line {}: `{line}`", n + 1);
        let mut fields = line.split(' ');
        let (Some(workload), Some(key), Some(hex), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(bad());
        };
        let key = key.parse().map_err(|_| bad())?;
        let value = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
        if map.insert((workload.to_string(), key), value).is_some() {
            return Err(bad());
        }
    }
    Ok(map)
}

/// The recorded digest of `workload`'s group `key`, if any.
pub fn recorded(workload: &str, key: u64) -> Option<u64> {
    static MAP: OnceLock<BTreeMap<(String, u64), u64>> = OnceLock::new();
    MAP.get_or_init(|| parse(FILE).expect("verdicts.txt parses (unit-tested)"))
        .get(&(workload.to_string(), key))
        .copied()
}

/// The reference digest of each group in `keys`: the recorded one, or
/// else `compute(key)`, on `threads` threads.  Notes where they came from.
///
/// # Errors
/// Propagates the first failed computation.
pub fn references(
    out: &mut Outcome,
    workload: &str,
    keys: &[u64],
    threads: usize,
    compute: impl Fn(u64) -> Result<u64, String> + Sync,
) -> Result<Vec<u64>, String> {
    let found = keys
        .iter()
        .filter(|&&k| recorded(workload, k).is_some())
        .count();
    out.note(format!(
        "verdict reference: {found} of {} groups recorded in verdicts.txt (workload seeds \
         0..{RECORDED_SEEDS}), the rest computed on one thread in this run",
        keys.len()
    ));
    par_map(keys, threads, |&k| {
        recorded(workload, k).map_or_else(|| compute(k), Ok)
    })
    .into_iter()
    .collect()
}

/// Check a group of `ops` operations against its reference digest.
pub fn check(out: &mut Outcome, group: &str, ops: u64, got: u64, want: u64) {
    out.attempted += ops;
    if got != want {
        out.fail_ops(
            ops,
            format!("{group}: verdicts differ from the reference ({ops} operations)"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{served, steady, table3};
    use std::collections::BTreeSet;
    use std::fmt::Write as _;

    #[test]
    fn the_recorded_file_covers_every_recorded_seed() {
        let map = parse(FILE).unwrap();
        for seed in 0..RECORDED_SEEDS {
            for k in table3::matrix_seeds(seed) {
                assert!(map.contains_key(&("table3".into(), k)), "table3 {k}");
            }
            for k in steady::campaign_seeds(seed) {
                assert!(map.contains_key(&("steady".into(), k)), "steady {k}");
            }
            assert!(map.contains_key(&("served".into(), seed)), "served {seed}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse("# comment\n\ntable3 30 00ff\n").is_ok());
        assert!(parse("table3 30\n").is_err());
        assert!(parse("table3 30 00ff extra\n").is_err());
        assert!(parse("table3 x 00ff\n").is_err());
        assert!(parse("table3 30 zz\n").is_err());
        assert!(parse("table3 30 1\ntable3 30 2\n").is_err());
    }

    #[test]
    fn a_differing_group_fails_all_its_operations() {
        let mut out = Outcome::default();
        check(&mut out, "g", 32, combine(&[1, 2]), combine(&[1, 2]));
        check(&mut out, "h", 32, combine(&[1, 2]), combine(&[2, 1]));
        assert_eq!((out.attempted, out.failed), (64, 32));
    }

    /// Regenerates `verdicts.txt`.  Minutes of work: run it on purpose.
    #[test]
    #[ignore = "recomputes every recorded verdict; run to regenerate verdicts.txt"]
    fn record_verdicts() {
        let mut text = String::from(
            "# Recorded verdict digests (see src/verdicts.rs).  Regenerate with\n\
             # cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored record_verdicts\n",
        );
        type Reference = fn(u64) -> Result<u64, String>;
        let seeds: Vec<u64> = (0..RECORDED_SEEDS).collect();
        let matrix_seeds: BTreeSet<u64> = seeds
            .iter()
            .flat_map(|&s| table3::matrix_seeds(s))
            .collect();
        let campaign_seeds: BTreeSet<u64> = seeds
            .iter()
            .flat_map(|&s| steady::campaign_seeds(s))
            .collect();
        for (workload, keys, compute) in [
            ("table3", matrix_seeds, table3::reference as Reference),
            ("steady", campaign_seeds, steady::reference),
        ] {
            let keys: Vec<u64> = keys.into_iter().collect();
            for (k, d) in keys.iter().zip(par_map(&keys, 2, |&k| compute(k))) {
                writeln!(text, "{workload} {k} {:016x}", d.unwrap()).unwrap();
            }
        }
        // Each served reference already runs its jobs on two threads.
        for &s in &seeds {
            writeln!(text, "served {s} {:016x}", served::reference(s).unwrap()).unwrap();
        }
        std::fs::write(concat!(env!("CARGO_MANIFEST_DIR"), "/verdicts.txt"), text).unwrap();
    }
}
