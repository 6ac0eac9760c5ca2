//! The metric catalogue, the result line and the human-readable report.
//!
//! The last line a run prints is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.  An end-to-end run carries every
//! metric of [`END_TO_END`]; a traced run every metric of [`PER_LAYER`].
//! Each metric is defined on every workload and measured there; the
//! README gives the definitions.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's declaration: name and unit.
pub type Decl = (&'static str, &'static str);

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[Decl] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("tc_per_s", "1/s"),
    ("paper_agree", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, named by module, from one traced run.
pub const PER_LAYER: &[Decl] = &[
    ("gen.program_ms", "ms"),
    ("gen.inputs_ms", "ms"),
    ("static.filter_ms", "ms"),
    ("static.filtered_share", "share"),
    ("isa.decode_ms", "ms"),
    ("model.collect_ms", "ms"),
    ("model.instr_per_s", "1/s"),
    ("model.spec_paths", "count"),
    ("executor.htrace_ms", "ms"),
    ("executor.runs_per_s", "1/s"),
    ("executor.collections", "count"),
    ("analyzer.check_ms", "ms"),
    ("analyzer.raw_violations", "count"),
    ("campaign.swap_share", "share"),
    ("campaign.swap_checks", "count"),
    ("campaign.nesting_share", "share"),
    ("campaign.nesting_checks", "count"),
    ("campaign.confirm_share", "share"),
    ("orchestrator.waves", "count"),
    ("orchestrator.wave_skew", "ratio"),
    ("orchestrator.pool_efficiency", "share"),
    ("fuzzer.rounds_per_s", "1/s"),
    ("fuzzer.escalations", "count"),
    ("service.compute_share", "share"),
    ("service.submit_share", "share"),
    ("service.first_event_share", "share"),
    ("service.done_gap_share", "share"),
    ("spool.bytes_per_job", "B"),
    ("codec.ckpt_bytes", "B"),
    ("codec.ckpt_encode_mb_per_s", "MB/s"),
    ("codec.ckpt_decode_mb_per_s", "MB/s"),
    ("codec.result_json_mb_per_s", "MB/s"),
    ("trace.coverage", "share"),
    ("trace.overhead", "ratio"),
];

/// Is `name` a valid metric name: 1-64 of `[A-Za-z0-9_.-]`, starting with
/// a letter or digit?
pub fn valid_name(name: &str) -> bool {
    let ok = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-');
    (1..=64).contains(&name.len())
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(ok)
}

/// Is `unit` a valid unit: 1-16 of `[A-Za-z0-9_/%.-]`?
pub fn valid_unit(unit: &str) -> bool {
    let ok = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-');
    (1..=16).contains(&unit.len()) && unit.bytes().all(ok)
}

/// FNV-1a digest of a rendered verdict, so passes keep 8 bytes per
/// operation instead of the whole report.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one run found: operation counts, metric values and report lines.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked against their reference.
    pub attempted: u64,
    /// Operations whose verdicts differed from the reference, or checks
    /// that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (printed before the result line).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Add a report line for a metric, with its unit and sample count.
    pub fn line(&mut self, name: &str, value: f64, unit: &str, samples: &str) {
        // Small values (set-up times) keep three significant digits.
        let shown = if value != 0.0 && value.abs() < 0.01 {
            format!("{value:.3e}")
        } else {
            format!("{value:.4}")
        };
        self.lines
            .push(format!("  {name:<30} {shown:>14} {unit:<6} {samples}"));
    }

    /// Record a metric value and add its report line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &str, samples: &str) {
        self.set(name, value);
        self.line(name, value, unit, samples);
    }

    /// Add a report line for the median of `xs`, with the sample count and,
    /// from two samples on, the quartiles.
    pub fn median_line(&mut self, name: &str, xs: &[f64], unit: &str, what: &str) {
        let spread = match xs.len() {
            0 | 1 => String::new(),
            _ => {
                let [q1, _, q3] = crate::stats::quartiles(xs);
                format!(", quartiles {q1:.4e} .. {q3:.4e}")
            }
        };
        let samples = format!("(median of n={}{what}{spread})", xs.len());
        self.line(name, crate::stats::median(xs), unit, &samples);
    }

    /// Add a free-form report line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.lines.push(format!("  {}", text.into()));
    }

    /// Count one failed check, with the reason as a report line.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.fail_ops(1, why);
    }

    /// Count `ops` failed operations, with the reason as a report line.
    pub fn fail_ops(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        self.lines.push(format!("  FAILED: {}", why.into()));
    }

    /// Render the result line for the declared metrics.
    ///
    /// # Errors
    /// Names a declared metric that was not measured or is not finite.
    pub fn result_line(&self, declared: &[Decl]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("invalid metric declaration {name} [{unit}]"));
            }
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that reads back
            // as the same f64: every digit that was measured.
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_bench::json::{parse, Json};

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "setup_s",
            "gen.program_ms",
            "p-50",
            "9lives",
            &"x".repeat(64),
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "é",
            "x\n",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB/s"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn declared_metrics_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
    }

    fn manifest_metrics(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn declarations_match_the_benchmark_manifest() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let owned = |decls: &[Decl]| -> Vec<(String, String)> {
            decls
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(manifest_metrics(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(manifest_metrics(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_declared_metric() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.set("a", 1.25);
        out.set("b", 0.1 + 0.2);
        let decl: &[Decl] = &[("a", "s"), ("b", "ms")];
        let line = out.result_line(decl).unwrap();
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let b = doc.get("metrics").and_then(|m| m.get("b")).unwrap();
        assert_eq!(b.get("value").and_then(Json::as_f64), Some(0.1 + 0.2));
        assert_eq!(b.get("unit").and_then(Json::as_str), Some("ms"));
        // A missing metric is an error, not a silent omission.
        assert!(out.result_line(&[("c", "s")]).is_err());
    }

    #[test]
    fn a_failure_or_no_attempt_is_not_correct() {
        let mut out = Outcome::default();
        out.set("a", 1.0);
        assert!(out
            .result_line(&[("a", "s")])
            .unwrap()
            .starts_with("{\"correct\": false"));
        out.attempted = 1;
        out.fail("mismatch");
        assert!(out
            .result_line(&[("a", "s")])
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
