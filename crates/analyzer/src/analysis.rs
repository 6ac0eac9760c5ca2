//! Input classes, effectiveness statistics and violation detection.

use rvz_executor::HTrace;
use rvz_model::CTrace;
use std::collections::HashMap;
use std::fmt;

/// A group of inputs that share the same contract trace (an equivalence
/// class of contract-trace equality, §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputClass {
    /// Digest of the shared contract trace.
    pub ctrace_digest: u64,
    /// Indices (into the input vector) of the members, in priming order.
    pub members: Vec<usize>,
}

impl InputClass {
    /// A class is *effective* if it has at least two members; singleton
    /// classes cannot witness a violation and are discarded (CH2).
    pub fn is_effective(&self) -> bool {
        self.members.len() >= 2
    }
}

/// Input-effectiveness statistics, reported by the fuzzer to gauge how much
/// of the input generation effort is wasted (§5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectivenessStats {
    /// Total inputs analyzed.
    pub total_inputs: usize,
    /// Inputs belonging to a class with at least two members.
    pub effective_inputs: usize,
    /// Number of distinct classes.
    pub classes: usize,
    /// Number of singleton (ineffective) classes.
    pub singleton_classes: usize,
}

impl EffectivenessStats {
    /// Accumulate another test case's statistics into this one (field-wise
    /// sums).  Campaign drivers use this to aggregate per-cell totals out
    /// of per-test-case analyses; the sums stay exact integers, so
    /// aggregates survive serialization round trips byte-identically.
    pub fn merge(&mut self, other: &EffectivenessStats) {
        self.total_inputs += other.total_inputs;
        self.effective_inputs += other.effective_inputs;
        self.classes += other.classes;
        self.singleton_classes += other.singleton_classes;
    }

    /// Fraction of inputs that are effective (0.0 when there are no inputs).
    pub fn effectiveness(&self) -> f64 {
        if self.total_inputs == 0 {
            0.0
        } else {
            self.effective_inputs as f64 / self.total_inputs as f64
        }
    }
}

/// A contract counterexample: two inputs with equal contract traces but
/// non-equivalent hardware traces (Definition 1 violated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the first input.
    pub input_a: usize,
    /// Index of the second input.
    pub input_b: usize,
    /// Hardware trace of the first input.
    pub htrace_a: HTrace,
    /// Hardware trace of the second input.
    pub htrace_b: HTrace,
    /// Digest of the shared contract trace.
    pub ctrace_digest: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "contract violation: inputs #{} and #{} share a contract trace", self.input_a, self.input_b)?;
        writeln!(f, "  htrace[{:>3}] = {}", self.input_a, self.htrace_a)?;
        write!(f, "  htrace[{:>3}] = {}", self.input_b, self.htrace_b)
    }
}

/// The outcome of one relational analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisResult {
    /// All detected violations (possibly several per class).
    pub violations: Vec<Violation>,
    /// Input-effectiveness statistics.
    pub stats: EffectivenessStats,
}

impl AnalysisResult {
    /// Did the analysis find at least one violation?
    pub fn has_violation(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// The relational analyzer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analyzer {
    /// Report at most one violation per input class (the fuzzer only needs
    /// one counterexample to stop); set to `false` to enumerate all pairs.
    pub first_violation_per_class: bool,
}

impl Analyzer {
    /// Analyzer with the default setting (one violation per class).
    pub fn new() -> Analyzer {
        Analyzer { first_violation_per_class: true }
    }

    /// Group inputs into classes by contract-trace equality, preserving
    /// priming order within each class.
    pub fn input_classes(&self, ctraces: &[CTrace]) -> Vec<InputClass> {
        let mut by_digest: HashMap<u64, InputClass> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        for (i, ct) in ctraces.iter().enumerate() {
            let digest = ct.digest();
            let entry = by_digest.entry(digest).or_insert_with(|| {
                order.push(digest);
                InputClass { ctrace_digest: digest, members: Vec::new() }
            });
            entry.members.push(i);
        }
        order.into_iter().map(|d| by_digest.remove(&d).expect("inserted above")).collect()
    }

    /// Compute effectiveness statistics for a set of classes.
    pub fn effectiveness(&self, classes: &[InputClass], total_inputs: usize) -> EffectivenessStats {
        let singleton_classes = classes.iter().filter(|c| !c.is_effective()).count();
        let effective_inputs =
            classes.iter().filter(|c| c.is_effective()).map(|c| c.members.len()).sum();
        EffectivenessStats {
            total_inputs,
            effective_inputs,
            classes: classes.len(),
            singleton_classes,
        }
    }

    /// Run the full relational check of Definition 1 on parallel vectors of
    /// contract and hardware traces (index `i` belongs to input `i`).
    ///
    /// # Panics
    /// Panics if the two vectors have different lengths.
    pub fn check(&self, ctraces: &[CTrace], htraces: &[HTrace]) -> AnalysisResult {
        assert_eq!(ctraces.len(), htraces.len(), "one hardware trace per contract trace");
        let classes = self.input_classes(ctraces);
        let stats = self.effectiveness(&classes, ctraces.len());
        let mut violations = Vec::new();
        for class in classes.iter().filter(|c| c.is_effective()) {
            'class: for (k, &a) in class.members.iter().enumerate() {
                for &b in &class.members[k + 1..] {
                    if !htraces[a].equivalent(&htraces[b]) {
                        violations.push(Violation {
                            input_a: a,
                            input_b: b,
                            htrace_a: htraces[a],
                            htrace_b: htraces[b],
                            ctrace_digest: class.ctrace_digest,
                        });
                        if self.first_violation_per_class {
                            break 'class;
                        }
                    }
                }
            }
        }
        AnalysisResult { violations, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_cache::SetVector;
    use rvz_model::Observation;

    fn ct(addrs: &[u64]) -> CTrace {
        CTrace::new(addrs.iter().map(|a| Observation::MemAddr(*a)).collect())
    }

    fn ht(sets: &[usize]) -> HTrace {
        HTrace::from_sets(SetVector::from_sets(sets.iter().copied()))
    }

    #[test]
    fn classes_group_by_ctrace() {
        let a = Analyzer::new();
        let classes = a.input_classes(&[ct(&[1]), ct(&[2]), ct(&[1]), ct(&[3]), ct(&[1])]);
        assert_eq!(classes.len(), 3);
        assert_eq!(classes[0].members, vec![0, 2, 4]);
        assert!(classes[0].is_effective());
        assert!(!classes[1].is_effective());
    }

    #[test]
    fn effectiveness_statistics() {
        let a = Analyzer::new();
        let classes = a.input_classes(&[ct(&[1]), ct(&[2]), ct(&[1]), ct(&[3])]);
        let stats = a.effectiveness(&classes, 4);
        assert_eq!(stats.total_inputs, 4);
        assert_eq!(stats.effective_inputs, 2);
        assert_eq!(stats.classes, 3);
        assert_eq!(stats.singleton_classes, 2);
        assert!((stats.effectiveness() - 0.5).abs() < 1e-9);
        assert_eq!(EffectivenessStats::default().effectiveness(), 0.0);
    }

    #[test]
    fn no_violation_when_htraces_match_within_classes() {
        let a = Analyzer::new();
        let r = a.check(
            &[ct(&[1]), ct(&[1]), ct(&[2]), ct(&[2])],
            &[ht(&[4]), ht(&[4]), ht(&[8]), ht(&[8])],
        );
        assert!(!r.has_violation());
        assert_eq!(r.stats.effective_inputs, 4);
    }

    #[test]
    fn violation_when_htraces_differ_within_a_class() {
        let a = Analyzer::new();
        let r = a.check(&[ct(&[1]), ct(&[1])], &[ht(&[4]), ht(&[9])]);
        assert!(r.has_violation());
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!((v.input_a, v.input_b), (0, 1));
        assert!(format!("{v}").contains("contract violation"));
    }

    #[test]
    fn subset_traces_are_equivalent_not_violations() {
        // One input observed with and one without the speculative access
        // (different microarchitectural contexts): subset relation, no
        // violation (§5.5).
        let a = Analyzer::new();
        let r = a.check(&[ct(&[1]), ct(&[1])], &[ht(&[4, 6, 13]), ht(&[4, 13])]);
        assert!(!r.has_violation());
    }

    #[test]
    fn no_violation_across_different_classes() {
        let a = Analyzer::new();
        let r = a.check(&[ct(&[1]), ct(&[2])], &[ht(&[4]), ht(&[9])]);
        assert!(!r.has_violation());
        assert_eq!(r.stats.singleton_classes, 2);
    }

    #[test]
    fn singleton_classes_are_skipped() {
        let a = Analyzer::new();
        let r = a.check(&[ct(&[1]), ct(&[2]), ct(&[3])], &[ht(&[1]), ht(&[2]), ht(&[3])]);
        assert!(!r.has_violation());
        assert_eq!(r.stats.effective_inputs, 0);
    }

    #[test]
    fn all_pairs_mode_reports_every_violation() {
        let a = Analyzer { first_violation_per_class: false };
        let r = a.check(
            &[ct(&[1]), ct(&[1]), ct(&[1])],
            &[ht(&[1]), ht(&[2]), ht(&[3])],
        );
        assert_eq!(r.violations.len(), 3);
        let first_only = Analyzer::new().check(
            &[ct(&[1]), ct(&[1]), ct(&[1])],
            &[ht(&[1]), ht(&[2]), ht(&[3])],
        );
        assert_eq!(first_only.violations.len(), 1);
    }

    #[test]
    #[should_panic(expected = "one hardware trace per contract trace")]
    fn mismatched_lengths_panic() {
        Analyzer::new().check(&[ct(&[1])], &[]);
    }

    #[test]
    fn empty_input_set() {
        let r = Analyzer::new().check(&[], &[]);
        assert!(!r.has_violation());
        assert_eq!(r.stats.total_inputs, 0);
    }
}
