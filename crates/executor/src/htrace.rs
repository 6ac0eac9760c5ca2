//! Hardware traces.

use rvz_cache::SetVector;
use std::fmt;

/// A hardware trace: the side-channel observation of one (test case, input)
/// pair, merged over repeated measurements.
///
/// In the L1D Prime+Probe mode this is the bit vector of cache sets touched
/// by the test case (§5.3); the paper prints it as a 64-character bit
/// string, which [`fmt::Display`] reproduces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HTrace {
    sets: SetVector,
    /// Number of raw samples merged into this trace.
    samples: u32,
}

impl HTrace {
    /// An empty trace.
    pub fn empty() -> HTrace {
        HTrace::default()
    }

    /// Build a trace from a single measurement.
    pub fn from_sets(sets: SetVector) -> HTrace {
        HTrace { sets, samples: 1 }
    }

    /// Reassemble a trace from its observed sets and merged-sample count
    /// (the inverse of [`HTrace::sets`] + [`HTrace::samples`], used by
    /// report deserialization).
    pub fn from_parts(sets: SetVector, samples: u32) -> HTrace {
        HTrace { sets, samples }
    }

    /// The observed cache sets.
    pub fn sets(&self) -> SetVector {
        self.sets
    }

    /// Number of merged samples.
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Merge another measurement by union (§5.3: "we then take the union of
    /// all traces collected from the executions of a test case with the
    /// same input").
    pub fn merge(&mut self, other: HTrace) {
        self.sets = self.sets.union(other.sets);
        self.samples += other.samples;
    }

    /// The analyzer's equivalence: traces are equivalent when each is a
    /// subset of the other *or vice versa* — i.e. one trace's observations
    /// all appear in the other (§5.5).
    pub fn equivalent(&self, other: &HTrace) -> bool {
        self.sets.is_subset_of(other.sets) || other.sets.is_subset_of(self.sets)
    }

    /// Sets present in `self` but not in `other` (used in violation reports).
    pub fn difference(&self, other: &HTrace) -> SetVector {
        self.sets.difference(other.sets)
    }

    /// Number of observed sets.
    pub fn count(&self) -> u32 {
        self.sets.count()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

impl fmt::Display for HTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sets)
    }
}

impl From<SetVector> for HTrace {
    fn from(sets: SetVector) -> HTrace {
        HTrace::from_sets(sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_union() {
        let mut a = HTrace::from_sets(SetVector::from_sets([0, 4]));
        let b = HTrace::from_sets(SetVector::from_sets([5]));
        a.merge(b);
        assert_eq!(a.sets(), SetVector::from_sets([0, 4, 5]));
        assert_eq!(a.samples(), 2);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn equivalence_is_subset_based() {
        // Example from §5.3/§5.5: a trace with and without a mispredicted
        // access are considered equivalent because one is a subset.
        let with_spec = HTrace::from_sets(SetVector::from_sets([4, 6, 13, 31]));
        let without_spec = HTrace::from_sets(SetVector::from_sets([4, 13, 31]));
        assert!(with_spec.equivalent(&without_spec));
        assert!(without_spec.equivalent(&with_spec));
        // Secret-dependent difference: same count, different values.
        let a = HTrace::from_sets(SetVector::from_sets([4, 8]));
        let b = HTrace::from_sets(SetVector::from_sets([4, 9]));
        assert!(!a.equivalent(&b));
    }

    #[test]
    fn difference_reports_extra_sets() {
        let a = HTrace::from_sets(SetVector::from_sets([1, 2, 3]));
        let b = HTrace::from_sets(SetVector::from_sets([2]));
        assert_eq!(a.difference(&b), SetVector::from_sets([1, 3]));
    }

    #[test]
    fn display_is_bit_string() {
        let t = HTrace::from_sets(SetVector::from_sets([0, 4, 5]));
        let s = format!("{t}");
        assert!(s.starts_with("100011"));
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn empty_trace() {
        let t = HTrace::empty();
        assert!(t.is_empty());
        assert_eq!(t.samples(), 0);
        assert!(t.equivalent(&HTrace::from_sets(SetVector::from_sets([7]))));
    }
}
