//! Bit vectors over cache sets — the hardware-trace alphabet.

use std::fmt;

/// A vector of up to 64 cache sets, one bit per set.
///
/// This is exactly the paper's hardware-trace representation for the L1D
/// Prime+Probe mode: "a sequence of bits, each representing whether a
/// specific cache set was accessed by the test case or not" (§5.3), printed
/// most-significant set first, e.g. `10001100...` for sets 0, 4 and 5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetVector(u64);

impl SetVector {
    /// Number of sets representable.
    pub const SETS: usize = 64;

    /// Empty vector.
    pub const EMPTY: SetVector = SetVector(0);

    /// Construct from a raw bit mask (bit *i* = set *i*).
    pub fn from_bits(bits: u64) -> SetVector {
        SetVector(bits)
    }

    /// Raw bit mask.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Construct from an iterator of set indices.
    ///
    /// # Panics
    /// Panics if a set index is `>= 64`.
    pub fn from_sets<I: IntoIterator<Item = usize>>(sets: I) -> SetVector {
        let mut v = SetVector::EMPTY;
        for s in sets {
            v.insert(s);
        }
        v
    }

    /// Mark a set as observed.
    ///
    /// # Panics
    /// Panics if `set >= 64`.
    pub fn insert(&mut self, set: usize) {
        assert!(set < Self::SETS, "set index {set} out of range");
        self.0 |= 1 << set;
    }

    /// Is the set marked?
    pub fn contains(self, set: usize) -> bool {
        set < Self::SETS && self.0 & (1 << set) != 0
    }

    /// Number of marked sets.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Is the vector empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union of two vectors (used when merging traces from repeated
    /// measurements, §5.3 "we then take the union of all traces").
    pub fn union(self, other: SetVector) -> SetVector {
        SetVector(self.0 | other.0)
    }

    /// Intersection.
    pub fn intersection(self, other: SetVector) -> SetVector {
        SetVector(self.0 & other.0)
    }

    /// Sets present in `self` but not in `other`.
    pub fn difference(self, other: SetVector) -> SetVector {
        SetVector(self.0 & !other.0)
    }

    /// Is `self` a subset of `other`?  The analyzer's trace-equivalence
    /// check uses the subset relation rather than equality (§5.5).
    pub fn is_subset_of(self, other: SetVector) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterate over marked set indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..Self::SETS).filter(move |&s| self.contains(s))
    }
}

impl fmt::Display for SetVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for set in 0..Self::SETS {
            write!(f, "{}", if self.contains(set) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl std::ops::BitOr for SetVector {
    type Output = SetVector;
    fn bitor(self, rhs: SetVector) -> SetVector {
        self.union(rhs)
    }
}

impl std::ops::BitAnd for SetVector {
    type Output = SetVector;
    fn bitand(self, rhs: SetVector) -> SetVector {
        self.intersection(rhs)
    }
}

impl FromIterator<usize> for SetVector {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> SetVector {
        SetVector::from_sets(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut v = SetVector::EMPTY;
        assert!(v.is_empty());
        v.insert(0);
        v.insert(4);
        v.insert(5);
        assert!(v.contains(0) && v.contains(4) && v.contains(5));
        assert!(!v.contains(1));
        assert_eq!(v.count(), 3);
    }

    #[test]
    fn display_matches_paper_format() {
        let v = SetVector::from_sets([0, 4, 5]);
        let s = format!("{v}");
        assert_eq!(s.len(), 64);
        assert_eq!(&s[..8], "10001100");
        assert!(s[8..].chars().all(|c| c == '0'));
    }

    #[test]
    fn union_intersection_difference() {
        let a = SetVector::from_sets([1, 2, 3]);
        let b = SetVector::from_sets([3, 4]);
        assert_eq!(a.union(b), SetVector::from_sets([1, 2, 3, 4]));
        assert_eq!(a.intersection(b), SetVector::from_sets([3]));
        assert_eq!(a.difference(b), SetVector::from_sets([1, 2]));
        assert_eq!(a | b, a.union(b));
        assert_eq!(a & b, a.intersection(b));
    }

    #[test]
    fn subset_relation() {
        let small = SetVector::from_sets([2, 7]);
        let big = SetVector::from_sets([2, 7, 9]);
        assert!(small.is_subset_of(big));
        assert!(!big.is_subset_of(small));
        assert!(small.is_subset_of(small));
        assert!(SetVector::EMPTY.is_subset_of(small));
    }

    #[test]
    fn iter_ascending() {
        let v = SetVector::from_sets([9, 3, 63]);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![3, 9, 63]);
    }

    #[test]
    fn collect_from_iterator() {
        let v: SetVector = [1usize, 1, 2].into_iter().collect();
        assert_eq!(v.count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut v = SetVector::EMPTY;
        v.insert(64);
    }

    #[test]
    fn from_bits_roundtrip() {
        let v = SetVector::from_bits(0b1010);
        assert_eq!(v.bits(), 0b1010);
        assert!(v.contains(1) && v.contains(3));
    }
}
