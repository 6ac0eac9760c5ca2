//! Contract traces.

use std::fmt;
use std::hash::{Hash, Hasher};

/// One contract-prescribed observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Observation {
    /// Address of a data load or store (`MEM`, `CT`, `ARCH`).
    MemAddr(u64),
    /// Program counter of an executed instruction (`CT`, `ARCH`).
    Pc(u64),
    /// Value returned by a load (`ARCH` only).
    LoadValue(u64),
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observation::MemAddr(a) => write!(f, "mem:{a:#x}"),
            Observation::Pc(a) => write!(f, "pc:{a:#x}"),
            Observation::LoadValue(v) => write!(f, "val:{v:#x}"),
        }
    }
}

/// A contract trace: the ordered sequence of observations the contract
/// permits an attacker to make during one execution (`CTrace` in §2.2).
///
/// Equality of contract traces defines the *input classes* of the relational
/// analysis, so `CTrace` implements `Eq`/`Hash` and caches a digest for fast
/// grouping of the large input sets used during fuzzing.
#[derive(Debug, Clone)]
pub struct CTrace {
    observations: Vec<Observation>,
    digest: u64,
}

impl CTrace {
    /// Build a trace from observations.
    pub fn new(observations: Vec<Observation>) -> CTrace {
        let digest = Self::compute_digest(&observations);
        CTrace { observations, digest }
    }

    /// The empty trace.
    pub fn empty() -> CTrace {
        CTrace::new(Vec::new())
    }

    fn compute_digest(observations: &[Observation]) -> u64 {
        // FNV-1a over a canonical byte encoding of the observations.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for o in observations {
            let (tag, v) = match o {
                Observation::MemAddr(a) => (1u8, *a),
                Observation::Pc(a) => (2u8, *a),
                Observation::LoadValue(a) => (3u8, *a),
            };
            mix(tag);
            for b in v.to_le_bytes() {
                mix(b);
            }
        }
        h
    }

    /// The observations in order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Cached digest of the trace (used as the input-class key).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Memory-address observations only.
    pub fn mem_addrs(&self) -> Vec<u64> {
        self.observations
            .iter()
            .filter_map(|o| match o {
                Observation::MemAddr(a) => Some(*a),
                _ => None,
            })
            .collect()
    }
}

impl PartialEq for CTrace {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.observations == other.observations
    }
}

impl Eq for CTrace {}

impl Hash for CTrace {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.digest.hash(state);
    }
}

impl fmt::Display for CTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, o) in self.observations.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{o}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Observation> for CTrace {
    fn from_iter<T: IntoIterator<Item = Observation>>(iter: T) -> CTrace {
        CTrace::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_and_hash_by_content() {
        let a = CTrace::new(vec![Observation::MemAddr(0x110), Observation::MemAddr(0x220)]);
        let b = CTrace::new(vec![Observation::MemAddr(0x110), Observation::MemAddr(0x220)]);
        let c = CTrace::new(vec![Observation::MemAddr(0x110), Observation::MemAddr(0x230)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn order_matters() {
        let a = CTrace::new(vec![Observation::MemAddr(1), Observation::MemAddr(2)]);
        let b = CTrace::new(vec![Observation::MemAddr(2), Observation::MemAddr(1)]);
        assert_ne!(a, b);
    }

    #[test]
    fn observation_kind_matters() {
        let a = CTrace::new(vec![Observation::MemAddr(5)]);
        let b = CTrace::new(vec![Observation::Pc(5)]);
        let c = CTrace::new(vec![Observation::LoadValue(5)]);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn display_format() {
        let t = CTrace::new(vec![Observation::MemAddr(0x110), Observation::Pc(0x4000)]);
        assert_eq!(format!("{t}"), "[mem:0x110, pc:0x4000]");
        assert_eq!(format!("{}", CTrace::empty()), "[]");
    }

    #[test]
    fn mem_addrs_filter() {
        let t = CTrace::new(vec![
            Observation::Pc(1),
            Observation::MemAddr(0x100),
            Observation::LoadValue(7),
            Observation::MemAddr(0x200),
        ]);
        assert_eq!(t.mem_addrs(), vec![0x100, 0x200]);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let t: CTrace = vec![Observation::Pc(3)].into_iter().collect();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn digest_is_stable() {
        let a = CTrace::new(vec![Observation::MemAddr(42)]);
        let b = CTrace::new(vec![Observation::MemAddr(42)]);
        assert_eq!(a.digest(), b.digest());
    }
}
