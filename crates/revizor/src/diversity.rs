//! Test-diversity analysis: pattern coverage (§5.6).
//!
//! Black-box CPUs expose no coverage signal, so Revizor estimates how likely
//! the current generator configuration is to exercise new speculative paths
//! by counting *patterns* — pairs of consecutive instructions with data or
//! control dependencies that are likely to create pipeline hazards.  A
//! pattern is covered once a test case and **two inputs of the same input
//! class** match it; when a testing round stops improving coverage, the
//! generator configuration is escalated.

use rvz_isa::IsaSubset;
use rvz_model::{ExecutionInfo, InstrKind};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;

/// A hazard pattern over two consecutive instructions (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pattern {
    /// Two stores to the same address.
    StoreAfterStore,
    /// A store following a load from the same address.
    StoreAfterLoad,
    /// A load following a store to the same address.
    LoadAfterStore,
    /// Two loads from the same address.
    LoadAfterLoad,
    /// The second instruction reads a register written by the first.
    RegisterDependency,
    /// The second instruction reads the flags written by the first.
    FlagsDependency,
    /// The first instruction is a conditional branch.
    CondBranchDependency,
    /// The first instruction is an unconditional (or indirect) branch.
    UncondBranchDependency,
}

impl Pattern {
    /// All patterns.
    pub const ALL: [Pattern; 8] = [
        Pattern::StoreAfterStore,
        Pattern::StoreAfterLoad,
        Pattern::LoadAfterStore,
        Pattern::LoadAfterLoad,
        Pattern::RegisterDependency,
        Pattern::FlagsDependency,
        Pattern::CondBranchDependency,
        Pattern::UncondBranchDependency,
    ];

    /// The patterns that can occur at all for a given ISA subset (e.g. an
    /// `AR`-only subset has no memory-dependency patterns).
    pub fn relevant_for(isa: IsaSubset) -> Vec<Pattern> {
        Pattern::ALL
            .into_iter()
            .filter(|p| match p {
                Pattern::StoreAfterStore
                | Pattern::StoreAfterLoad
                | Pattern::LoadAfterStore
                | Pattern::LoadAfterLoad => isa.mem,
                Pattern::CondBranchDependency => isa.cb,
                Pattern::UncondBranchDependency => true,
                Pattern::RegisterDependency | Pattern::FlagsDependency => true,
            })
            .collect()
    }
}

impl Pattern {
    /// Parse the [`fmt::Display`] label back into a pattern (the inverse of
    /// `to_string`, used by report deserialization).
    pub fn from_name(name: &str) -> Option<Pattern> {
        Pattern::ALL.into_iter().find(|p| p.to_string() == name)
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pattern::StoreAfterStore => "store-after-store",
            Pattern::StoreAfterLoad => "store-after-load",
            Pattern::LoadAfterStore => "load-after-store",
            Pattern::LoadAfterLoad => "load-after-load",
            Pattern::RegisterDependency => "register-dependency",
            Pattern::FlagsDependency => "flags-dependency",
            Pattern::CondBranchDependency => "cond-branch",
            Pattern::UncondBranchDependency => "uncond-branch",
        };
        f.write_str(s)
    }
}

/// Patterns matched by one execution (one test case with one input).
pub fn patterns_of(info: &ExecutionInfo) -> BTreeSet<Pattern> {
    let mut out = BTreeSet::new();
    for pair in info.executed.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);

        // Memory dependencies: consecutive accesses to a shared address.
        let shared_addr = a.mem_addrs.intersects(&b.mem_addrs);
        if shared_addr {
            let a_store = matches!(a.kind, InstrKind::Store | InstrKind::LoadStore);
            let b_store = matches!(b.kind, InstrKind::Store | InstrKind::LoadStore);
            let a_load = matches!(a.kind, InstrKind::Load | InstrKind::LoadStore);
            let b_load = matches!(b.kind, InstrKind::Load | InstrKind::LoadStore);
            if a_store && b_store {
                out.insert(Pattern::StoreAfterStore);
            }
            if a_load && b_store {
                out.insert(Pattern::StoreAfterLoad);
            }
            if a_store && b_load {
                out.insert(Pattern::LoadAfterStore);
            }
            if a_load && b_load {
                out.insert(Pattern::LoadAfterLoad);
            }
        }

        // Register and flags dependencies.
        if a.writes_regs.intersects(b.reads_regs) {
            out.insert(Pattern::RegisterDependency);
        }
        if a.writes_flags && b.reads_flags {
            out.insert(Pattern::FlagsDependency);
        }

        // Control dependencies: a branch followed by any instruction.
        match a.kind {
            InstrKind::CondBranch => {
                out.insert(Pattern::CondBranchDependency);
            }
            InstrKind::Jump | InstrKind::IndirectBranch => {
                out.insert(Pattern::UncondBranchDependency);
            }
            _ => {}
        }
    }
    out
}

/// Accumulated pattern coverage across a fuzzing campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternCoverage {
    covered: BTreeSet<Pattern>,
    covered_pairs: BTreeSet<(Pattern, Pattern)>,
}

impl PatternCoverage {
    /// Empty coverage.
    pub fn new() -> PatternCoverage {
        PatternCoverage::default()
    }

    /// Update coverage from one test case: `class_members` holds, for every
    /// effective input class, the execution info of its members.  A pattern
    /// counts as covered only if at least two inputs of the same class match
    /// it ("since a single input cannot form a counterexample", §5.6).
    pub fn update<I: Borrow<ExecutionInfo>>(&mut self, class_members: &[Vec<I>]) -> bool {
        let mut improved = false;
        let mut covered_in_tc: BTreeSet<Pattern> = BTreeSet::new();
        for members in class_members {
            if members.len() < 2 {
                continue;
            }
            let mut counts: Vec<(Pattern, usize)> = Vec::new();
            for info in members {
                for p in patterns_of(info.borrow()) {
                    match counts.iter_mut().find(|(q, _)| *q == p) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((p, 1)),
                    }
                }
            }
            for (p, c) in counts {
                if c >= 2 {
                    covered_in_tc.insert(p);
                    improved |= self.covered.insert(p);
                }
            }
        }
        // Combinations of patterns covered within the same test case.
        let tc_patterns: Vec<Pattern> = covered_in_tc.into_iter().collect();
        for (i, &a) in tc_patterns.iter().enumerate() {
            for &b in &tc_patterns[i..] {
                improved |= self.covered_pairs.insert((a, b));
            }
        }
        improved
    }

    /// Patterns covered so far.
    pub fn covered(&self) -> &BTreeSet<Pattern> {
        &self.covered
    }

    /// Pattern pairs covered so far (both orders are stored canonically,
    /// smaller pattern first).
    pub fn covered_pairs(&self) -> &BTreeSet<(Pattern, Pattern)> {
        &self.covered_pairs
    }

    /// Reassemble coverage from its parts (the inverse of
    /// [`PatternCoverage::covered`] + [`PatternCoverage::covered_pairs`],
    /// used when resuming a checkpointed campaign).
    pub fn from_parts(
        covered: BTreeSet<Pattern>,
        covered_pairs: BTreeSet<(Pattern, Pattern)>,
    ) -> PatternCoverage {
        PatternCoverage { covered, covered_pairs }
    }

    /// Number of covered pattern pairs.
    pub fn covered_pair_count(&self) -> usize {
        self.covered_pairs.len()
    }

    /// Are all individual patterns relevant for the subset covered?
    pub fn all_single_covered(&self, isa: IsaSubset) -> bool {
        Pattern::relevant_for(isa).iter().all(|p| self.covered.contains(p))
    }

    /// Are all pairs of relevant patterns covered?
    pub fn all_pairs_covered(&self, isa: IsaSubset) -> bool {
        let rel = Pattern::relevant_for(isa);
        for (i, &a) in rel.iter().enumerate() {
            for &b in &rel[i..] {
                let key = if a <= b { (a, b) } else { (b, a) };
                if !self.covered_pairs.contains(&key) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for PatternCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} patterns, {} pairs", self.covered.len(), Pattern::ALL.len(), self.covered_pairs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_isa::{BlockId, Reg, RegSet};
    use rvz_model::{ExecutedInstr, MemAddrs};

    fn instr(kind: InstrKind) -> ExecutedInstr {
        ExecutedInstr {
            block: BlockId(0),
            index: Some(0),
            kind,
            reads_regs: RegSet::EMPTY,
            writes_regs: RegSet::EMPTY,
            reads_flags: false,
            writes_flags: false,
            mem_addrs: MemAddrs::default(),
        }
    }

    fn info(executed: Vec<ExecutedInstr>) -> ExecutionInfo {
        ExecutionInfo { executed, speculative_paths: 0, speculative_observations: 0 }
    }

    #[test]
    fn memory_dependency_patterns_detected() {
        let mut store = instr(InstrKind::Store);
        store.mem_addrs = MemAddrs::of(&[0x100]);
        let mut load = instr(InstrKind::Load);
        load.mem_addrs = MemAddrs::of(&[0x100]);
        let ps = patterns_of(&info(vec![store, load]));
        assert!(ps.contains(&Pattern::LoadAfterStore));
        let ps = patterns_of(&info(vec![load, load]));
        assert!(ps.contains(&Pattern::LoadAfterLoad));
        let ps = patterns_of(&info(vec![store, store]));
        assert!(ps.contains(&Pattern::StoreAfterStore));
        let ps = patterns_of(&info(vec![load, store]));
        assert!(ps.contains(&Pattern::StoreAfterLoad));
    }

    #[test]
    fn no_memory_pattern_for_disjoint_addresses() {
        let mut a = instr(InstrKind::Store);
        a.mem_addrs = MemAddrs::of(&[0x100]);
        let mut b = instr(InstrKind::Load);
        b.mem_addrs = MemAddrs::of(&[0x200]);
        assert!(patterns_of(&info(vec![a, b])).is_empty());
    }

    #[test]
    fn register_and_flags_dependencies_detected() {
        let mut a = instr(InstrKind::Alu);
        a.writes_regs = RegSet::of(&[Reg::Rax]);
        a.writes_flags = true;
        let mut b = instr(InstrKind::Alu);
        b.reads_regs = RegSet::of(&[Reg::Rax]);
        let ps = patterns_of(&info(vec![a, b]));
        assert!(ps.contains(&Pattern::RegisterDependency));
        assert!(!ps.contains(&Pattern::FlagsDependency));
        let mut c = instr(InstrKind::Alu);
        c.reads_flags = true;
        let ps = patterns_of(&info(vec![a, c]));
        assert!(ps.contains(&Pattern::FlagsDependency));
    }

    #[test]
    fn control_dependency_patterns_detected() {
        let ps = patterns_of(&info(vec![instr(InstrKind::CondBranch), instr(InstrKind::Alu)]));
        assert!(ps.contains(&Pattern::CondBranchDependency));
        let ps = patterns_of(&info(vec![instr(InstrKind::Jump), instr(InstrKind::Alu)]));
        assert!(ps.contains(&Pattern::UncondBranchDependency));
    }

    #[test]
    fn coverage_requires_two_inputs_in_a_class() {
        let mut a = instr(InstrKind::Alu);
        a.writes_regs = RegSet::of(&[Reg::Rbx]);
        let mut b = instr(InstrKind::Alu);
        b.reads_regs = RegSet::of(&[Reg::Rbx]);
        let i = info(vec![a, b]);

        let mut cov = PatternCoverage::new();
        // Singleton class: not covered.
        assert!(!cov.update(&[vec![&i]]));
        assert!(cov.covered().is_empty());
        // Two members: covered.
        assert!(cov.update(&[vec![&i, &i]]));
        assert!(cov.covered().contains(&Pattern::RegisterDependency));
        // Re-covering the same pattern does not count as improvement.
        assert!(!cov.update(&[vec![&i, &i]]));
    }

    #[test]
    fn relevant_patterns_depend_on_isa() {
        let ar = Pattern::relevant_for(IsaSubset::AR);
        assert!(!ar.contains(&Pattern::LoadAfterStore));
        assert!(!ar.contains(&Pattern::CondBranchDependency));
        assert!(ar.contains(&Pattern::RegisterDependency));
        let full = Pattern::relevant_for(IsaSubset::AR_MEM_CB_VAR);
        assert!(full.contains(&Pattern::LoadAfterStore));
        assert!(full.contains(&Pattern::CondBranchDependency));
    }

    #[test]
    fn all_single_covered_check() {
        let mut cov = PatternCoverage::new();
        let mut a = instr(InstrKind::Alu);
        a.writes_regs = RegSet::of(&[Reg::Rax]);
        a.writes_flags = true;
        let mut b = instr(InstrKind::Alu);
        b.reads_regs = RegSet::of(&[Reg::Rax]);
        b.reads_flags = true;
        let i = info(vec![a, b, instr(InstrKind::Jump), instr(InstrKind::Alu)]);
        cov.update(&[vec![&i, &i]]);
        assert!(cov.all_single_covered(IsaSubset::AR));
        assert!(!cov.all_single_covered(IsaSubset::AR_MEM_CB));
        assert!(cov.covered_pair_count() > 0);
        assert!(format!("{cov}").contains("patterns"));
    }
}
