//! Speculation contracts: observation and execution clauses.

use std::fmt;

/// The observation clause: what an instruction may expose (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObservationClause {
    /// `MEM`: addresses of data loads and stores (a data-cache attacker).
    Mem,
    /// `CT`: `MEM` plus the program counter (data + instruction cache
    /// attacker; the constant-time threat model).
    Ct,
    /// `ARCH`: `CT` plus the values loaded from memory (a same-address-space
    /// attacker, as assumed by STT).
    Arch,
}

impl ObservationClause {
    /// Every clause, in wire order: the binary codec writes a clause as
    /// its position here, so new variants are appended, never inserted.
    pub const ALL: [ObservationClause; 3] = [
        ObservationClause::Mem,
        ObservationClause::Ct,
        ObservationClause::Arch,
    ];

    /// Position in [`ObservationClause::ALL`].  The match is exhaustive, so a new
    /// variant does not compile until it is given the next slot.
    pub const fn index(self) -> usize {
        match self {
            ObservationClause::Mem => 0,
            ObservationClause::Ct => 1,
            ObservationClause::Arch => 2,
        }
    }

    /// Does the clause expose the program counter?
    pub fn exposes_pc(self) -> bool {
        matches!(self, ObservationClause::Ct | ObservationClause::Arch)
    }

    /// Does the clause expose loaded values?
    pub fn exposes_loaded_values(self) -> bool {
        matches!(self, ObservationClause::Arch)
    }

    /// Short name used in contract identifiers.
    pub fn name(self) -> &'static str {
        match self {
            ObservationClause::Mem => "MEM",
            ObservationClause::Ct => "CT",
            ObservationClause::Arch => "ARCH",
        }
    }
}

/// The execution clause: which speculation the contract permits (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionClause {
    /// `SEQ`: observations only from the sequential (in-order,
    /// non-speculative) execution.
    Seq,
    /// `COND`: observations also from the mispredicted paths of conditional
    /// branches, bounded by the speculation window.
    Cond,
    /// `BPAS`: observations also from executions in which stores are
    /// speculatively bypassed (skipped), bounded by the speculation window.
    Bpas,
    /// `COND-BPAS`: both [`ExecutionClause::Cond`] and
    /// [`ExecutionClause::Bpas`].
    CondBpas,
}

impl ExecutionClause {
    /// Every clause, in wire order: the binary codec writes a clause as
    /// its position here, so new variants are appended, never inserted.
    pub const ALL: [ExecutionClause; 4] = [
        ExecutionClause::Seq,
        ExecutionClause::Cond,
        ExecutionClause::Bpas,
        ExecutionClause::CondBpas,
    ];

    /// Position in [`ExecutionClause::ALL`].  The match is exhaustive, so a new
    /// variant does not compile until it is given the next slot.
    pub const fn index(self) -> usize {
        match self {
            ExecutionClause::Seq => 0,
            ExecutionClause::Cond => 1,
            ExecutionClause::Bpas => 2,
            ExecutionClause::CondBpas => 3,
        }
    }

    /// Does the clause permit conditional-branch misprediction?
    pub fn permits_cond(self) -> bool {
        matches!(self, ExecutionClause::Cond | ExecutionClause::CondBpas)
    }

    /// Does the clause permit store bypass?
    pub fn permits_bpas(self) -> bool {
        matches!(self, ExecutionClause::Bpas | ExecutionClause::CondBpas)
    }

    /// Short name used in contract identifiers.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionClause::Seq => "SEQ",
            ExecutionClause::Cond => "COND",
            ExecutionClause::Bpas => "BPAS",
            ExecutionClause::CondBpas => "COND-BPAS",
        }
    }
}

/// A full speculation contract: an observation clause, an execution clause
/// and the parameters of the speculative exploration.
///
/// The paper's evaluation tests the CT-* family (Table 3) plus MEM-SEQ /
/// ARCH-SEQ for the sensitivity experiment (§6.6) and a CT-COND variant in
/// which speculative stores may not leak (§6.4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Contract {
    /// What may be exposed.
    pub observation: ObservationClause,
    /// Which speculation is permitted.
    pub execution: ExecutionClause,
    /// Maximum number of instructions executed on a permitted speculative
    /// path (the paper uses 250, the Skylake ROB size).
    pub speculation_window: usize,
    /// Whether nested speculation is explored.  Disabled by default for
    /// speed, exactly as in the paper (§5.4); reported violations are
    /// re-checked with nesting enabled by the fuzzer.
    pub nested_speculation: bool,
    /// Whether observations of *stores* on speculative paths are exposed.
    /// `true` for the standard contracts; `false` for the §6.4 variant used
    /// to validate the "stores do not modify the cache until retirement"
    /// assumption of STT/KLEESpectre.
    pub expose_speculative_stores: bool,
}

impl Contract {
    /// Default speculation window (instructions), matching the paper.
    pub const DEFAULT_SPECULATION_WINDOW: usize = 250;

    /// Build a contract from clauses with default parameters.
    pub fn new(observation: ObservationClause, execution: ExecutionClause) -> Contract {
        Contract {
            observation,
            execution,
            speculation_window: Self::DEFAULT_SPECULATION_WINDOW,
            nested_speculation: false,
            expose_speculative_stores: true,
        }
    }

    /// `MEM-SEQ`: non-speculative load/store addresses only.
    pub fn mem_seq() -> Contract {
        Contract::new(ObservationClause::Mem, ExecutionClause::Seq)
    }

    /// `MEM-COND`: load/store addresses, including on mispredicted paths
    /// (the contract of Table 1).
    pub fn mem_cond() -> Contract {
        Contract::new(ObservationClause::Mem, ExecutionClause::Cond)
    }

    /// `CT-SEQ`: the most restrictive contract of the evaluation —
    /// speculation exposes nothing.
    pub fn ct_seq() -> Contract {
        Contract::new(ObservationClause::Ct, ExecutionClause::Seq)
    }

    /// `CT-COND`: leakage during branch prediction is permitted.
    pub fn ct_cond() -> Contract {
        Contract::new(ObservationClause::Ct, ExecutionClause::Cond)
    }

    /// `CT-BPAS`: leakage during store bypass is permitted.
    pub fn ct_bpas() -> Contract {
        Contract::new(ObservationClause::Ct, ExecutionClause::Bpas)
    }

    /// `CT-COND-BPAS`: leakage during both speculation types is permitted.
    pub fn ct_cond_bpas() -> Contract {
        Contract::new(ObservationClause::Ct, ExecutionClause::CondBpas)
    }

    /// `ARCH-SEQ`: exposes addresses and non-speculatively loaded values;
    /// equivalent to transient noninterference (used to test STT-like
    /// defences, §6.6).
    pub fn arch_seq() -> Contract {
        Contract::new(ObservationClause::Arch, ExecutionClause::Seq)
    }

    /// The §6.4 variant of `CT-COND` in which speculative stores may not
    /// modify observable state.
    pub fn ct_cond_no_spec_store() -> Contract {
        Contract::ct_cond().without_speculative_store_exposure()
    }

    /// The four CT-* contracts in the order of Table 3 (most restrictive
    /// first).
    pub fn table3_contracts() -> Vec<Contract> {
        vec![Contract::ct_seq(), Contract::ct_bpas(), Contract::ct_cond(), Contract::ct_cond_bpas()]
    }

    /// Remove speculative-store observations from the contract (§6.4).
    pub fn without_speculative_store_exposure(mut self) -> Contract {
        self.expose_speculative_stores = false;
        self
    }

    /// Set the speculation window.
    pub fn with_speculation_window(mut self, window: usize) -> Contract {
        self.speculation_window = window;
        self
    }

    /// Enable or disable nested speculation.
    pub fn with_nesting(mut self, nested: bool) -> Contract {
        self.nested_speculation = nested;
        self
    }

    /// Canonical name, e.g. `CT-COND-BPAS`.
    pub fn name(&self) -> String {
        let mut n = format!("{}-{}", self.observation.name(), self.execution.name());
        if !self.expose_speculative_stores {
            n.push_str("-NOSPECSTORE");
        }
        n
    }

    /// Partial order of permissiveness: `self` is weaker (more permissive)
    /// than `other` if it exposes at least as much and permits at least as
    /// much speculation, so any CPU complying with `other`... violates
    /// `self` no more often.  Used to order the contract sequence when
    /// narrowing down violations (§1, "a sequence of increasingly permissive
    /// contracts").
    pub fn at_least_as_permissive_as(&self, other: &Contract) -> bool {
        let obs_ge = match (self.observation, other.observation) {
            (a, b) if a == b => true,
            (ObservationClause::Ct, ObservationClause::Mem) => true,
            (ObservationClause::Arch, ObservationClause::Mem) => true,
            (ObservationClause::Arch, ObservationClause::Ct) => true,
            _ => false,
        };
        let exec_ge = match (self.execution, other.execution) {
            (a, b) if a == b => true,
            (ExecutionClause::CondBpas, _) => true,
            (ExecutionClause::Cond, ExecutionClause::Seq) => true,
            (ExecutionClause::Bpas, ExecutionClause::Seq) => true,
            _ => false,
        };
        obs_ge && exec_ge
    }
}

impl fmt::Display for Contract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Contract::ct_seq().name(), "CT-SEQ");
        assert_eq!(Contract::ct_cond_bpas().name(), "CT-COND-BPAS");
        assert_eq!(Contract::mem_seq().name(), "MEM-SEQ");
        assert_eq!(Contract::arch_seq().name(), "ARCH-SEQ");
        assert_eq!(Contract::ct_cond_no_spec_store().name(), "CT-COND-NOSPECSTORE");
        assert_eq!(format!("{}", Contract::ct_cond()), "CT-COND");
    }

    #[test]
    fn clause_properties() {
        assert!(!ObservationClause::Mem.exposes_pc());
        assert!(ObservationClause::Ct.exposes_pc());
        assert!(ObservationClause::Arch.exposes_loaded_values());
        assert!(!ObservationClause::Ct.exposes_loaded_values());
        assert!(ExecutionClause::CondBpas.permits_cond());
        assert!(ExecutionClause::CondBpas.permits_bpas());
        assert!(!ExecutionClause::Seq.permits_cond());
        assert!(ExecutionClause::Bpas.permits_bpas());
        assert!(!ExecutionClause::Bpas.permits_cond());
    }

    #[test]
    fn table3_order_is_increasingly_permissive() {
        let cs = Contract::table3_contracts();
        assert_eq!(cs.len(), 4);
        let last = &cs[3];
        for c in &cs {
            assert!(last.at_least_as_permissive_as(c));
        }
        assert!(!cs[0].at_least_as_permissive_as(&cs[3]));
    }

    #[test]
    fn permissiveness_partial_order() {
        assert!(Contract::ct_cond().at_least_as_permissive_as(&Contract::ct_seq()));
        assert!(Contract::arch_seq().at_least_as_permissive_as(&Contract::mem_seq()));
        assert!(!Contract::ct_bpas().at_least_as_permissive_as(&Contract::ct_cond()));
        assert!(!Contract::mem_seq().at_least_as_permissive_as(&Contract::ct_seq()));
    }

    #[test]
    fn builders() {
        let c = Contract::ct_cond().with_speculation_window(10).with_nesting(true);
        assert_eq!(c.speculation_window, 10);
        assert!(c.nested_speculation);
        assert!(Contract::ct_seq().expose_speculative_stores);
        assert!(!Contract::ct_cond_no_spec_store().expose_speculative_stores);
    }

    #[test]
    fn defaults_match_paper() {
        let c = Contract::ct_seq();
        assert_eq!(c.speculation_window, 250);
        assert!(!c.nested_speculation);
    }
}
