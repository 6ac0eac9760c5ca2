//! Heuristic classification of detected violations.
//!
//! The paper identifies the vulnerability behind each violation by manual
//! inspection of the counterexample; the reproduction automates the common
//! cases with a heuristic based on the target configuration, the violated
//! contract and the features of the violating test case (which instruction
//! classes it contains).  The labels follow Table 3.

use crate::targets::Target;
use rvz_model::Contract;
use rvz_isa::TestCase;
use std::fmt;

/// Known classes of speculative vulnerabilities surfaced by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VulnClass {
    /// Spectre V1 (bounds check bypass).
    SpectreV1,
    /// The novel V1 latency variant (§6.3).
    SpectreV1Var,
    /// Spectre V4 (speculative store bypass).
    SpectreV4,
    /// The novel V4 latency variant (§6.3).
    SpectreV4Var,
    /// MDS (microarchitectural data sampling) via microcode assists.
    Mds,
    /// LVI-Null (zero injection on MDS-patched parts).
    LviNull,
    /// Speculative stores modifying the cache before retirement (§6.4).
    SpeculativeStoreEviction,
    /// A violation that does not match any known signature.
    Unknown,
    /// Spectre V2 (branch target injection through the BTB).
    SpectreV2,
    /// Spectre V5 / ret2spec (stale RSB return-target prediction).
    SpectreV5Ret,
}

impl VulnClass {
    /// Every class, in wire order: the binary codec writes a class as
    /// its position here, so new variants are appended, never inserted.
    pub const ALL: [VulnClass; 10] = [
        VulnClass::SpectreV1,
        VulnClass::SpectreV1Var,
        VulnClass::SpectreV4,
        VulnClass::SpectreV4Var,
        VulnClass::Mds,
        VulnClass::LviNull,
        VulnClass::SpeculativeStoreEviction,
        VulnClass::Unknown,
        VulnClass::SpectreV2,
        VulnClass::SpectreV5Ret,
    ];

    /// Position in [`VulnClass::ALL`].  The match is exhaustive, so a new
    /// variant does not compile until it is given the next slot.
    pub const fn index(self) -> usize {
        match self {
            VulnClass::SpectreV1 => 0,
            VulnClass::SpectreV1Var => 1,
            VulnClass::SpectreV4 => 2,
            VulnClass::SpectreV4Var => 3,
            VulnClass::Mds => 4,
            VulnClass::LviNull => 5,
            VulnClass::SpeculativeStoreEviction => 6,
            VulnClass::Unknown => 7,
            VulnClass::SpectreV2 => 8,
            VulnClass::SpectreV5Ret => 9,
        }
    }
}

impl fmt::Display for VulnClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VulnClass::SpectreV1 => "V1",
            VulnClass::SpectreV1Var => "V1-var",
            VulnClass::SpectreV4 => "V4",
            VulnClass::SpectreV4Var => "V4-var",
            VulnClass::Mds => "MDS",
            VulnClass::LviNull => "LVI-Null",
            VulnClass::SpeculativeStoreEviction => "spec-store-eviction",
            VulnClass::Unknown => "unknown",
            VulnClass::SpectreV2 => "V2-BTB",
            VulnClass::SpectreV5Ret => "V5-ret",
        };
        f.write_str(s)
    }
}

/// Classify a violation found on `target` against `contract` with the given
/// violating test case.
pub fn classify(target: &Target, contract: &Contract, tc: &TestCase) -> VulnClass {
    let has_cb = tc.conditional_branch_count() > 0;
    let has_var = tc.variable_latency_count() > 0;
    let has_mem = tc.memory_access_count() > 0;
    let assists = target.mode.assists;
    let bypass_possible = target.cpu_config.bypass_active();

    // Assist-driven leaks dominate every contract (Targets 7-8).
    if assists {
        return if target.cpu_config.mds_vulnerable {
            VulnClass::Mds
        } else if target.cpu_config.lvi_null_injection {
            VulnClass::LviNull
        } else {
            VulnClass::Unknown
        };
    }

    // §6.4: the no-speculative-store contract variant is violated by parts
    // whose speculative stores already touch the cache.
    if !contract.expose_speculative_stores && target.cpu_config.spec_store_touches_cache {
        return VulnClass::SpeculativeStoreEviction;
    }

    // Predictor-zoo scenarios: no CT contract speculates indirect jumps or
    // returns, so a violating test case built around those terminators
    // identifies the predictor structure directly.  Random programs never
    // emit either terminator, so classic-cell verdict JSON is unaffected.
    if tc.indirect_branch_count() > 0 && !has_cb {
        return VulnClass::SpectreV2;
    }
    if tc.return_count() > 0 && !has_cb {
        return VulnClass::SpectreV5Ret;
    }

    let cond_permitted = contract.execution.permits_cond();
    let bpas_permitted = contract.execution.permits_bpas();

    if has_cb && !cond_permitted {
        return VulnClass::SpectreV1;
    }
    if has_cb && cond_permitted && has_var {
        return VulnClass::SpectreV1Var;
    }
    if has_mem && bypass_possible && !bpas_permitted {
        return VulnClass::SpectreV4;
    }
    if has_mem && bypass_possible && bpas_permitted && has_var {
        return VulnClass::SpectreV4Var;
    }
    VulnClass::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets;
    use crate::targets::Target;

    #[test]
    fn v1_classification() {
        let c = classify(&Target::target5(), &Contract::ct_seq(), &gadgets::spectre_v1());
        assert_eq!(c, VulnClass::SpectreV1);
    }

    #[test]
    fn v1_var_classification() {
        let c = classify(&Target::target6(), &Contract::ct_cond(), &gadgets::v1_var());
        assert_eq!(c, VulnClass::SpectreV1Var);
    }

    #[test]
    fn v4_classification() {
        let c = classify(&Target::target2(), &Contract::ct_seq(), &gadgets::spectre_v4());
        assert_eq!(c, VulnClass::SpectreV4);
    }

    #[test]
    fn v4_var_classification() {
        let c = classify(&Target::target3(), &Contract::ct_bpas(), &gadgets::v4_var());
        assert_eq!(c, VulnClass::SpectreV4Var);
    }

    #[test]
    fn mds_and_lvi_classification() {
        let c = classify(&Target::target7(), &Contract::ct_seq(), &gadgets::mds_lfb());
        assert_eq!(c, VulnClass::Mds);
        let c = classify(&Target::target8(), &Contract::ct_seq(), &gadgets::mds_lfb());
        assert_eq!(c, VulnClass::LviNull);
    }

    #[test]
    fn spec_store_eviction_classification() {
        let mut target = Target::target8();
        target.mode = rvz_executor::MeasurementMode::prime_probe();
        let c = classify(
            &target,
            &Contract::ct_cond_no_spec_store(),
            &gadgets::speculative_store_eviction(),
        );
        assert_eq!(c, VulnClass::SpeculativeStoreEviction);
    }

    #[test]
    fn unknown_when_nothing_matches() {
        // AR-only test case on a fully patched part.
        let target = Target::target4();
        let tc = rvz_isa::builder::TestCaseBuilder::new()
            .block("entry", |b| {
                b.add_imm(rvz_isa::Reg::Rax, 1);
                b.exit();
            })
            .build();
        assert_eq!(classify(&target, &Contract::ct_cond_bpas(), &tc), VulnClass::Unknown);
    }

    #[test]
    fn display_labels_match_table3() {
        assert_eq!(format!("{}", VulnClass::SpectreV1), "V1");
        assert_eq!(format!("{}", VulnClass::SpectreV4Var), "V4-var");
        assert_eq!(format!("{}", VulnClass::LviNull), "LVI-Null");
        assert_eq!(format!("{}", VulnClass::SpectreV2), "V2-BTB");
        assert_eq!(format!("{}", VulnClass::SpectreV5Ret), "V5-ret");
    }

    #[test]
    fn zoo_scenarios_classify_by_terminator() {
        let c = classify(
            &Target::target11(),
            &Contract::ct_cond_bpas(),
            &gadgets::btb_aliasing_v2(),
        );
        assert_eq!(c, VulnClass::SpectreV2);
        let c = classify(
            &Target::target12(),
            &Contract::ct_cond_bpas(),
            &gadgets::deep_rsb_chain(20),
        );
        assert_eq!(c, VulnClass::SpectreV5Ret);
    }
}
