//! Micro-architecture configuration and CPU presets.

use crate::predictors::PredictorConfig;

/// Configuration of the simulated micro-architecture.
///
/// The fields are the knobs the paper's experimental setups vary (Table 2):
/// which CPU generation is being tested and which microcode patches are
/// applied, plus the structural parameters of the speculation machinery.
#[derive(Debug, Clone, PartialEq)]
pub struct UarchConfig {
    /// Part name used in reports.
    pub name: String,

    // --- structural parameters -------------------------------------------
    /// Maximum number of instructions executed on one speculative path
    /// (the reorder-buffer bound; the paper uses 250 for Skylake).
    pub speculation_window: usize,
    /// Maximum nesting depth of speculation episodes.
    pub max_nesting: usize,
    /// Extra cycles between a branch's inputs being ready and the squash of
    /// its wrong path (pipeline refill / misprediction penalty).
    pub misprediction_penalty: u64,
    /// Extra cycles after a store's address operands are ready before the
    /// store is considered resolved for memory disambiguation.
    pub store_address_delay: u64,
    /// Load-to-use latency on an L1D hit.
    pub load_hit_latency: u64,
    /// Load-to-use latency on an L1D miss that hits the L2 cache (the common
    /// case inside the sandbox working set).
    pub load_miss_latency: u64,
    /// Base latency of a division; the data-dependent part is added on top.
    pub div_base_latency: u64,
    /// Latency of a single-cycle ALU operation.
    pub alu_latency: u64,
    /// Cycles spent in a microcode assist before the faulting load is
    /// re-issued (the transient window of MDS/LVI).
    pub assist_latency: u64,

    // --- vulnerability switches -------------------------------------------
    /// The part predicts store/load aliasing and lets loads bypass older
    /// stores with unresolved addresses (Spectre V4 hardware capability).
    pub store_bypass: bool,
    /// The Speculative Store Bypass Disable microcode patch ("V4 patch" in
    /// Table 2): when `true`, loads never bypass stores.
    pub ssbd_patch: bool,
    /// Assisted/faulting loads transiently forward stale line-fill-buffer
    /// data (MDS family).  `false` on parts with the hardware MDS patch.
    pub mds_vulnerable: bool,
    /// Assisted/faulting loads transiently forward zero (LVI-Null); this is
    /// the behaviour of MDS-patched parts such as Coffee Lake.
    pub lvi_null_injection: bool,
    /// Speculative stores already allocate/modify cache lines before they
    /// retire.  The paper found this true on Coffee Lake and false on
    /// Skylake (§6.4).
    pub spec_store_touches_cache: bool,

    // --- prediction structures --------------------------------------------
    /// Which prediction structures the part uses (direction / indirect
    /// target / return); the default reproduces the original trio.
    pub predictors: PredictorConfig,
}

impl UarchConfig {
    /// Intel Core i7-6700 (Skylake) as tested in the paper, with the
    /// Spectre V4 microcode patch **disabled** (Targets 1-3).
    pub fn skylake() -> UarchConfig {
        UarchConfig {
            name: "Skylake (V4 patch off)".to_string(),
            speculation_window: 250,
            max_nesting: 2,
            misprediction_penalty: 20,
            store_address_delay: 14,
            load_hit_latency: 4,
            load_miss_latency: 12,
            div_base_latency: 12,
            alu_latency: 1,
            assist_latency: 120,
            store_bypass: true,
            ssbd_patch: false,
            mds_vulnerable: true,
            lvi_null_injection: false,
            spec_store_touches_cache: false,
            predictors: PredictorConfig::default(),
        }
    }

    /// Skylake with the Spectre V4 microcode patch **enabled** (Targets 4-7).
    pub fn skylake_patched() -> UarchConfig {
        let mut c = UarchConfig::skylake();
        c.name = "Skylake (V4 patch on)".to_string();
        c.ssbd_patch = true;
        c
    }

    /// Intel Core i7-9700 (Coffee Lake) as tested in the paper: hardware MDS
    /// patch (so assisted loads forward zeroes, i.e. LVI-Null), V4 patch on,
    /// and speculative stores already modify the cache (§6.4).
    pub fn coffee_lake() -> UarchConfig {
        UarchConfig {
            name: "Coffee Lake".to_string(),
            speculation_window: 250,
            max_nesting: 2,
            misprediction_penalty: 20,
            store_address_delay: 14,
            load_hit_latency: 4,
            load_miss_latency: 12,
            div_base_latency: 12,
            alu_latency: 1,
            assist_latency: 120,
            store_bypass: true,
            ssbd_patch: true,
            mds_vulnerable: false,
            lvi_null_injection: true,
            spec_store_touches_cache: true,
            predictors: PredictorConfig::default(),
        }
    }

    /// A hypothetical fully in-order, non-speculative part: no prediction,
    /// no bypass, no assists leakage.  Useful as a "compliant" baseline in
    /// tests — it should satisfy even CT-SEQ.
    pub fn in_order() -> UarchConfig {
        UarchConfig {
            name: "InOrder (no speculation)".to_string(),
            speculation_window: 0,
            max_nesting: 0,
            misprediction_penalty: 0,
            store_address_delay: 0,
            load_hit_latency: 4,
            load_miss_latency: 12,
            div_base_latency: 12,
            alu_latency: 1,
            assist_latency: 0,
            store_bypass: false,
            ssbd_patch: true,
            mds_vulnerable: false,
            lvi_null_injection: false,
            spec_store_touches_cache: false,
            predictors: PredictorConfig::default(),
        }
    }

    /// Select the prediction structures.  Non-default selections append the
    /// predictor label to the part name so reports and matrix-cell digests
    /// distinguish the configurations; the default selection leaves the name
    /// untouched (preserving pre-zoo digests).
    pub fn with_predictors(mut self, predictors: PredictorConfig) -> UarchConfig {
        if !predictors.is_default() {
            self.name = format!("{} [{}]", self.name, predictors.label());
        }
        self.predictors = predictors;
        self
    }

    /// Toggle the Spectre V4 (SSBD) microcode patch.
    pub fn with_v4_patch(mut self, enabled: bool) -> UarchConfig {
        self.ssbd_patch = enabled;
        let base = self.name.split(" (V4").next().unwrap_or(&self.name).to_string();
        self.name = format!("{} (V4 patch {})", base, if enabled { "on" } else { "off" });
        self
    }

    /// Data-dependent latency of a division with the given operands.
    ///
    /// The latency grows with the number of significant quotient bits.  The
    /// per-bit cost is deliberately steep (several cycles per bit) so that
    /// even the narrow value range produced by the low-entropy input
    /// generator straddles the misprediction window — which is the race
    /// behind the paper's novel V1-var/V4-var findings (§6.3).  Real
    /// dividers are faster per bit but operate on much wider value ranges;
    /// what matters for the reproduction is the *shape*: latency is a
    /// monotone, operand-dependent function that can win or lose the race
    /// against branch resolution.
    pub fn div_latency(&self, dividend_lo: u64, dividend_hi: u64, divisor: u64) -> u64 {
        let significant = if dividend_hi != 0 {
            128 - dividend_hi.leading_zeros() as u64
        } else {
            64 - dividend_lo.leading_zeros() as u64
        };
        let divisor_bits = 64 - divisor.leading_zeros() as u64;
        let quotient_bits = significant.saturating_sub(divisor_bits.saturating_sub(1));
        self.div_base_latency + quotient_bits * 8
    }

    /// Does the part perform speculative store bypass (capability present
    /// and not disabled by microcode)?
    pub fn bypass_active(&self) -> bool {
        self.store_bypass && !self.ssbd_patch
    }
}

impl Default for UarchConfig {
    fn default() -> Self {
        UarchConfig::skylake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_vulnerabilities() {
        let sky = UarchConfig::skylake();
        assert!(sky.bypass_active());
        assert!(sky.mds_vulnerable);
        assert!(!sky.lvi_null_injection);
        assert!(!sky.spec_store_touches_cache);

        let sky_p = UarchConfig::skylake_patched();
        assert!(!sky_p.bypass_active());
        assert!(sky_p.mds_vulnerable);

        let cfl = UarchConfig::coffee_lake();
        assert!(!cfl.mds_vulnerable);
        assert!(cfl.lvi_null_injection);
        assert!(cfl.spec_store_touches_cache);

        let inorder = UarchConfig::in_order();
        assert_eq!(inorder.speculation_window, 0);
        assert!(!inorder.bypass_active());
    }

    #[test]
    fn v4_patch_toggle_updates_name_and_flag() {
        let c = UarchConfig::skylake().with_v4_patch(true);
        assert!(c.ssbd_patch);
        assert!(c.name.contains("V4 patch on"));
        let c = c.with_v4_patch(false);
        assert!(!c.ssbd_patch);
        assert!(c.name.contains("V4 patch off"));
    }

    #[test]
    fn div_latency_is_data_dependent_and_monotone() {
        let c = UarchConfig::skylake();
        let small = c.div_latency(3, 0, 1);
        let large = c.div_latency(u64::MAX, 0, 1);
        let huge = c.div_latency(u64::MAX, 0xffff, 1);
        assert!(small < large, "{small} < {large}");
        assert!(large < huge);
        assert!(small >= c.div_base_latency);
    }

    #[test]
    fn div_latency_depends_on_divisor() {
        let c = UarchConfig::skylake();
        let wide = c.div_latency(u64::MAX, 0, 1);
        let narrow = c.div_latency(u64::MAX, 0, u64::MAX);
        assert!(narrow < wide, "larger divisor -> fewer quotient bits -> faster");
    }

    #[test]
    fn default_is_skylake() {
        assert_eq!(UarchConfig::default(), UarchConfig::skylake());
    }

    #[test]
    fn with_predictors_labels_non_default_selections() {
        let base = UarchConfig::skylake();
        let same = base.clone().with_predictors(PredictorConfig::default());
        assert_eq!(same, base, "default selection must not change the config");

        let tage = UarchConfig::skylake().with_predictors(PredictorConfig::tage());
        assert_eq!(tage.name, "Skylake (V4 patch off) [TAGE]");
        assert!(!tage.predictors.is_default());
    }
}
