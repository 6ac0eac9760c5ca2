//! Measurement modes and the noise model.

use std::fmt;

/// Which cache attack the executor performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SideChannelKind {
    /// Prime+Probe on the L1D cache (the paper's default).
    PrimeProbe,
    /// Flush+Reload on the sandbox lines.
    FlushReload,
    /// Evict+Reload on the sandbox lines.
    EvictReload,
}

impl fmt::Display for SideChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SideChannelKind::PrimeProbe => "Prime+Probe",
            SideChannelKind::FlushReload => "Flush+Reload",
            SideChannelKind::EvictReload => "Evict+Reload",
        };
        f.write_str(s)
    }
}

/// A measurement mode: a cache attack, optionally with microcode assists
/// (the `*+Assist` modes of §5.3, used for the MDS/LVI experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeasurementMode {
    /// The cache attack performed.
    pub channel: SideChannelKind,
    /// Whether the accessed-bit of a sandbox page is cleared before each
    /// run so that the first access triggers a microcode assist.
    pub assists: bool,
}

impl MeasurementMode {
    /// `Prime+Probe` (Targets 1-6 of Table 2).
    pub fn prime_probe() -> MeasurementMode {
        MeasurementMode { channel: SideChannelKind::PrimeProbe, assists: false }
    }

    /// `Prime+Probe+Assist` (Targets 7-8 of Table 2).
    pub fn prime_probe_assist() -> MeasurementMode {
        MeasurementMode { channel: SideChannelKind::PrimeProbe, assists: true }
    }

    /// `Flush+Reload`.
    pub fn flush_reload() -> MeasurementMode {
        MeasurementMode { channel: SideChannelKind::FlushReload, assists: false }
    }

    /// `Evict+Reload`.
    pub fn evict_reload() -> MeasurementMode {
        MeasurementMode { channel: SideChannelKind::EvictReload, assists: false }
    }

    /// Enable microcode assists on this mode.
    pub fn with_assists(mut self) -> MeasurementMode {
        self.assists = true;
        self
    }
}

impl fmt::Display for MeasurementMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.channel)?;
        if self.assists {
            write!(f, "+Assist")?;
        }
        Ok(())
    }
}

impl Default for MeasurementMode {
    fn default() -> Self {
        MeasurementMode::prime_probe()
    }
}

/// Synthetic measurement-noise model.
///
/// The real executor fights noise from prefetchers, SMIs and neighbouring
/// processes (CH5).  The simulator is deterministic, so the executor
/// injects equivalent disturbances on demand — this keeps the paper's
/// filtering pipeline (repetition, outlier discard, trace union, SMI
/// discard) honest and testable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Probability that a sample gains one spurious cache set (e.g. a
    /// prefetch or an unrelated eviction).
    pub one_off_probability: f64,
    /// Probability that a sample is polluted by a System Management
    /// Interrupt and must be discarded.
    pub smi_probability: f64,
    /// Seed for the noise PRNG (noise is reproducible).
    pub seed: u64,
}

impl NoiseConfig {
    /// No noise at all.
    pub fn none() -> NoiseConfig {
        NoiseConfig { one_off_probability: 0.0, smi_probability: 0.0, seed: 0 }
    }

    /// A realistic low-noise environment: occasional one-off outliers and
    /// rare SMIs.
    pub fn realistic(seed: u64) -> NoiseConfig {
        NoiseConfig { one_off_probability: 0.02, smi_probability: 0.01, seed }
    }

    /// Is any noise enabled?
    pub fn is_enabled(&self) -> bool {
        self.one_off_probability > 0.0 || self.smi_probability > 0.0
    }

    /// Derive the noise stream for one test case of a campaign from the
    /// test case's seed.
    ///
    /// Campaign round workers and the sequential replay APIs
    /// (`Revizor::test_case`) must share this derivation: it makes the
    /// stream a function of the test case alone, so a measurement does not
    /// depend on which worker — or after how many other test cases — it
    /// runs, and a campaign violation reproduces exactly when replayed.
    #[must_use]
    pub fn for_test_case_seed(mut self, test_case_seed: u64) -> NoiseConfig {
        if self.is_enabled() {
            self.seed ^= test_case_seed.rotate_left(17);
        }
        self
    }
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names() {
        assert_eq!(format!("{}", MeasurementMode::prime_probe()), "Prime+Probe");
        assert_eq!(format!("{}", MeasurementMode::prime_probe_assist()), "Prime+Probe+Assist");
        assert_eq!(format!("{}", MeasurementMode::flush_reload()), "Flush+Reload");
        assert_eq!(format!("{}", MeasurementMode::evict_reload().with_assists()), "Evict+Reload+Assist");
    }

    #[test]
    fn default_mode_is_prime_probe() {
        assert_eq!(MeasurementMode::default(), MeasurementMode::prime_probe());
        assert!(!MeasurementMode::default().assists);
    }

    #[test]
    fn noise_config_flags() {
        assert!(!NoiseConfig::none().is_enabled());
        assert!(NoiseConfig::realistic(1).is_enabled());
        assert_eq!(NoiseConfig::default(), NoiseConfig::none());
    }

    #[test]
    fn per_test_case_noise_derivation() {
        let base = NoiseConfig::realistic(5);
        assert_eq!(base.for_test_case_seed(1), base.for_test_case_seed(1));
        assert_ne!(base.for_test_case_seed(1).seed, base.for_test_case_seed(2).seed);
        // Disabled noise keeps its (unused) seed untouched.
        assert_eq!(NoiseConfig::none().for_test_case_seed(9), NoiseConfig::none());
    }
}
