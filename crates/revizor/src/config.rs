//! Fuzzer configuration.

use crate::targets::Target;
use rvz_executor::ExecutorConfig;
use rvz_gen::GeneratorConfig;
use rvz_model::Contract;

/// Configuration of one fuzzing campaign (one target, one contract).
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzerConfig {
    /// The contract the CPU is tested against.
    pub contract: Contract,
    /// Test-case / input generation parameters.
    pub generator: GeneratorConfig,
    /// Executor parameters (measurement mode, repetitions, noise).
    pub executor: ExecutorConfig,
    /// Stop after this many test cases if no violation was found.
    pub max_test_cases: usize,
    /// Base seed of the campaign; everything downstream is derived from it.
    pub seed: u64,
    /// Re-check reported violations with nested speculation enabled in the
    /// model, to filter false violations caused by the nesting-disabled
    /// default (§5.4).
    pub verify_with_nesting: bool,
    /// Re-check reported violations with the priming-swap test to filter
    /// divergence caused by the microarchitectural context (§5.3).
    pub priming_swap_check: bool,
    /// Discard statically-leak-impossible test cases before the model and
    /// hardware measurements (the [`staticanalysis`](crate::staticanalysis)
    /// pre-filter).  Sound — only true negatives are discarded — but off by
    /// default so reported test-case counts match the unfiltered pipeline.
    pub speculation_filter: bool,
    /// Number of test cases per testing round; the diversity analysis runs
    /// at round boundaries (§5.6).
    pub round_size: usize,
    /// Number of worker threads the campaign driver fans test cases out to
    /// within a round.  `1` processes rounds on the calling thread; larger
    /// values evaluate the test cases of one round concurrently.  Per-test-
    /// case seeding keeps the confirmed violations identical for any value
    /// of `parallelism` with a fixed campaign seed.
    pub parallelism: usize,
}

impl FuzzerConfig {
    /// Configuration for one of the paper's targets (Table 2) against a
    /// contract, with the paper's initial generator parameters.
    pub fn for_target(target: &Target, contract: Contract) -> FuzzerConfig {
        FuzzerConfig {
            contract,
            generator: GeneratorConfig::for_subset(target.isa),
            executor: ExecutorConfig::fast(target.mode),
            max_test_cases: 1000,
            seed: 0,
            verify_with_nesting: true,
            priming_swap_check: true,
            speculation_filter: false,
            round_size: 10,
            parallelism: 1,
        }
    }

    /// Builder: limit the number of test cases.
    pub fn with_max_test_cases(mut self, n: usize) -> FuzzerConfig {
        self.max_test_cases = n.max(1);
        self
    }

    /// Builder: set the number of inputs per test case.
    pub fn with_inputs_per_test_case(mut self, n: usize) -> FuzzerConfig {
        self.generator.inputs_per_test_case = n.max(2);
        self
    }

    /// Builder: set the campaign seed.
    pub fn with_seed(mut self, seed: u64) -> FuzzerConfig {
        self.seed = seed;
        self
    }

    /// Builder: replace the generator configuration.
    pub fn with_generator(mut self, generator: GeneratorConfig) -> FuzzerConfig {
        self.generator = generator;
        self
    }

    /// Builder: replace the executor configuration.
    pub fn with_executor(mut self, executor: ExecutorConfig) -> FuzzerConfig {
        self.executor = executor;
        self
    }

    /// Builder: set the number of round worker threads (`0` and `1`
    /// both mean single-threaded).
    pub fn with_parallelism(mut self, n: usize) -> FuzzerConfig {
        self.parallelism = n.max(1);
        self
    }

    /// Builder: enable or disable the static speculation pre-filter.
    pub fn with_speculation_filter(mut self, enabled: bool) -> FuzzerConfig {
        self.speculation_filter = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_isa::IsaSubset;

    #[test]
    fn for_target_inherits_isa_and_mode() {
        let t = Target::target5();
        let c = FuzzerConfig::for_target(&t, Contract::ct_seq());
        assert_eq!(c.generator.isa, IsaSubset::AR_MEM_CB);
        assert_eq!(c.executor.mode, t.mode);
        assert_eq!(c.contract, Contract::ct_seq());
        assert!(c.verify_with_nesting);
        assert!(c.priming_swap_check);
    }

    #[test]
    fn builders() {
        let c = FuzzerConfig::for_target(&Target::target1(), Contract::ct_seq())
            .with_max_test_cases(5)
            .with_inputs_per_test_case(7)
            .with_seed(42);
        assert_eq!(c.max_test_cases, 5);
        assert_eq!(c.generator.inputs_per_test_case, 7);
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn parallelism_defaults_to_one_and_is_clamped() {
        let c = FuzzerConfig::for_target(&Target::target1(), Contract::ct_seq());
        assert_eq!(c.parallelism, 1);
        assert_eq!(c.with_parallelism(0).parallelism, 1);
        let c = FuzzerConfig::for_target(&Target::target1(), Contract::ct_seq());
        assert_eq!(c.with_parallelism(4).parallelism, 4);
    }
}
