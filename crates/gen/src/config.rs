//! Generator configuration.

use crate::scenario::Scenario;
use rvz_isa::{IsaSubset, Reg};

/// Configuration of the test-case generator (§5.1) and the input generator
/// (§5.2).
///
/// The defaults follow the paper's starting configuration (§6.1): 8
/// instructions, 2 memory accesses and 2 basic blocks per test case, 2 bits
/// of input entropy, 50 inputs per test case; the diversity analysis grows
/// these over testing rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// ISA subset to sample instructions from.
    pub isa: IsaSubset,
    /// Target number of *random* instructions per test case (instrumentation
    /// instructions such as address masks come on top, as in Figure 3).
    pub instructions: usize,
    /// Number of basic blocks.
    pub basic_blocks: usize,
    /// Minimum number of memory-accessing instructions (only relevant when
    /// the subset includes `MEM`).
    pub memory_accesses: usize,
    /// Registers the generated code may use freely (the paper restricts the
    /// generator to four registers to improve input effectiveness).
    pub registers: Vec<Reg>,
    /// Number of 4 KiB sandbox data pages (1 or 2).
    pub sandbox_pages: u64,
    /// Entropy (in bits) of generated input values; lower entropy gives
    /// higher input effectiveness.
    pub input_entropy_bits: u32,
    /// Number of inputs generated per test case.
    pub inputs_per_test_case: usize,
    /// Randomize the cache-line offset added to masked addresses (the same
    /// offset within a test case, different across test cases).
    pub randomize_line_offset: bool,
    /// Place memory-accessing instructions only in blocks *after* the entry
    /// block (detection-speed tuning).  Speculative leaks need a memory
    /// access on a mispredicted path — i.e. *behind* a branch — but the
    /// uniform round-robin placement parks a large share of the memory
    /// accesses in the entry block, where they execute before any branch
    /// and can never leak speculatively.  The bias moves them behind the
    /// entry block's terminator without consuming any generator randomness,
    /// so all other generation decisions are unchanged for a given seed.
    /// It only takes effect for ISA subsets with conditional branches
    /// (elsewhere there is no mispredicted path to hide a load behind, and
    /// the displacement measurably *hurts* assist-based detection).
    /// Off by default (the paper's generator is unbiased); enabled by the
    /// campaign orchestrator's detection-tuned configuration.  Measured on
    /// Target 5 × CT-SEQ (orchestrator defaults, seeds 0–7): first V1 at
    /// 15/68/142/105/6/150/80/157 test cases unbiased vs 15/16/4/12/4/29/1/20
    /// biased — a ~7× mean speedup.
    pub branch_then_load_bias: bool,
    /// Pin generation to a handwritten scenario gadget instead of random
    /// programs (the seed still varies the input streams).  `None`, the
    /// default, keeps the random generator.
    pub scenario: Option<Scenario>,
}

impl GeneratorConfig {
    /// The paper's initial configuration (§6.1).
    pub fn paper_initial() -> GeneratorConfig {
        GeneratorConfig {
            isa: IsaSubset::AR_MEM_CB,
            instructions: 8,
            basic_blocks: 2,
            memory_accesses: 2,
            registers: Reg::GENERATOR_SET.to_vec(),
            sandbox_pages: 1,
            input_entropy_bits: 2,
            inputs_per_test_case: 50,
            randomize_line_offset: true,
            branch_then_load_bias: false,
            scenario: None,
        }
    }

    /// Initial configuration restricted to a particular ISA subset.
    pub fn for_subset(isa: IsaSubset) -> GeneratorConfig {
        GeneratorConfig { isa, ..GeneratorConfig::paper_initial() }
    }

    /// Grow the configuration for the next testing round, as the diversity
    /// analysis does when pattern coverage stalls (§5.6): more instructions,
    /// more basic blocks and more inputs per test case (e.g. 8/2/50 →
    /// 15/3/75 in the paper's example).  The input entropy is left alone —
    /// raising it would lower input effectiveness (§5.2).
    pub fn escalate(&mut self) {
        self.instructions = (self.instructions * 3 / 2).max(self.instructions + 2).min(64);
        self.basic_blocks = (self.basic_blocks + 1).min(8);
        self.memory_accesses = (self.memory_accesses + 1).min(16);
        self.inputs_per_test_case = (self.inputs_per_test_case * 3 / 2).min(200);
    }

    /// Builder: set the instruction count.
    pub fn with_instructions(mut self, n: usize) -> GeneratorConfig {
        self.instructions = n;
        self
    }

    /// Builder: set the basic-block count.
    pub fn with_basic_blocks(mut self, n: usize) -> GeneratorConfig {
        self.basic_blocks = n.max(1);
        self
    }

    /// Builder: set the number of inputs per test case.
    pub fn with_inputs(mut self, n: usize) -> GeneratorConfig {
        self.inputs_per_test_case = n.max(2);
        self
    }

    /// Builder: set the input entropy.
    pub fn with_entropy(mut self, bits: u32) -> GeneratorConfig {
        self.input_entropy_bits = bits;
        self
    }

    /// Builder: enable or disable the branch-then-load placement bias.
    pub fn with_branch_then_load_bias(mut self, bias: bool) -> GeneratorConfig {
        self.branch_then_load_bias = bias;
        self
    }

    /// Builder: pin generation to a scenario gadget.
    pub fn with_scenario(mut self, scenario: Scenario) -> GeneratorConfig {
        self.scenario = Some(scenario);
        self
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig::paper_initial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_initial_matches_section_6_1() {
        let c = GeneratorConfig::paper_initial();
        assert_eq!(c.instructions, 8);
        assert_eq!(c.basic_blocks, 2);
        assert_eq!(c.memory_accesses, 2);
        assert_eq!(c.input_entropy_bits, 2);
        assert_eq!(c.inputs_per_test_case, 50);
        assert_eq!(c.registers.len(), 4);
    }

    #[test]
    fn escalate_grows_sizes_but_not_entropy() {
        let mut c = GeneratorConfig::paper_initial();
        let before = c.clone();
        c.escalate();
        assert!(c.instructions > before.instructions);
        assert!(c.basic_blocks > before.basic_blocks);
        assert!(c.inputs_per_test_case > before.inputs_per_test_case);
        assert_eq!(c.input_entropy_bits, before.input_entropy_bits);
    }

    #[test]
    fn escalate_saturates() {
        let mut c = GeneratorConfig::paper_initial();
        for _ in 0..30 {
            c.escalate();
        }
        assert!(c.instructions <= 64);
        assert!(c.basic_blocks <= 8);
        assert!(c.inputs_per_test_case <= 200);
    }

    #[test]
    fn builders() {
        let c = GeneratorConfig::for_subset(IsaSubset::AR)
            .with_instructions(12)
            .with_basic_blocks(3)
            .with_inputs(10)
            .with_entropy(4);
        assert_eq!(c.isa, IsaSubset::AR);
        assert_eq!(c.instructions, 12);
        assert_eq!(c.basic_blocks, 3);
        assert_eq!(c.inputs_per_test_case, 10);
        assert_eq!(c.input_entropy_bits, 4);
    }
}
