//! The end-to-end fuzzer (Figure 2).
//!
//! [`Revizor`] tests one target against one contract.  Its campaign loop is
//! not its own: [`Revizor::run`] is a one-cell run of the orchestrator's
//! [`MatrixRun::step`](crate::MatrixRun::step), the crate's only round
//! driver.  The campaign's seeds (`seed + index`), slate spec (its
//! executor, noise included, and filter switches), CPU and coverage probe
//! (its own contract, so the §5.6 feedback always runs) are data of that
//! cell's group.  The fuzzer then reads its report off the cell and the
//! stream as it stood at the violation.

use crate::campaign::{self, NoopObserver, ProgressObserver};
use crate::classify::VulnClass;
use crate::config::FuzzerConfig;
use crate::diversity::PatternCoverage;
use crate::orchestrator::CampaignMatrix;
use crate::staticanalysis::{self, GadgetSignature};
use crate::targets::Target;
use rvz_analyzer::{AnalysisResult, Analyzer, Violation};
use rvz_emu::Fault;
use rvz_executor::Executor;
use rvz_gen::InputGenerator;
use rvz_isa::{Input, TestCase};
use rvz_model::Contract;
use rvz_uarch::SpecCpu;
use std::time::{Duration, Instant};

/// The result of testing one test case with one input batch.
#[derive(Debug, Clone)]
pub struct TestCaseOutcome {
    /// The inputs used (in priming order).
    pub inputs: Vec<Input>,
    /// The raw relational-analysis result.
    pub analysis: AnalysisResult,
    /// A violation that survived the priming-swap and nesting re-checks.
    pub confirmed_violation: Option<Violation>,
    /// Violations discarded by the priming-swap check (§5.3).
    pub discarded_as_artifact: usize,
    /// Violations discarded by the nested-speculation re-check (§5.4).
    pub discarded_by_nesting: usize,
}

/// A confirmed counterexample, with everything needed to reproduce and
/// minimize it.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationReport {
    /// The violating test case.
    pub test_case: TestCase,
    /// The input sequence (priming order).
    pub inputs: Vec<Input>,
    /// The diverging input pair and their traces.
    pub violation: Violation,
    /// The violated contract.
    pub contract: Contract,
    /// The per-test-case seed the campaign evaluated this test case with.
    /// Replaying it through [`Revizor::test_case`] on a fuzzer with the
    /// generator configuration that was in effect for this round
    /// reproduces the same inputs and (under synthetic noise) the same
    /// noise stream.  Escalations (§5.6) change that configuration at round
    /// boundaries; when one happened before the violation, replay the
    /// recorded [`inputs`](ViolationReport::inputs) directly via
    /// [`Revizor::test_with_inputs`] after seeding the executor's noise
    /// stream with [`NoiseConfig::for_test_case_seed`](rvz_executor::NoiseConfig::for_test_case_seed).
    pub test_case_seed: u64,
    /// Heuristic classification of the underlying vulnerability.
    pub vulnerability: VulnClass,
    /// Static gadget signature of the violating program (source kind ×
    /// dependency shape × transmitter kind), for deduplicating equivalent
    /// gadgets across campaigns.  `None` when the static pass cannot
    /// attribute the leak to a transmitter.
    pub gadget: Option<GadgetSignature>,
    /// Number of test cases executed up to and including this one.
    pub test_cases_until_detection: usize,
    /// Number of inputs executed up to and including this test case.
    pub inputs_until_detection: usize,
}

/// Summary of a fuzzing campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// The first confirmed violation, if any.
    pub violation: Option<ViolationReport>,
    /// Test cases executed.
    pub test_cases: usize,
    /// Test cases generated, including ones the static pre-filter discarded
    /// before measurement.  Equals [`test_cases`](FuzzReport::test_cases)
    /// when the filter is off.
    pub generated: usize,
    /// Test cases discarded by the static speculation pre-filter.
    pub statically_filtered: usize,
    /// Inputs executed (across all test cases).
    pub total_inputs: usize,
    /// Testing rounds completed.
    pub rounds: usize,
    /// Generator escalations triggered by the diversity analysis.
    pub escalations: usize,
    /// Wall-clock duration of the campaign.
    pub duration: Duration,
    /// Mean input effectiveness across test cases (§5.2 / CH2).
    pub mean_effectiveness: f64,
    /// Final pattern coverage (§5.6).
    pub coverage: PatternCoverage,
}

impl FuzzReport {
    /// Did the campaign find a confirmed violation?
    pub fn found_violation(&self) -> bool {
        self.violation.is_some()
    }

    /// Test cases processed per second (the §6.5 fuzzing-speed metric).
    pub fn test_cases_per_second(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.test_cases as f64 / secs
        }
    }
}

/// The Revizor fuzzer: ties the generator, model, executor, analyzer and
/// diversity analysis into the testing loop of Figure 2.
#[derive(Debug)]
pub struct Revizor {
    config: FuzzerConfig,
    target: Option<Target>,
    executor: Executor<SpecCpu>,
    analyzer: Analyzer,
    coverage: PatternCoverage,
}

impl Revizor {
    /// Convenience constructor for one of the paper's targets.
    pub fn for_target(target: &Target, contract: Contract) -> Revizor {
        let config = FuzzerConfig::for_target(target, contract);
        Revizor::new(target.cpu(), config).with_target(target.clone())
    }

    /// Create a fuzzer around a CPU under test.
    pub fn new(cpu: SpecCpu, config: FuzzerConfig) -> Revizor {
        let executor = Executor::new(cpu, config.executor);
        Revizor {
            config,
            target: None,
            executor,
            analyzer: Analyzer::new(),
            coverage: PatternCoverage::new(),
        }
    }

    /// Attach the target description (enables vulnerability classification).
    pub fn with_target(mut self, target: Target) -> Revizor {
        self.target = Some(target);
        self
    }

    /// The campaign configuration.
    pub fn config(&self) -> &FuzzerConfig {
        &self.config
    }

    /// Current pattern coverage.
    pub fn coverage(&self) -> &PatternCoverage {
        &self.coverage
    }

    /// Access to the executor (and through it, the CPU under test).
    pub fn executor_mut(&mut self) -> &mut Executor<SpecCpu> {
        &mut self.executor
    }

    /// Test one test case with the deterministic input batch and noise
    /// stream a campaign round worker would use for `seed` — the sequential
    /// half of the replay contract: evaluating the test case the campaign
    /// generated for `seed` through this method reproduces the campaign's
    /// measurement exactly (see [`ViolationReport::test_case_seed`]).
    ///
    /// # Errors
    /// Propagates architectural faults (which generated test cases never
    /// produce).
    pub fn test_case(&mut self, tc: &TestCase, seed: u64) -> Result<TestCaseOutcome, Fault> {
        let generator = &self.config.generator;
        let inputs = InputGenerator::new(generator.input_entropy_bits).generate(
            tc,
            campaign::input_stream_seed(seed),
            generator.inputs_per_test_case,
        );
        self.executor.reseed_noise(self.config.executor.noise.for_test_case_seed(seed));
        self.test_with_inputs(tc, &inputs)
    }

    /// Test one test case with an explicit input sequence (used by the
    /// postprocessor and the handwritten-gadget experiments).
    ///
    /// # Errors
    /// Propagates architectural faults.
    pub fn test_with_inputs(
        &mut self,
        tc: &TestCase,
        inputs: &[Input],
    ) -> Result<TestCaseOutcome, Fault> {
        let outcome = campaign::evaluate_slate(
            &mut self.executor,
            &self.analyzer,
            (&self.config).into(),
            std::slice::from_ref(&self.config.contract),
            tc,
            inputs,
        )?
        .pop()
        .expect("single-contract slate");
        self.coverage.update(&outcome.class_members);
        Ok(TestCaseOutcome {
            inputs: inputs.to_vec(),
            analysis: outcome.analysis,
            confirmed_violation: outcome.confirmed_violation,
            discarded_as_artifact: outcome.discarded_as_artifact,
            discarded_by_nesting: outcome.discarded_by_nesting,
        })
    }

    /// Run the fuzzing campaign until a confirmed violation is found or the
    /// test-case budget is exhausted.
    ///
    /// The campaign proceeds in testing rounds of
    /// [`FuzzerConfig::round_size`] test cases, evaluated with
    /// [`FuzzerConfig::parallelism`] worker threads — each round's test
    /// cases are independent (fresh microarchitectural state, per-test-case
    /// seeds), so they fan out across cores.  The round driver is the
    /// orchestrator's (see the module docs): it merges the results in
    /// campaign order and applies the diversity feedback (§5.6) at round
    /// boundaries; the report stops at the first confirmed violation.  For
    /// a fixed campaign seed the confirmed violation and all report
    /// counters are independent of `parallelism`.
    ///
    /// The campaign starts from the current generator configuration and
    /// pattern coverage and leaves both where the violation (or the
    /// budget) found them, so [`Revizor::config`] and [`Revizor::coverage`]
    /// read the escalated state afterwards.
    pub fn run(&mut self) -> FuzzReport {
        self.run_with_observer(&mut NoopObserver)
    }

    /// Run the fuzzing campaign (see [`Revizor::run`]), reporting a
    /// [`RoundEvent`](crate::RoundEvent) to `observer` at every completed
    /// testing round (the round a violation cuts short included) and a
    /// [`CellEvent`](crate::CellEvent) when the campaign finishes.  Events
    /// are emitted from the driving thread in campaign order and do not
    /// affect the campaign's results.
    pub fn run_with_observer(&mut self, observer: &mut dyn ProgressObserver) -> FuzzReport {
        let start = Instant::now();
        // Without a target the run still needs one for its cell: a stand-in
        // with this CPU, whose classification is dropped below.
        let target = self.target.clone().unwrap_or_else(|| Target {
            id: 0,
            cpu_config: self.executor.cpu().config().clone(),
            isa: self.config.generator.isa,
            mode: self.config.executor.mode,
            scenario: None,
        });
        let coverage = std::mem::take(&mut self.coverage);
        let (cell, stop) = CampaignMatrix::run_campaign(
            &self.config,
            target,
            self.executor.cpu().clone(),
            coverage,
            observer,
        );
        self.config.generator = stop.generator;
        self.coverage = stop.coverage.clone();
        let mut violation = cell.violation;
        if let (None, Some(v)) = (&self.target, &mut violation) {
            v.vulnerability = VulnClass::Unknown;
            v.gadget = staticanalysis::gadget_class(&v.test_case, None);
        }
        FuzzReport {
            violation,
            test_cases: cell.test_cases,
            generated: stop.generated,
            statically_filtered: cell.filtered,
            total_inputs: cell.total_inputs,
            rounds: stop.rounds,
            escalations: stop.escalations,
            duration: start.elapsed(),
            mean_effectiveness: if cell.test_cases == 0 {
                0.0
            } else {
                stop.effectiveness_ratios / cell.test_cases as f64
            },
            coverage: stop.coverage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets;
    use rvz_executor::ExecutorConfig;
    use rvz_gen::ProgramGenerator;

    fn quick_config(target: &Target, contract: Contract) -> FuzzerConfig {
        // Start from a mid-campaign generator configuration (as if a few
        // escalation rounds already happened) so the unit test stays fast.
        let generator = rvz_gen::GeneratorConfig::for_subset(target.isa)
            .with_basic_blocks(4)
            .with_instructions(14);
        FuzzerConfig::for_target(target, contract)
            .with_generator(generator)
            .with_executor(ExecutorConfig::fast(target.mode).with_repetitions(2))
            .with_inputs_per_test_case(20)
            // Detection is stochastic in the PRNG stream; with the vendored
            // `rand` stand-in, seed 1 finds its first V1 at test case 75,
            // so the budget leaves headroom rather than encoding one
            // particular random stream.
            .with_max_test_cases(120)
            .with_seed(1)
    }

    #[test]
    fn baseline_target1_complies_with_ct_seq() {
        // Table 3, column 1: AR-only test cases on Skylake never violate
        // CT-SEQ — no false positives.
        let target = Target::target1();
        let config = quick_config(&target, Contract::ct_seq()).with_max_test_cases(15);
        let mut r = Revizor::new(target.cpu(), config).with_target(target.clone());
        let report = r.run();
        assert!(!report.found_violation(), "baseline must not report violations");
        assert!(report.test_cases > 0);
    }

    #[test]
    fn target5_violates_ct_seq_with_spectre_v1() {
        let target = Target::target5();
        let config = quick_config(&target, Contract::ct_seq());
        let mut r = Revizor::new(target.cpu(), config).with_target(target.clone());
        let report = r.run();
        assert!(report.found_violation(), "Spectre V1 must surface as a CT-SEQ violation");
        let v = report.violation.unwrap();
        assert_eq!(v.vulnerability, VulnClass::SpectreV1);
        assert!(v.test_case.conditional_branch_count() > 0);
    }

    #[test]
    fn target5_complies_with_ct_cond() {
        // CT-COND permits leakage during branch prediction, so the V1-only
        // target no longer violates it (Table 3, Target 5 row CT-COND).
        let target = Target::target5();
        let config = quick_config(&target, Contract::ct_cond()).with_max_test_cases(15);
        let mut r = Revizor::new(target.cpu(), config).with_target(target.clone());
        let report = r.run();
        assert!(!report.found_violation());
    }

    #[test]
    fn handwritten_v1_gadget_detected_quickly() {
        let target = Target::target5();
        let config = quick_config(&target, Contract::ct_seq());
        let mut r = Revizor::new(target.cpu(), config).with_target(target.clone());
        let tc = gadgets::spectre_v1();
        let outcome = r.test_case(&tc, 7).unwrap();
        assert!(outcome.confirmed_violation.is_some(), "handwritten V1 gadget must violate CT-SEQ");
    }

    #[test]
    fn noisy_campaign_violation_reproduces_through_public_api() {
        use rvz_executor::NoiseConfig;
        let target = Target::target5();
        let generator = rvz_gen::GeneratorConfig::for_subset(target.isa)
            .with_basic_blocks(4)
            .with_instructions(14);
        let noise = NoiseConfig { one_off_probability: 0.05, smi_probability: 0.05, seed: 17 };
        let mut config = FuzzerConfig::for_target(&target, Contract::ct_seq())
            .with_generator(generator)
            .with_executor(ExecutorConfig::fast(target.mode).with_repetitions(5).with_noise(noise))
            .with_inputs_per_test_case(20)
            // Under this noise stream the first violating test case sits at
            // absolute seed ~162; start nearby so the test stays fast.
            .with_max_test_cases(60)
            .with_seed(150);
        // One (partial) round for the whole budget: the generator never
        // escalates, so the violating test case can be regenerated from its
        // campaign seed alone.
        config.round_size = 1000;

        let mut fuzzer = Revizor::new(target.cpu(), config.clone()).with_target(target.clone());
        let report = fuzzer.run();
        let v = report.violation.expect("noisy campaign must find Spectre V1");

        // Replay through the public sequential API on a fresh fuzzer: the
        // shared seed derivation must reproduce the same inputs, the same
        // noise stream, and therefore the exact same confirmed violation.
        let tc = ProgramGenerator::new(config.generator.clone()).generate(v.test_case_seed);
        let mut replay = Revizor::new(target.cpu(), config).with_target(target.clone());
        let outcome = replay.test_case(&tc, v.test_case_seed).unwrap();
        assert_eq!(outcome.inputs, v.inputs, "input batch must match the campaign's");
        let rv = outcome.confirmed_violation.expect("violation must reproduce under replay");
        assert_eq!((rv.input_a, rv.input_b), (v.violation.input_a, v.violation.input_b));
        assert_eq!(rv.htrace_a, v.violation.htrace_a);
        assert_eq!(rv.htrace_b, v.violation.htrace_b);
    }

    #[test]
    fn partial_final_round_is_counted_without_escalation() {
        // `max_test_cases = 10, round_size = 4` runs rounds of 4, 4 and 2
        // test cases: the final partial round counts toward `rounds` but
        // has no boundary, so it never escalates the generator.
        let run_with_budget = |max: usize| {
            let target = Target::target1();
            let mut config = quick_config(&target, Contract::ct_seq()).with_max_test_cases(max);
            config.round_size = 4;
            Revizor::new(target.cpu(), config).with_target(target.clone()).run()
        };
        let full = run_with_budget(8);
        let partial = run_with_budget(10);
        assert_eq!(full.rounds, 2);
        assert_eq!(partial.test_cases, 10);
        assert_eq!(partial.rounds, 3, "the final partial round must be counted");
        assert_eq!(
            partial.escalations, full.escalations,
            "a partial round has no boundary and must not escalate"
        );
    }

    #[test]
    fn zero_round_size_terminates() {
        // `round_size` is a public field; a zero value must not stall the
        // campaign loop (it is clamped to 1).
        let target = Target::target1();
        let mut config = quick_config(&target, Contract::ct_seq()).with_max_test_cases(3);
        config.round_size = 0;
        let report = Revizor::new(target.cpu(), config).with_target(target.clone()).run();
        assert_eq!(report.test_cases, 3);
        assert_eq!(report.rounds, 3);
    }

    #[test]
    fn report_metrics_are_populated() {
        let target = Target::target1();
        let config = quick_config(&target, Contract::ct_seq()).with_max_test_cases(12);
        let mut r = Revizor::new(target.cpu(), config).with_target(target.clone());
        let report = r.run();
        assert_eq!(report.test_cases, 12);
        assert!(report.total_inputs >= 12 * 20);
        assert!(report.rounds >= 1);
        assert!(report.mean_effectiveness > 0.0, "low-entropy inputs must collide");
        assert!(report.test_cases_per_second() > 0.0);
    }
}
