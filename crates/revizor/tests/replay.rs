//! The executor's converged-pass replay against the full schedule.
//!
//! With noise off, [`Executor`] stops simulating once a measured pass ends
//! in the carried CPU state it started from, and replays that pass's
//! samples for the remaining repetitions.  This test is the executable
//! statement that the shortcut is exact: a [`SpecCpu`] executor (which
//! exports its state and therefore replays) and the same CPU behind a
//! wrapper that keeps the trait's default hook (and therefore runs every
//! pass) must produce byte-identical hardware traces, priming-swap verdicts
//! and final CPU state on every target, side channel and schedule shape.

use revizor::targets::Target;
use rvz_cache::Cache;
use rvz_emu::Fault;
use rvz_executor::{Executor, ExecutorConfig, MeasurementMode, SideChannelKind};
use rvz_gen::{GeneratorConfig, InputGenerator, ProgramGenerator};
use rvz_isa::builder::TestCaseBuilder;
use rvz_isa::{Cond, DecodedProgram, Input, Reg, TestCase};
use rvz_uarch::{CpuUnderTest, RunOptions, RunOutcome, SpecCpu, UarchConfig};

/// A [`SpecCpu`] that forwards every run but keeps the default
/// [`CpuUnderTest::carried_state`], so an executor around it measures the
/// whole warm-up + repetition schedule.
struct FullScheduleCpu(SpecCpu);

impl CpuUnderTest for FullScheduleCpu {
    fn name(&self) -> String {
        self.0.name()
    }

    fn run(&mut self, tc: &TestCase, input: &Input, opts: &RunOptions) -> Result<RunOutcome, Fault> {
        self.0.run(tc, input, opts)
    }

    fn run_decoded(
        &mut self,
        prog: &DecodedProgram,
        input: &Input,
        opts: &RunOptions,
    ) -> Result<RunOutcome, Fault> {
        self.0.run_decoded(prog, input, opts)
    }

    fn cache_mut(&mut self) -> &mut Cache {
        self.0.cache_mut()
    }

    fn reset_uarch(&mut self) {
        self.0.reset_uarch();
    }
}

fn carried(cpu: &SpecCpu) -> Vec<u64> {
    let mut out = Vec::new();
    assert!(cpu.carried_state(&mut out));
    out
}

/// The target's pinned scenario, or a generated program of its ISA subset.
fn test_case(target: &Target, seed: u64) -> TestCase {
    match &target.scenario {
        Some(scenario) => scenario.build(),
        None => ProgramGenerator::new(
            GeneratorConfig::for_subset(target.isa).with_basic_blocks(4).with_instructions(12),
        )
        .generate(seed),
    }
}

const CHANNELS: [SideChannelKind; 3] =
    [SideChannelKind::PrimeProbe, SideChannelKind::FlushReload, SideChannelKind::EvictReload];
const WARMUPS: [usize; 3] = [0, 1, 3];
const REPETITIONS: [usize; 5] = [1, 2, 3, 5, 50];

#[test]
fn replaying_executor_is_byte_identical_to_the_full_schedule() {
    let targets = Target::catalog();
    assert_eq!(targets.len(), 13, "every target of the catalog");
    for target in &targets {
        let seed = 100 + target.id as u64;
        let tc = test_case(target, seed);
        let prog = DecodedProgram::decode(&tc).expect("test cases decode");
        let inputs = InputGenerator::new(4).generate(&tc, seed ^ 0x5eed, 6);
        let mut replayed_on_target = 0;
        for channel in CHANNELS {
            let mode = MeasurementMode { channel, assists: target.mode.assists };
            for warmup_rounds in WARMUPS {
                for repetitions in REPETITIONS {
                    let cfg = ExecutorConfig {
                        warmup_rounds,
                        repetitions,
                        ..ExecutorConfig::fast(mode)
                    };
                    let what = format!("{target} {mode} warm-up {warmup_rounds} reps {repetitions}");
                    let mut replay = Executor::new(target.cpu(), cfg);
                    let mut full = Executor::new(FullScheduleCpu(target.cpu()), cfg);

                    let traces = replay.collect_htraces_decoded(&prog, &inputs);
                    assert_eq!(traces, full.collect_htraces_decoded(&prog, &inputs), "{what}");
                    assert_eq!(carried(replay.cpu()), carried(&full.cpu().0), "{what}: end state");
                    let Ok(baseline) = traces else { continue };

                    // The priming-swap check re-collects two sequences.
                    for (i, j) in [(0, inputs.len() - 1), (1, 2)] {
                        assert_eq!(
                            replay.is_measurement_artifact_decoded(&prog, &inputs, &baseline, i, j),
                            full.is_measurement_artifact_decoded(&prog, &inputs, &baseline, i, j),
                            "{what}: swap {i}<->{j}"
                        );
                    }

                    let scheduled = 5 * (warmup_rounds + repetitions) as u64;
                    assert_eq!(full.replayed_passes(), 0, "{what}: no hook, no replay");
                    assert_eq!(full.simulated_passes(), scheduled, "{what}");
                    assert_eq!(
                        replay.simulated_passes() + replay.replayed_passes(),
                        scheduled,
                        "{what}: every scheduled pass is simulated or replayed"
                    );
                    if repetitions == 1 {
                        assert_eq!(replay.replayed_passes(), 0, "{what}: nothing to replay");
                    }
                    replayed_on_target += replay.replayed_passes();
                }
            }
        }
        assert!(replayed_on_target > 0, "{target}: the replay never fired");
    }
}

#[test]
fn replay_carries_state_across_collections_without_reset() {
    // Without a reset between test cases the state a replayed collection
    // leaves behind primes the next one: it must be the full schedule's.
    let target = Target::target5();
    let tc = test_case(&target, 7);
    let inputs = InputGenerator::new(4).generate(&tc, 8, 6);
    let cfg = ExecutorConfig {
        reset_between_test_cases: false,
        ..ExecutorConfig::paper(target.mode)
    };
    let mut replay = Executor::new(target.cpu(), cfg);
    let mut full = Executor::new(FullScheduleCpu(target.cpu()), cfg);
    for round in 0..3 {
        let order: Vec<Input> = inputs.iter().cycle().skip(round).take(inputs.len()).cloned().collect();
        assert_eq!(replay.collect_htraces(&tc, &order), full.collect_htraces(&tc, &order));
        assert_eq!(carried(replay.cpu()), carried(&full.cpu().0));
    }
    assert!(replay.replayed_passes() > 0);
}

#[test]
fn replay_waits_until_the_predictors_settle() {
    // A Spectre-V1 gadget under Flush+Reload whose last input touches no
    // memory: every pass boundary leaves the cache empty, exactly as after
    // the reset, while the branch predictor is still training.  The first
    // pass mistrains the victim input into a speculative leak (set 31); the
    // counter then settles lower and no later pass leaks.  Comparing only
    // the cache would replay the first pass and keep the one-off leak.
    let tc = TestCaseBuilder::new()
        .block("entry", |b| {
            b.cmp_imm(Reg::Rax, 8);
            b.jcc(Cond::B, "in", "out");
        })
        .block("in", |b| {
            b.and_imm(Reg::Rbx, 0b111111000000);
            b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
            b.jmp("out");
        })
        .block("out", |b| b.exit())
        .build();
    let input = |rax: u64, rbx: u64| {
        let mut i = Input::zeroed(tc.sandbox());
        i.set_reg(Reg::Rax, rax);
        i.set_reg(Reg::Rbx, rbx);
        i
    };
    // In bounds (trains taken), the victim, then two out-of-bounds inputs
    // that train the counter back down without touching memory.
    let inputs = [input(1, 0x40), input(100, 0x7c0), input(100, 0x100), input(100, 0x200)];
    let cfg = ExecutorConfig {
        warmup_rounds: 0,
        repetitions: 50,
        ..ExecutorConfig::fast(MeasurementMode::flush_reload())
    };
    let cpu = || SpecCpu::new(UarchConfig::skylake());
    let mut replay = Executor::new(cpu(), cfg);
    let mut full = Executor::new(FullScheduleCpu(cpu()), cfg);
    let traces = replay.collect_htraces(&tc, &inputs).expect("no fault");
    assert_eq!(traces, full.collect_htraces(&tc, &inputs).expect("no fault"));
    assert!(!traces[1].sets().contains(31), "the first pass's leak is a one-off");

    let mut first_pass = cfg;
    first_pass.repetitions = 1;
    let first = Executor::new(cpu(), first_pass).collect_htraces(&tc, &inputs).expect("no fault");
    assert!(first[1].sets().contains(31), "the first pass leaks");
    // The replay still fires once the predictor (history register
    // included) repeats: 4 branch outcomes per pass fill the 64-bit history
    // after 16 passes, and the 17th pass is the first fixed point.
    assert_eq!(replay.simulated_passes(), 17);
    assert_eq!(replay.replayed_passes(), 33);
}
