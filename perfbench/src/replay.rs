//! The traced replay: `campaign::evaluate_seed` re-enacted from the
//! workspace's public functions, with a span around every stage.
//!
//! The stages are called in the program's own order — program generation,
//! the static filter (when the configuration enables it), input generation,
//! decode, contract model, hardware traces, analysis, the §5.3 swap check
//! and the §5.4 nesting re-check — so the replay does the same work the
//! untraced program does.  [`Stages::check_fidelity`] proves it: each
//! replayed [`SeedEval`] must equal `campaign::evaluate_seed` for the same
//! spec and seed.
//!
//! Matrix workloads are replayed wave by wave.  The slates (which cells are
//! still open, and where each group's stream stands) come from the
//! checkpoint `MatrixRun::checkpoint` takes before each wave.

use crate::trace::Tracer;
use revizor::campaign::{self, ContractOutcome, SeedEval, SlateChecks, SlateSpec, SlateUnit};
use revizor::orchestrator::{CampaignMatrix, MatrixCheckpoint, MatrixReport};
use revizor::staticanalysis;
use revizor::targets::Target;
use rvz_analyzer::Analyzer;
use rvz_executor::{Executor, ExecutorConfig};
use rvz_gen::{GeneratorConfig, InputGenerator, ProgramGenerator};
use rvz_isa::DecodedProgram;
use rvz_model::{CTrace, Contract, ContractModel, ExecutionInfo};
use rvz_uarch::SpecCpu;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Stage span names, in program order.  Their self times must cover the
/// traced wall (`trace.coverage`).
pub const STAGES: [&str; 11] = [
    "gen.program",
    "static.filter",
    "gen.inputs",
    "executor.new",
    "isa.decode",
    "model.collect",
    "executor.htrace",
    "analyzer.check",
    "analyzer.classes",
    "campaign.swap",
    "campaign.nesting",
];

/// Work counted at the stage boundaries.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Seeds replayed.
    pub units: u64,
    /// Seeds measured (not filtered, not faulted).
    pub measured: u64,
    /// Generated programs the static filter rejects (counted whether or not
    /// the configuration enables the filter).
    pub filter_rejects: u64,
    /// Generated programs the static filter was asked about.
    pub filter_checked: u64,
    /// Time of the static filter when the configuration leaves it off and
    /// the replay asks it anyway (excluded from the traced wall).
    pub filter_probe: Duration,
    /// Architecturally executed instructions across model passes.
    pub model_instrs: u64,
    /// Speculative paths the model explored.
    pub spec_paths: u64,
    /// Hardware-trace collections, false-positive filters included.
    pub collections: u64,
    /// CPU runs of the baseline collections ((warm-up + repetitions) x inputs).
    pub baseline_runs: u64,
    /// Violations the relational analysis reported.
    pub raw_violations: u64,
    /// Priming-swap checks run (§5.3).
    pub swap_checks: u64,
    /// Nested-speculation re-checks run (§5.4).
    pub nesting_checks: u64,
    /// Violations that survived both filters.
    pub confirmed: u64,
    /// Replayed seeds whose result differed from `evaluate_seed`.
    pub mismatches: u64,
}

/// Spans and counters of one traced run.
#[derive(Debug, Default)]
pub struct Stages {
    /// The spans.
    pub tracer: Tracer,
    /// The counters.
    pub counters: Counters,
    /// Wall time of the replay loops, with fidelity checks and filter
    /// probes taken out: the traced wall.
    pub wall: Duration,
    /// Time spent in fidelity checks and filter probes so far.
    excluded: Duration,
}

/// The per-test-case input stream seed, as `revizor::campaign` derives it.
/// The fidelity check fails if the two ever diverge.
fn input_stream_seed(test_case_seed: u64) -> u64 {
    test_case_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl Stages {
    /// Evaluate one seed with a span around every stage.
    pub fn evaluate_seed(&mut self, cpu: &SpecCpu, spec: &SlateSpec, seed: u64) -> SeedEval {
        let t = &mut self.tracer;
        let c = &mut self.counters;
        c.units += 1;
        let unit = t.open("unit", None);

        let tc = t.leaf("gen.program", unit, || {
            ProgramGenerator::new(spec.generator.clone()).generate(seed)
        });
        // The `*+Assist` executor modes arm an assist page even when the
        // sandbox does not declare one.
        let assists = spec.executor.mode.assists || tc.sandbox().assist_page.is_some();
        c.filter_checked += 1;
        let leaks = if spec.speculation_filter {
            t.leaf("static.filter", unit, || {
                staticanalysis::leak_possible(&tc, assists)
            })
        } else {
            let probe = Instant::now();
            let leaks = staticanalysis::leak_possible(&tc, assists);
            c.filter_probe += probe.elapsed();
            self.excluded += probe.elapsed();
            leaks
        };
        if !leaks {
            c.filter_rejects += 1;
        }
        let eval = if spec.speculation_filter && !leaks {
            SeedEval::Filtered
        } else {
            let n = spec.generator.inputs_per_test_case;
            let inputs = t.leaf("gen.inputs", unit, || {
                InputGenerator::new(spec.generator.input_entropy_bits).generate(
                    &tc,
                    input_stream_seed(seed),
                    n,
                )
            });
            let mut exec_cfg = spec.executor;
            exec_cfg.noise = exec_cfg.noise.for_test_case_seed(seed);
            let mut executor = t.leaf("executor.new", unit, || {
                Executor::new(cpu.clone(), exec_cfg)
            });
            match evaluate_slate(t, c, unit, &mut executor, spec, &tc, &inputs) {
                Some(outcomes) => {
                    c.measured += 1;
                    SeedEval::Measured(Box::new(SlateUnit {
                        seed,
                        tc,
                        inputs,
                        outcomes,
                    }))
                }
                None => SeedEval::Faulted,
            }
        };
        t.close(unit);
        eval
    }

    /// Run a replay loop, adding its wall time, minus what it spent in
    /// fidelity checks and filter probes, to the traced wall.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Stages) -> R) -> R {
        let (start, excluded) = (Instant::now(), self.excluded);
        let out = f(self);
        self.wall += start.elapsed().saturating_sub(self.excluded - excluded);
        out
    }

    /// Compare a replayed result with `campaign::evaluate_seed` for the same
    /// spec and seed (untimed).  Returns whether they agree.
    pub fn check_fidelity(
        &mut self,
        cpu: &SpecCpu,
        spec: &SlateSpec,
        seed: u64,
        replayed: &SeedEval,
    ) -> bool {
        let start = Instant::now();
        let same = campaign::evaluate_seed(cpu, spec, seed) == *replayed;
        self.excluded += start.elapsed();
        if !same {
            self.counters.mismatches += 1;
        }
        same
    }

    /// Self time per stage, plus the total.
    pub fn stage_times(&self) -> (BTreeMap<&'static str, Duration>, Duration) {
        let all = self.tracer.self_times();
        let stages: BTreeMap<_, _> = STAGES
            .iter()
            .map(|s| (*s, all.get(s).copied().unwrap_or_default()))
            .collect();
        let total = stages.values().sum();
        (stages, total)
    }
}

/// `campaign::evaluate_slate`, stage by stage.  `None` on a fault.
fn evaluate_slate(
    t: &mut Tracer,
    c: &mut Counters,
    unit: usize,
    executor: &mut Executor<SpecCpu>,
    spec: &SlateSpec,
    tc: &rvz_isa::TestCase,
    inputs: &[rvz_isa::Input],
) -> Option<Vec<ContractOutcome>> {
    let contracts = &spec.contracts;
    let prog = t
        .leaf("isa.decode", unit, || DecodedProgram::decode(tc))
        .ok()?;

    let mut ctraces: Vec<Vec<CTrace>> = vec![Vec::with_capacity(inputs.len()); contracts.len()];
    let mut infos: Vec<Vec<ExecutionInfo>> =
        vec![Vec::with_capacity(inputs.len()); contracts.len()];
    let model = t.open("model.collect", Some(unit));
    for input in inputs {
        let outs = ContractModel::collect_many_decoded(contracts, &prog, input).ok()?;
        // The architectural pass is shared by the slate: count it once.
        c.model_instrs += outs.first().map_or(0, |o| o.info.executed.len() as u64);
        for (k, out) in outs.into_iter().enumerate() {
            c.spec_paths += out.info.speculative_paths as u64;
            ctraces[k].push(out.trace);
            infos[k].push(out.info);
        }
    }
    t.close(model);

    let before = executor.collection_count();
    let htraces = t
        .leaf("executor.htrace", unit, || {
            executor.collect_htraces_decoded(&prog, inputs)
        })
        .ok()?;
    let cfg = spec.executor;
    c.baseline_runs += ((cfg.warmup_rounds + cfg.repetitions) * inputs.len()) as u64;
    let noise_mark = executor.noise_checkpoint();
    let analyzer = Analyzer::new();
    let checks: SlateChecks = spec.checks;

    let mut outcomes = Vec::with_capacity(contracts.len());
    for (k, contract) in contracts.iter().enumerate() {
        executor.restore_noise_checkpoint(&noise_mark);
        let analysis = t.leaf("analyzer.check", unit, || {
            analyzer.check(&ctraces[k], &htraces)
        });
        c.raw_violations += analysis.violations.len() as u64;
        let class_members: Vec<Vec<ExecutionInfo>> = t.leaf("analyzer.classes", unit, || {
            analyzer
                .input_classes(&ctraces[k])
                .iter()
                .filter(|cl| cl.is_effective())
                .map(|cl| cl.members.iter().map(|&i| infos[k][i].clone()).collect())
                .collect()
        });

        let mut discarded_as_artifact = 0;
        let mut discarded_by_nesting = 0;
        let mut confirmed = None;
        for v in &analysis.violations {
            if checks.priming_swap_check {
                c.swap_checks += 1;
                let artifact = t.leaf("campaign.swap", unit, || {
                    executor.is_measurement_artifact_decoded(
                        &prog, inputs, &htraces, v.input_a, v.input_b,
                    )
                });
                if artifact.ok()? {
                    discarded_as_artifact += 1;
                    continue;
                }
            }
            if checks.verify_with_nesting && contract.speculation_window > 0 {
                c.nesting_checks += 1;
                let differ = t.leaf("campaign.nesting", unit, || {
                    let nested = ContractModel::new(contract.clone().with_nesting(true));
                    let a = nested
                        .collect_decoded(&prog, &inputs[v.input_a])
                        .map(|o| o.trace);
                    let b = nested
                        .collect_decoded(&prog, &inputs[v.input_b])
                        .map(|o| o.trace);
                    Some(a.ok()? != b.ok()?)
                });
                if differ? {
                    discarded_by_nesting += 1;
                    continue;
                }
            }
            confirmed = Some(v.clone());
            break;
        }
        c.confirmed += u64::from(confirmed.is_some());
        outcomes.push(ContractOutcome {
            contract: contract.clone(),
            analysis,
            confirmed_violation: confirmed,
            discarded_as_artifact,
            discarded_by_nesting,
            class_members,
        });
    }
    c.collections += executor.collection_count() - before;
    Some(outcomes)
}

/// The matrix parameters the replay must know.  `CampaignMatrix` keeps them
/// private, so every workload sets each of them explicitly through this.
#[derive(Debug, Clone, Copy)]
pub struct MatrixParams {
    pub budget: usize,
    pub round_size: usize,
    pub parallelism: usize,
    pub inputs_per_test_case: usize,
    pub repetitions: usize,
    pub basic_blocks: usize,
    pub instructions: usize,
    pub branch_then_load_bias: bool,
}

impl MatrixParams {
    /// The detection-harness parameters `CampaignMatrix::new` documents.
    pub fn detection(budget: usize, parallelism: usize) -> MatrixParams {
        MatrixParams {
            budget,
            round_size: 10,
            parallelism,
            inputs_per_test_case: 20,
            repetitions: 2,
            basic_blocks: 4,
            instructions: 14,
            branch_then_load_bias: true,
        }
    }

    /// Apply every parameter to `matrix` (escalation off: the replay
    /// re-enacts fixed-configuration cell groups only).
    pub fn apply(&self, matrix: CampaignMatrix) -> CampaignMatrix {
        matrix
            .with_budget(self.budget)
            .with_round_size(self.round_size)
            .with_parallelism(self.parallelism)
            .with_inputs_per_test_case(self.inputs_per_test_case)
            .with_repetitions(self.repetitions)
            .with_generator_size(self.basic_blocks, self.instructions)
            .with_branch_then_load_bias(self.branch_then_load_bias)
            .with_escalation(false)
    }

    /// The slate spec a group of `target` runs with.
    fn spec(
        &self,
        target: &Target,
        contracts: Vec<Contract>,
        speculation_filter: bool,
    ) -> SlateSpec {
        let mut generator = GeneratorConfig::for_subset(target.isa)
            .with_basic_blocks(self.basic_blocks)
            .with_instructions(self.instructions)
            .with_branch_then_load_bias(self.branch_then_load_bias);
        generator.inputs_per_test_case = self.inputs_per_test_case;
        generator.scenario = target.scenario.clone();
        SlateSpec {
            generator,
            executor: ExecutorConfig::fast(target.mode).with_repetitions(self.repetitions),
            checks: SlateChecks::all(),
            contracts,
            speculation_filter,
        }
    }
}

/// Does `matrix` run the static speculation filter?  `CampaignMatrix` does
/// not expose the flag, but its checkpoint digest covers it.
pub fn filter_enabled(matrix: &CampaignMatrix) -> bool {
    let digest = |m: &CampaignMatrix| m.initial_checkpoint().config_digest;
    digest(matrix) == digest(&matrix.clone().with_speculation_filter(true))
}

/// The seed of a group's `index`-th test case, as the orchestrator derives
/// it.  The fidelity check fails if the two ever diverge.
fn unit_seed(matrix_seed: u64, target_id: u8, index: usize) -> u64 {
    let mut x = matrix_seed
        ^ u64::from(target_id).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (index as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A matrix driven wave by wave at its own parallelism, untraced.
pub struct DrivenMatrix {
    /// The final report.
    pub report: MatrixReport,
    /// The checkpoint before each wave, then the final one.
    pub checkpoints: Vec<MatrixCheckpoint>,
    /// Wall time of each `MatrixRun::step` that found work.
    pub wave_times: Vec<Duration>,
    /// Round events the run delivered.
    pub rounds: usize,
}

struct RoundCounter(usize);

impl campaign::ProgressObserver for RoundCounter {
    fn round_completed(&mut self, _event: &campaign::RoundEvent) {
        self.0 += 1;
    }
}

/// Drive `matrix` through `MatrixRun::step`, timing each wave and taking a
/// checkpoint before it.
pub fn drive(matrix: &CampaignMatrix) -> DrivenMatrix {
    let mut run = matrix.start();
    let mut observer = RoundCounter(0);
    let mut checkpoints = vec![run.checkpoint()];
    let mut wave_times = Vec::new();
    loop {
        let t0 = Instant::now();
        let more = run.step(&mut observer);
        if !more {
            break;
        }
        wave_times.push(t0.elapsed());
        checkpoints.push(run.checkpoint());
    }
    let report = run.finish(&mut observer);
    DrivenMatrix {
        report,
        checkpoints,
        wave_times,
        rounds: observer.0,
    }
}

/// Replay every wave of a driven matrix with stage spans, check each seed's
/// fidelity, and check that the replay reproduces every cell's verdict and
/// violating `test_case_seed`.  Returns the number of cells that did not
/// reproduce.
pub fn replay_matrix(
    st: &mut Stages,
    matrix: &CampaignMatrix,
    params: &MatrixParams,
    driven: &DrivenMatrix,
) -> u64 {
    let filter = filter_enabled(matrix);
    let catalog = Target::catalog();
    let cells = matrix.cells();
    // Per cell: the seed of its first confirmed violation in stream order.
    let mut found: Vec<Option<u64>> = vec![None; cells.len()];
    let waves = driven.checkpoints.len().saturating_sub(1);
    st.timed(|st| {
        for cp in &driven.checkpoints[..waves] {
            for group in &cp.groups {
                let Some(target) = catalog.iter().find(|t| t.id == group.target_id) else {
                    continue;
                };
                let active: Vec<usize> = (0..cells.len())
                    .filter(|&i| cells[i].target.id == group.target_id && cp.cells[i].is_none())
                    .collect();
                if active.is_empty() || group.next_index >= params.budget {
                    continue;
                }
                let contracts = active.iter().map(|&i| cells[i].contract.clone()).collect();
                let spec = params.spec(target, contracts, filter);
                let cpu = target.cpu();
                let end = (group.next_index + params.round_size).min(params.budget);
                for index in group.next_index..end {
                    let seed = unit_seed(matrix.seed(), target.id, index);
                    let eval = st.evaluate_seed(&cpu, &spec, seed);
                    st.check_fidelity(&cpu, &spec, seed, &eval);
                    if let SeedEval::Measured(unit) = &eval {
                        for (k, &cell) in active.iter().enumerate() {
                            if found[cell].is_none()
                                && unit.outcomes[k].confirmed_violation.is_some()
                            {
                                found[cell] = Some(seed);
                            }
                        }
                    }
                }
            }
        }
    });
    let reported = driven
        .report
        .cells
        .iter()
        .map(|c| c.violation.as_ref().map(|v| v.test_case_seed));
    found
        .into_iter()
        .zip(reported)
        .filter(|(replayed, reported)| replayed != reported)
        .count() as u64
}

impl DrivenMatrix {
    /// Summed unit evaluation time of every group (the pool's useful work).
    pub fn work(&self) -> Duration {
        self.checkpoints
            .last()
            .map_or(Duration::ZERO, |cp| cp.groups.iter().map(|g| g.work).sum())
    }

    /// Summed wall time of the waves.
    pub fn wave_wall(&self) -> Duration {
        self.wave_times.iter().sum()
    }
}
