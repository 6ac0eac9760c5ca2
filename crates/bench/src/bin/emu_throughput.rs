//! emu_throughput: the machine-readable perf trajectory of the pre-decoded
//! emulator inner loop, written to `BENCH_emu.json` (same pattern as
//! `fleet-bench` / `BENCH_fleet.json`) so future changes can track the
//! interpreter's throughput without parsing README prose.
//!
//! ```text
//! emu_throughput [--out=BENCH_emu.json] [--programs=8] [--reps=N]
//! ```
//!
//! Three sections, one per execution layer, each timing the retained
//! reference interpreter (per-step AST walk, heap-allocated effect lists,
//! full-state-clone speculation checkpoints) against the pre-decoded loop
//! (dense instruction array decoded once per program, inline event buffers,
//! delta checkpoints) over the same generated workload:
//!
//! * `arch`  — the architectural runner ([`Runner`]), no speculation;
//! * `model` — the contract model (CT-COND-BPAS with nested speculation:
//!   the heaviest ctrace collection loop);
//! * `uarch` — the speculative CPU ([`SpecCpu`]) with assists enabled.
//!
//! Decode time is charged to the decoded side (once per program, amortized
//! over `reps × inputs` runs — exactly how the executor and campaign use
//! it).  Before anything is timed, every (program, input) pair is run
//! through both paths and compared; `verdicts_identical` in the output is
//! that comparison, asserted in-binary.  A speedup that changes verdicts is
//! a bug, not a result.
//!
//! A fourth section, `executor`, times whole hardware-trace collections
//! over the same workload at [`ExecutorConfig::fast`] and
//! [`ExecutorConfig::paper`]: the executor as it runs (replaying
//! repetitions once the CPU's carried state repeats) against the same CPU
//! behind a wrapper that hides that state and so forces the full warm-up +
//! repetition schedule.  It reports scheduled and simulated passes and both
//! timings; `executor.traces_identical` (traces and priming-swap verdicts
//! of both executors) is asserted in-binary the same way.

use rvz_bench::json::Json;
use rvz_bench::{flag_from_args, flag_value_from_args};
use rvz_cache::Cache;
use rvz_emu::{Fault, Runner};
use rvz_executor::{Executor, ExecutorConfig};
use rvz_gen::{GeneratorConfig, InputGenerator, ProgramGenerator};
use rvz_isa::{DecodedProgram, Input, TestCase};
use rvz_model::{Contract, ContractModel};
use rvz_uarch::{CpuUnderTest, RunOptions, RunOutcome, SpecCpu};
use std::time::{Duration, Instant};

const HELP: &str = "emu_throughput: write the emulator inner-loop perf trajectory to BENCH_emu.json

usage: emu_throughput [options]

  --out=PATH       output file (default BENCH_emu.json)
  --programs=N     generated programs per section (default 8)
  --reps=N         timed repetitions of the whole workload (default: per-section;
                   the executor's paper configuration runs N/10, at least 1)
  -h, --help       this text
";

/// Number of inputs per generated program.
const INPUTS: usize = 8;
/// Generator shape: matches the campaign default (4 blocks, 12 instructions).
const BLOCKS: usize = 4;
const INSTRUCTIONS: usize = 12;
/// Workload seed.
const SEED: u64 = 29;

/// The generated workload: programs from the target-8 row (full instruction
/// set, conditional branches, store bypass, microcode assists) so every
/// speculation mechanism is on the timed path.
fn workload() -> (Vec<(TestCase, Vec<Input>)>, revizor::targets::Target) {
    let target = revizor::targets::Target::target8();
    let programs = flag_value_from_args::<usize>("--programs").unwrap_or(8);
    let generator = ProgramGenerator::new(
        GeneratorConfig::for_subset(target.isa)
            .with_basic_blocks(BLOCKS)
            .with_instructions(INSTRUCTIONS),
    );
    let cases = (0..programs as u64)
        .map(|i| {
            let tc = generator.generate(SEED + i);
            let inputs = InputGenerator::new(4).generate(&tc, SEED ^ (i + 1), INPUTS);
            (tc, inputs)
        })
        .collect();
    (cases, target)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One section's timings rendered the same way as `BENCH_fleet.json`'s
/// `fleet_speedup`: instructions per timed pass, before/after wall-clock,
/// instructions per second for each side, and the ratio.
fn section(instructions: u64, reference: Duration, decoded: Duration, checksum: u64) -> Json {
    Json::obj()
        .field("instructions", instructions)
        .field("reference_ms", ms(reference))
        .field("decoded_ms", ms(decoded))
        .field("reference_instr_per_sec", instructions as f64 / reference.as_secs_f64())
        .field("decoded_instr_per_sec", instructions as f64 / decoded.as_secs_f64())
        .field("speedup", reference.as_secs_f64() / decoded.as_secs_f64())
        .field("checksum", checksum)
}

/// Architectural runner: the plain (non-speculative) interpreter loop.
///
/// The decoded side is timed in its zero-cost-tracer configuration
/// ([`Runner::run_final_decoded`], `NoTrace` sink): every in-tree production
/// consumer of the architectural runner only needs the fault outcome or the
/// final state, and the reference interpreter has no way to skip its
/// per-step trace bookkeeping — that asymmetry is the point of the
/// monomorphized sink.  The full-`ExecTrace` decoded walk is reported
/// alongside as `decoded_trace_ms`.
fn bench_arch(cases: &[(TestCase, Vec<Input>)], reps: usize) -> (Json, bool) {
    // Correctness pass: both trace-building paths agree on every step, block
    // and the final architectural state, the trace-free pass agrees on the
    // final state, and the per-pass instruction count is recorded.
    let mut identical = true;
    let mut instructions = 0u64;
    for (tc, inputs) in cases {
        let prog = DecodedProgram::decode(tc).expect("generated programs decode");
        for input in inputs {
            let quiet = Runner::run_final_decoded(&prog, input, 4096);
            match (Runner::new(tc).run(input), Runner::new(tc).run_reference(input)) {
                (Ok(d), Ok(r)) => {
                    identical &= d.steps == r.steps
                        && d.block_order == r.block_order
                        && d.final_state == r.final_state
                        && quiet.as_ref().ok() == Some(&r.final_state);
                    instructions += d.len() as u64;
                }
                (Err(d), Err(r)) => identical &= d == r && quiet.as_ref().err() == Some(&r),
                _ => identical = false,
            }
        }
    }

    let mut checksum = 0u64;
    let reference_start = Instant::now();
    for _ in 0..reps {
        for (tc, inputs) in cases {
            let runner = Runner::new(tc);
            for input in inputs {
                if let Ok(trace) = runner.run_reference(input) {
                    checksum = checksum.wrapping_add(trace.final_state.reg(rvz_isa::Reg::Rax));
                }
            }
        }
    }
    let reference = reference_start.elapsed();

    let trace_start = Instant::now();
    // Decode charged here, once per program — exactly how the executor and
    // campaign pay for it (decoded once, reused across reps and inputs).
    let programs: Vec<DecodedProgram> = cases
        .iter()
        .map(|(tc, _)| DecodedProgram::decode(tc).expect("generated programs decode"))
        .collect();
    for _ in 0..reps {
        for (prog, (_, inputs)) in programs.iter().zip(cases) {
            for input in inputs {
                if let Ok(trace) = Runner::run_decoded(prog, input, 4096) {
                    checksum = checksum.wrapping_add(trace.final_state.reg(rvz_isa::Reg::Rax));
                }
            }
        }
    }
    let decoded_trace = trace_start.elapsed();

    let decoded_start = Instant::now();
    for _ in 0..reps {
        for (prog, (_, inputs)) in programs.iter().zip(cases) {
            for input in inputs {
                if let Ok(state) = Runner::run_final_decoded(prog, input, 4096) {
                    checksum = checksum.wrapping_add(state.reg(rvz_isa::Reg::Rax));
                }
            }
        }
    }
    let decoded = decoded_start.elapsed();

    let json = section(instructions * reps as u64, reference, decoded, checksum)
        .field("decoded_trace_ms", ms(decoded_trace));
    (json, identical)
}

/// Contract model: ctrace collection under CT-COND-BPAS with nested
/// speculation — the heaviest contract the campaign runs, and the loop where
/// delta checkpoints replace a full `ArchState` clone per episode.
fn bench_model(cases: &[(TestCase, Vec<Input>)], reps: usize) -> (Json, bool) {
    let model = ContractModel::new(Contract::ct_cond_bpas().with_nesting(true));

    let mut identical = true;
    let mut instructions = 0u64;
    for (tc, inputs) in cases {
        for input in inputs {
            identical &= model.collect(tc, input) == model.collect_reference(tc, input);
            if let Ok(trace) = Runner::new(tc).run(input) {
                instructions += trace.len() as u64;
            }
        }
    }

    let mut checksum = 0u64;
    let reference_start = Instant::now();
    for _ in 0..reps {
        for (tc, inputs) in cases {
            for input in inputs {
                if let Ok(out) = model.collect_reference(tc, input) {
                    checksum = checksum.wrapping_add(out.trace.digest());
                }
            }
        }
    }
    let reference = reference_start.elapsed();

    let decoded_start = Instant::now();
    let programs: Vec<DecodedProgram> = cases
        .iter()
        .map(|(tc, _)| DecodedProgram::decode(tc).expect("generated programs decode"))
        .collect();
    for _ in 0..reps {
        for (prog, (_, inputs)) in programs.iter().zip(cases) {
            for input in inputs {
                if let Ok(out) = model.collect_decoded(prog, input) {
                    checksum = checksum.wrapping_add(out.trace.digest());
                }
            }
        }
    }
    let decoded = decoded_start.elapsed();

    (section(instructions * reps as u64, reference, decoded, checksum), identical)
}

/// Speculative CPU: the executor's hot loop, with microcode assists enabled
/// (the target-8 measurement mode) and persistent predictor state across the
/// input sequence, exactly like priming.
fn bench_uarch(
    cases: &[(TestCase, Vec<Input>)],
    target: &revizor::targets::Target,
    reps: usize,
) -> (Json, bool) {
    let opts = RunOptions { enable_assists: target.mode.assists };

    let mut identical = true;
    let mut instructions = 0u64;
    {
        let mut dec_cpu = target.cpu();
        let mut ref_cpu = target.cpu();
        for (tc, inputs) in cases {
            dec_cpu.reset_uarch();
            ref_cpu.reset_uarch();
            for input in inputs {
                let d = dec_cpu.run(tc, input, &opts);
                let r = ref_cpu.run_reference(tc, input, &opts);
                identical &= d == r;
                if let Ok(out) = d {
                    instructions += out.executed_instructions as u64;
                }
            }
            identical &= dec_cpu.cache() == ref_cpu.cache();
        }
    }

    let mut checksum = 0u64;
    let mut cpu = target.cpu();
    let reference_start = Instant::now();
    for _ in 0..reps {
        for (tc, inputs) in cases {
            cpu.reset_uarch();
            for input in inputs {
                if let Ok(out) = cpu.run_reference(tc, input, &opts) {
                    checksum = checksum.wrapping_add(out.final_state_digest);
                }
            }
        }
    }
    let reference = reference_start.elapsed();

    let mut cpu = target.cpu();
    let decoded_start = Instant::now();
    let programs: Vec<DecodedProgram> = cases
        .iter()
        .map(|(tc, _)| DecodedProgram::decode(tc).expect("generated programs decode"))
        .collect();
    for _ in 0..reps {
        for (prog, (_, inputs)) in programs.iter().zip(cases) {
            cpu.reset_uarch();
            for input in inputs {
                if let Ok(out) = cpu.run_decoded(prog, input, &opts) {
                    checksum = checksum.wrapping_add(out.final_state_digest);
                }
            }
        }
    }
    let decoded = decoded_start.elapsed();

    (section(instructions * reps as u64, reference, decoded, checksum), identical)
}

/// A [`SpecCpu`] that keeps [`CpuUnderTest::carried_state`]'s default, so
/// an executor around it cannot tell when its state repeats and runs every
/// scheduled pass.
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

/// Time one collection of every program through `executor`, adding the
/// elapsed time to `total` and folding the traces into `checksum` so the
/// work cannot be optimized away.
fn time_collections<C: CpuUnderTest>(
    executor: &mut Executor<C>,
    programs: &[(DecodedProgram, &[Input])],
    total: &mut Duration,
    checksum: &mut u64,
) {
    let start = Instant::now();
    for (prog, inputs) in programs {
        if let Ok(traces) = executor.collect_htraces_decoded(prog, inputs) {
            for t in traces {
                *checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(t.sets().bits() ^ u64::from(t.samples()));
            }
        }
    }
    *total += start.elapsed();
}

/// One executor configuration: identity first (traces of every program and
/// a priming-swap check of its first and last input, on both executors),
/// then `reps` timed collections of the workload on each.
fn bench_executor_config(
    programs: &[(DecodedProgram, &[Input])],
    target: &revizor::targets::Target,
    cfg: ExecutorConfig,
    reps: usize,
) -> (Json, bool) {
    let mut replaying = Executor::new(target.cpu(), cfg);
    let mut full = Executor::new(FullScheduleCpu(target.cpu()), cfg);
    let mut identical = true;
    for (prog, inputs) in programs {
        let traces = replaying.collect_htraces_decoded(prog, inputs);
        identical &= traces == full.collect_htraces_decoded(prog, inputs);
        if let Ok(baseline) = traces {
            let last = inputs.len() - 1;
            identical &= replaying.is_measurement_artifact_decoded(prog, inputs, &baseline, 0, last)
                == full.is_measurement_artifact_decoded(prog, inputs, &baseline, 0, last);
        }
    }

    // The two executors alternate per repetition, so host-load drift hits
    // both sides alike.
    let mut replaying = Executor::new(target.cpu(), cfg);
    let mut full = Executor::new(FullScheduleCpu(target.cpu()), cfg);
    let (mut full_time, mut replaying_time) = (Duration::ZERO, Duration::ZERO);
    let (mut full_sum, mut replaying_sum) = (0u64, 0u64);
    for _ in 0..reps {
        time_collections(&mut full, programs, &mut full_time, &mut full_sum);
        time_collections(&mut replaying, programs, &mut replaying_time, &mut replaying_sum);
    }
    identical &= full_sum == replaying_sum;
    let json = Json::obj()
        .field("repetitions", cfg.repetitions as u64)
        .field("warmup_rounds", cfg.warmup_rounds as u64)
        .field("reps", reps as u64)
        .field("scheduled_passes", full.simulated_passes())
        .field("simulated_passes", replaying.simulated_passes())
        .field(
            "simulated_share",
            replaying.simulated_passes() as f64 / full.simulated_passes() as f64,
        )
        .field("full_ms", ms(full_time))
        .field("replaying_ms", ms(replaying_time))
        .field("speedup", full_time.as_secs_f64() / replaying_time.as_secs_f64())
        .field("checksum", replaying_sum);
    (json, identical)
}

/// Executor: whole hardware-trace collections (priming, measurement,
/// merge) at the fast and the paper configuration, replaying against the
/// full schedule.
fn bench_executor(
    cases: &[(TestCase, Vec<Input>)],
    target: &revizor::targets::Target,
    reps: usize,
) -> (Json, bool) {
    let programs: Vec<(DecodedProgram, &[Input])> = cases
        .iter()
        .map(|(tc, inputs)| {
            (DecodedProgram::decode(tc).expect("generated programs decode"), inputs.as_slice())
        })
        .collect();
    let (fast, fast_ok) =
        bench_executor_config(&programs, target, ExecutorConfig::fast(target.mode), reps);
    let (paper, paper_ok) = bench_executor_config(
        &programs,
        target,
        ExecutorConfig::paper(target.mode),
        (reps / 10).max(1),
    );
    let identical = fast_ok && paper_ok;
    let json = Json::obj()
        .field("fast", fast)
        .field("paper", paper)
        .field("traces_identical", identical);
    (json, identical)
}

fn main() {
    if flag_from_args("--help") || flag_from_args("-h") {
        print!("{HELP}");
        return;
    }
    let out =
        flag_value_from_args::<String>("--out").unwrap_or_else(|| "BENCH_emu.json".to_string());
    let reps_override = flag_value_from_args::<usize>("--reps");

    let (cases, target) = workload();
    let programs = cases.len();

    // Per-section repetition counts sized so each timed pass is long enough
    // to be stable on a shared machine (the uarch loop does far more work
    // per instruction than the plain runner).
    let arch_reps = reps_override.unwrap_or(400);
    let model_reps = reps_override.unwrap_or(200);
    let uarch_reps = reps_override.unwrap_or(60);
    let executor_reps = reps_override.unwrap_or(80);

    eprintln!("emu_throughput: timing the architectural runner...");
    let (arch, arch_ok) = bench_arch(&cases, arch_reps);
    eprintln!("emu_throughput: timing the contract model (CT-COND-BPAS, nested)...");
    let (model, model_ok) = bench_model(&cases, model_reps);
    eprintln!("emu_throughput: timing the speculative CPU ({})...", target.cpu().name());
    let (uarch, uarch_ok) = bench_uarch(&cases, &target, uarch_reps);
    eprintln!("emu_throughput: timing the executor (replaying vs full schedule)...");
    let (executor, executor_ok) = bench_executor(&cases, &target, executor_reps);

    let identical = arch_ok && model_ok && uarch_ok;
    assert!(
        identical,
        "decoded loop diverged from the reference interpreter \
         (arch={arch_ok} model={model_ok} uarch={uarch_ok})"
    );
    assert!(executor_ok, "the replaying executor diverged from the full schedule");

    let doc = Json::obj()
        .field("bench", "emu")
        .field(
            "workload",
            Json::obj()
                .field("programs", programs as u64)
                .field("inputs_per_program", INPUTS as u64)
                .field("blocks", BLOCKS as u64)
                .field("instructions_per_program", INSTRUCTIONS as u64)
                .field("seed", SEED)
                .field("target", target.cpu().name())
                .field("arch_reps", arch_reps as u64)
                .field("model_reps", model_reps as u64)
                .field("uarch_reps", uarch_reps as u64)
                .field("executor_reps", executor_reps as u64),
        )
        .field("arch", arch)
        .field("model", model)
        .field("uarch", uarch)
        .field("executor", executor)
        .field("verdicts_identical", identical);
    std::fs::write(&out, format!("{}\n", doc.render_pretty())).expect("bench file written");
    eprintln!("emu_throughput: wrote {out}");
    println!("{}", doc.render_pretty());
}
