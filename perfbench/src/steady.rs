//! `steady`: §6.5 fuzzing speed.  `Revizor::run` (the round driver, with
//! §5.6 escalation) on Target 5 against CT-COND, which the target complies
//! with, so every test case pays the full model and executor cost.  50
//! inputs per test case, budget 400, two threads, one campaign per pass
//! with its seed derived from the workload seed.
//!
//! One operation is one campaign.  It fails when its `FuzzReport` (without
//! its duration) differs from the recorded reference: the same campaign run
//! in-process on one thread (see `verdicts.rs`).

use crate::layers::{self, Codec};
use crate::replay::Stages;
use crate::report::{digest, Outcome};
use crate::run_passes;
use crate::stats::{median, sum_of_medians};
use crate::verdicts;
use revizor::campaign::{ProgressObserver, RoundEvent, SeedEval, SlateSpec};
use revizor::targets::Target;
use revizor::{FuzzReport, FuzzerConfig, Revizor};
use rvz_bench::json::Json;
use rvz_bench::report::fuzz_report_to_json;
use rvz_model::Contract;
use std::time::{Duration, Instant};

const BUDGET: usize = 400;
const INPUTS: usize = 50;
const THREADS: usize = 2;
const CAMPAIGNS: u64 = 1;
/// Expected length of one pass, which sets the number of passes per run.
const NOMINAL_PASS_S: f64 = 3.5;

/// Campaign seeds of one pass (1 for workload seed 0).
pub fn campaign_seeds(seed: u64) -> Vec<u64> {
    (1..=CAMPAIGNS)
        .map(|j| seed.wrapping_mul(CAMPAIGNS).wrapping_add(j))
        .collect()
}

fn config(seed: u64, threads: usize) -> FuzzerConfig {
    FuzzerConfig::for_target(&Target::target5(), Contract::ct_cond())
        .with_inputs_per_test_case(INPUTS)
        .with_max_test_cases(BUDGET)
        .with_parallelism(threads)
        .with_seed(seed)
}

/// The verdict section: the report without its wall-clock duration.
fn verdict(report: &FuzzReport) -> String {
    match fuzz_report_to_json(report) {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "duration_ns")
                .collect(),
        )
        .render(),
        other => other.render(),
    }
}

/// The reference verdict of campaign seed `seed`: the campaign run
/// in-process on one thread.
///
/// # Errors
/// Never; the signature matches the other references.
pub fn reference(seed: u64) -> Result<u64, String> {
    let target = Target::target5();
    let report = Revizor::new(target.cpu(), config(seed, 1))
        .with_target(target)
        .run();
    Ok(digest(&verdict(&report)))
}

fn agrees_with_paper(report: &FuzzReport) -> bool {
    Target::target5().paper_expects_violation(&Contract::ct_cond().name())
        == report.found_violation()
}

struct Campaign {
    /// Seconds of the set-up (`Revizor::new`), of each round, then of the
    /// rest of the campaign.
    segments: Vec<f64>,
    report: FuzzReport,
}

struct Pass {
    wall: Duration,
    campaigns: Vec<Campaign>,
}

fn pass(seeds: &[u64]) -> Pass {
    let t0 = Instant::now();
    let target = Target::target5();
    let campaigns = seeds
        .iter()
        .map(|&seed| {
            let s0 = Instant::now();
            let mut fuzzer =
                Revizor::new(target.cpu(), config(seed, THREADS)).with_target(target.clone());
            let setup = s0.elapsed().as_secs_f64();
            let mut rounds = Rounds {
                start: Instant::now(),
                events: Vec::new(),
            };
            let report = fuzzer.run_with_observer(&mut rounds);
            let wall = rounds.start.elapsed();
            let mut last = Duration::ZERO;
            let mut segments = vec![setup];
            segments.extend(
                rounds
                    .events
                    .iter()
                    .map(|(end, _)| (*end - std::mem::replace(&mut last, *end)).as_secs_f64()),
            );
            segments.push((wall - last).as_secs_f64());
            Campaign { segments, report }
        })
        .collect();
    Pass {
        wall: t0.elapsed(),
        campaigns,
    }
}

/// Check each measured campaign against its reference; one operation each.
fn check(out: &mut Outcome, seeds: &[u64], measured: &[&FuzzReport], reference: &[u64]) {
    for ((seed, got), want) in seeds.iter().zip(measured).zip(reference) {
        let group = format!("campaign seed {seed}");
        verdicts::check(out, &group, 1, digest(&verdict(got)), *want);
    }
}

/// The end-to-end run.
///
/// # Errors
/// When peak memory or the steal counter cannot be read.
pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let seeds = campaign_seeds(seed);
    let mut out = Outcome::default();
    out.note(format!(
        "Target 5 x CT-COND, campaign seeds {seeds:?}, budget {BUDGET}, {INPUTS} inputs, {THREADS} threads"
    ));
    let passes = run_passes(seconds, NOMINAL_PASS_S, || Ok(pass(&seeds)))?;
    let kept = &passes.kept;
    let reference = verdicts::references(&mut out, "steady", &seeds, THREADS, reference)?;
    for p in kept {
        let reports: Vec<&FuzzReport> = p.campaigns.iter().map(|c| &c.report).collect();
        check(&mut out, &seeds, &reports, &reference);
    }

    let walls: Vec<f64> = kept.iter().map(|p| p.wall.as_secs_f64()).collect();
    let setups: Vec<f64> = kept
        .iter()
        .flat_map(|p| p.campaigns.iter().map(|c| c.segments[0]))
        .collect();
    // Each campaign's time with its set-up and every round at its median
    // over passes.
    let mut campaign_s = Vec::with_capacity(seeds.len());
    for c in 0..seeds.len() {
        let per_pass: Vec<Vec<f64>> = kept
            .iter()
            .map(|p| p.campaigns[c].segments.clone())
            .collect();
        campaign_s.push(sum_of_medians(&per_pass).ok_or("passes ran different numbers of rounds")?);
    }
    let wall = campaign_s.iter().sum::<f64>();
    let test_cases: usize = kept[0].campaigns.iter().map(|c| c.report.test_cases).sum();
    let rate = test_cases as f64 / wall;
    let latencies: Vec<f64> = campaign_s.iter().map(|s| s * 1e3).collect();
    let reports: Vec<&FuzzReport> = kept
        .iter()
        .flat_map(|p| p.campaigns.iter().map(|c| &c.report))
        .collect();
    let agree =
        reports.iter().filter(|r| agrees_with_paper(r)).count() as f64 / reports.len() as f64;

    out.set("setup_s", median(&setups));
    out.set("wall_s", wall);
    out.set("tc_per_s", rate);
    out.set("paper_agree", agree);
    out.set("peak_rss_mb", passes.peak_rss_mb);

    out.median_line("setup_s", &setups, "s", " Revizor::new set-ups");
    out.line(
        "wall_s",
        wall,
        "s",
        &format!("(sum of per-round medians over n={} passes)", kept.len()),
    );
    out.median_line("wall_s (whole passes)", &walls, "s", " passes");
    passes.steal_line(&mut out);
    out.line(
        "tc_per_s",
        rate,
        "1/s",
        &format!("({test_cases} test cases / wall_s)"),
    );
    out.line(
        "campaign_ms (p50)",
        median(&latencies),
        "ms",
        &format!(
            "(n={} campaigns, each a sum of per-round medians)",
            latencies.len()
        ),
    );
    out.line(
        "paper_agree",
        agree,
        "share",
        &format!(
            "(n={} campaigns; the paper expects no violation)",
            reports.len()
        ),
    );
    let found = reports.iter().filter(|r| r.found_violation()).count();
    out.note(format!(
        "detect_tc_p50: n/a ({found} of {} campaigns found a violation)",
        reports.len()
    ));
    out.line("peak_rss_mb", passes.peak_rss_mb, "MB", "(VmHWM)");
    Ok(out)
}

/// Records the round driver's round boundaries.
struct Rounds {
    start: Instant,
    /// (time since start, escalations before the round) per completed round.
    events: Vec<(Duration, usize)>,
}

impl ProgressObserver for Rounds {
    fn round_completed(&mut self, event: &RoundEvent) {
        self.events.push((self.start.elapsed(), event.escalations));
    }
}

/// Replay one campaign's test cases round by round with stage spans.
/// Returns whether the replay reproduced the report's counters and
/// violation.
fn replay(
    st: &mut Stages,
    config: &FuzzerConfig,
    rounds: &[(Duration, usize)],
    report: &FuzzReport,
) -> bool {
    let cpu = Target::target5().cpu();
    let round_size = config.round_size.max(1);
    // A round cut short by a violation delivers no event: replay one more
    // round, with the final escalation count, until the violation.
    let mut plan: Vec<usize> = rounds.iter().map(|(_, e)| *e).collect();
    if report.violation.is_some() {
        plan.push(report.escalations);
    }
    let (mut test_cases, mut total_inputs, mut violation) = (0usize, 0usize, None);
    st.timed(|st| {
        'campaign: for (r, &escalations) in plan.iter().enumerate() {
            let mut generator = config.generator.clone();
            for _ in 0..escalations {
                generator.escalate();
            }
            let spec = SlateSpec {
                generator,
                executor: config.executor,
                checks: config.into(),
                contracts: vec![config.contract.clone()],
                speculation_filter: config.speculation_filter,
            };
            let end = ((r + 1) * round_size).min(config.max_test_cases);
            for i in r * round_size..end {
                let seed = config.seed.wrapping_add(i as u64);
                let eval = st.evaluate_seed(&cpu, &spec, seed);
                st.check_fidelity(&cpu, &spec, seed, &eval);
                if let SeedEval::Measured(unit) = &eval {
                    test_cases += 1;
                    total_inputs += unit.inputs.len();
                    if unit.outcomes[0].confirmed_violation.is_some() {
                        violation = Some(seed);
                        break 'campaign;
                    }
                }
            }
        }
    });
    test_cases == report.test_cases
        && total_inputs == report.total_inputs
        && violation == report.violation.as_ref().map(|v| v.test_case_seed)
}

/// The traced run: per-layer metrics and the fidelity check.
pub fn trace(seed: u64) -> Result<Outcome, String> {
    let seeds = campaign_seeds(seed);
    let mut out = Outcome::default();
    let mut st = Stages::default();
    let mut codec = Codec::default();
    let (mut rounds, mut round_wall, mut escalations) = (0usize, Duration::ZERO, 0usize);
    let mut untraced = Duration::ZERO;
    for &s in &seeds {
        let cfg = config(s, THREADS);
        let target = Target::target5();
        let mut fuzzer = Revizor::new(target.cpu(), cfg.clone()).with_target(target.clone());
        let mut observer = Rounds {
            start: Instant::now(),
            events: Vec::new(),
        };
        let report = fuzzer.run_with_observer(&mut observer);
        rounds += observer.events.len();
        round_wall += observer.events.last().map_or(Duration::ZERO, |(t, _)| *t);
        escalations += report.escalations;
        codec.result(&fuzz_report_to_json(&report));

        out.attempted += 1;
        if !replay(&mut st, &cfg, &observer.events, &report) {
            out.fail(format!(
                "campaign seed {s}: replay did not reproduce the report"
            ));
        }

        let t0 = Instant::now();
        let reference = Revizor::new(target.cpu(), config(s, 1))
            .with_target(target)
            .run();
        untraced += t0.elapsed();
        let want = verdicts::recorded("steady", s).unwrap_or_else(|| digest(&verdict(&reference)));
        check(&mut out, &[s], &[&report], &[want]);
    }
    out.note(format!(
        "campaign seeds {seeds:?}; rounds timed at {THREADS} threads, replay at 1"
    ));
    layers::stages(
        &st,
        seeds.iter().any(|&s| config(s, 1).speculation_filter),
        untraced,
        &mut out,
    );
    layers::orchestrator(&mut out, &[], Duration::ZERO, Duration::ZERO);
    out.note("orchestrator.*: the round driver runs no matrix waves (0)");
    layers::fuzzer(&mut out, rounds, round_wall, escalations);
    layers::no_service(&mut out);
    codec.report(&mut out);
    out.note("codec.ckpt_*: the round driver takes no checkpoints (0)");
    Ok(out)
}
