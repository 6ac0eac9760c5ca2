//! `table3`: the paper's headline run.  `CampaignMatrix::table3` at budget
//! 300 on two threads, over the paper-tuned matrix seed 30 and three
//! held-out seeds derived from the workload seed.
//!
//! One operation is one cell.  A matrix's cells fail when their verdict
//! sections (the `result.cells` rendering, which has no timing) differ from
//! the recorded reference: the same matrix run in-process on one thread
//! (see `verdicts.rs`).

use crate::layers::{self, Codec};
use crate::replay::{self, MatrixParams, Stages};
use crate::report::{digest, Outcome};
use crate::run_passes;
use crate::stats::{median, medians_by_index, ms, sum_of_medians, tail};
use crate::verdicts;
use revizor::campaign::{CellEvent, ProgressObserver};
use revizor::orchestrator::{CampaignMatrix, MatrixReport};
use rvz_bench::matrix_report_json;
use rvz_bench::report::matrix_cells_json;
use std::time::{Duration, Instant};

/// The matrix seed the paper's Table 3 reproduction is tuned on.
pub const TUNED_SEED: u64 = 30;
const BUDGET: usize = 300;
const THREADS: usize = 2;
/// Expected length of one pass, which sets the number of passes per run.
const NOMINAL_PASS_S: f64 = 4.0;

fn params(threads: usize) -> MatrixParams {
    MatrixParams::detection(BUDGET, threads)
}

/// The tuned seed, then three held-out seeds (31-33 for workload seed 0).
pub fn matrix_seeds(seed: u64) -> [u64; 4] {
    let h = 31 + 3 * (seed % 1_000_000_000);
    [TUNED_SEED, h, h + 1, h + 2]
}

fn matrices(seeds: &[u64], threads: usize) -> Vec<CampaignMatrix> {
    seeds
        .iter()
        .map(|&s| params(threads).apply(CampaignMatrix::table3(s)))
        .collect()
}

/// Cells of `report` whose verdict agrees with the paper's Table 3.
fn agreeing(report: &MatrixReport) -> usize {
    report
        .cells
        .iter()
        .filter(|c| c.target.paper_expects_violation(&c.contract.name()) == c.found())
        .count()
}

/// Digest of the matrix's verdict sections: every cell's, in order.
fn verdict(report: &MatrixReport) -> u64 {
    let cells: Vec<u64> = matrix_cells_json(report)
        .as_array()
        .unwrap_or_default()
        .iter()
        .map(|c| digest(&c.render()))
        .collect();
    verdicts::combine(&cells)
}

/// The reference verdict of matrix seed `seed`: the matrix run in-process
/// on one thread.
///
/// # Errors
/// Never; the signature matches the other references.
pub fn reference(seed: u64) -> Result<u64, String> {
    Ok(verdict(
        &params(1).apply(CampaignMatrix::table3(seed)).run(),
    ))
}

/// Records when each violation of the recorded matrix is reported.
#[derive(Default)]
struct Detections {
    recording: bool,
    ms: Vec<f64>,
}

impl ProgressObserver for Detections {
    fn cell_finished(&mut self, event: &CellEvent) {
        if self.recording && event.found {
            self.ms.push(ms(event.elapsed));
        }
    }
}

/// What a pass keeps of its matrices: counts and digests, not reports.
struct Pass {
    wall: Duration,
    /// Seconds from each matrix's construction to its first wave.
    setups: Vec<f64>,
    /// Seconds of every `MatrixRun::step` in order, then the rest of the
    /// pass (set-ups, starts and finishes).
    segments: Vec<f64>,
    test_cases: usize,
    /// Verdict digest per matrix.
    verdicts: Vec<u64>,
    /// Time from the tuned-seed matrix's start to each of its violations,
    /// in ms, in event order.
    detect_ms: Vec<f64>,
    /// Test cases until detection of every cell that found a violation.
    detect_tc: Vec<f64>,
    /// Cells agreeing with the paper, per matrix.
    agree: Vec<usize>,
    cells: usize,
}

fn pass(seeds: &[u64]) -> Pass {
    let t0 = Instant::now();
    let mut reports = Vec::with_capacity(seeds.len());
    let (mut setups, mut segments) = (Vec::new(), Vec::new());
    let mut observer = Detections::default();
    for (i, &seed) in seeds.iter().enumerate() {
        observer.recording = i == 0;
        let s0 = Instant::now();
        let matrix = params(THREADS).apply(CampaignMatrix::table3(seed));
        let mut run = matrix.start();
        setups.push(s0.elapsed().as_secs_f64());
        loop {
            let w0 = Instant::now();
            if !run.step(&mut observer) {
                break;
            }
            segments.push(w0.elapsed().as_secs_f64());
        }
        reports.push(run.finish(&mut observer));
    }
    let wall = t0.elapsed();
    segments.push(wall.as_secs_f64() - segments.iter().sum::<f64>());
    Pass {
        wall,
        setups,
        segments,
        test_cases: reports.iter().map(|r| r.test_cases).sum(),
        verdicts: reports.iter().map(verdict).collect(),
        detect_ms: observer.ms,
        detect_tc: reports
            .iter()
            .flat_map(|r| r.cells.iter().filter_map(|c| c.violation.as_ref()))
            .map(|v| v.test_cases_until_detection as f64)
            .collect(),
        agree: reports.iter().map(agreeing).collect(),
        cells: reports[0].cells.len(),
    }
}

/// Check each measured matrix against its reference; one operation per
/// cell.
fn check(out: &mut Outcome, seeds: &[u64], cells: usize, measured: &[u64], reference: &[u64]) {
    for ((seed, got), want) in seeds.iter().zip(measured).zip(reference) {
        verdicts::check(
            out,
            &format!("matrix seed {seed}"),
            cells as u64,
            *got,
            *want,
        );
    }
}

/// The end-to-end run.
///
/// # Errors
/// When peak memory or the steal counter cannot be read.
pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let seeds = matrix_seeds(seed);
    let mut out = Outcome::default();
    out.note(format!(
        "matrix seeds {seeds:?} (tuned seed first), budget {BUDGET}, {THREADS} threads"
    ));
    let passes = run_passes(seconds, NOMINAL_PASS_S, || Ok(pass(&seeds)))?;
    let kept = &passes.kept;
    let reference = verdicts::references(&mut out, "table3", &seeds, THREADS, reference)?;
    for p in kept {
        check(&mut out, &seeds, p.cells, &p.verdicts, &reference);
    }

    let setups: Vec<f64> = kept.iter().flat_map(|p| p.setups.clone()).collect();
    let walls: Vec<f64> = kept.iter().map(|p| p.wall.as_secs_f64()).collect();
    let segments: Vec<Vec<f64>> = kept.iter().map(|p| p.segments.clone()).collect();
    let wall = sum_of_medians(&segments).ok_or("passes ran different numbers of waves")?;
    let rate = kept[0].test_cases as f64 / wall;
    // Each violation's time at its median over passes.
    let detect_passes: Vec<Vec<f64>> = kept.iter().map(|p| p.detect_ms.clone()).collect();
    let detect = medians_by_index(&detect_passes).ok_or("passes found different violations")?;
    let first = &kept[0];
    let (agree, cells) = (&first.agree, first.cells);

    out.set("setup_s", median(&setups));
    out.set("wall_s", wall);
    out.set("tc_per_s", rate);
    out.set("paper_agree", agree[0] as f64 / cells as f64);
    out.set("peak_rss_mb", passes.peak_rss_mb);

    out.median_line("setup_s", &setups, "s", " matrix set-ups");
    out.line(
        "wall_s",
        wall,
        "s",
        &format!("(sum of per-wave medians over n={} passes)", kept.len()),
    );
    out.median_line("wall_s (whole passes)", &walls, "s", " passes");
    passes.steal_line(&mut out);
    out.line(
        "tc_per_s",
        rate,
        "1/s",
        &format!("({} test cases / wall_s)", first.test_cases),
    );
    out.line(
        "paper_agree (seed 30)",
        agree[0] as f64,
        "cells",
        &format!("(of {cells})"),
    );
    let held: Vec<String> = agree[1..].iter().map(|a| a.to_string()).collect();
    let held_mean = agree[1..].iter().sum::<usize>() as f64 / (agree.len() - 1) as f64;
    out.line(
        "paper_agree (held-out)",
        held_mean,
        "cells",
        &format!("(of {cells}; per seed {})", held.join(", ")),
    );
    out.line(
        "detect_tc_p50",
        median(&first.detect_tc),
        "tc",
        &format!("(n={} found cells)", first.detect_tc.len()),
    );
    out.line(
        "violation_ms (p50)",
        median(&detect),
        "ms",
        &format!(
            "(n={} seed-30 violations, each its median over passes)",
            detect.len()
        ),
    );
    if let Some(t) = tail(&detect) {
        out.line(
            &format!("violation_ms (p{})", t.percentile),
            t.value,
            "ms",
            &format!("(n={})", t.samples),
        );
    }
    out.line("peak_rss_mb", passes.peak_rss_mb, "MB", "(VmHWM)");
    Ok(out)
}

/// The traced run: per-layer metrics and the fidelity check.
pub fn trace(seed: u64) -> Result<Outcome, String> {
    let seeds = matrix_seeds(seed);
    let params = params(THREADS);
    let mut out = Outcome::default();
    let mut st = Stages::default();
    let mut codec = Codec::default();
    let (mut waves, mut work, mut thread_wall, mut rounds) =
        (Vec::new(), Duration::ZERO, Duration::ZERO, 0);
    let mut untraced = Duration::ZERO;
    let mut filter_on = false;
    for (m, single) in matrices(&seeds, THREADS).iter().zip(matrices(&seeds, 1)) {
        filter_on |= replay::filter_enabled(m);
        let driven = replay::drive(m);
        waves.extend(driven.wave_times.iter().copied());
        work += driven.work();
        thread_wall += driven.wave_wall() * THREADS as u32;
        rounds += driven.rounds;
        for cp in &driven.checkpoints {
            codec.checkpoint(cp);
        }
        codec.result(&matrix_report_json(&driven.report, BUDGET));

        let missed = replay::replay_matrix(&mut st, m, &params, &driven);
        out.attempted += driven.report.cells.len() as u64;
        if missed > 0 {
            out.fail(format!(
                "matrix seed {}: replay missed {missed} cells' violating test case seeds",
                m.seed()
            ));
        }

        let t0 = Instant::now();
        let reference = single.run();
        untraced += t0.elapsed();
        let want = verdicts::recorded("table3", m.seed()).unwrap_or_else(|| verdict(&reference));
        check(
            &mut out,
            &[m.seed()],
            driven.report.cells.len(),
            &[verdict(&driven.report)],
            &[want],
        );
    }
    out.note(format!(
        "matrix seeds {seeds:?}, budget {BUDGET}; waves timed at {THREADS} threads, replay at 1"
    ));
    layers::stages(&st, filter_on, untraced, &mut out);
    layers::orchestrator(&mut out, &waves, work, thread_wall);
    layers::fuzzer(&mut out, rounds, waves.iter().sum(), 0);
    layers::no_service(&mut out);
    codec.report(&mut out);
    Ok(out)
}
