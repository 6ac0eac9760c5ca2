//! Per-layer metrics of a traced run, derived from its spans and counters.
//!
//! Every metric of the per-layer catalogue is set on every workload.  A
//! layer a workload never reaches reads 0, and only counts, shares and rates
//! can do that: a time-valued metric is always measured.  The report lines
//! also give the time-valued form of each layer (`campaign.swap_ms`,
//! `service.submit_ms`, ...).

use crate::replay::Stages;
use crate::report::Outcome;
use crate::stats::{median, ms, ratio};
use revizor::orchestrator::MatrixCheckpoint;
use rvz_bench::binfmt;
use rvz_bench::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Least share of the traced wall the stage spans must cover.
pub const MIN_COVERAGE: f64 = 0.9;

/// Set the stage metrics and the trace metrics from a traced run, given
/// the untraced wall of the same work at the same thread count.  Counts a
/// failure for every replayed seed that differed from `evaluate_seed` and
/// for coverage below [`MIN_COVERAGE`].
pub fn stages(st: &Stages, filter_on: bool, untraced: Duration, out: &mut Outcome) {
    let (t, total) = st.stage_times();
    let c = &st.counters;
    let wall = st.wall;
    let units = format!("(n={} seeds, {} measured)", c.units, c.measured);
    let stage = |name: &str| t[name];
    let filter = if filter_on {
        stage("static.filter")
    } else {
        c.filter_probe
    };

    out.metric("gen.program_ms", ms(stage("gen.program")), "ms", &units);
    out.metric("gen.inputs_ms", ms(stage("gen.inputs")), "ms", &units);
    out.metric("static.filter_ms", ms(filter), "ms", &units);
    out.metric(
        "static.filtered_share",
        ratio(c.filter_rejects as f64, c.filter_checked as f64),
        "share",
        &units,
    );
    out.metric("isa.decode_ms", ms(stage("isa.decode")), "ms", &units);
    out.metric("model.collect_ms", ms(stage("model.collect")), "ms", &units);
    out.metric(
        "model.instr_per_s",
        ratio(c.model_instrs as f64, stage("model.collect").as_secs_f64()),
        "1/s",
        &units,
    );
    out.metric("model.spec_paths", c.spec_paths as f64, "count", &units);
    out.metric(
        "executor.htrace_ms",
        ms(stage("executor.htrace")),
        "ms",
        &units,
    );
    out.line("executor.new_ms", ms(stage("executor.new")), "ms", &units);
    out.metric(
        "executor.runs_per_s",
        ratio(
            c.baseline_runs as f64,
            stage("executor.htrace").as_secs_f64(),
        ),
        "1/s",
        &units,
    );
    out.metric(
        "executor.collections",
        c.collections as f64,
        "count",
        &units,
    );
    out.metric(
        "analyzer.check_ms",
        ms(stage("analyzer.check") + stage("analyzer.classes")),
        "ms",
        &units,
    );
    out.metric(
        "analyzer.raw_violations",
        c.raw_violations as f64,
        "count",
        &units,
    );
    out.line("campaign.swap_ms", ms(stage("campaign.swap")), "ms", &units);
    out.metric(
        "campaign.swap_share",
        ratio(ms(stage("campaign.swap")), ms(wall)),
        "share",
        &units,
    );
    out.metric(
        "campaign.swap_checks",
        c.swap_checks as f64,
        "count",
        &units,
    );
    out.line(
        "campaign.nesting_ms",
        ms(stage("campaign.nesting")),
        "ms",
        &units,
    );
    out.metric(
        "campaign.nesting_share",
        ratio(ms(stage("campaign.nesting")), ms(wall)),
        "share",
        &units,
    );
    out.metric(
        "campaign.nesting_checks",
        c.nesting_checks as f64,
        "count",
        &units,
    );
    out.metric(
        "campaign.confirm_share",
        ratio(c.confirmed as f64, c.raw_violations as f64),
        "share",
        &units,
    );

    let coverage = ratio(ms(total), ms(wall));
    let overhead = ratio(ms(wall), ms(untraced));
    out.line("trace.wall_ms", ms(wall), "ms", "(replay at 1 thread)");
    out.line(
        "trace.untraced_ms",
        ms(untraced),
        "ms",
        "(same work, 1 thread)",
    );
    out.metric("trace.coverage", coverage, "share", &units);
    out.metric("trace.overhead", overhead, "ratio", &units);

    out.attempted += c.units;
    if c.mismatches > 0 {
        out.fail(format!(
            "{} replayed seeds differ from campaign::evaluate_seed",
            c.mismatches
        ));
    }
    if coverage < MIN_COVERAGE {
        out.fail(format!(
            "trace.coverage {coverage:.3} is below {MIN_COVERAGE}"
        ));
    }
}

/// Set the orchestrator metrics from the timed `MatrixRun::step` calls and
/// the summed pool efficiency terms (unit work, thread-weighted wave wall).
pub fn orchestrator(out: &mut Outcome, waves: &[Duration], work: Duration, thread_wall: Duration) {
    let samples = format!("(n={} waves)", waves.len());
    let wave_ms: Vec<f64> = waves.iter().map(|w| ms(*w)).collect();
    let (p50, max) = if wave_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (
            median(&wave_ms),
            wave_ms.iter().copied().fold(0.0, f64::max),
        )
    };
    out.line("orchestrator.wave_ms (p50)", p50, "ms", &samples);
    out.line("orchestrator.wave_ms (max)", max, "ms", &samples);
    out.metric("orchestrator.waves", waves.len() as f64, "count", "");
    out.metric(
        "orchestrator.wave_skew",
        ratio(max, p50),
        "ratio",
        "(max / p50)",
    );
    let efficiency = ratio(ms(work), ms(thread_wall));
    out.metric(
        "orchestrator.pool_efficiency",
        efficiency,
        "share",
        "(unit work / threads x wave wall)",
    );
}

/// Set the round-driver metrics.
pub fn fuzzer(out: &mut Outcome, rounds: usize, round_wall: Duration, escalations: usize) {
    let samples = format!("(n={rounds} rounds)");
    out.line(
        "fuzzer.round_ms",
        ratio(ms(round_wall), rounds as f64),
        "ms",
        &samples,
    );
    out.metric(
        "fuzzer.rounds_per_s",
        ratio(rounds as f64, round_wall.as_secs_f64()),
        "1/s",
        &samples,
    );
    out.metric("fuzzer.escalations", escalations as f64, "count", "");
}

/// Set the service metrics to 0: the workload does not reach the service.
pub fn no_service(out: &mut Outcome) {
    for name in [
        "service.compute_share",
        "service.submit_share",
        "service.first_event_share",
        "service.done_gap_share",
        "spool.bytes_per_job",
    ] {
        out.set(name, 0.0);
    }
    out.note("service.*, spool.*: not on this workload's path (0)");
}

/// Codec cost of the checkpoints and result documents a run produces.
#[derive(Debug, Default)]
pub struct Codec {
    checkpoints: u64,
    ckpt_bytes: u64,
    encode: Duration,
    decode: Duration,
    results: u64,
    json_bytes: u64,
    json: Duration,
    mismatches: u64,
}

impl Codec {
    /// Encode and decode one checkpoint with the binary wire format.
    pub fn checkpoint(&mut self, cp: &MatrixCheckpoint) {
        let t0 = Instant::now();
        let bytes = black_box(binfmt::matrix_checkpoint_to_binary(black_box(cp)));
        let t1 = Instant::now();
        let back = black_box(binfmt::matrix_checkpoint_from_binary(black_box(&bytes)));
        self.decode += t1.elapsed();
        self.encode += t1 - t0;
        self.checkpoints += 1;
        self.ckpt_bytes += bytes.len() as u64;
        if back.as_ref() != Ok(cp) {
            self.mismatches += 1;
        }
    }

    /// Render one result document.
    pub fn result(&mut self, doc: &Json) {
        let t0 = Instant::now();
        let text = black_box(black_box(doc).render());
        self.json += t0.elapsed();
        self.results += 1;
        self.json_bytes += text.len() as u64;
    }

    /// Set the codec metrics.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.checkpoints as f64;
        let ckpts = format!("(n={} checkpoints)", self.checkpoints);
        let results = format!("(n={} results)", self.results);
        let mb_per_s = |bytes: u64, d: Duration| ratio(bytes as f64 / 1e6, d.as_secs_f64());
        out.line(
            "codec.ckpt_encode_us",
            ratio(self.encode.as_secs_f64() * 1e6, n),
            "us",
            &ckpts,
        );
        out.line(
            "codec.ckpt_decode_us",
            ratio(self.decode.as_secs_f64() * 1e6, n),
            "us",
            &ckpts,
        );
        out.metric(
            "codec.ckpt_bytes",
            ratio(self.ckpt_bytes as f64, n),
            "B",
            &ckpts,
        );
        out.metric(
            "codec.ckpt_encode_mb_per_s",
            mb_per_s(self.ckpt_bytes, self.encode),
            "MB/s",
            &ckpts,
        );
        out.metric(
            "codec.ckpt_decode_mb_per_s",
            mb_per_s(self.ckpt_bytes, self.decode),
            "MB/s",
            &ckpts,
        );
        let per_result = ratio(self.json.as_secs_f64() * 1e6, self.results as f64);
        out.line("codec.result_json_us", per_result, "us", &results);
        out.metric(
            "codec.result_json_mb_per_s",
            mb_per_s(self.json_bytes, self.json),
            "MB/s",
            &results,
        );
        out.attempted += self.checkpoints;
        if self.mismatches > 0 {
            out.fail(format!(
                "{} checkpoints did not survive a binary round trip",
                self.mismatches
            ));
        }
    }
}
