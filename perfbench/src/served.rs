//! `served`: jobs through the campaign service.  An in-process
//! `ServiceHandle` with the TCP front-end on 127.0.0.1, a spool and two
//! shards; two closed-loop `Client` connections each submit a job, `watch`
//! it to its `done` event, then submit the next.  Each job is one target
//! (cycling 2, 3, 5, 7) against the four CT-* contracts at budget 20, with
//! its matrix seed derived from the workload seed.
//!
//! One operation is one job.  A pass's jobs fail when their
//! `deterministic_result`s differ from the recorded reference:
//! `CampaignMatrix::run` of each spec in-process (see `verdicts.rs`).

use crate::layers::{self, Codec};
use crate::replay::{self, MatrixParams, Stages};
use crate::report::{digest, Outcome};
use crate::run_passes;
use crate::stats::{median, ms, ratio, tail};
use crate::sys::{dir_bytes, par_map, remove_scratch, scratch_dir};
use crate::verdicts;
use revizor::orchestrator::MatrixReport;
use revizor::targets::Target;
use rvz_bench::json::Json;
use rvz_model::Contract;
use rvz_service::{
    deterministic_result, job_result_json, Client, JobSpec, ServiceConfig, ServiceHandle,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const JOBS: usize = 200;
const CLIENTS: usize = 2;
const SHARDS: usize = 2;
const JOB_BUDGET: usize = 20;
const TARGETS: [u8; 4] = [2, 3, 5, 7];
/// Expected length of one pass, which sets the number of passes per run.
const NOMINAL_PASS_S: f64 = 5.0;

fn job_seed(seed: u64, i: usize) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64)
            .wrapping_add(1)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 31;
    x
}

/// The jobs of one pass.
pub fn job_specs(seed: u64) -> Vec<JobSpec> {
    (0..JOBS)
        .map(|i| {
            Contract::table3_contracts().iter().fold(
                JobSpec::new(job_seed(seed, i)).with_budget(JOB_BUDGET),
                |spec, c| spec.add_cell(TARGETS[i % TARGETS.len()], &c.name()),
            )
        })
        .collect()
}

fn params(spec: &JobSpec) -> MatrixParams {
    MatrixParams {
        budget: spec.budget,
        round_size: spec.round_size,
        parallelism: spec.parallelism,
        inputs_per_test_case: spec.inputs_per_test_case,
        repetitions: spec.repetitions,
        basic_blocks: spec.basic_blocks,
        instructions: spec.instructions,
        branch_then_load_bias: spec.branch_then_load_bias,
    }
}

/// A running service with its connected clients.
struct Service {
    handle: ServiceHandle,
    clients: Vec<Client>,
}

/// Start the service over an existing spool directory and connect the
/// clients: the set-up `setup_s` times.
fn start(spool: &Path) -> Result<Service, String> {
    let handle = ServiceHandle::start(ServiceConfig {
        shards: SHARDS,
        spool: Some(spool.to_path_buf()),
        listen: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("cannot start the service: {e}"))?;
    let Some(addr) = handle.local_addr() else {
        handle.shutdown();
        return Err("the service has no listen address".to_string());
    };
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        match Client::connect(addr) {
            Ok(c) => clients.push(c),
            Err(e) => {
                handle.shutdown();
                return Err(format!("cannot connect to the service: {e}"));
            }
        }
    }
    Ok(Service { handle, clients })
}

fn stop(service: Service) {
    drop(service.clients);
    service.handle.shutdown();
}

/// One served job, as its client saw it.
struct Sample {
    index: usize,
    /// Submit request to its acknowledgement.
    submit: Duration,
    /// Acknowledgement to the first watch event other than `done`.
    first_event: Option<Duration>,
    /// Last event before `done` to `done`.
    done_gap: Option<Duration>,
    /// Submit request to the `done` event.
    latency: Duration,
    result: Result<Verdict, String>,
}

/// What a client keeps of a job's result: a digest of its verdict section
/// and the few numbers the metrics need, not the whole document.
struct Verdict {
    digest: u64,
    measured_test_cases: u64,
    /// Per cell: (agrees with the paper, test cases when found).
    cells: Vec<(bool, Option<u64>)>,
}

fn verdict(result: &Json) -> Verdict {
    Verdict {
        digest: digest(&deterministic_result(result).render()),
        measured_test_cases: field_u64(result, "measured_test_cases"),
        cells: cells(result),
    }
}

fn one_job(client: &mut Client, index: usize, spec: &JobSpec) -> Sample {
    let t0 = Instant::now();
    let submitted = client.submit(spec);
    let ack = Instant::now();
    let (mut first, mut last, mut done) = (None, None, None);
    let result = submitted.and_then(|job| {
        client
            .watch(&job, |event| {
                let now = Instant::now();
                if event.get("event").and_then(Json::as_str) == Some("done") {
                    done = Some(now);
                } else {
                    first.get_or_insert(now);
                    last = Some(now);
                }
            })
            .map(|result| verdict(&result))
            .map_err(|e| e.to_string())
    });
    let end = done.unwrap_or_else(Instant::now);
    Sample {
        index,
        submit: ack - t0,
        first_event: first.map(|f| f - ack),
        done_gap: last.map(|l| end - l),
        latency: end - t0,
        result,
    }
}

/// Serve every job through the clients, closed loop.
fn serve(clients: &mut [Client], specs: &[JobSpec]) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let next = &next;
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        mine.push(one_job(client, i, spec));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

struct Pass {
    wall: Duration,
    /// Seconds to start the service and connect the clients.
    setup: f64,
    spool_bytes: u64,
    samples: Vec<Sample>,
}

fn pass(specs: &[JobSpec]) -> Result<Pass, String> {
    let spool = scratch_dir("spool")?;
    let t0 = Instant::now();
    let mut service = start(&spool)?;
    let setup = t0.elapsed().as_secs_f64();
    let samples = serve(&mut service.clients, specs);
    let wall = t0.elapsed();
    let spool_bytes = dir_bytes(&spool);
    stop(service);
    remove_scratch(&spool);
    Ok(Pass {
        wall,
        setup,
        spool_bytes,
        samples,
    })
}

/// Digest of the in-process reference verdict of a job.
fn job_reference(spec: &JobSpec) -> Result<u64, String> {
    let report = spec.to_matrix()?.run();
    Ok(reference_digest(spec, &report))
}

fn reference_digest(spec: &JobSpec, report: &MatrixReport) -> u64 {
    digest(&deterministic_result(&job_result_json("", spec, report)).render())
}

/// The reference verdict of the jobs of workload seed `seed`: each job's
/// matrix run in-process, two jobs at a time.
///
/// # Errors
/// When a job spec does not describe a matrix.
pub fn reference(seed: u64) -> Result<u64, String> {
    let jobs: Result<Vec<u64>, String> = par_map(&job_specs(seed), CLIENTS, job_reference)
        .into_iter()
        .collect();
    Ok(verdicts::combine(&jobs?))
}

/// Check the jobs of a pass against the reference; one operation per job.
fn check(out: &mut Outcome, seed: u64, samples: &[Sample], want: u64) {
    let served: Vec<u64> = samples
        .iter()
        .filter_map(|s| s.result.as_ref().ok().map(|v| v.digest))
        .collect();
    if served.len() == samples.len() {
        let group = format!("jobs of workload seed {seed}");
        verdicts::check(
            out,
            &group,
            samples.len() as u64,
            verdicts::combine(&served),
            want,
        );
        return;
    }
    out.attempted += samples.len() as u64;
    for s in samples {
        if let Err(e) = &s.result {
            out.fail(format!("job {}: {e}", s.index));
        }
    }
}

fn field_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Cells of a result: (agrees with the paper, test cases when found).
fn cells(result: &Json) -> Vec<(bool, Option<u64>)> {
    let catalog = Target::catalog();
    let list = result
        .get("cells")
        .and_then(Json::as_array)
        .unwrap_or_default();
    list.iter()
        .map(|c| {
            let found = c.get("found").and_then(Json::as_bool) == Some(true);
            let contract = c.get("contract").and_then(Json::as_str).unwrap_or("");
            let expected = catalog
                .iter()
                .find(|t| u64::from(t.id) == field_u64(c, "target"))
                .is_some_and(|t| t.paper_expects_violation(contract));
            (found == expected, found.then(|| field_u64(c, "test_cases")))
        })
        .collect()
}

/// The end-to-end run.
///
/// # Errors
/// When the service cannot start or peak memory cannot be read.
pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let specs = job_specs(seed);
    let mut out = Outcome::default();
    out.note(format!(
        "{JOBS} jobs per pass (targets {TARGETS:?} x 4 CT-* contracts, budget {JOB_BUDGET}), \
         {CLIENTS} closed-loop clients, {SHARDS} shards, TCP on 127.0.0.1"
    ));
    let passes = run_passes(seconds, NOMINAL_PASS_S, || pass(&specs))?;
    let kept = &passes.kept;
    let reference = verdicts::references(&mut out, "served", &[seed], 1, reference)?[0];
    for p in kept {
        check(&mut out, seed, &p.samples, reference);
    }

    let setups: Vec<f64> = kept.iter().map(|p| p.setup).collect();
    let walls: Vec<f64> = kept.iter().map(|p| p.wall.as_secs_f64()).collect();
    let measured = |p: &Pass| -> u64 {
        p.samples
            .iter()
            .filter_map(|s| s.result.as_ref().ok())
            .map(|v| v.measured_test_cases)
            .sum()
    };
    let rates: Vec<f64> = kept
        .iter()
        .zip(&walls)
        .map(|(p, w)| measured(p) as f64 / w)
        .collect();
    let jobs_per_s: Vec<f64> = kept
        .iter()
        .zip(&walls)
        .map(|(p, w)| p.samples.len() as f64 / w)
        .collect();
    let latencies: Vec<f64> = kept
        .iter()
        .flat_map(|p| p.samples.iter().map(|s| ms(s.latency)))
        .collect();
    let all_cells: Vec<(bool, Option<u64>)> = kept[0]
        .samples
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .flat_map(|v| v.cells.clone())
        .collect();
    let agree = ratio(
        all_cells.iter().filter(|c| c.0).count() as f64,
        all_cells.len() as f64,
    );
    let detect: Vec<f64> = all_cells
        .iter()
        .filter_map(|c| c.1)
        .map(|t| t as f64)
        .collect();

    out.set("setup_s", median(&setups));
    out.set("wall_s", median(&walls));
    out.set("tc_per_s", median(&rates));
    out.set("paper_agree", agree);
    out.set("peak_rss_mb", passes.peak_rss_mb);

    out.median_line("setup_s", &setups, "s", " service starts");
    out.median_line("wall_s", &walls, "s", " passes");
    passes.steal_line(&mut out);
    out.median_line("tc_per_s", &rates, "1/s", " passes");
    out.median_line("jobs_per_s", &jobs_per_s, "1/s", " passes");
    out.line(
        "job_p50_ms",
        median(&latencies),
        "ms",
        &format!("(n={} jobs)", latencies.len()),
    );
    if let Some(t) = tail(&latencies) {
        out.line(
            &format!("job_p{}_ms", t.percentile),
            t.value,
            "ms",
            &format!("(n={} jobs)", t.samples),
        );
    }
    out.line(
        "paper_agree",
        agree,
        "share",
        &format!("(n={} cells at budget {JOB_BUDGET})", all_cells.len()),
    );
    if !detect.is_empty() {
        out.line(
            "detect_tc_p50",
            median(&detect),
            "tc",
            &format!("(n={} found cells)", detect.len()),
        );
    }
    out.line("peak_rss_mb", passes.peak_rss_mb, "MB", "(VmHWM)");
    Ok(out)
}

/// The traced run: service stage shares, then each job replayed in-process
/// with stage spans.
///
/// # Errors
/// When the service cannot start.
pub fn trace(seed: u64) -> Result<Outcome, String> {
    let specs = job_specs(seed);
    let mut out = Outcome::default();
    let served = pass(&specs)?;

    let mut st = Stages::default();
    let mut codec = Codec::default();
    let (mut waves, mut work, mut thread_wall, mut rounds) =
        (Vec::new(), Duration::ZERO, Duration::ZERO, 0);
    let mut untraced = Duration::ZERO;
    let mut filter_on = false;
    let mut in_process = Vec::with_capacity(specs.len());
    for (spec, sample) in specs.iter().zip(&served.samples) {
        let matrix = spec.to_matrix()?;
        filter_on |= replay::filter_enabled(&matrix);
        // The job in-process, untraced, at its own parallelism: the
        // reference verdict and the compute time of the job.
        let driven = replay::drive(&matrix);
        in_process.push(reference_digest(spec, &driven.report));
        untraced += driven.wave_wall();
        waves.extend(driven.wave_times.iter().copied());
        work += driven.work();
        thread_wall += driven.wave_wall() * spec.parallelism.max(1) as u32;
        rounds += driven.rounds;
        for cp in &driven.checkpoints {
            codec.checkpoint(cp);
        }
        codec.result(&job_result_json(
            &format!("job-{}", sample.index),
            spec,
            &driven.report,
        ));
        let missed = replay::replay_matrix(&mut st, &matrix, &params(spec), &driven);
        out.attempted += driven.report.cells.len() as u64;
        if missed > 0 {
            out.fail(format!(
                "job {}: replay missed {missed} cells' violating test case seeds",
                sample.index
            ));
        }
    }
    let want = verdicts::recorded("served", seed).unwrap_or_else(|| verdicts::combine(&in_process));
    check(&mut out, seed, &served.samples, want);

    let latency: Duration = served.samples.iter().map(|s| s.latency).sum();
    let submit: Duration = served.samples.iter().map(|s| s.submit).sum();
    let first: Duration = served.samples.iter().filter_map(|s| s.first_event).sum();
    let gap: Duration = served.samples.iter().filter_map(|s| s.done_gap).sum();
    let jobs = format!("(n={} jobs)", served.samples.len());
    let p50 = |f: &dyn Fn(&Sample) -> Option<Duration>| {
        let v: Vec<f64> = served.samples.iter().filter_map(f).map(ms).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    out.note(format!(
        "{JOBS} jobs served once; each replayed in-process at its own parallelism (1)"
    ));
    out.line(
        "service.submit_ms (p50)",
        p50(&|s| Some(s.submit)),
        "ms",
        &jobs,
    );
    out.line(
        "service.first_event_ms (p50)",
        p50(&|s| s.first_event),
        "ms",
        &jobs,
    );
    out.line(
        "service.done_gap_ms (p50)",
        p50(&|s| s.done_gap),
        "ms",
        &jobs,
    );
    out.line("job_p50_ms", p50(&|s| Some(s.latency)), "ms", &jobs);
    for (name, part) in [
        ("service.submit_share", submit),
        ("service.first_event_share", first),
        ("service.done_gap_share", gap),
        ("service.compute_share", untraced),
    ] {
        out.set(name, ratio(ms(part), ms(latency)));
        out.line(
            name,
            ratio(ms(part), ms(latency)),
            "share",
            "(of summed served latency)",
        );
    }
    let spool = ratio(served.spool_bytes as f64, served.samples.len() as f64);
    out.set("spool.bytes_per_job", spool);
    out.line("spool.bytes_per_job", spool, "B", &jobs);

    layers::stages(&st, filter_on, untraced, &mut out);
    layers::orchestrator(&mut out, &waves, work, thread_wall);
    layers::fuzzer(&mut out, rounds, waves.iter().sum(), 0);
    codec.report(&mut out);
    Ok(out)
}
