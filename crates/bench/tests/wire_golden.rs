//! Golden bytes of the wire formats: the binary frame and the rendered
//! JSON document of each real payload shape must keep their exact length
//! and FNV-1a digest.  Resume, steal and the spool all rely on a snapshot
//! re-encoding to the same bytes, so any codec change that moves a single
//! byte fails here, not in a later cross-version resume.
//!
//! Wall-clock fields (group work, cell detection times, campaign
//! duration) are pinned to fixed values before encoding; everything else
//! comes straight from deterministic campaign runs.

use revizor::campaign::NoopObserver;
use revizor::fuzzer::{FuzzReport, ViolationReport};
use revizor::orchestrator::{CampaignMatrix, MatrixCheckpoint};
use revizor::targets::Target;
use revizor::{FuzzerConfig, Revizor};
use rvz_bench::binfmt::{
    checkpoint_transfer_to_binary, matrix_checkpoint_from_binary, matrix_checkpoint_to_binary,
    violation_report_from_binary, violation_report_to_binary,
};
use rvz_bench::json::{parse, Json};
use rvz_bench::report::{
    fuzz_report_to_json, matrix_cells_json, matrix_checkpoint_from_json, matrix_checkpoint_to_json,
    violation_report_from_json, violation_report_to_json,
};
use rvz_executor::ExecutorConfig;
use rvz_model::Contract;
use std::time::Duration;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Assert `bytes` has the pinned length and digest.
#[track_caller]
fn assert_golden(what: &str, bytes: &[u8], len: usize, digest: u64) {
    assert_eq!(
        (bytes.len(), fnv1a(bytes)),
        (len, digest),
        "{what}: wire bytes changed (got len {} digest {:#018x})",
        bytes.len(),
        fnv1a(bytes)
    );
}

/// The codec bench's fleet-replication payload: Target 5 against the four
/// Table 3 contracts, 20 repetitions, two waves in.
fn mid_run_checkpoint() -> MatrixCheckpoint {
    let matrix = CampaignMatrix::new(7)
        .with_budget(40)
        .with_repetitions(20)
        .add_cells(Target::target5(), Contract::table3_contracts());
    let mut run = matrix.start();
    run.step(&mut NoopObserver);
    run.step(&mut NoopObserver);
    let mut cp = run.checkpoint();
    for (i, g) in cp.groups.iter_mut().enumerate() {
        g.work = Duration::from_nanos(987_654_321 + i as u64);
    }
    for (i, c) in cp.cells.iter_mut().flatten().enumerate() {
        c.detection_time = Duration::from_nanos(123_456_789 + i as u64);
    }
    cp
}

/// The seed-7 CT-SEQ V1 violation on Target 5.
fn v1_report() -> ViolationReport {
    let report = CampaignMatrix::new(7)
        .with_budget(60)
        .add_cell(Target::target5(), Contract::ct_seq())
        .run();
    report.cells[0]
        .violation
        .clone()
        .expect("V1 found within 60 test cases")
}

/// A sequential campaign from a fixed seed.
fn fuzz_report() -> FuzzReport {
    let target = Target::target5();
    let generator = rvz_gen::GeneratorConfig::for_subset(target.isa)
        .with_basic_blocks(4)
        .with_instructions(14);
    let config = FuzzerConfig::for_target(&target, Contract::ct_seq())
        .with_generator(generator)
        .with_executor(ExecutorConfig::fast(target.mode).with_repetitions(2))
        .with_inputs_per_test_case(20)
        .with_max_test_cases(150)
        .with_seed(1);
    let mut report = Revizor::new(target.cpu(), config)
        .with_target(target.clone())
        .run();
    report.duration = Duration::from_nanos(4_242_424_242);
    report
}

#[test]
fn mid_run_checkpoint_bytes_are_pinned() {
    let cp = mid_run_checkpoint();
    let frame = matrix_checkpoint_to_binary(&cp);
    let json = matrix_checkpoint_to_json(&cp).render();
    assert_golden("checkpoint frame", &frame, 48_701, 0x8b9a_f78b_199a_1aaa);
    assert_golden(
        "checkpoint JSON",
        json.as_bytes(),
        362_519,
        0x70cd_1ecc_6963_fe20,
    );
    assert_eq!(matrix_checkpoint_from_binary(&frame).unwrap(), cp);
    assert_eq!(
        matrix_checkpoint_from_json(&parse(&json).unwrap()).unwrap(),
        cp
    );

    let meta = Json::obj()
        .field("op", "wave")
        .field("target", 5u64)
        .field("lease", 77u64);
    let transfer = checkpoint_transfer_to_binary("j-golden", &cp, &meta);
    assert_golden("transfer frame", &transfer, 48_754, 0x275f_730b_66b3_2900);
}

#[test]
fn v1_violation_report_bytes_are_pinned() {
    let report = v1_report();
    let frame = violation_report_to_binary(&report);
    let json = violation_report_to_json(&report).render();
    assert_golden("report frame", &frame, 24_306, 0x0c40_f4d8_9826_8b98);
    assert_golden(
        "report JSON",
        json.as_bytes(),
        180_731,
        0xcca1_565e_67c6_dc67,
    );
    assert_eq!(violation_report_from_binary(&frame).unwrap(), report);
    assert_eq!(
        violation_report_from_json(&parse(&json).unwrap()).unwrap(),
        report
    );
}

#[test]
fn fuzz_report_bytes_are_pinned() {
    let report = fuzz_report();
    let json = fuzz_report_to_json(&report).render();
    assert_golden(
        "fuzz report JSON",
        json.as_bytes(),
        1_780_457,
        0x9f43_0c8e_2463_c01d,
    );
    let violation = report.violation.as_ref().expect("seed 1 finds a violation");
    assert_golden(
        "fuzz report violation frame",
        &violation_report_to_binary(violation),
        240_420,
        0xcac3_335b_8433_54c6,
    );
}

#[test]
fn two_cell_matrix_cells_json_is_pinned() {
    let report = CampaignMatrix::new(7)
        .with_budget(40)
        .add_cell(Target::target5(), Contract::ct_seq())
        .add_cell(Target::target1(), Contract::ct_seq())
        .run();
    let json = matrix_cells_json(&report).render();
    assert_golden(
        "matrix cells JSON",
        json.as_bytes(),
        181_248,
        0x1970_fb4d_87f4_9a59,
    );
}
