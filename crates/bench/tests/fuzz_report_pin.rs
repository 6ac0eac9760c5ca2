//! Pinned results of single campaigns (`Revizor::run`): the rendered
//! `FuzzReport` document, minus its wall-clock `duration_ns`, and the
//! `(round, test_cases, filtered)` sequence of the round events, each as a
//! length and FNV-1a digest.  Every campaign runs at parallelism 1 and 2;
//! both must produce the pinned bytes.
//!
//! Only completed rounds are pinned (`round <= report.rounds`): a round cut
//! short by a violation is not one of the report's rounds, so whether it
//! also delivers an event is left to the driver, as is the escalation count
//! an event carries.

use revizor::campaign::{ProgressObserver, RoundEvent};
use revizor::targets::Target;
use revizor::{FuzzerConfig, Revizor};
use rvz_bench::json::Json;
use rvz_bench::report::fuzz_report_to_json;
use rvz_executor::{ExecutorConfig, NoiseConfig};
use rvz_gen::GeneratorConfig;
use rvz_model::Contract;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Records `(round, test_cases, filtered)` of every round event.
struct Rounds(Vec<(usize, usize, usize)>);

impl ProgressObserver for Rounds {
    fn round_completed(&mut self, event: &RoundEvent) {
        self.0.push((event.round, event.test_cases, event.filtered));
    }
}

/// The report document without `duration_ns`, and the completed rounds'
/// events.
fn campaign(target: &Target, config: &FuzzerConfig) -> (String, String) {
    let mut rounds = Rounds(Vec::new());
    let report = Revizor::new(target.cpu(), config.clone())
        .with_target(target.clone())
        .run_with_observer(&mut rounds);
    let doc = match fuzz_report_to_json(&report) {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "duration_ns")
                .collect(),
        ),
        other => panic!("a report renders as an object, got {other:?}"),
    };
    rounds.0.retain(|&(round, _, _)| round <= report.rounds);
    (doc.render(), format!("{:?}", rounds.0))
}

/// Run `config` at parallelism 1 and 2 and compare both to the pins.
#[track_caller]
fn assert_pinned(
    what: &str,
    target: &Target,
    config: FuzzerConfig,
    report: (usize, u64),
    events: (usize, u64),
) {
    for parallelism in [1, 2] {
        let (doc, rounds) = campaign(target, &config.clone().with_parallelism(parallelism));
        let got = (
            (doc.len(), fnv1a(doc.as_bytes())),
            (rounds.len(), fnv1a(rounds.as_bytes())),
        );
        assert_eq!(
            got,
            (report, events),
            "{what} at parallelism {parallelism}: got report ({}, {:#018x}), events ({}, {:#018x}) {rounds}",
            got.0 .0,
            got.0 .1,
            got.1 .0,
            got.1 .1,
        );
    }
}

/// The fuzzer unit tests' mid-campaign generator: 4 basic blocks, 14
/// instructions, 20 inputs, 2 repetitions.
fn quick_config(target: &Target, contract: Contract) -> FuzzerConfig {
    let generator = GeneratorConfig::for_subset(target.isa)
        .with_basic_blocks(4)
        .with_instructions(14);
    FuzzerConfig::for_target(target, contract)
        .with_generator(generator)
        .with_executor(ExecutorConfig::fast(target.mode).with_repetitions(2))
        .with_inputs_per_test_case(20)
        .with_max_test_cases(120)
        .with_seed(1)
}

#[test]
fn target5_ct_seq_violation_mid_round_is_pinned() {
    let target = Target::target5();
    let config = quick_config(&target, Contract::ct_seq());
    assert_pinned(
        "T5 x CT-SEQ seed 1",
        &target,
        config,
        (1_780_432, 0xb3e0_4579_f3e4_777d),
        (84, 0x5075_6832_c6dc_d570),
    );
}

#[test]
fn target1_escalating_campaign_is_pinned() {
    let target = Target::target1();
    let config = FuzzerConfig::for_target(&target, Contract::ct_seq())
        .with_executor(ExecutorConfig::fast(target.mode).with_repetitions(2))
        .with_inputs_per_test_case(10)
        .with_max_test_cases(30)
        .with_seed(2);
    assert_pinned(
        "T1 x CT-SEQ seed 2",
        &target,
        config,
        (475, 0x6fd4_9f23_0d9f_ac63),
        (36, 0x47eb_e2d0_39f3_00e4),
    );
}

#[test]
fn steady_shape_campaign_is_pinned() {
    // The fuzzing-speed shape: Target 5 against CT-COND with the paper's
    // initial generator and 50 inputs, on a short budget.
    let target = Target::target5();
    let config = FuzzerConfig::for_target(&target, Contract::ct_cond())
        .with_inputs_per_test_case(50)
        .with_max_test_cases(30)
        .with_seed(1);
    assert_pinned(
        "T5 x CT-COND, 50 inputs",
        &target,
        config,
        (642, 0x549d_5d73_458b_e133),
        (36, 0x47eb_e2d0_39f3_00e4),
    );
}

#[test]
fn partial_final_round_is_pinned() {
    let target = Target::target1();
    let mut config = quick_config(&target, Contract::ct_seq()).with_max_test_cases(10);
    config.round_size = 4;
    assert_pinned(
        "budget 10, round size 4",
        &target,
        config,
        (475, 0xd1e8_c2d8_7530_c2aa),
        (34, 0x216f_789b_fb6b_34ed),
    );
}

#[test]
fn zero_round_size_is_pinned() {
    let target = Target::target1();
    let mut config = quick_config(&target, Contract::ct_seq()).with_max_test_cases(3);
    config.round_size = 0;
    assert_pinned(
        "round size 0",
        &target,
        config,
        (472, 0x42e6_352e_6a34_537c),
        (33, 0xecad_8eab_e7f1_8b96),
    );
}

#[test]
fn filtered_campaign_is_pinned() {
    let target = Target::target5();
    let config = quick_config(&target, Contract::ct_seq()).with_speculation_filter(true);
    assert_pinned(
        "speculation filter",
        &target,
        config,
        (1_780_432, 0x703c_db1b_613b_be94),
        (83, 0xa2e1_9762_c7ae_ac49),
    );
}

#[test]
fn noisy_campaign_is_pinned() {
    let target = Target::target5();
    let generator = GeneratorConfig::for_subset(target.isa)
        .with_basic_blocks(4)
        .with_instructions(14);
    let noise = NoiseConfig {
        one_off_probability: 0.05,
        smi_probability: 0.05,
        seed: 17,
    };
    let mut config = FuzzerConfig::for_target(&target, Contract::ct_seq())
        .with_generator(generator)
        .with_executor(
            ExecutorConfig::fast(target.mode)
                .with_repetitions(5)
                .with_noise(noise),
        )
        .with_inputs_per_test_case(20)
        .with_max_test_cases(60)
        .with_seed(150);
    config.round_size = 1000;
    assert_pinned(
        "noisy seed 150",
        &target,
        config,
        (180_552, 0x655d_77f6_ef36_553b),
        (2, 0x0961_2b07_b5ec_b5a5),
    );
}
