//! # rvz-uarch
//!
//! The **black-box CPU under test**.
//!
//! The paper measures real Intel Skylake and Coffee Lake parts through a
//! kernel-module executor.  This reproduction substitutes a deterministic
//! speculative micro-architecture simulator that contains the same leak
//! mechanisms the paper's targets contain, behind the same black-box
//! interface the executor uses (run a binary with an input, then observe the
//! cache through a side channel):
//!
//! * an L1D cache (from [`rvz_cache`]) observable via Prime+Probe etc.;
//! * a conditional-branch predictor, BTB and RSB (Spectre V1/V2/V5-ret);
//! * a store buffer with speculative store-bypass (Spectre V4) and a
//!   microcode-patch toggle (SSBD);
//! * a line-fill buffer with microcode-assist forwarding (MDS) and
//!   zero-injection on MDS-patched parts (LVI-Null);
//! * variable-latency division and a data-flow timing model, which together
//!   produce the latency races behind the paper's novel V1-var/V4-var
//!   findings (§6.3);
//! * per-CPU presets ([`UarchConfig::skylake`], [`UarchConfig::coffee_lake`])
//!   including the Coffee Lake behaviour where speculative stores already
//!   modify the cache (§6.4).
//!
//! Revizor's analysis never looks inside this crate's state: it only
//! compares hardware traces to hardware traces, exactly as MRT prescribes.
//! The one window into the state is [`CpuUnderTest::carried_state`], and it
//! is the simulator declaring its own determinism, not an observation: the
//! executor compares two exports for equality and, when the state a pass
//! hands to the next has stopped changing, replays that pass's samples
//! instead of re-simulating it.  A black-box or real-hardware backend keeps
//! the default (no export) and is measured on the full schedule.
//!
//! # Example
//!
//! ```
//! use rvz_isa::{builder::TestCaseBuilder, Input, Reg};
//! use rvz_uarch::{CpuUnderTest, RunOptions, SpecCpu, UarchConfig};
//!
//! let tc = TestCaseBuilder::new()
//!     .block("entry", |b| {
//!         b.and_imm(Reg::Rax, 0b111111000000);
//!         b.load(Reg::Rbx, Reg::R14, Reg::Rax);
//!         b.exit();
//!     })
//!     .build();
//! let mut cpu = SpecCpu::new(UarchConfig::skylake());
//! let mut input = Input::zeroed(tc.sandbox());
//! input.set_reg(Reg::Rax, 0x80);
//! let outcome = cpu.run(&tc, &input, &RunOptions::default()).unwrap();
//! assert!(outcome.executed_instructions > 0);
//! assert!(cpu.cache_mut().is_cached(tc.sandbox().base + 0x80));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cpu;
pub mod predictors;
pub mod store_buffer;
pub mod timing;

pub use config::UarchConfig;
pub use cpu::{RunOptions, RunOutcome, SpecCpu};
pub use predictors::{
    BranchPredictor, Btb, CyclicRsb, DirectionKind, DirectionPredictor, LoopPredictor,
    PredictorConfig, ReturnKind, ReturnPredictor, Rsb, SetAssocBtb, Tage, TargetKind,
    TargetPredictor,
};
pub use store_buffer::{StoreBuffer, StoreBufferEntry};
pub use timing::Timing;

use rvz_cache::Cache;
use rvz_emu::Fault;
use rvz_isa::{DecodedProgram, Input, TestCase};

/// The black-box interface of a CPU under test, as seen by the executor.
///
/// Microarchitectural state (cache, predictors, buffers) persists across
/// [`CpuUnderTest::run`] calls until [`CpuUnderTest::reset_uarch`] is called;
/// this persistence is exactly what the executor's *priming* technique
/// exploits to set the context deterministically (§5.3).
///
/// An implementation may additionally export that carried state through
/// [`CpuUnderTest::carried_state`].  Doing so is a promise of determinism:
/// the executor then skips repetitions whose starting state it has already
/// measured from.
pub trait CpuUnderTest {
    /// Human-readable name of the part, e.g. `"Skylake (V4 patch off)"`.
    fn name(&self) -> String;

    /// Execute the test case with the given input in the current
    /// microarchitectural context.
    ///
    /// # Errors
    /// Returns a [`Fault`] if the program faults architecturally; generated
    /// test cases never do.
    fn run(&mut self, tc: &TestCase, input: &Input, opts: &RunOptions) -> Result<RunOutcome, Fault>;

    /// Execute a pre-decoded program in the current microarchitectural
    /// context.  The executor decodes each test case once and reuses the
    /// program across warm-up, repetitions and inputs; implementations that
    /// step the decoded representation directly (like [`SpecCpu`]) override
    /// this to skip the per-run AST walk.
    ///
    /// # Errors
    /// Same as [`CpuUnderTest::run`].
    fn run_decoded(
        &mut self,
        prog: &DecodedProgram,
        input: &Input,
        opts: &RunOptions,
    ) -> Result<RunOutcome, Fault> {
        self.run(prog.source(), input, opts)
    }

    /// The L1D cache, which the executor's side channel primes and probes.
    fn cache_mut(&mut self) -> &mut Cache;

    /// Reset every microarchitectural structure to power-on state.
    fn reset_uarch(&mut self);

    /// Append the complete microarchitectural state carried from one run
    /// to the next to `out` and return `true`, or return `false` (the
    /// default) when the state cannot be exported.
    ///
    /// Implementing this promises that a run is a deterministic function
    /// of the program, the input, the run options and this state, and
    /// that two equal exports (same CPU configuration) mean equal states:
    /// every structure a later run can observe must be in the export, in a
    /// self-delimiting encoding.  Pure statistics that no run reads back
    /// (prediction and cache hit/miss counters) stay out of it, and under
    /// a replaying executor they count only the runs actually simulated.
    ///
    /// The executor relies on the promise when noise is off: once the
    /// state at the start of a measured pass equals the state at its end,
    /// every later pass would reproduce it sample for sample, so the
    /// executor replays that pass's samples instead of re-running it.
    /// Black-box and real-hardware backends keep the default and are
    /// always measured on the full warm-up + repetition schedule.
    fn carried_state(&self, _out: &mut Vec<u64>) -> bool {
        false
    }
}
