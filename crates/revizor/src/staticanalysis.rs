//! Static taint analysis over test-case programs.
//!
//! A forward may-taint dataflow pass over the basic-block DAG answers, per
//! test case and *before* any model or hardware measurement: **can any
//! speculation source reach a transmitter?**  Speculation sources are the
//! events a real CPU (or the contract model's execution clauses) may
//! mis-speculate on:
//!
//! * conditional branch terminators (`COND` misprediction, Spectre V1);
//! * indirect jumps and returns (BTB/RSB misprediction, V2 / V5-ret);
//! * loads that may bypass an older store (`BPAS`, Spectre V4);
//! * loads that may trigger a microcode assist (MDS / LVI);
//! * variable-latency `DIV` feeding a speculative access (the latency
//!   variants of Figure 5 / §6.3).
//!
//! Transmitters are observations that can differ between two inputs whose
//! sequential contract traces are equal: a memory access whose address is
//! data-dependent on a tainted value, or — because CT observation exposes
//! the program counter — a further input-dependent branch inside a
//! speculative window.
//!
//! The lattice is a per-location may-taint bit (monotone join = OR) over the
//! sixteen general-purpose registers, the status flags, and the sandbox
//! memory as a single cell.  Inputs initialize every non-reserved register,
//! the flags, and all of sandbox memory ([`rvz_gen::InputGenerator`]
//! randomizes all of them), so the *input* layer starts fully tainted and
//! only immediate moves introduce untainted values.  Two further layers
//! track values that are only transiently wrong: *bypass* taint (stale
//! values a load may observe by bypassing an older store) and *assist* taint
//! (values transiently forwarded by an assisted load).  A fourth layer
//! records whether a value passed through a load at all, which the gadget
//! classifier uses to recognize dependent-chain shapes.
//!
//! **Soundness argument.** A confirmed violation needs two inputs with equal
//! contract traces and diverging hardware traces, and the model-side
//! equivalent needs equal CT-SEQ traces with diverging speculative-contract
//! traces.  Divergence can only enter through a speculative window (equal
//! sequential traces fix the architectural path and all architectural
//! addresses), and inside a window it can only surface through an
//! observation that depends on input state beyond what the sequential trace
//! already exposes: a memory access, a further conditional branch (PC
//! observations), or a transiently-wrong (bypassed / assisted) value flowing
//! into either.  [`TaintReport::leak_possible`] is the disjunction of
//! exactly those cases, each over-approximated (any store may alias any
//! later load, any load may touch the armed assist page), so a `false`
//! answer means no speculative window can produce a distinguishing
//! observation — the test case is a true negative and skipping its
//! measurement cannot mask a violation.

use crate::targets::Target;
use rvz_isa::{BlockId, Instr, Reg, Terminator, TestCase};
use std::fmt;

/// Default speculative-window bound (instructions), matching the default
/// contract / microarchitecture window.
pub const DEFAULT_WINDOW: usize = 250;

/// May-taint over the register file, the flags, and sandbox memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Taint {
    regs: u32,
    flags: bool,
    mem: bool,
}

impl Taint {
    fn join(&mut self, other: &Taint) -> bool {
        let before = *self;
        self.regs |= other.regs;
        self.flags |= other.flags;
        self.mem |= other.mem;
        *self != before
    }

    fn reg(&self, r: Reg) -> bool {
        self.regs & (1 << r.index()) != 0
    }

    fn set_reg(&mut self, r: Reg, tainted: bool) {
        if tainted {
            self.regs |= 1 << r.index();
        } else {
            self.regs &= !(1 << r.index());
        }
    }

    fn any_reg(&self, regs: &[Reg]) -> bool {
        regs.iter().any(|r| self.reg(*r))
    }
}

/// Abstract state at a program point: one [`Taint`] per layer plus the
/// store-seen bit that makes later loads bypass candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct AbsState {
    /// Input-derived values (architectural data dependence on the input).
    input: Taint,
    /// Values that may be transiently stale via store bypass.
    bypass: Taint,
    /// Values that may be transiently injected by a microcode assist.
    assist: Taint,
    /// Values that passed through at least one load.
    loaded: Taint,
    /// A store precedes this point on some path.
    store_seen: bool,
}

impl AbsState {
    fn entry() -> AbsState {
        let mut input = Taint { regs: 0, flags: true, mem: true };
        for r in Reg::ALL {
            // R14 (sandbox base) and RSP are overwritten before execution.
            if !matches!(r, Reg::R14 | Reg::Rsp) {
                input.set_reg(r, true);
            }
        }
        AbsState { input, ..AbsState::default() }
    }

    fn join(&mut self, other: &AbsState) -> bool {
        let mut changed = self.input.join(&other.input);
        changed |= self.bypass.join(&other.bypass);
        changed |= self.assist.join(&other.assist);
        changed |= self.loaded.join(&other.loaded);
        if other.store_seen && !self.store_seen {
            self.store_seen = true;
            changed = true;
        }
        changed
    }
}

/// What kind of speculation a source exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// A conditional branch terminator (misprediction, V1 family).
    CondBranch,
    /// An indirect jump terminator (BTB misprediction, V2).
    IndirectBranch,
    /// A return terminator (RSB misprediction, V5-ret).
    Return,
    /// A load that may bypass an older store (V4 family).
    StoreBypass,
    /// A load that may trigger a microcode assist (MDS / LVI).
    AssistLoad,
    /// A variable-latency division feeding later speculative work.
    VarLatency,
}

impl SourceKind {
    /// Every kind, in wire order: the binary codec writes a kind as
    /// its position here, so new variants are appended, never inserted.
    pub const ALL: [SourceKind; 6] = [
        SourceKind::CondBranch,
        SourceKind::IndirectBranch,
        SourceKind::Return,
        SourceKind::StoreBypass,
        SourceKind::AssistLoad,
        SourceKind::VarLatency,
    ];

    /// Position in [`SourceKind::ALL`].  The match is exhaustive, so a new
    /// variant does not compile until it is given the next slot.
    pub const fn index(self) -> usize {
        match self {
            SourceKind::CondBranch => 0,
            SourceKind::IndirectBranch => 1,
            SourceKind::Return => 2,
            SourceKind::StoreBypass => 3,
            SourceKind::AssistLoad => 4,
            SourceKind::VarLatency => 5,
        }
    }
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SourceKind::CondBranch => "cond-branch",
            SourceKind::IndirectBranch => "indirect-branch",
            SourceKind::Return => "return",
            SourceKind::StoreBypass => "store-bypass",
            SourceKind::AssistLoad => "assist-load",
            SourceKind::VarLatency => "var-latency",
        };
        f.write_str(s)
    }
}

/// One speculation source found in a test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecSource {
    /// The kind of speculation.
    pub kind: SourceKind,
    /// Block containing the source.
    pub block: usize,
    /// Instruction index for instruction sources; `None` for terminators.
    pub instr: Option<usize>,
}

/// Whether a transmitter reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitterKind {
    /// A load.
    Load,
    /// A store.
    Store,
}

impl TransmitterKind {
    /// Every kind, in wire order: the binary codec writes a kind as
    /// its position here, so new variants are appended, never inserted.
    pub const ALL: [TransmitterKind; 2] = [
        TransmitterKind::Load,
        TransmitterKind::Store,
    ];

    /// Position in [`TransmitterKind::ALL`].  The match is exhaustive, so a new
    /// variant does not compile until it is given the next slot.
    pub const fn index(self) -> usize {
        match self {
            TransmitterKind::Load => 0,
            TransmitterKind::Store => 1,
        }
    }
}

impl fmt::Display for TransmitterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransmitterKind::Load => "load",
            TransmitterKind::Store => "store",
        })
    }
}

/// A memory access whose address is data-dependent on a tainted value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmitter {
    /// Block containing the access.
    pub block: usize,
    /// Instruction index of the access.
    pub instr: usize,
    /// Load or store.
    pub kind: TransmitterKind,
    /// The address depends on input data.
    pub input_tainted: bool,
    /// The address depends on a transiently-wrong (bypassed or assisted)
    /// value — the V4/MDS/LVI dependent-access shape.
    pub transient_tainted: bool,
    /// The address depends on a value that passed through a load.
    pub through_load: bool,
}

/// The result of the static pass over one test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintReport {
    /// Every speculation source in program order.
    pub sources: Vec<SpecSource>,
    /// Every tainted-address memory access in program order.
    pub transmitters: Vec<Transmitter>,
    /// Can any speculation source reach a distinguishing observation?
    pub leak_possible: bool,
    /// Positions `(block, instr)` statically reachable inside some
    /// speculative window — where a fence can cut a transient leak.
    pub window: Vec<(usize, usize)>,
}

/// Run the static pass.  Microcode assists are assumed possible when the
/// sandbox has an assist page; use [`analyze_with`] to force them (the
/// `*+Assist` executor modes arm page 0 even without an explicit assist
/// page).
pub fn analyze(tc: &TestCase) -> TaintReport {
    analyze_with(tc, tc.sandbox().assist_page.is_some(), DEFAULT_WINDOW)
}

/// Run the static pass with explicit assist capability and window bound.
pub fn analyze_with(tc: &TestCase, assists: bool, window: usize) -> TaintReport {
    let states = fixpoint(tc, assists);
    collect(tc, assists, window, &states)
}

/// The pre-measurement filter predicate: `true` when the test case must be
/// measured because a speculative leak is statically possible under a CPU
/// with the given assist capability.  `false` answers are true negatives
/// (see the module-level soundness argument).
pub fn leak_possible(tc: &TestCase, assists: bool) -> bool {
    analyze_with(tc, assists, DEFAULT_WINDOW).leak_possible
}

// ---------------------------------------------------------------------------
// Dataflow core
// ---------------------------------------------------------------------------

/// Compute the abstract state at every block entry (fixpoint over the DAG).
fn fixpoint(tc: &TestCase, assists: bool) -> Vec<Option<AbsState>> {
    let n = tc.blocks().len();
    let mut states: Vec<Option<AbsState>> = vec![None; n];
    states[BlockId::ENTRY.index()] = Some(AbsState::entry());
    loop {
        let mut changed = false;
        for b in 0..n {
            let Some(entry) = states[b] else { continue };
            let block = &tc.blocks()[b];
            let mut st = entry;
            for instr in &block.instrs {
                transfer(instr, assists, &mut st, &mut |_, _| {});
            }
            // `Ret` returns through the in-sandbox stack, which the taint
            // lattice models as part of memory; its dynamic successors are
            // all blocks a `Call` may have pushed.  Static successors are
            // enough here because every return target is also a `Call`
            // successor (`return_to`), so it already receives the state.
            for succ in block.terminator.successors() {
                let s = succ.index();
                if s >= n {
                    continue;
                }
                match &mut states[s] {
                    Some(existing) => changed |= existing.join(&st),
                    slot @ None => {
                        *slot = Some(st);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return states;
        }
    }
}

/// Apply one instruction to the abstract state.  `on_access` is called for
/// every memory operand with the access site's [`Transmitter`] description
/// and the value taint that a load at that site produces.
fn transfer(
    instr: &Instr,
    assists: bool,
    st: &mut AbsState,
    on_access: &mut dyn FnMut(TransmitterKind, AccessTaint),
) {
    // Address taints of every memory operand, before the write-back.
    for (mem, _w, is_write) in instr.mem_operands() {
        let regs = mem.address_regs();
        on_access(
            if is_write { TransmitterKind::Store } else { TransmitterKind::Load },
            AccessTaint {
                input: st.input.any_reg(&regs),
                transient: st.bypass.any_reg(&regs) || st.assist.any_reg(&regs),
                through_load: st.loaded.any_reg(&regs),
            },
        );
    }

    // Value taint flowing out of this instruction, per layer.
    let reads = instr.reads_regs();
    let read_layer = |t: &Taint, reads_flags: bool, reads_mem: bool| -> bool {
        t.any_reg(&reads) || (reads_flags && t.flags) || (reads_mem && t.mem)
    };
    let rf = instr.reads_flags();
    let rm = instr.reads_mem();
    let v_input = read_layer(&st.input, rf, rm);
    let mut v_bypass = read_layer(&st.bypass, rf, rm);
    let mut v_assist = read_layer(&st.assist, rf, rm);
    let mut v_loaded = read_layer(&st.loaded, rf, rm);

    if rm {
        // The loaded value may be transiently wrong: stale (if an older
        // store may still be in flight) or injected by an assist.
        v_loaded = true;
        if st.store_seen {
            v_bypass = true;
        }
        if assists {
            v_assist = true;
        }
    }
    if matches!(instr, Instr::Lea { .. }) {
        // LEA computes an address without touching memory.
        v_loaded = read_layer(&st.loaded, false, false);
        v_bypass = read_layer(&st.bypass, false, false);
        v_assist = read_layer(&st.assist, false, false);
    }

    for r in instr.writes_regs() {
        st.input.set_reg(r, v_input);
        st.bypass.set_reg(r, v_bypass);
        st.assist.set_reg(r, v_assist);
        st.loaded.set_reg(r, v_loaded);
    }
    if instr.writes_mem() {
        st.input.mem |= v_input;
        st.bypass.mem |= v_bypass;
        st.assist.mem |= v_assist;
        st.loaded.mem |= v_loaded;
        st.store_seen = true;
    }
    if instr.writes_flags() {
        st.input.flags = v_input;
        st.bypass.flags = v_bypass;
        st.assist.flags = v_assist;
        st.loaded.flags = v_loaded;
    }
}

/// Address/value taint of one memory access site.
#[derive(Debug, Clone, Copy)]
struct AccessTaint {
    input: bool,
    transient: bool,
    through_load: bool,
}

// ---------------------------------------------------------------------------
// Fact collection and the leak predicate
// ---------------------------------------------------------------------------

/// Per-block facts for the speculative reachability predicate: starting at
/// the top of a block, can a speculative path observe a memory access or a
/// further branch before hitting a fence?
fn spec_reach(tc: &TestCase) -> Vec<bool> {
    let n = tc.blocks().len();
    let mut reach = vec![false; n];
    // Blocks only branch forward, so one reverse pass reaches the fixpoint.
    for b in (0..n).rev() {
        let block = &tc.blocks()[b];
        let mut fenced = false;
        for instr in &block.instrs {
            if instr.is_fence() {
                fenced = true;
                break;
            }
            if instr.accesses_mem() {
                reach[b] = true;
                break;
            }
        }
        if !reach[b] && !fenced {
            let term = &block.terminator;
            reach[b] = term.is_conditional()
                || term.is_indirect()
                || term.successors().iter().any(|s| s.index() < n && reach[s.index()]);
        }
    }
    reach
}

fn collect(
    tc: &TestCase,
    assists: bool,
    window: usize,
    states: &[Option<AbsState>],
) -> TaintReport {
    let n = tc.blocks().len();
    let reach = spec_reach(tc);
    let any_access = tc.blocks().iter().any(|b| b.memory_access_count() > 0);

    let mut sources = Vec::new();
    let mut transmitters = Vec::new();
    let mut leak = false;
    // Speculative-window BFS start positions.
    let mut starts: Vec<(usize, usize)> = Vec::new();

    for (b, state) in states.iter().enumerate().take(n) {
        let Some(entry) = *state else { continue };
        let block = &tc.blocks()[b];
        let mut st = entry;
        for (i, instr) in block.instrs.iter().enumerate() {
            let before = st;
            transfer(instr, assists, &mut st, &mut |kind, at| {
                if at.input || at.transient {
                    transmitters.push(Transmitter {
                        block: b,
                        instr: i,
                        kind,
                        input_tainted: at.input,
                        transient_tainted: at.transient,
                        through_load: at.through_load,
                    });
                }
                // A transmitter whose address carries transient (bypassed or
                // assisted) data is a complete source-to-observation chain.
                if at.transient {
                    leak = true;
                }
            });
            if instr.reads_mem() {
                if before.store_seen {
                    sources.push(SpecSource {
                        kind: SourceKind::StoreBypass,
                        block: b,
                        instr: Some(i),
                    });
                }
                if assists {
                    sources.push(SpecSource {
                        kind: SourceKind::AssistLoad,
                        block: b,
                        instr: Some(i),
                    });
                }
            }
            if instr.writes_mem() {
                // The bypass window opens at the skipped store.
                starts.push((b, i + 1));
            }
            if instr.is_variable_latency() {
                sources.push(SpecSource { kind: SourceKind::VarLatency, block: b, instr: Some(i) });
            }
        }
        // Transiently-wrong data reaching a branch decision diverges the
        // speculative path itself (PC observations under CT).
        let term = &block.terminator;
        if term.reads_flags() && (st.bypass.flags || st.assist.flags) {
            leak = true;
        }
        if let Terminator::IndirectJmp { src, .. } = term {
            if st.bypass.reg(*src) || st.assist.reg(*src) {
                leak = true;
            }
        }
        match term {
            Terminator::CondJmp { taken, not_taken, .. } => {
                sources.push(SpecSource { kind: SourceKind::CondBranch, block: b, instr: None });
                let spec = [taken.index(), not_taken.index()];
                if spec.iter().any(|&s| s < n && reach[s]) {
                    leak = true;
                }
                for &s in &spec {
                    starts.push((s, 0));
                }
            }
            Terminator::IndirectJmp { table, .. } => {
                sources.push(SpecSource {
                    kind: SourceKind::IndirectBranch,
                    block: b,
                    instr: None,
                });
                // The BTB can predict any previously trained target.
                if any_access {
                    leak = true;
                }
                for t in table {
                    starts.push((t.index(), 0));
                }
            }
            Terminator::Ret => {
                sources.push(SpecSource { kind: SourceKind::Return, block: b, instr: None });
                // The RSB may predict a stale return target anywhere.
                if any_access {
                    leak = true;
                }
                for s in 0..n {
                    if s != b {
                        starts.push((s, 0));
                    }
                }
            }
            _ => {}
        }
    }

    sources.sort_by_key(|s| (s.block, s.instr));
    let window = window_positions(tc, &starts, window);
    TaintReport { sources, transmitters, leak_possible: leak, window }
}

/// Positions reachable within `fuel` instructions from the given speculative
/// entry points, stopping at fences (mirroring the model's `explore`).
fn window_positions(tc: &TestCase, starts: &[(usize, usize)], fuel: usize) -> Vec<(usize, usize)> {
    let n = tc.blocks().len();
    let mut best: std::collections::BTreeMap<(usize, usize), usize> =
        std::collections::BTreeMap::new();
    let mut queue: Vec<(usize, usize, usize)> =
        starts.iter().map(|&(b, i)| (b, i, fuel)).collect();
    while let Some((b, i, fuel)) = queue.pop() {
        if b >= n || fuel == 0 {
            continue;
        }
        let block = &tc.blocks()[b];
        if i >= block.instrs.len() {
            for s in block.terminator.successors() {
                queue.push((s.index(), 0, fuel - 1));
            }
            continue;
        }
        match best.get(&(b, i)) {
            Some(&f) if f >= fuel => continue,
            _ => {
                best.insert((b, i), fuel);
            }
        }
        if block.instrs[i].is_fence() {
            continue;
        }
        queue.push((b, i + 1, fuel - 1));
    }
    best.into_keys().collect()
}

// ---------------------------------------------------------------------------
// Gadget signature classification
// ---------------------------------------------------------------------------

/// The canonical shape of a leaking gadget: which speculation source feeds
/// which transmitter, and through what kind of dependency chain.  Two
/// violations with equal signatures are the same leak class, which lets
/// campaigns dedup the millionth V1 against the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GadgetSignature {
    /// The speculation source opening the window.
    pub source: SourceKind,
    /// Whether the transmitter is a load or a store.
    pub transmitter: TransmitterKind,
    /// The transmitter address depends on a value that passed through a
    /// load (the classic secret-dependent double access) — or, for a store
    /// transmitter, a load consumes the stored location inside the window.
    pub through_load: bool,
    /// A variable-latency division feeds or races the window.
    pub var_latency: bool,
}

impl GadgetSignature {
    /// The conventional leak-class label (V1, V4, …).
    pub fn label(&self) -> &'static str {
        match self.source {
            SourceKind::AssistLoad => "MDS/LVI",
            SourceKind::StoreBypass | SourceKind::VarLatency => {
                if self.var_latency {
                    "V4-var"
                } else {
                    "V4"
                }
            }
            SourceKind::IndirectBranch => "V2",
            SourceKind::Return => "V5-ret",
            SourceKind::CondBranch => match self.transmitter {
                TransmitterKind::Store => {
                    if self.through_load {
                        "V1.1"
                    } else {
                        "spec-store-eviction"
                    }
                }
                TransmitterKind::Load => {
                    if self.var_latency {
                        "V1-var"
                    } else {
                        "V1"
                    }
                }
            },
        }
    }

    /// A fully spelled-out signature string for deduplication keys.
    pub fn canonical(&self) -> String {
        format!(
            "{}->{}{}{}",
            self.source,
            self.transmitter,
            if self.through_load { "[dep]" } else { "" },
            if self.var_latency { "[var]" } else { "" },
        )
    }
}

impl fmt::Display for GadgetSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.label(), self.canonical())
    }
}

/// Classify a (minimized) violating test case into a gadget signature, or
/// `None` when the static pass finds no leak-capable chain at all.
///
/// When multiple sources could explain a leak the most specific mechanism
/// wins: assists over store bypass over RSB/BTB over plain branch
/// misprediction — matching how the paper names its gadgets (e.g. MDS-SB
/// contains a store-then-load pair but is an assist leak).
pub fn classify_signature(tc: &TestCase) -> Option<GadgetSignature> {
    classify_for(tc, tc.sandbox().assist_page.is_some())
}

/// [`classify_signature`] with explicit assist capability, for targets whose
/// executor mode arms assists without a dedicated assist page.
pub fn classify_for(tc: &TestCase, assists: bool) -> Option<GadgetSignature> {
    let report = analyze_with(tc, assists, DEFAULT_WINDOW);
    if !report.leak_possible {
        return None;
    }
    let has_div = tc.blocks().iter().any(|b| b.instrs.iter().any(|i| i.is_variable_latency()));
    let has = |k: SourceKind| report.sources.iter().any(|s| s.kind == k);

    // Assist / bypass chains: the transmitter carries transient taint.
    let transient = report.transmitters.iter().find(|t| t.transient_tainted);
    if let Some(t) = transient {
        if assists && has(SourceKind::AssistLoad) {
            return Some(GadgetSignature {
                source: SourceKind::AssistLoad,
                transmitter: t.kind,
                through_load: t.through_load,
                var_latency: has_div,
            });
        }
        if has(SourceKind::StoreBypass) {
            return Some(GadgetSignature {
                source: SourceKind::StoreBypass,
                transmitter: t.kind,
                through_load: t.through_load,
                var_latency: has_div,
            });
        }
    }

    // Control-speculation chains: pick the first branch source and the best
    // transmitter inside its speculative window (prefer dependent-chain
    // transmitters, the shape that carries a secret).
    let source_kind = if has(SourceKind::Return) {
        SourceKind::Return
    } else if has(SourceKind::IndirectBranch) {
        SourceKind::IndirectBranch
    } else {
        SourceKind::CondBranch
    };
    let window: std::collections::BTreeSet<(usize, usize)> =
        report.window.iter().copied().collect();
    let in_window: Vec<&Transmitter> = report
        .transmitters
        .iter()
        .filter(|t| window.contains(&(t.block, t.instr)))
        .collect();
    let best: &Transmitter = in_window
        .iter()
        .find(|t| t.through_load)
        .or_else(|| in_window.first())
        .copied()
        // Return windows cover every block, but an empty transmitter list in
        // the window can still happen for indirect tables; fall back to
        // program order.
        .or_else(|| report.transmitters.iter().find(|t| t.through_load))
        .or_else(|| report.transmitters.first())?;
    let best = *best;
    let through_load = match best.kind {
        TransmitterKind::Load => best.through_load,
        // For a store transmitter, "through load" means a load consumes
        // memory inside the window after the store.
        TransmitterKind::Store => window
            .iter()
            .filter(|&&(b, i)| (b, i) > (best.block, best.instr))
            .any(|&(b, i)| {
                tc.blocks()
                    .get(b)
                    .and_then(|blk| blk.instrs.get(i))
                    .is_some_and(|instr| instr.reads_mem())
            }),
    };
    Some(GadgetSignature {
        source: source_kind,
        transmitter: best.kind,
        through_load,
        var_latency: has_div,
    })
}

/// Classify and map to the leak-class label in one step, resolving the
/// assist capability from the target's executor mode when available.
pub fn gadget_class(tc: &TestCase, target: Option<&Target>) -> Option<GadgetSignature> {
    let assists =
        tc.sandbox().assist_page.is_some() || target.is_some_and(|t| t.mode.assists);
    classify_for(tc, assists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets;
    use rvz_isa::builder::TestCaseBuilder;
    use rvz_isa::Cond;

    #[test]
    fn straight_line_arithmetic_cannot_leak() {
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.add(Reg::Rax, Reg::Rbx);
                b.alu_imm(rvz_isa::AluOp::Xor, Reg::Rcx, 13);
                b.exit();
            })
            .build();
        let report = analyze(&tc);
        assert!(!report.leak_possible);
        assert!(report.sources.is_empty());
        assert!(report.transmitters.is_empty());
        assert!(report.window.is_empty());
    }

    #[test]
    fn architectural_accesses_alone_cannot_leak() {
        // Loads and stores with no branch, no store-before-load pair and no
        // assists: every access is architectural and already exposed by the
        // sequential contract trace.
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.and_imm(Reg::Rbx, 0b111111000000);
                b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
                b.exit();
            })
            .build();
        let report = analyze(&tc);
        assert!(!report.leak_possible);
        // The access is input-tainted — a transmitter — but no source
        // reaches it.
        assert_eq!(report.transmitters.len(), 1);
        assert!(report.transmitters[0].input_tainted);
    }

    #[test]
    fn branch_without_reachable_observation_cannot_leak() {
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.cmp_imm(Reg::Rax, 128);
                b.jcc(Cond::B, "a", "b");
            })
            .block("a", |b| {
                b.add(Reg::Rax, Reg::Rbx);
                b.jmp("b");
            })
            .block("b", |b| b.exit())
            .build();
        assert!(!analyze(&tc).leak_possible);
    }

    #[test]
    fn fence_cuts_the_speculative_window() {
        let leaky = TestCaseBuilder::new()
            .block("entry", |b| {
                b.cmp_imm(Reg::Rax, 128);
                b.jcc(Cond::B, "spec", "done");
            })
            .block("spec", |b| {
                b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
                b.jmp("done");
            })
            .block("done", |b| b.exit())
            .build();
        assert!(analyze(&leaky).leak_possible);

        let fenced = TestCaseBuilder::new()
            .block("entry", |b| {
                b.cmp_imm(Reg::Rax, 128);
                b.jcc(Cond::B, "spec", "done");
            })
            .block("spec", |b| {
                b.lfence();
                b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
                b.jmp("done");
            })
            .block("done", |b| b.exit())
            .build();
        assert!(!analyze(&fenced).leak_possible, "an LFENCE at the window entry kills the leak");
    }

    #[test]
    fn nested_branches_leak_through_pc_observations() {
        // No memory access at all, but a second input-dependent branch
        // inside the first branch's window diverges the speculative PC
        // stream — CT-COND distinguishes inputs that CT-SEQ does not.
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.cmp_imm(Reg::Rax, 128);
                b.jcc(Cond::B, "mid", "done");
            })
            .block("mid", |b| {
                b.cmp_imm(Reg::Rbx, 64);
                b.jcc(Cond::B, "deep", "done");
            })
            .block("deep", |b| {
                b.nop();
                b.jmp("done");
            })
            .block("done", |b| b.exit())
            .build();
        assert!(analyze(&tc).leak_possible);
    }

    #[test]
    fn known_gadgets_are_leak_possible() {
        for (name, tc) in gadgets::table5_gadgets() {
            assert!(analyze(&tc).leak_possible, "{name} must be leak-possible");
        }
        for tc in [
            gadgets::lvi_null(),
            gadgets::v1_var(),
            gadgets::v4_var(),
            gadgets::ssb_double_load(),
            gadgets::arch_seq_insensitive(),
            gadgets::speculative_store_eviction(),
        ] {
            assert!(analyze(&tc).leak_possible, "{} must be leak-possible", tc.origin());
        }
    }

    #[test]
    fn v1_window_covers_the_speculative_path() {
        let tc = gadgets::spectre_v1();
        let report = analyze(&tc);
        // Block 1 (the in-bounds path) is inside the branch's window.
        assert!(report.window.iter().any(|&(b, _)| b == 1));
        assert!(report.sources.iter().any(|s| s.kind == SourceKind::CondBranch));
    }

    #[test]
    fn classifier_assigns_expected_classes() {
        let label = |tc: &TestCase| classify_signature(tc).expect("leak class").label();
        assert_eq!(label(&gadgets::spectre_v1()), "V1");
        assert_eq!(label(&gadgets::spectre_v4()), "V4");
        assert_eq!(label(&gadgets::spectre_v1_1()), "V1.1");
        assert_eq!(label(&gadgets::spectre_v2()), "V2");
        assert_eq!(label(&gadgets::spectre_v5_ret()), "V5-ret");
        assert_eq!(label(&gadgets::v1_var()), "V1-var");
        assert_eq!(label(&gadgets::v4_var()), "V4-var");
        assert_eq!(label(&gadgets::mds_lfb()), "MDS/LVI");
        assert_eq!(label(&gadgets::mds_sb()), "MDS/LVI");
        assert_eq!(label(&gadgets::lvi_null()), "MDS/LVI");
        assert_eq!(label(&gadgets::speculative_store_eviction()), "spec-store-eviction");
    }

    #[test]
    fn classifier_returns_none_without_a_leak() {
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.add(Reg::Rax, Reg::Rbx);
                b.exit();
            })
            .build();
        assert_eq!(classify_signature(&tc), None);
    }

    #[test]
    fn signature_labels_and_canonical_forms_are_stable() {
        let sig = classify_signature(&gadgets::spectre_v1()).unwrap();
        assert_eq!(sig.source, SourceKind::CondBranch);
        assert_eq!(sig.transmitter, TransmitterKind::Load);
        assert!(sig.through_load);
        assert!(!sig.var_latency);
        assert_eq!(sig.canonical(), "cond-branch->load[dep]");
        assert!(format!("{sig}").contains("V1"));
    }

    #[test]
    fn assist_capability_is_inferred_from_mode() {
        use crate::targets::Target;
        // A plain load chain leaks only when assists are possible.
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.and_imm(Reg::Rbx, 0b111111000000);
                b.load(Reg::Rcx, Reg::R14, Reg::Rbx);
                b.and_imm(Reg::Rcx, 0b111111000000);
                b.load(Reg::Rdx, Reg::R14, Reg::Rcx);
                b.exit();
            })
            .build();
        assert!(!leak_possible(&tc, false));
        assert!(leak_possible(&tc, true));
        assert_eq!(gadget_class(&tc, Some(&Target::target5())), None);
        let sig = gadget_class(&tc, Some(&Target::target7())).expect("assist leak");
        assert_eq!(sig.label(), "MDS/LVI");
    }
}
