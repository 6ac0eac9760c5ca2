//! The JSON backend of the wire descriptions, plus the output-only result
//! documents.
//!
//! Every wire type is described once, in [`crate::wire`]; [`to_json`] and
//! [`from_json`] run those descriptions through this module's JSON encoder
//! and decoder, and [`crate::binfmt`] runs the same descriptions through its
//! binary encoder and decoder.  JSON is the debug and interop form: the
//! client-port wire format, the result payload of the campaign service
//! (`rvz-service`) and the form reports are exported in.
//!
//! Document rules (fixed by the visitor methods, see the table in
//! [`crate::wire`]):
//!
//! * `u64` values (campaign seeds, sandbox addresses, ctrace digests) are
//!   written as [`Json::UInt`] and therefore survive exactly — no `f64`
//!   detour (the same rule the `table3 --json` document follows).
//! * Enumerations are written as their canonical display labels (`"ADD"`,
//!   `"RAX"`, `"CT-SEQ"`, `"V1"`), so documents stay greppable.
//! * Sandbox memory is hex-encoded into one string per input.
//! * Decoding validates shapes and reports a path-qualified error message;
//!   it never panics on malformed documents.

use crate::json::Json;
use crate::wire::{
    decode_with, encode_with, Blank, Int, Key, Slot, Visit, Visitor, Wire, WireEnum,
};
use revizor::fuzzer::{FuzzReport, ViolationReport};
use revizor::orchestrator::{CellReport, MatrixCheckpoint, MatrixReport};
use rvz_model::Contract;
use std::collections::BTreeSet;
use std::convert::Infallible;

pub use crate::wire::DecodeError;

/// Exact `i64` codec: non-negative values ride the exact `UInt` channel;
/// negatives are written as plain JSON numbers while exactly
/// representable (|v| ≤ 9·10¹⁵ — the same bound as [`Json::as_u64`]), so
/// third-party clients read the shape they would write; only larger
/// magnitudes (e.g. `i64::MIN` displacements) fall back to storing the
/// magnitude as `{"neg": …}` to survive without an `f64` detour.  Public
/// because the campaign service's wire format reuses it for signed job
/// priorities.
pub fn i64_to_json(v: i64) -> Json {
    if v >= 0 {
        Json::UInt(v as u64)
    } else if v >= -9_000_000_000_000_000 {
        Json::Num(v as f64)
    } else {
        Json::obj().field("neg", v.unsigned_abs())
    }
}

/// Decode a value written by [`i64_to_json`] — plus the plain negative
/// integer form (`-3`) every standard JSON emitter produces, so
/// third-party clients can write `"priority": -3` directly (accepted up
/// to ±9·10¹⁵, the same exactness bound as [`Json::as_u64`]; larger
/// magnitudes need the `{"neg": …}` form).
///
/// # Errors
/// Returns a message for non-integers and out-of-range magnitudes.
pub fn i64_from_json(v: &Json) -> Result<i64, DecodeError> {
    if let Some(n) = v.as_u64() {
        return i64::try_from(n).map_err(|_| format!("integer {n} overflows i64"));
    }
    if let Json::Num(f) = v {
        if f.fract() == 0.0 && f.abs() <= 9e15 {
            return Ok(*f as i64);
        }
    }
    if let Some(m) = v.get("neg").and_then(Json::as_u64) {
        if m == i64::MIN.unsigned_abs() {
            return Ok(i64::MIN);
        }
        let m = i64::try_from(m).map_err(|_| format!("magnitude {m} overflows i64"))?;
        return Ok(-m);
    }
    Err("expected an integer (or {\"neg\": magnitude})".to_string())
}

// ---------------------------------------------------------------------------
// The JSON backend.

/// Encode any wire type as a JSON object.
pub fn to_json<T: Wire>(x: &T) -> Json {
    let mut out = JsonOut::default();
    encode_with(&mut out, x);
    Json::Obj(out.0)
}

/// Decode a wire type written by [`to_json`].
///
/// # Errors
/// Returns a path-qualified message for any missing or malformed field.
pub fn from_json<T: Wire>(doc: &Json) -> Result<T, DecodeError> {
    decode_with(&mut JsonIn(doc))
}

/// [`to_json`] of a [`ViolationReport`]: the full counterexample (test
/// case, inputs, diverging trace pair), the violated contract, the exact
/// `u64` campaign seed and the detection counters.
pub fn violation_report_to_json(r: &ViolationReport) -> Json {
    to_json(r)
}

/// [`from_json`] of a [`ViolationReport`].
///
/// # Errors
/// See [`from_json`].
pub fn violation_report_from_json(v: &Json) -> Result<ViolationReport, DecodeError> {
    from_json(v)
}

/// [`to_json`] of a [`MatrixCheckpoint`].
pub fn matrix_checkpoint_to_json(cp: &MatrixCheckpoint) -> Json {
    to_json(cp)
}

/// [`from_json`] of a [`MatrixCheckpoint`].
///
/// # Errors
/// See [`from_json`].
pub fn matrix_checkpoint_from_json(v: &Json) -> Result<MatrixCheckpoint, DecodeError> {
    from_json(v)
}

/// The JSON encoder: one object's fields, in visit order.
#[derive(Default)]
struct JsonOut(Vec<(String, Json)>);

impl JsonOut {
    fn put(&mut self, key: Key, value: impl Into<Json>) -> Visit<Self> {
        self.0.push((key.to_string(), value.into()));
        Ok(())
    }

    /// `items` visited as array elements.
    fn elements<'a, T: 'a>(
        items: impl IntoIterator<Item = &'a T>,
        mut elem: impl FnMut(&mut JsonOut, Key, Slot<'_, T>) -> Visit<JsonOut>,
    ) -> Json {
        let mut out = JsonOut::default();
        for item in items {
            let Ok(()) = elem(&mut out, "", Slot::Read(item));
        }
        Json::Arr(out.0.into_iter().map(|(_, v)| v).collect())
    }
}

impl Visitor for JsonOut {
    type Error = Infallible;
    const DECODES: bool = false;
    const KEYED: bool = true;

    fn count<N: Int>(&mut self, key: Key, x: Slot<'_, N>) -> Visit<Self> {
        self.put(key, x.value().to_u64())
    }

    fn word<N: Int>(&mut self, key: Key, x: Slot<'_, N>) -> Visit<Self> {
        self.count(key, x)
    }

    fn flag(&mut self, key: Key, x: Slot<'_, bool>) -> Visit<Self> {
        self.put(key, *x.value())
    }

    fn signed(&mut self, key: Key, x: Slot<'_, i64>) -> Visit<Self> {
        self.put(key, i64_to_json(*x.value()))
    }

    fn text(&mut self, key: Key, x: Slot<'_, String>) -> Visit<Self> {
        self.put(key, x.value().as_str())
    }

    fn blob(&mut self, key: Key, x: Slot<'_, Vec<u8>>) -> Visit<Self> {
        let bytes = x.value();
        // Two lowercase digits per byte from a table, not a `format!` (and
        // its allocation) per byte: violation inputs carry whole sandboxes,
        // so a result document runs this loop for hundreds of KB.
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut hex = String::with_capacity(bytes.len() * 2);
        for byte in bytes {
            hex.push(char::from(DIGITS[usize::from(byte >> 4)]));
            hex.push(char::from(DIGITS[usize::from(byte & 0xf)]));
        }
        self.put(key, hex)
    }

    fn label<E: WireEnum>(&mut self, key: Key, x: Slot<'_, E>) -> Visit<Self> {
        self.put(key, x.value().label().into_owned())
    }

    fn variant(
        &mut self,
        key: Key,
        labels: &'static [&'static str],
        tag: Slot<'_, u8>,
    ) -> Visit<Self> {
        self.put(key, labels[usize::from(*tag.value())])
    }

    fn bitset<E: WireEnum + Ord>(&mut self, key: Key, x: Slot<'_, BTreeSet<E>>) -> Visit<Self> {
        let labels = x.value().iter().map(|e| Json::Str(e.label().into_owned())).collect();
        self.put(key, Json::Arr(labels))
    }

    fn record<T: Wire>(&mut self, key: Key, x: Slot<'_, T>) -> Visit<Self> {
        let mut out = JsonOut::default();
        T::wire(&mut out, x)?;
        self.put(key, Json::Obj(out.0))
    }

    fn option<T: Blank>(
        &mut self,
        key: Key,
        x: Slot<'_, Option<T>>,
        some: impl FnOnce(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        match x.value() {
            None => self.put(key, Json::Null),
            Some(v) => some(self, key, Slot::Read(v)),
        }
    }

    fn list<T: Blank>(
        &mut self,
        key: Key,
        x: Slot<'_, Vec<T>>,
        elem: impl FnMut(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        self.put(key, JsonOut::elements(x.value(), elem))
    }

    fn array<T, const N: usize>(
        &mut self,
        key: Key,
        x: Slot<'_, [T; N]>,
        elem: impl FnMut(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        self.put(key, JsonOut::elements(x.value(), elem))
    }

    fn note(&mut self, key: Key, value: String) {
        self.0.push((key.to_string(), Json::Str(value)));
    }
}

/// The JSON decoder over one object (or, for key `""`, one array element).
struct JsonIn<'a>(&'a Json);

/// How an error names the field at `key`.
fn what(key: Key) -> String {
    if key.is_empty() {
        "element".to_string()
    } else {
        format!("field `{key}`")
    }
}

/// Prefix a nested error with the field it occurred in.
fn in_field<T>(key: &str, r: Result<T, DecodeError>) -> Result<T, DecodeError> {
    if key.is_empty() {
        r
    } else {
        r.map_err(|e| format!("{key}: {e}"))
    }
}

impl<'a> JsonIn<'a> {
    /// The value at `key`; `""` is the element itself.
    fn at(&self, key: Key) -> Result<&'a Json, DecodeError> {
        if key.is_empty() {
            Ok(self.0)
        } else {
            self.0.get(key).ok_or_else(|| format!("missing field `{key}`"))
        }
    }

    fn uint(&self, key: Key) -> Result<u64, DecodeError> {
        self.at(key)?.as_u64().ok_or_else(|| format!("{} is not an integer", what(key)))
    }

    fn str(&self, key: Key) -> Result<&'a str, DecodeError> {
        self.at(key)?.as_str().ok_or_else(|| format!("{} is not a string", what(key)))
    }

    fn items(&self, key: Key) -> Result<&'a [Json], DecodeError> {
        self.at(key)?.as_array().ok_or_else(|| format!("{} is not an array", what(key)))
    }
}

fn enum_from_label<E: WireEnum>(key: Key, s: &str) -> Result<E, DecodeError> {
    E::ALL
        .iter()
        .copied()
        .find(|e| e.label() == s)
        .ok_or_else(|| format!("unknown {} label `{s}`", what(key)))
}

impl Visitor for JsonIn<'_> {
    type Error = DecodeError;
    const DECODES: bool = true;
    const KEYED: bool = true;

    fn count<N: Int>(&mut self, key: Key, x: Slot<'_, N>) -> Visit<Self> {
        let n = self.uint(key)?;
        *x.place() =
            N::from_u64(n).ok_or_else(|| format!("{} value {n} is out of range", what(key)))?;
        Ok(())
    }

    fn word<N: Int>(&mut self, key: Key, x: Slot<'_, N>) -> Visit<Self> {
        self.count(key, x)
    }

    fn flag(&mut self, key: Key, x: Slot<'_, bool>) -> Visit<Self> {
        *x.place() =
            self.at(key)?.as_bool().ok_or_else(|| format!("{} is not a boolean", what(key)))?;
        Ok(())
    }

    fn signed(&mut self, key: Key, x: Slot<'_, i64>) -> Visit<Self> {
        *x.place() = in_field(key, i64_from_json(self.at(key)?))?;
        Ok(())
    }

    fn text(&mut self, key: Key, x: Slot<'_, String>) -> Visit<Self> {
        *x.place() = self.str(key)?.to_string();
        Ok(())
    }

    fn blob(&mut self, key: Key, x: Slot<'_, Vec<u8>>) -> Visit<Self> {
        let hex = self.str(key)?;
        if hex.len() % 2 != 0 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("{} is not an even-length hex string", what(key)));
        }
        *x.place() = hex
            .as_bytes()
            .chunks(2)
            .map(|pair| {
                u8::from_str_radix(std::str::from_utf8(pair).expect("ascii hex"), 16)
                    .expect("validated hex digits")
            })
            .collect();
        Ok(())
    }

    fn label<E: WireEnum>(&mut self, key: Key, x: Slot<'_, E>) -> Visit<Self> {
        *x.place() = enum_from_label(key, self.str(key)?)?;
        Ok(())
    }

    fn variant(
        &mut self,
        key: Key,
        labels: &'static [&'static str],
        tag: Slot<'_, u8>,
    ) -> Visit<Self> {
        let s = self.str(key)?;
        let i = labels
            .iter()
            .position(|l| *l == s)
            .ok_or_else(|| format!("unknown {} label `{s}`", what(key)))?;
        *tag.place() = i as u8;
        Ok(())
    }

    fn bitset<E: WireEnum + Ord>(&mut self, key: Key, x: Slot<'_, BTreeSet<E>>) -> Visit<Self> {
        let set = x.place();
        set.clear();
        for item in self.items(key)? {
            let s = item.as_str().ok_or_else(|| format!("{} holds a non-string", what(key)))?;
            set.insert(enum_from_label(key, s)?);
        }
        Ok(())
    }

    fn record<T: Wire>(&mut self, key: Key, x: Slot<'_, T>) -> Visit<Self> {
        in_field(key, T::wire(&mut JsonIn(self.at(key)?), x))
    }

    fn option<T: Blank>(
        &mut self,
        key: Key,
        x: Slot<'_, Option<T>>,
        some: impl FnOnce(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        let present = if key.is_empty() { Some(self.0) } else { self.0.get(key) };
        let place = x.place();
        match present {
            None | Some(Json::Null) => {
                *place = None;
                Ok(())
            }
            Some(_) => some(self, key, Slot::Fill(place.insert(T::blank()))),
        }
    }

    fn list<T: Blank>(
        &mut self,
        key: Key,
        x: Slot<'_, Vec<T>>,
        mut elem: impl FnMut(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        let items = self.items(key)?;
        let list = x.place();
        list.clear();
        list.reserve(items.len());
        for (i, item) in items.iter().enumerate() {
            let mut value = T::blank();
            elem(&mut JsonIn(item), "", Slot::Fill(&mut value))
                .map_err(|e| format!("{key}[{i}]: {e}"))?;
            list.push(value);
        }
        Ok(())
    }

    fn array<T, const N: usize>(
        &mut self,
        key: Key,
        x: Slot<'_, [T; N]>,
        mut elem: impl FnMut(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        let items = self.items(key)?;
        if items.len() != N {
            return Err(format!("{} must hold {N} elements, found {}", what(key), items.len()));
        }
        for (i, (slot, item)) in x.place().iter_mut().zip(items).enumerate() {
            elem(&mut JsonIn(item), "", Slot::Fill(slot)).map_err(|e| format!("{key}[{i}]: {e}"))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Contract names and output-only documents.

/// Resolve a canonical contract name (`"CT-SEQ"`, `"ARCH-SEQ"`,
/// `"CT-COND-NOSPECSTORE"`, ...) to the contract with default parameters —
/// the ergonomic form job submissions use.
pub fn contract_from_name(name: &str) -> Option<Contract> {
    [
        Contract::ct_seq(),
        Contract::ct_bpas(),
        Contract::ct_cond(),
        Contract::ct_cond_bpas(),
        Contract::mem_seq(),
        Contract::mem_cond(),
        Contract::arch_seq(),
        Contract::ct_cond_no_spec_store(),
    ]
    .into_iter()
    .find(|c| c.name() == name)
}

/// Encode a [`FuzzReport`] (output only).  The duration is stored in
/// exact nanoseconds; `mean_effectiveness` is written with Rust's
/// shortest-representation float formatting.
pub fn fuzz_report_to_json(r: &FuzzReport) -> Json {
    Json::obj()
        .field("violation", r.violation.as_ref().map(to_json))
        .field("test_cases", r.test_cases)
        .field("generated", r.generated)
        .field("statically_filtered", r.statically_filtered)
        .field("total_inputs", r.total_inputs)
        .field("rounds", r.rounds)
        .field("escalations", r.escalations)
        .field("duration_ns", r.duration.to_u64())
        .field("mean_effectiveness", r.mean_effectiveness)
        .field("coverage", to_json(&r.coverage))
}

/// A decoded checkpoint-transfer frame (see
/// [`crate::binfmt::checkpoint_transfer_to_binary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointTransfer {
    /// The job the checkpoint belongs to.
    pub job: String,
    /// The sender's [`MatrixCheckpoint::digest`], computed **before**
    /// encoding.  Compare against `checkpoint.digest()` after decoding: a
    /// mismatch means the codec dropped or distorted state in transit.
    pub digest: u64,
    /// The transferred snapshot (its `wave` field is the replication
    /// cursor: a job's transfers must arrive strictly increasing).
    pub checkpoint: MatrixCheckpoint,
}

impl CheckpointTransfer {
    /// Does the sender's digest match the decoded checkpoint?
    pub fn validates(&self) -> bool {
        self.digest == self.checkpoint.digest()
    }
}

/// The **deterministic** part of a matrix result: one object per cell with
/// the verdict, counters, exact unit seed and the full violation report —
/// and no wall-clock fields.  Two runs of the same matrix seed render this
/// byte-identically, which is the campaign service's result contract (kill
/// + resume included); timing lives separately in [`matrix_timing_json`].
pub fn matrix_cells_json(report: &MatrixReport) -> Json {
    Json::Arr(report.cells.iter().map(cell_report_to_json).collect())
}

fn cell_report_to_json(cell: &CellReport) -> Json {
    Json::obj()
        .field("target", cell.target.id)
        .field("contract", cell.contract.name())
        .field("found", cell.found())
        .field("vulnerability", cell.vulnerability().map(|v| v.to_string()))
        .field("gadget_class", cell.violation.as_ref().and_then(|v| v.gadget.map(|g| g.label())))
        .field("test_cases", cell.test_cases)
        .field("statically_filtered", cell.filtered)
        .field("total_inputs", cell.total_inputs)
        .field("effectiveness", to_json(&cell.effectiveness))
        .field("violation", cell.violation.as_ref().map(to_json))
}

/// The wall-clock side channel of a matrix result: total duration plus the
/// per-cell attributed detection times, in milliseconds.  Nondeterministic
/// by nature, hence kept out of [`matrix_cells_json`].
pub fn matrix_timing_json(report: &MatrixReport) -> Json {
    Json::obj()
        .field("duration_ms", report.duration.as_secs_f64() * 1000.0)
        .field(
            "cells_ms",
            report
                .cells
                .iter()
                .map(|c| c.detection_time.as_secs_f64() * 1000.0)
                .collect::<Vec<_>>(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use revizor::orchestrator::CampaignMatrix;
    use revizor::targets::Target;
    use revizor::{FuzzerConfig, Revizor};
    use rvz_executor::ExecutorConfig;
    use rvz_isa::builder::TestCaseBuilder;
    use rvz_isa::{AluOp, Input, Instr, MemOperand, Operand, TestCase, Width};

    /// A campaign report with a real V1 violation (Target 5 × CT-SEQ).
    fn v1_report() -> ViolationReport {
        let report = CampaignMatrix::new(7)
            .with_budget(60)
            .add_cell(Target::target5(), Contract::ct_seq())
            .run();
        report.cells[0].violation.clone().expect("V1 found within 60 test cases")
    }

    #[test]
    fn violation_report_round_trips_on_a_real_v1_violation() {
        let report = v1_report();
        let doc = violation_report_to_json(&report);
        // Through the writer and parser: the decoded report is identical,
        // including the exact u64 seed and every input byte.
        let parsed = parse(&doc.render()).unwrap();
        let decoded = violation_report_from_json(&parsed).unwrap();
        assert_eq!(decoded, report);
        // The pretty and ASCII renderings carry the same document.
        assert_eq!(parse(&doc.render_pretty()).unwrap(), doc);
        assert_eq!(parse(&doc.render_ascii()).unwrap(), doc);
    }

    #[test]
    fn violation_report_replays_after_the_round_trip() {
        // The decoded counterexample is not just structurally equal — it
        // still reproduces the violation through the public API.
        let report = v1_report();
        let doc = violation_report_to_json(&report).render();
        let decoded = violation_report_from_json(&parse(&doc).unwrap()).unwrap();

        let target = Target::target5();
        let config = FuzzerConfig::for_target(&target, decoded.contract.clone())
            .with_executor(ExecutorConfig::fast(target.mode).with_repetitions(2));
        let mut fuzzer = Revizor::new(target.cpu(), config).with_target(target.clone());
        let outcome = fuzzer.test_with_inputs(&decoded.test_case, &decoded.inputs).unwrap();
        let confirmed = outcome.confirmed_violation.expect("violation must replay");
        assert_eq!(
            (confirmed.input_a, confirmed.input_b),
            (report.violation.input_a, report.violation.input_b)
        );
    }

    #[test]
    fn handwritten_gadget_with_every_terminator_round_trips() {
        // Gadgets exercise Call/Ret/IndirectJmp, which generated code does
        // not; round-trip them explicitly.
        for tc in [
            revizor::gadgets::spectre_v1(),
            revizor::gadgets::spectre_v4(),
            revizor::gadgets::mds_lfb(),
        ] {
            let doc = to_json(&tc).render();
            let decoded: TestCase = from_json(&parse(&doc).unwrap()).unwrap();
            assert_eq!(decoded, tc);
        }
    }

    #[test]
    fn exotic_operands_round_trip() {
        use rvz_isa::Reg;
        let tc = TestCaseBuilder::new()
            .block("entry", |b| {
                b.push(Instr::Alu {
                    op: AluOp::Sbb,
                    dest: Operand::Mem(
                        MemOperand::full(Reg::R14, Reg::Rax, 8, -4096),
                        Width::Word,
                    ),
                    src: Operand::Imm(i64::MIN),
                    lock: true,
                });
                b.push(Instr::Lea { dest: Reg::Rcx, addr: MemOperand::base_disp(Reg::R14, -1) });
                b.exit();
            })
            .build();
        let doc = to_json(&tc).render();
        assert_eq!(from_json::<TestCase>(&parse(&doc).unwrap()).unwrap(), tc);
    }

    #[test]
    fn contract_codec_covers_every_clause_combination() {
        for c in [
            Contract::ct_seq(),
            Contract::ct_bpas(),
            Contract::ct_cond(),
            Contract::ct_cond_bpas(),
            Contract::mem_seq(),
            Contract::mem_cond(),
            Contract::arch_seq(),
            Contract::ct_cond_no_spec_store(),
            Contract::ct_cond().with_speculation_window(17).with_nesting(true),
        ] {
            let doc = to_json(&c).render();
            assert_eq!(from_json::<Contract>(&parse(&doc).unwrap()).unwrap(), c);
        }
    }

    #[test]
    fn contract_names_resolve() {
        assert_eq!(contract_from_name("CT-SEQ"), Some(Contract::ct_seq()));
        assert_eq!(contract_from_name("CT-COND-BPAS"), Some(Contract::ct_cond_bpas()));
        assert_eq!(contract_from_name("ARCH-SEQ"), Some(Contract::arch_seq()));
        assert_eq!(contract_from_name("bogus"), None);
    }

    #[test]
    fn matrix_checkpoint_round_trips_mid_run() {
        use revizor::campaign::NoopObserver;
        let matrix = CampaignMatrix::new(7)
            .with_budget(40)
            .with_escalation(true)
            .add_cells(Target::target5(), Contract::table3_contracts());
        let mut run = matrix.start();
        run.step(&mut NoopObserver);
        run.step(&mut NoopObserver);
        let snapshot = run.checkpoint();
        let doc = matrix_checkpoint_to_json(&snapshot).render();
        let decoded = matrix_checkpoint_from_json(&parse(&doc).unwrap()).unwrap();
        assert_eq!(decoded, snapshot);
        // The decoded checkpoint is accepted by resume and completes to the
        // same verdicts as the uninterrupted run.
        let baseline = matrix.run();
        let mut resumed = matrix.resume(&decoded).expect("decoded checkpoint resumes");
        while resumed.step(&mut NoopObserver) {}
        let report = resumed.finish(&mut NoopObserver);
        assert_eq!(
            matrix_cells_json(&baseline).render(),
            matrix_cells_json(&report).render(),
            "deterministic payloads must be byte-identical"
        );
    }

    #[test]
    fn i64_codec_round_trips_priorities() {
        for v in [
            0i64,
            1,
            -1,
            42,
            -42,
            -9_000_000_000_000_000,
            -9_000_000_000_000_001,
            i64::MAX,
            i64::MIN,
        ] {
            let doc = i64_to_json(v).render();
            assert_eq!(i64_from_json(&parse(&doc).unwrap()).unwrap(), v, "{v}");
        }
        // Small negatives are written as the plain number standard
        // consumers expect — not the {"neg": …} escape hatch.
        assert_eq!(i64_to_json(-3).render(), "-3");
        // The plain negative form standard emitters produce (serde_json,
        // python json) decodes too — the documented "any signed integer".
        assert_eq!(i64_from_json(&parse("-3").unwrap()).unwrap(), -3);
        assert_eq!(
            i64_from_json(&parse("-9000000000000000").unwrap()).unwrap(),
            -9_000_000_000_000_000
        );
        assert!(i64_from_json(&parse("-3.5").unwrap()).is_err());
        assert!(i64_from_json(&Json::Str("high".into())).is_err());
    }

    #[test]
    fn malformed_documents_error_instead_of_panicking() {
        let cases = [
            "{}",
            r#"{"test_case": 3}"#,
            r#"{"regs": [1,2], "flags": 0, "mem": "zz", "seed_id": 0}"#,
        ];
        for text in cases {
            let doc = parse(text).unwrap();
            assert!(violation_report_from_json(&doc).is_err());
        }
        assert!(from_json::<Input>(&parse(r#"{"regs":[],"flags":0,"mem":"","seed_id":0}"#).unwrap())
            .is_err());
        assert!(from_json::<Input>(
            &parse(r#"{"regs":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"flags":0,"mem":"0g","seed_id":0}"#)
                .unwrap()
        )
        .is_err());
    }
}
