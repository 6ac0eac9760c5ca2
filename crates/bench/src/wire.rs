//! One wire description per type.
//!
//! Every value the campaign service checkpoints, spools, ships or stores —
//! from one instruction up to a whole [`MatrixCheckpoint`] — is described
//! exactly once here, as a [`Wire`] impl that walks its fields through a
//! [`Visitor`].  Four visitors run the same descriptions: the JSON encoder
//! and decoder in [`crate::report`] and the binary encoder and decoder in
//! [`crate::binfmt`].  The visitor method a description calls for a field
//! fixes its form in both formats:
//!
//! | Method | Value | JSON | Binary |
//! |---|---|---|---|
//! | [`label`](Visitor::label) | enum | display label | index into the type's `ALL` |
//! | [`word`](Visitor::word) | entropy word, byte | `UInt` | raw LE `u64` / `u32` / `u8` |
//! | [`count`](Visitor::count) | counter | `UInt` | varint |
//! | [`signed`](Visitor::signed) | `i64` | integer, `{"neg": m}` past ±9·10¹⁵ | zigzag varint |
//! | [`blob`](Visitor::blob) | sandbox memory | hex string | length + raw bytes |
//! | [`option`](Visitor::option) | `Option` | `null` | 0/1 byte |
//! | [`variant`](Visitor::variant) | tagged sum | `"op"`/`"kind"` label | tag byte |
//! | [`bitset`](Visitor::bitset) | coverage | label array | bitmask byte |
//!
//! A description sees its value through a [`Slot`]: encoders read it,
//! decoders fill in a [`Blank`] value field by field.  The `record!` and
//! `variants!` macros destructure a value once for both modes; their
//! patterns name every field, so a field added to a wire type does not
//! compile until it is described.  JSON objects keep the visit order, which
//! is also the binary order — except for [`TestCase`], whose JSON lists the
//! origin note first (see [`Visitor::KEYED`]).
//!
//! Decoding is total: malformed input yields a [`DecodeError`], never a
//! panic.  In JSON, an `Option` field that is absent reads as `None`.

use revizor::diversity::{Pattern, PatternCoverage};
use revizor::fuzzer::ViolationReport;
use revizor::orchestrator::{CellProgress, GroupProgress, MatrixCheckpoint};
use revizor::staticanalysis::{GadgetSignature, SourceKind, TransmitterKind};
use revizor::VulnClass;
use rvz_analyzer::{EffectivenessStats, Violation};
use rvz_cache::SetVector;
use rvz_executor::HTrace;
use rvz_isa::{
    AluOp, BasicBlock, BlockId, Cond, FlagSet, Input, Instr, MemOperand, Operand, Reg,
    SandboxLayout, ShiftOp, Terminator, TestCase, UnaryOp, Width,
};
use rvz_model::{Contract, ExecutionClause, ObservationClause};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::time::Duration;

/// Decoding errors are human-readable path + message strings.
pub type DecodeError = String;

/// What a visit returns: decoders report malformed input; encoders use
/// [`Infallible`], so their error checks compile away.
pub type Visit<V> = Result<(), <V as Visitor>::Error>;

/// A field name.  JSON objects key fields by it; array elements and the
/// binary format ignore it (elements are visited with `""`).
pub type Key = &'static str;

/// The value a description visits: encoders read it, decoders fill it in.
pub enum Slot<'a, T> {
    /// Encoding: the value to write.
    Read(&'a T),
    /// Decoding: the place to fill (it starts out [`Blank`]).
    Fill(&'a mut T),
}

impl<'a, T> Slot<'a, T> {
    /// The value, when encoding.
    #[inline]
    pub fn get(&self) -> Option<&T> {
        match self {
            Slot::Read(x) => Some(x),
            Slot::Fill(_) => None,
        }
    }

    /// A slot over `local` in the same mode: types with private fields
    /// visit local copies, then [`Slot::set`] the decoded value.
    #[inline]
    pub fn like<'b, U>(&self, local: &'b mut U) -> Slot<'b, U> {
        match self {
            Slot::Read(_) => Slot::Read(local),
            Slot::Fill(_) => Slot::Fill(local),
        }
    }

    /// When decoding, store `make()`.
    #[inline]
    pub fn set(self, make: impl FnOnce() -> T) {
        if let Slot::Fill(x) = self {
            *x = make();
        }
    }

    /// The value to write (encoders).
    #[inline]
    pub fn value(self) -> &'a T {
        match self {
            Slot::Read(x) => x,
            Slot::Fill(x) => x,
        }
    }

    /// The place to fill (decoders).
    ///
    /// # Panics
    /// When handed a value to read: only encoders are given those.
    #[inline]
    pub fn place(self) -> &'a mut T {
        match self {
            Slot::Fill(x) => x,
            Slot::Read(_) => panic!("a decoder was handed a value to read"),
        }
    }
}

/// A wire type: one description both formats encode and decode through.
pub trait Wire: Blank + Sized {
    /// Visit every field of the value in `x`.
    fn wire<V: Visitor>(v: &mut V, x: Slot<'_, Self>) -> Visit<V>;
}

/// The value a decoder starts from before filling in the fields.
pub trait Blank: Sized {
    /// A placeholder; every field is overwritten by a successful decode.
    fn blank() -> Self;
}

/// A field-less enum on the wire: its label in JSON, its position in `ALL`
/// in binary.
pub trait WireEnum: Copy + 'static {
    /// Every variant, in wire order.
    const ALL: &'static [Self];
    /// The JSON label.
    fn label(self) -> Cow<'static, str>;
    /// The position in [`WireEnum::ALL`].
    fn index(self) -> usize;
}

/// An unsigned integer on the wire: a varint ([`Visitor::count`]) or
/// `BYTES` raw little-endian bytes ([`Visitor::word`]); `UInt` in JSON.
pub trait Int: Copy {
    /// Width when written raw.
    const BYTES: usize;
    /// The integer on the wire.
    fn to_u64(self) -> u64;
    /// Back from the wire; `None` when `v` does not fit.
    fn from_u64(v: u64) -> Option<Self>;
}

/// One backend: how each kind of field is written or read.
pub trait Visitor: Sized {
    /// Why a decode fails ([`Infallible`] for encoders).
    type Error;

    /// Is this a decoder (handed [`Slot::Fill`])?  Encoders are handed
    /// [`Slot::Read`]; descriptions branch on this constant, so each
    /// backend compiles only its own half.
    const DECODES: bool;

    /// Does the format key fields by name?  Only then may a description
    /// order a document's fields differently from the binary layout.
    const KEYED: bool;

    /// A counter or length (a varint in binary).
    fn count<N: Int>(&mut self, key: Key, x: Slot<'_, N>) -> Visit<Self>;
    /// An entropy-bearing word — seed, digest, address, register value —
    /// or a one-byte field (raw little-endian in binary).
    fn word<N: Int>(&mut self, key: Key, x: Slot<'_, N>) -> Visit<Self>;
    /// A boolean.
    fn flag(&mut self, key: Key, x: Slot<'_, bool>) -> Visit<Self>;
    /// A signed integer.
    fn signed(&mut self, key: Key, x: Slot<'_, i64>) -> Visit<Self>;
    /// A UTF-8 string.
    fn text(&mut self, key: Key, x: Slot<'_, String>) -> Visit<Self>;
    /// Raw bytes (sandbox memory).
    fn blob(&mut self, key: Key, x: Slot<'_, Vec<u8>>) -> Visit<Self>;
    /// A field-less enum.
    fn label<E: WireEnum>(&mut self, key: Key, x: Slot<'_, E>) -> Visit<Self>;
    /// The tag of a tagged sum: `labels[tag]` names the variant.
    fn variant(
        &mut self,
        key: Key,
        labels: &'static [&'static str],
        tag: Slot<'_, u8>,
    ) -> Visit<Self>;
    /// A set of at most eight enum values.
    fn bitset<E: WireEnum + Ord>(&mut self, key: Key, x: Slot<'_, BTreeSet<E>>) -> Visit<Self>;
    /// A nested wire type.
    fn record<T: Wire>(&mut self, key: Key, x: Slot<'_, T>) -> Visit<Self>;
    /// An optional value, visited by `some` when present.
    fn option<T: Blank>(
        &mut self,
        key: Key,
        x: Slot<'_, Option<T>>,
        some: impl FnOnce(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self>;
    /// A variable-length list, each element visited by `elem`.
    fn list<T: Blank>(
        &mut self,
        key: Key,
        x: Slot<'_, Vec<T>>,
        elem: impl FnMut(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self>;
    /// A fixed-length array (no length prefix in binary).
    fn array<T, const N: usize>(
        &mut self,
        key: Key,
        x: Slot<'_, [T; N]>,
        elem: impl FnMut(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self>;
    /// A derived, write-only JSON annotation; other backends skip it.
    fn note(&mut self, _key: Key, _value: String) {}
}

/// Encode `x` with an encoder.
pub(crate) fn encode_with<V: Visitor<Error = Infallible>, T: Wire>(v: &mut V, x: &T) {
    let Ok(()) = T::wire(v, Slot::Read(x));
}

/// Decode a `T` with `v`, starting from a blank value.
pub(crate) fn decode_with<V: Visitor, T: Wire>(v: &mut V) -> Result<T, V::Error> {
    let mut value = T::blank();
    T::wire(v, Slot::Fill(&mut value))?;
    Ok(value)
}

/// Describe a struct with public fields:
/// `record!(T { a, b } => |v| { v.count("a", a)?; v.word("b", b) })`.
/// Inside the body each field name is that field's [`Slot`].  An optional
/// `note "key" = |value| …` adds a derived, write-only JSON field after the
/// described ones.
macro_rules! record {
    ($T:ident { $($f:ident),* $(,)? } $(note $nk:literal = $nf:expr,)? => |$v:ident| $body:block) => {
        impl Blank for $T {
            fn blank() -> Self {
                $T { $($f: Blank::blank()),* }
            }
        }

        impl Wire for $T {
            fn wire<V: Visitor>($v: &mut V, x: Slot<'_, Self>) -> Visit<V> {
                $(let note = x.get().map($nf);)?
                match (V::DECODES, x) {
                    (false, Slot::Read($T { $($f),* })) => {
                        $(let $f = Slot::Read($f);)*
                        $body
                    }
                    (true, Slot::Fill($T { $($f),* })) => {
                        $(let $f = Slot::Fill($f);)*
                        $body
                    }
                    _ => unreachable!("encoders read, decoders fill"),
                }?;
                $(if let Some(value) = note {
                    $v.note($nk, value);
                })?
                Ok(())
            }
        }
    };
}

/// Describe an enum as a tagged sum under `key`: one arm per variant,
/// `tag "label" Path { fields } => body` (tuple variants use `( … )`, unit
/// variants `{}`).  Tags are the arms' positions; binary frames write the
/// tag byte, JSON the label.
macro_rules! variants {
    ($T:ident as $key:literal, |$v:ident| {
        $($tag:literal $label:literal $E:ident::$P:ident $fields:tt => $body:expr),+ $(,)?
    }) => {
        impl Blank for $T {
            fn blank() -> Self {
                variants!(@blank_of 0u8, $($tag $E::$P $fields),+)
            }
        }

        impl Wire for $T {
            fn wire<V: Visitor>($v: &mut V, mut x: Slot<'_, Self>) -> Visit<V> {
                const LABELS: &[&str] = &[$($label),+];
                const _: () = {
                    let mut i = 0;
                    $(assert!($tag == i, "variant tags must be the arm positions");
                    i += 1;)+
                    let _ = i;
                };
                let mut tag: u8 = match &x {
                    Slot::Read(value) if !V::DECODES => match value {
                        $(variants!(@any $E::$P $fields) => $tag,)+
                    },
                    _ => 0,
                };
                $v.variant($key, LABELS, x.like(&mut tag))?;
                if V::DECODES {
                    if let Slot::Fill(value) = &mut x {
                        **value = variants!(@blank_of tag, $($tag $E::$P $fields),+);
                    }
                }
                match (V::DECODES, x) {
                    $((false, Slot::Read(variants!(@pat $E::$P $fields))) => {
                        variants!(@bind Slot::Read, $fields);
                        $body
                    })+
                    $((true, Slot::Fill(variants!(@pat $E::$P $fields))) => {
                        variants!(@bind Slot::Fill, $fields);
                        $body
                    })+
                    _ => unreachable!("encoders read, decoders fill"),
                }
            }
        }
    };
    (@any $E:ident::$P:ident $fields:tt) => { $E::$P { .. } };
    (@pat $E:ident::$P:ident { $($f:ident),* }) => { $E::$P { $($f),* } };
    (@pat $E:ident::$P:ident ( $($f:ident),* )) => { $E::$P ( $($f),* ) };
    (@bind $S:path, { $($f:ident),* }) => { $(let $f = $S($f);)* };
    (@bind $S:path, ( $($f:ident),* )) => { $(let $f = $S($f);)* };
    (@blank $E:ident::$P:ident { $($f:ident),* }) => { $E::$P { $($f: Blank::blank()),* } };
    (@blank $E:ident::$P:ident ( $($f:ident),* )) => { $E::$P ( $(variants!(@blank_field $f)),* ) };
    (@blank_field $f:ident) => { Blank::blank() };
    (@blank_of $t:expr, $($tag:literal $E:ident::$P:ident $fields:tt),+) => {
        match $t {
            $($tag => variants!(@blank $E::$P $fields),)+
            // `variant` rejects tags past the last arm.
            _ => unreachable!("variant tag out of range"),
        }
    };
}

// ---------------------------------------------------------------------------
// Leaf values.

macro_rules! blank_default {
    ($($T:ty),*) => {$(
        impl Blank for $T {
            fn blank() -> Self {
                Default::default()
            }
        }
    )*};
}

blank_default!(usize, u64, u32, u8, i64, bool, String, Duration, FlagSet, HTrace, PatternCoverage);

impl<T> Blank for Vec<T> {
    fn blank() -> Self {
        Vec::new()
    }
}

impl<T> Blank for Option<T> {
    fn blank() -> Self {
        None
    }
}

impl<T: Blank, const N: usize> Blank for [T; N] {
    fn blank() -> Self {
        std::array::from_fn(|_| T::blank())
    }
}

impl Blank for BlockId {
    fn blank() -> Self {
        BlockId(0)
    }
}

macro_rules! int_primitive {
    ($($T:ty),*) => {$(
        impl Int for $T {
            const BYTES: usize = std::mem::size_of::<$T>();
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Option<Self> {
                <$T>::try_from(v).ok()
            }
        }
    )*};
}

int_primitive!(u8, u32, u64, usize);

impl Int for BlockId {
    const BYTES: usize = 8;
    fn to_u64(self) -> u64 {
        self.0 as u64
    }
    fn from_u64(v: u64) -> Option<Self> {
        usize::from_u64(v).map(BlockId)
    }
}

/// Durations travel as whole nanoseconds.
impl Int for Duration {
    const BYTES: usize = 8;
    fn to_u64(self) -> u64 {
        self.as_nanos().min(u128::from(u64::MAX)) as u64
    }
    fn from_u64(v: u64) -> Option<Self> {
        Some(Duration::from_nanos(v))
    }
}

impl Int for FlagSet {
    const BYTES: usize = 1;
    fn to_u64(self) -> u64 {
        u64::from(self.bits())
    }
    fn from_u64(v: u64) -> Option<Self> {
        u8::try_from(v).ok().map(FlagSet::from_bits)
    }
}

/// `wire_enums!(T => |x| label, …)`: each type's `ALL` table is its wire
/// order; the index is the declaration position, which
/// `every_wire_enum_table_is_in_declaration_order` checks against `ALL`.
macro_rules! wire_enums {
    ($($T:ident => |$x:ident| $label:expr),* $(,)?) => {$(
        impl WireEnum for $T {
            const ALL: &'static [Self] = &$T::ALL;
            fn label(self) -> Cow<'static, str> {
                let $x = self;
                $label
            }
            fn index(self) -> usize {
                self as usize
            }
        }

        impl Blank for $T {
            fn blank() -> Self {
                $T::ALL[0]
            }
        }
    )*};
}

wire_enums! {
    Reg => |r| Cow::Owned(r.name(Width::Qword)),
    Width => |w| Cow::Borrowed(match w {
        Width::Byte => "byte",
        Width::Word => "word",
        Width::Dword => "dword",
        Width::Qword => "qword",
    }),
    Cond => |c| Cow::Borrowed(c.suffix()),
    AluOp => |op| Cow::Borrowed(op.mnemonic()),
    ShiftOp => |op| Cow::Borrowed(op.mnemonic()),
    UnaryOp => |op| Cow::Borrowed(op.mnemonic()),
    ObservationClause => |o| Cow::Borrowed(o.name()),
    ExecutionClause => |e| Cow::Borrowed(e.name()),
    VulnClass => |c| Cow::Owned(c.to_string()),
    SourceKind => |k| Cow::Owned(k.to_string()),
    TransmitterKind => |k| Cow::Owned(k.to_string()),
    Pattern => |p| Cow::Owned(p.to_string()),
}

// ---------------------------------------------------------------------------
// The ISA: instructions, blocks, test cases, inputs.

record!(MemOperand { base, index, scale, disp } => |v| {
    v.label("base", base)?;
    v.option("index", index, V::label)?;
    v.word("scale", scale)?;
    v.signed("disp", disp)
});

variants!(Operand as "kind", |v| {
    0 "reg" Operand::Reg(reg, width) => {
        v.label("reg", reg)?;
        v.label("width", width)
    },
    1 "imm" Operand::Imm(value) => v.signed("value", value),
    2 "mem" Operand::Mem(mem, width) => {
        v.record("mem", mem)?;
        v.label("width", width)
    },
});

variants!(Instr as "op", |v| {
    0 "alu" Instr::Alu { op, dest, src, lock } => {
        v.label("alu", op)?;
        v.record("dest", dest)?;
        v.record("src", src)?;
        v.flag("lock", lock)
    },
    1 "mov" Instr::Mov { dest, src } => {
        v.record("dest", dest)?;
        v.record("src", src)
    },
    2 "cmov" Instr::Cmov { cond, dest, src, width } => {
        v.label("cond", cond)?;
        v.label("dest", dest)?;
        v.record("src", src)?;
        v.label("width", width)
    },
    3 "setcc" Instr::Setcc { cond, dest } => {
        v.label("cond", cond)?;
        v.label("dest", dest)
    },
    4 "cmp" Instr::Cmp { a, b } => {
        v.record("a", a)?;
        v.record("b", b)
    },
    5 "test" Instr::Test { a, b } => {
        v.record("a", a)?;
        v.record("b", b)
    },
    6 "shift" Instr::Shift { op, dest, amount } => {
        v.label("shift", op)?;
        v.record("dest", dest)?;
        v.record("amount", amount)
    },
    7 "unary" Instr::Unary { op, dest } => {
        v.label("unary", op)?;
        v.record("dest", dest)
    },
    8 "div" Instr::Div { src } => v.record("src", src),
    9 "imul" Instr::Imul { dest, src } => {
        v.label("dest", dest)?;
        v.record("src", src)
    },
    10 "lea" Instr::Lea { dest, addr } => {
        v.label("dest", dest)?;
        v.record("addr", addr)
    },
    11 "bswap" Instr::Bswap { dest } => v.label("dest", dest),
    12 "xchg" Instr::Xchg { dest, src } => {
        v.label("dest", dest)?;
        v.record("src", src)
    },
    13 "lfence" Instr::Lfence {} => Ok(()),
    14 "mfence" Instr::Mfence {} => Ok(()),
    15 "nop" Instr::Nop {} => Ok(()),
});

variants!(Terminator as "kind", |v| {
    0 "exit" Terminator::Exit {} => Ok(()),
    1 "jmp" Terminator::Jmp { target } => v.count("target", target),
    2 "condjmp" Terminator::CondJmp { cond, taken, not_taken } => {
        v.label("cond", cond)?;
        v.count("taken", taken)?;
        v.count("not_taken", not_taken)
    },
    3 "indirectjmp" Terminator::IndirectJmp { src, table } => {
        v.label("src", src)?;
        v.list("table", table, V::count)
    },
    4 "call" Terminator::Call { target, return_to } => {
        v.count("target", target)?;
        v.count("return_to", return_to)
    },
    5 "ret" Terminator::Ret {} => Ok(()),
});

record!(SandboxLayout { base, data_pages, assist_page, line_offset } => |v| {
    v.word("base", base)?;
    v.count("data_pages", data_pages)?;
    v.option("assist_page", assist_page, V::word)?;
    v.count("line_offset", line_offset)
});

record!(BasicBlock { id, label, instrs, terminator } => |v| {
    v.count("id", id)?;
    v.option("label", label, V::text)?;
    v.list("instrs", instrs, V::record)?;
    v.record("terminator", terminator)
});

impl Blank for TestCase {
    fn blank() -> Self {
        TestCase::new(Vec::new(), SandboxLayout::blank())
    }
}

impl Wire for TestCase {
    fn wire<V: Visitor>(v: &mut V, x: Slot<'_, Self>) -> Visit<V> {
        let (sandbox, origin, blocks) = match x {
            Slot::Read(tc) => {
                let (s, o, b) = tc.fields();
                (Slot::Read(s), Slot::Read(o), Slot::Read(b))
            }
            Slot::Fill(tc) => {
                let (s, o, b) = tc.fields_mut();
                (Slot::Fill(s), Slot::Fill(o), Slot::Fill(b))
            }
        };
        // Documents lead with the origin note, binary frames with the
        // fixed-size sandbox.
        if V::KEYED {
            v.text("origin", origin)?;
            v.record("sandbox", sandbox)?;
        } else {
            v.record("sandbox", sandbox)?;
            v.text("origin", origin)?;
        }
        v.list("blocks", blocks, V::record)
    }
}

record!(Input { regs, flags, mem, seed_id } => |v| {
    v.array("regs", regs, V::word)?;
    v.word("flags", flags)?;
    v.blob("mem", mem)?;
    v.word("seed_id", seed_id)
});

// ---------------------------------------------------------------------------
// Traces, violations and reports.

impl Wire for HTrace {
    fn wire<V: Visitor>(v: &mut V, x: Slot<'_, Self>) -> Visit<V> {
        let (mut sets, mut samples) = x.get().map_or((0, 0), |t| (t.sets().bits(), t.samples()));
        v.word("sets", x.like(&mut sets))?;
        v.word("samples", x.like(&mut samples))?;
        x.set(|| HTrace::from_parts(SetVector::from_bits(sets), samples));
        Ok(())
    }
}

record!(Violation { input_a, input_b, htrace_a, htrace_b, ctrace_digest } => |v| {
    v.count("input_a", input_a)?;
    v.count("input_b", input_b)?;
    v.record("htrace_a", htrace_a)?;
    v.record("htrace_b", htrace_b)?;
    v.word("ctrace_digest", ctrace_digest)
});

// Structural, not by name: the name alone would lose the window and
// nesting parameters.
record!(Contract {
    observation,
    execution,
    speculation_window,
    nested_speculation,
    expose_speculative_stores,
} => |v| {
    v.label("observation", observation)?;
    v.label("execution", execution)?;
    v.count("speculation_window", speculation_window)?;
    v.flag("nested_speculation", nested_speculation)?;
    v.flag("expose_speculative_stores", expose_speculative_stores)
});

// The derived leak-class label rides along in JSON for readers that only
// want the class string; decoding ignores it.
record!(GadgetSignature { source, transmitter, through_load, var_latency }
    note "class" = |g: &GadgetSignature| g.label().to_string(),
    => |v| {
    v.label("source", source)?;
    v.label("transmitter", transmitter)?;
    v.flag("through_load", through_load)?;
    v.flag("var_latency", var_latency)
});

record!(EffectivenessStats { total_inputs, effective_inputs, classes, singleton_classes } => |v| {
    v.count("total_inputs", total_inputs)?;
    v.count("effective_inputs", effective_inputs)?;
    v.count("classes", classes)?;
    v.count("singleton_classes", singleton_classes)
});

record!(ViolationReport {
    test_case,
    inputs,
    violation,
    contract,
    test_case_seed,
    vulnerability,
    gadget,
    test_cases_until_detection,
    inputs_until_detection,
} => |v| {
    v.record("test_case", test_case)?;
    v.list("inputs", inputs, V::record)?;
    v.record("violation", violation)?;
    v.record("contract", contract)?;
    v.word("test_case_seed", test_case_seed)?;
    v.label("vulnerability", vulnerability)?;
    v.option("gadget", gadget, V::record)?;
    v.count("test_cases_until_detection", test_cases_until_detection)?;
    v.count("inputs_until_detection", inputs_until_detection)
});

// ---------------------------------------------------------------------------
// Matrix checkpoints.

impl Wire for PatternCoverage {
    fn wire<V: Visitor>(v: &mut V, x: Slot<'_, Self>) -> Visit<V> {
        // Pairs travel as two-element arrays: `[a, b]` in JSON, two index
        // bytes in binary.
        let (mut covered, mut pairs): (BTreeSet<Pattern>, Vec<[Pattern; 2]>) = match x.get() {
            Some(c) => {
                (c.covered().clone(), c.covered_pairs().iter().map(|&(a, b)| [a, b]).collect())
            }
            None => (BTreeSet::new(), Vec::new()),
        };
        v.bitset("patterns", x.like(&mut covered))?;
        v.list("pairs", x.like(&mut pairs), |v, key, pair| v.array(key, pair, V::label))?;
        x.set(|| {
            PatternCoverage::from_parts(covered, pairs.into_iter().map(|[a, b]| (a, b)).collect())
        });
        Ok(())
    }
}

record!(CellProgress {
    violation,
    test_cases,
    filtered,
    total_inputs,
    effectiveness,
    detection_time,
} => |v| {
    v.option("violation", violation, V::record)?;
    v.count("test_cases", test_cases)?;
    v.count("filtered", filtered)?;
    v.count("total_inputs", total_inputs)?;
    v.record("effectiveness", effectiveness)?;
    v.count("detection_ns", detection_time)
});

record!(GroupProgress {
    target_id,
    next_index,
    test_cases,
    filtered,
    total_inputs,
    effectiveness,
    round,
    work,
    escalations,
    coverage_level,
    round_improved,
    coverage,
} => |v| {
    v.word("target_id", target_id)?;
    v.count("next_index", next_index)?;
    v.count("test_cases", test_cases)?;
    v.count("filtered", filtered)?;
    v.count("total_inputs", total_inputs)?;
    v.list("effectiveness", effectiveness, V::record)?;
    v.count("round", round)?;
    v.count("work_ns", work)?;
    v.count("escalations", escalations)?;
    v.count("coverage_level", coverage_level)?;
    v.flag("round_improved", round_improved)?;
    v.record("coverage", coverage)
});

record!(MatrixCheckpoint {
    wave,
    seed,
    budget,
    round_size,
    escalation,
    config_digest,
    cells,
    groups,
} => |v| {
    v.count("wave", wave)?;
    v.word("seed", seed)?;
    v.count("budget", budget)?;
    v.count("round_size", round_size)?;
    v.flag("escalation", escalation)?;
    v.word("config_digest", config_digest)?;
    v.list("cells", cells, |v, key, cell| v.option(key, cell, V::record))?;
    v.list("groups", groups, V::record)
});

#[cfg(test)]
mod tests {
    use super::*;

    fn check<E: WireEnum + PartialEq + std::fmt::Debug>() {
        for (i, e) in E::ALL.iter().enumerate() {
            assert_eq!(e.index(), i, "{e:?} is out of declaration order in ALL");
            let label = e.label();
            assert_eq!(
                E::ALL.iter().filter(|other| other.label() == label).count(),
                1,
                "label `{label}` is not unique"
            );
        }
    }

    #[test]
    fn every_wire_enum_table_is_in_declaration_order() {
        check::<Reg>();
        check::<Width>();
        check::<Cond>();
        check::<AluOp>();
        check::<ShiftOp>();
        check::<UnaryOp>();
        check::<ObservationClause>();
        check::<ExecutionClause>();
        check::<VulnClass>();
        check::<SourceKind>();
        check::<TransmitterKind>();
        check::<Pattern>();
        // The exhaustive `index` matches agree with `ALL`.
        assert!(VulnClass::ALL.iter().enumerate().all(|(i, c)| c.index() == i));
        assert!(SourceKind::ALL.iter().enumerate().all(|(i, k)| k.index() == i));
        assert!(TransmitterKind::ALL.iter().enumerate().all(|(i, k)| k.index() == i));
        assert!(ObservationClause::ALL.iter().enumerate().all(|(i, o)| o.index() == i));
        assert!(ExecutionClause::ALL.iter().enumerate().all(|(i, e)| e.index() == i));
        // Coverage sets must fit the one-byte mask.
        assert!(Pattern::ALL.len() <= 8);
    }
}
