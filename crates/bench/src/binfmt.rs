//! The compact binary frame format for checkpoints, reports and spool
//! records, and the binary backend of the wire descriptions in
//! [`crate::wire`] — the hot-path counterpart of the JSON backend in
//! [`crate::report`].  Both backends run the same one description per wire
//! type; [`encode`] and [`decode`] are this module's entry points.
//!
//! JSON remains the debug/interop form (and the client-port wire format);
//! this module exists because checkpoint transfer is the coordinator's hot
//! path: at fleet scale every wave of every job crosses the worker wire and
//! the spool, and a 180 KB JSON checkpoint costs both parse time and
//! bandwidth that a length-prefixed binary frame does not.
//!
//! # Frame layout
//!
//! ```text
//! magic   4 bytes   "RVZB"
//! version u8        FORMAT_VERSION (1)
//! kind    u8        frame kind (checkpoint, transfer, grant, record, ...)
//! length  u32 LE    body length in bytes (as stored, i.e. compressed)
//! body    ...       zero-run-packed section table
//! ```
//!
//! The body is a **section table**: a varint section count followed by
//! `tag u8 | varint length | bytes` entries.  Decoders skip unknown tags,
//! so new sections can be added without a version bump; removing or
//! re-typing a section is what `FORMAT_VERSION` guards.
//!
//! The body is stored **zero-run packed** ([`encode_rle`]): alternating
//! `varint literal-length | literal bytes | varint zero-run-length`
//! chunks.  Revizor's architectural inputs are deliberately low-entropy
//! (§5.2: each sandbox word takes one of a handful of cache-line-aligned
//! values), so checkpoint payloads are mostly zero bytes — run-packing
//! them costs one linear pass and shrinks real checkpoints several-fold
//! on top of the structural savings.  Incompressible data expands by a
//! few varint bytes at worst.
//!
//! # Payload encodings
//!
//! A payload is the fields of a wire type in description order, with no
//! names or per-field tags (the visitor method a description calls picks
//! the form, see the table in [`crate::wire`]):
//!
//! * counters and lengths are LEB128 **varints**; signed integers are
//!   zigzag-folded first — instruction streams pack into a few bytes per
//!   instruction;
//! * entropy-bearing words (seeds, digests, cache-set vectors, register
//!   file contents) are **raw little-endian** `u64`s — a varint would
//!   inflate them;
//! * enumerations are one-byte indices into their type's `ALL` table
//!   (`Reg::ALL`, `VulnClass::ALL`, ...) — the table order is part of the
//!   wire format, guarded by `FORMAT_VERSION`; tagged sums (instructions,
//!   operands, terminators) lead with a tag byte; options with a 0/1 byte;
//!   pattern-coverage sets are one bitmask byte;
//! * strings are varint-length-prefixed UTF-8; sandbox memory is raw
//!   bytes, not hex.
//!
//! Decoding is bounds-checked end to end and **never panics** on malformed
//! input: every reader returns a [`DecodeError`].  The digest-validation
//! contract is unchanged — [`CheckpointTransfer::validates`] compares the
//! sender's pre-encode digest against the digest of the decoded snapshot,
//! so a codec regression (in either format) is caught end to end.

use crate::json::Json;
use crate::report::CheckpointTransfer;
use crate::wire::{
    decode_with, encode_with, Blank, DecodeError, Int, Key, Slot, Visit, Visitor, Wire, WireEnum,
};
use revizor::fuzzer::ViolationReport;
use revizor::orchestrator::MatrixCheckpoint;
use std::collections::BTreeSet;
use std::convert::Infallible;

/// The frame magic: every binary frame starts with these four bytes.  The
/// first byte (`R`) can never open a JSON line (`{`), which is how the
/// service's framing layer tells the two formats apart on a shared socket.
pub const MAGIC: [u8; 4] = *b"RVZB";

/// The binary format version, bumped on any incompatible payload change
/// (section re-typing, enum reordering).  Adding new section tags does
/// *not* require a bump — decoders skip unknown tags.
pub const FORMAT_VERSION: u8 = 1;

/// Fixed frame header size: magic + version + kind + u32 body length.
pub const HEADER_LEN: usize = 10;

/// Upper bound on a frame body accepted from the wire: a corrupt or
/// hostile length prefix must not make a reader allocate gigabytes.
pub const MAX_FRAME: usize = 64 << 20;

// Frame kinds.
/// A bare [`MatrixCheckpoint`].
pub const KIND_CHECKPOINT: u8 = 1;
/// A checkpoint transfer (job + digest + checkpoint, plus service meta).
pub const KIND_TRANSFER: u8 = 2;
/// A coordinator work grant (service meta + optional resume checkpoint).
pub const KIND_GRANT: u8 = 3;
/// A spool job record.
pub const KIND_SPOOL_RECORD: u8 = 4;
/// A bare [`ViolationReport`].
pub const KIND_REPORT: u8 = 5;
/// A result-store index entry.
pub const KIND_STORE_ENTRY: u8 = 6;

// Section tags (shared across frame kinds; a tag means the same thing in
// every frame that carries it).
/// Job id (string).
pub const TAG_JOB: u8 = 1;
/// Pre-encode checkpoint digest (u64 LE).
pub const TAG_DIGEST: u8 = 2;
/// Replication cursor / wave counter (varint).
pub const TAG_WAVE: u8 = 3;
/// A [`MatrixCheckpoint`] payload.
pub const TAG_CHECKPOINT: u8 = 4;
/// A binary-JSON document (service meta, job specs, results, events).
pub const TAG_META: u8 = 5;
/// A per-unit record (spool records carry one per work unit).
pub const TAG_UNIT: u8 = 6;
/// A [`ViolationReport`] payload.
pub const TAG_REPORT: u8 = 7;

// ---------------------------------------------------------------------------
// Writer primitives.

/// Append a LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-folded signed varint.
#[inline]
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append a raw little-endian `u64` (entropy-bearing words).
#[inline]
pub fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a varint-length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

#[inline]
fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

// ---------------------------------------------------------------------------
// Reader primitives: bounds-checked, never panic.

/// A bounds-checked cursor over a binary payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7f);
            if shift == 63 && low > 1 {
                return Err("varint overflows u64".to_string());
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint longer than 10 bytes".to_string())
    }

    /// Read a zigzag-folded signed varint.
    #[inline]
    pub fn zigzag(&mut self) -> Result<i64, DecodeError> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// Read a varint into `usize` (or any narrower integer).
    #[inline]
    pub fn int<T: TryFrom<u64>>(&mut self) -> Result<T, DecodeError> {
        let v = self.varint()?;
        T::try_from(v).map_err(|_| format!("integer {v} out of range"))
    }

    /// Read a raw little-endian `u64`.
    #[inline]
    pub fn u64_le(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64_le()?))
    }

    #[inline]
    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("invalid boolean byte {b:#04x}")),
        }
    }

    /// Read a varint-length-prefixed UTF-8 string.
    #[inline]
    pub fn str_(&mut self) -> Result<String, DecodeError> {
        let len: usize = self.int()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not valid UTF-8".to_string())
    }

    #[inline]
    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len: usize = self.int()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Read an element count and pre-flight it against the bytes left:
    /// every element costs at least one byte, so a count beyond
    /// `remaining()` is corrupt — reject it before allocating.
    #[inline]
    fn count(&mut self) -> Result<usize, DecodeError> {
        let n: usize = self.int()?;
        if n > self.remaining() {
            return Err(format!("element count {n} exceeds the {} bytes left", self.remaining()));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Zero-run packing (the body compression layer).

/// Zero-run-pack `src`: alternating `varint literal-length | literals |
/// varint zero-run-length` chunks.  Zero runs shorter than four bytes are
/// cheaper left as literals, so they are.
pub fn encode_rle(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 4 + 16);
    let mut i = 0;
    while i < src.len() {
        // Extend the literal chunk until a zero run worth encoding (>= 4
        // bytes) or the end of input.
        let lit_start = i;
        while i < src.len() {
            if src[i] == 0 {
                let mut j = i;
                while j < src.len() && src[j] == 0 {
                    j += 1;
                }
                if j - i >= 4 {
                    break;
                }
                i = j;
            } else {
                i += 1;
            }
        }
        put_varint(&mut out, (i - lit_start) as u64);
        out.extend_from_slice(&src[lit_start..i]);
        let zero_start = i;
        while i < src.len() && src[i] == 0 {
            i += 1;
        }
        put_varint(&mut out, (i - zero_start) as u64);
    }
    out
}

/// Undo [`encode_rle`].  `max` bounds the decoded size so a corrupt or
/// hostile run length cannot make the reader allocate gigabytes.
pub fn decode_rle(src: &[u8], max: usize) -> Result<Vec<u8>, DecodeError> {
    let mut r = Reader::new(src);
    let mut out = Vec::with_capacity(src.len() * 2);
    while !r.is_empty() {
        let lit: usize = r.int()?;
        if out.len().saturating_add(lit) > max {
            return Err(format!("run-packed payload exceeds the {max}-byte limit"));
        }
        out.extend_from_slice(r.take(lit)?);
        let zeros: usize = r.int()?;
        if out.len().saturating_add(zeros) > max {
            return Err(format!("run-packed payload exceeds the {max}-byte limit"));
        }
        out.resize(out.len() + zeros, 0);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Frames and section tables.

/// Build one frame: header, section table, sections.
pub struct FrameBuilder {
    kind: u8,
    sections: Vec<(u8, Vec<u8>)>,
}

impl FrameBuilder {
    /// Start a frame of `kind`.
    pub fn new(kind: u8) -> FrameBuilder {
        FrameBuilder { kind, sections: Vec::new() }
    }

    /// Append a raw section.
    pub fn section(mut self, tag: u8, bytes: Vec<u8>) -> FrameBuilder {
        self.sections.push((tag, bytes));
        self
    }

    /// Append a string section.
    pub fn str_section(self, tag: u8, s: &str) -> FrameBuilder {
        self.section(tag, s.as_bytes().to_vec())
    }

    /// Append a raw-LE `u64` section.
    pub fn u64_section(self, tag: u8, v: u64) -> FrameBuilder {
        self.section(tag, v.to_le_bytes().to_vec())
    }

    /// Append a varint section.
    pub fn varint_section(self, tag: u8, v: u64) -> FrameBuilder {
        let mut out = Vec::with_capacity(10);
        put_varint(&mut out, v);
        self.section(tag, out)
    }

    /// Append a binary-JSON section.
    pub fn json_section(self, tag: u8, doc: &Json) -> FrameBuilder {
        let mut out = Vec::new();
        enc_json(&mut out, doc);
        self.section(tag, out)
    }

    /// Append a [`MatrixCheckpoint`] section.
    pub fn checkpoint_section(self, tag: u8, cp: &MatrixCheckpoint) -> FrameBuilder {
        let mut out = Vec::new();
        encode(&mut out, cp);
        self.section(tag, out)
    }

    /// Encode the frame (the body is zero-run packed).
    pub fn build(self) -> Vec<u8> {
        let mut body = Vec::new();
        put_varint(&mut body, self.sections.len() as u64);
        for (tag, bytes) in &self.sections {
            body.push(*tag);
            put_bytes(&mut body, bytes);
        }
        let packed = encode_rle(&body);
        let mut out = Vec::with_capacity(HEADER_LEN + packed.len());
        out.extend_from_slice(&MAGIC);
        out.push(FORMAT_VERSION);
        out.push(self.kind);
        put_u32_le(&mut out, packed.len() as u32);
        out.extend_from_slice(&packed);
        out
    }
}

/// A parsed frame: kind plus its section table (tags may repeat).  Owns
/// the unpacked body; sections borrow from it.
pub struct Frame {
    /// The frame kind byte.
    pub kind: u8,
    body: Vec<u8>,
    sections: Vec<(u8, std::ops::Range<usize>)>,
}

/// How many bytes the frame starting at `buf[0]` occupies, if its header
/// is complete — the service framing layer uses this to wait for exactly
/// one whole frame.  Returns an error for bad magic, a wrong version or an
/// oversized length so a reactor can drop the connection instead of
/// waiting forever.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, DecodeError> {
    if buf.len() < HEADER_LEN {
        // Reject bad magic as early as the bytes allow.
        if !MAGIC.starts_with(&buf[..buf.len().min(4)]) {
            return Err("bad frame magic".to_string());
        }
        return Ok(None);
    }
    if buf[..4] != MAGIC {
        return Err("bad frame magic".to_string());
    }
    if buf[4] != FORMAT_VERSION {
        return Err(format!("unsupported binary format version {}", buf[4]));
    }
    let len = u32::from_le_bytes(buf[6..10].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(format!("frame body of {len} bytes exceeds the {MAX_FRAME} limit"));
    }
    Ok(Some(HEADER_LEN + len))
}

/// Parse one complete frame (header + body).
pub fn parse_frame(buf: &[u8]) -> Result<Frame, DecodeError> {
    let total = frame_len(buf)?.ok_or("truncated frame header")?;
    if buf.len() < total {
        return Err(format!("truncated frame: header promises {total} bytes, have {}", buf.len()));
    }
    let kind = buf[5];
    let body = decode_rle(&buf[HEADER_LEN..total], MAX_FRAME)?;
    let mut r = Reader::new(&body);
    let n = r.count()?;
    let mut sections = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.u8()?;
        let len: usize = r.int()?;
        let start = body.len() - r.remaining();
        r.take(len)?;
        sections.push((tag, start..start + len));
    }
    Ok(Frame { kind, body, sections })
}

impl Frame {
    /// The first section with `tag`, if any.
    pub fn section(&self, tag: u8) -> Option<&[u8]> {
        self.sections.iter().find(|(t, _)| *t == tag).map(|(_, r)| &self.body[r.clone()])
    }

    /// All sections with `tag`, in frame order.
    pub fn sections(&self, tag: u8) -> impl Iterator<Item = &[u8]> + '_ {
        self.sections.iter().filter(move |(t, _)| *t == tag).map(|(_, r)| &self.body[r.clone()])
    }

    fn need(&self, tag: u8, what: &str) -> Result<&[u8], DecodeError> {
        self.section(tag).ok_or_else(|| format!("frame is missing its {what} section"))
    }

    /// Decode a required string section.
    pub fn str_section(&self, tag: u8, what: &str) -> Result<String, DecodeError> {
        String::from_utf8(self.need(tag, what)?.to_vec())
            .map_err(|_| format!("{what} section is not valid UTF-8"))
    }

    /// Decode a required raw-LE `u64` section.
    pub fn u64_section(&self, tag: u8, what: &str) -> Result<u64, DecodeError> {
        let b = self.need(tag, what)?;
        Ok(u64::from_le_bytes(
            b.try_into().map_err(|_| format!("{what} section is not 8 bytes"))?,
        ))
    }

    /// Decode a required varint section.
    pub fn varint_section(&self, tag: u8, what: &str) -> Result<u64, DecodeError> {
        Reader::new(self.need(tag, what)?).varint()
    }

    /// Decode a required binary-JSON section.
    pub fn json_section(&self, tag: u8, what: &str) -> Result<Json, DecodeError> {
        let mut r = Reader::new(self.need(tag, what)?);
        dec_json(&mut r)
    }

    /// Decode a required checkpoint section.
    pub fn checkpoint_section(&self, tag: u8, what: &str) -> Result<MatrixCheckpoint, DecodeError> {
        decode(&mut Reader::new(self.need(tag, what)?))
    }
}

// ---------------------------------------------------------------------------
// Generic binary JSON (service meta, job specs, results, events).

const J_NULL: u8 = 0;
const J_FALSE: u8 = 1;
const J_TRUE: u8 = 2;
const J_NUM: u8 = 3;
const J_UINT: u8 = 4;
const J_STR: u8 = 5;
const J_ARR: u8 = 6;
const J_OBJ: u8 = 7;

/// Encode an arbitrary [`Json`] document in compact binary form.
pub fn enc_json(out: &mut Vec<u8>, doc: &Json) {
    match doc {
        Json::Null => out.push(J_NULL),
        Json::Bool(false) => out.push(J_FALSE),
        Json::Bool(true) => out.push(J_TRUE),
        Json::Num(f) => {
            out.push(J_NUM);
            put_f64(out, *f);
        }
        Json::UInt(v) => {
            out.push(J_UINT);
            put_varint(out, *v);
        }
        Json::Str(s) => {
            out.push(J_STR);
            put_str(out, s);
        }
        Json::Arr(items) => {
            out.push(J_ARR);
            put_varint(out, items.len() as u64);
            for item in items {
                enc_json(out, item);
            }
        }
        Json::Obj(fields) => {
            out.push(J_OBJ);
            put_varint(out, fields.len() as u64);
            for (key, value) in fields {
                put_str(out, key);
                enc_json(out, value);
            }
        }
    }
}

/// Decode a document written by [`enc_json`].
pub fn dec_json(r: &mut Reader) -> Result<Json, DecodeError> {
    match r.u8()? {
        J_NULL => Ok(Json::Null),
        J_FALSE => Ok(Json::Bool(false)),
        J_TRUE => Ok(Json::Bool(true)),
        J_NUM => Ok(Json::Num(r.f64()?)),
        J_UINT => Ok(Json::UInt(r.varint()?)),
        J_STR => Ok(Json::Str(r.str_()?)),
        J_ARR => {
            let n = r.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(dec_json(r)?);
            }
            Ok(Json::Arr(items))
        }
        J_OBJ => {
            let n = r.count()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let key = r.str_()?;
                fields.push((key, dec_json(r)?));
            }
            Ok(Json::Obj(fields))
        }
        t => Err(format!("invalid JSON tag byte {t:#04x}")),
    }
}

// ---------------------------------------------------------------------------
// The binary backend of the wire descriptions.
//
// `encode`/`decode` are generic, so they are compiled in the calling crate
// (the service, the store, the benches); the backend methods and the
// `Reader`/`put_*` primitives are `#[inline]` so that they still inline
// there, as they did into the per-type codecs this backend replaced.

/// Append the binary payload of any wire type (no frame header — see
/// [`FrameBuilder`] and [`matrix_checkpoint_to_binary`] for framed forms).
pub fn encode<T: Wire>(out: &mut Vec<u8>, x: &T) {
    let mut encoder = BinOut(std::mem::take(out));
    encode_with(&mut encoder, x);
    *out = encoder.0;
}

/// Decode a payload written by [`encode`].
///
/// # Errors
/// Returns a message on truncated or malformed input; never panics.
pub fn decode<T: Wire>(r: &mut Reader) -> Result<T, DecodeError> {
    let mut decoder = BinIn(Reader { buf: r.buf, pos: r.pos });
    let value = decode_with(&mut decoder);
    r.pos = decoder.0.pos;
    value
}

/// The binary encoder: tagged varints appended to one buffer.
struct BinOut(Vec<u8>);

impl Visitor for BinOut {
    type Error = Infallible;
    const DECODES: bool = false;
    const KEYED: bool = false;

    #[inline]
    fn count<N: Int>(&mut self, _: Key, x: Slot<'_, N>) -> Visit<Self> {
        put_varint(&mut self.0, x.value().to_u64());
        Ok(())
    }

    #[inline]
    fn word<N: Int>(&mut self, _: Key, x: Slot<'_, N>) -> Visit<Self> {
        self.0.extend_from_slice(&x.value().to_u64().to_le_bytes()[..N::BYTES]);
        Ok(())
    }

    #[inline]
    fn flag(&mut self, _: Key, x: Slot<'_, bool>) -> Visit<Self> {
        self.0.push(u8::from(*x.value()));
        Ok(())
    }

    #[inline]
    fn signed(&mut self, _: Key, x: Slot<'_, i64>) -> Visit<Self> {
        put_zigzag(&mut self.0, *x.value());
        Ok(())
    }

    #[inline]
    fn text(&mut self, _: Key, x: Slot<'_, String>) -> Visit<Self> {
        put_str(&mut self.0, x.value());
        Ok(())
    }

    #[inline]
    fn blob(&mut self, _: Key, x: Slot<'_, Vec<u8>>) -> Visit<Self> {
        put_bytes(&mut self.0, x.value());
        Ok(())
    }

    #[inline]
    fn label<E: WireEnum>(&mut self, _: Key, x: Slot<'_, E>) -> Visit<Self> {
        self.0.push(x.value().index() as u8);
        Ok(())
    }

    #[inline]
    fn variant(&mut self, _: Key, _: &'static [&'static str], tag: Slot<'_, u8>) -> Visit<Self> {
        self.0.push(*tag.value());
        Ok(())
    }

    #[inline]
    fn bitset<E: WireEnum + Ord>(&mut self, _: Key, x: Slot<'_, BTreeSet<E>>) -> Visit<Self> {
        self.0.push(x.value().iter().fold(0u8, |mask, e| mask | 1 << e.index()));
        Ok(())
    }

    #[inline]
    fn record<T: Wire>(&mut self, _: Key, x: Slot<'_, T>) -> Visit<Self> {
        T::wire(self, x)
    }

    #[inline]
    fn option<T: Blank>(
        &mut self,
        key: Key,
        x: Slot<'_, Option<T>>,
        some: impl FnOnce(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        match x.value() {
            None => {
                self.0.push(0);
                Ok(())
            }
            Some(v) => {
                self.0.push(1);
                some(self, key, Slot::Read(v))
            }
        }
    }

    #[inline]
    fn list<T: Blank>(
        &mut self,
        _: Key,
        x: Slot<'_, Vec<T>>,
        mut elem: impl FnMut(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        let items = x.value();
        put_varint(&mut self.0, items.len() as u64);
        items.iter().try_for_each(|item| elem(self, "", Slot::Read(item)))
    }

    #[inline]
    fn array<T, const N: usize>(
        &mut self,
        _: Key,
        x: Slot<'_, [T; N]>,
        mut elem: impl FnMut(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        x.value().iter().try_for_each(|item| elem(self, "", Slot::Read(item)))
    }
}

/// The binary decoder: bounds-checked reads from one [`Reader`].
struct BinIn<'a>(Reader<'a>);

impl Visitor for BinIn<'_> {
    type Error = DecodeError;
    const DECODES: bool = true;
    const KEYED: bool = false;

    #[inline]
    fn count<N: Int>(&mut self, _: Key, x: Slot<'_, N>) -> Visit<Self> {
        let v = self.0.varint()?;
        *x.place() = N::from_u64(v).ok_or_else(|| format!("integer {v} out of range"))?;
        Ok(())
    }

    #[inline]
    fn word<N: Int>(&mut self, _: Key, x: Slot<'_, N>) -> Visit<Self> {
        let mut le = [0u8; 8];
        le[..N::BYTES].copy_from_slice(self.0.take(N::BYTES)?);
        let v = u64::from_le_bytes(le);
        *x.place() = N::from_u64(v).ok_or_else(|| format!("word {v:#x} out of range"))?;
        Ok(())
    }

    #[inline]
    fn flag(&mut self, _: Key, x: Slot<'_, bool>) -> Visit<Self> {
        *x.place() = self.0.bool()?;
        Ok(())
    }

    #[inline]
    fn signed(&mut self, _: Key, x: Slot<'_, i64>) -> Visit<Self> {
        *x.place() = self.0.zigzag()?;
        Ok(())
    }

    #[inline]
    fn text(&mut self, _: Key, x: Slot<'_, String>) -> Visit<Self> {
        *x.place() = self.0.str_()?;
        Ok(())
    }

    #[inline]
    fn blob(&mut self, _: Key, x: Slot<'_, Vec<u8>>) -> Visit<Self> {
        *x.place() = self.0.bytes()?;
        Ok(())
    }

    #[inline]
    fn label<E: WireEnum>(&mut self, key: Key, x: Slot<'_, E>) -> Visit<Self> {
        let idx = self.0.u8()?;
        *x.place() = *E::ALL
            .get(usize::from(idx))
            .ok_or_else(|| format!("invalid `{key}` index {idx}"))?;
        Ok(())
    }

    #[inline]
    fn variant(
        &mut self,
        key: Key,
        labels: &'static [&'static str],
        tag: Slot<'_, u8>,
    ) -> Visit<Self> {
        let t = self.0.u8()?;
        if usize::from(t) >= labels.len() {
            return Err(format!("invalid `{key}` tag {t:#04x}"));
        }
        *tag.place() = t;
        Ok(())
    }

    #[inline]
    fn bitset<E: WireEnum + Ord>(&mut self, _: Key, x: Slot<'_, BTreeSet<E>>) -> Visit<Self> {
        let mask = self.0.u8()?;
        *x.place() = E::ALL.iter().copied().filter(|e| mask & 1 << e.index() != 0).collect();
        Ok(())
    }

    #[inline]
    fn record<T: Wire>(&mut self, _: Key, x: Slot<'_, T>) -> Visit<Self> {
        T::wire(self, x)
    }

    #[inline]
    fn option<T: Blank>(
        &mut self,
        key: Key,
        x: Slot<'_, Option<T>>,
        some: impl FnOnce(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        let place = x.place();
        match self.0.u8()? {
            0 => {
                *place = None;
                Ok(())
            }
            1 => some(self, key, Slot::Fill(place.insert(T::blank()))),
            b => Err(format!("invalid option byte {b:#04x} for `{key}`")),
        }
    }

    #[inline]
    fn list<T: Blank>(
        &mut self,
        _: Key,
        x: Slot<'_, Vec<T>>,
        mut elem: impl FnMut(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        let n = self.0.count()?;
        let list = x.place();
        list.clear();
        list.reserve(n);
        for _ in 0..n {
            let mut value = T::blank();
            elem(self, "", Slot::Fill(&mut value))?;
            list.push(value);
        }
        Ok(())
    }

    #[inline]
    fn array<T, const N: usize>(
        &mut self,
        _: Key,
        x: Slot<'_, [T; N]>,
        mut elem: impl FnMut(&mut Self, Key, Slot<'_, T>) -> Visit<Self>,
    ) -> Visit<Self> {
        x.place().iter_mut().try_for_each(|slot| elem(self, "", Slot::Fill(slot)))
    }
}

// ---------------------------------------------------------------------------
// Framed top-level codecs (what the service and spool actually move).

/// Encode a checkpoint as one self-describing frame.
pub fn matrix_checkpoint_to_binary(cp: &MatrixCheckpoint) -> Vec<u8> {
    FrameBuilder::new(KIND_CHECKPOINT).checkpoint_section(TAG_CHECKPOINT, cp).build()
}

/// Decode a frame written by [`matrix_checkpoint_to_binary`].
pub fn matrix_checkpoint_from_binary(buf: &[u8]) -> Result<MatrixCheckpoint, DecodeError> {
    let frame = parse_frame(buf)?;
    if frame.kind != KIND_CHECKPOINT {
        return Err(format!("expected a checkpoint frame, found kind {}", frame.kind));
    }
    frame.checkpoint_section(TAG_CHECKPOINT, "checkpoint")
}

/// Encode a violation report as one self-describing frame.
pub fn violation_report_to_binary(report: &ViolationReport) -> Vec<u8> {
    let mut payload = Vec::new();
    encode(&mut payload, report);
    FrameBuilder::new(KIND_REPORT).section(TAG_REPORT, payload).build()
}

/// Decode a frame written by [`violation_report_to_binary`].
pub fn violation_report_from_binary(buf: &[u8]) -> Result<ViolationReport, DecodeError> {
    let frame = parse_frame(buf)?;
    if frame.kind != KIND_REPORT {
        return Err(format!("expected a report frame, found kind {}", frame.kind));
    }
    decode(&mut Reader::new(frame.need(TAG_REPORT, "report")?))
}

/// Encode one checkpoint transfer — the payload a worker host streams
/// to the coordinator after every wave — as a binary frame: the digest is
/// computed **before** encoding for end-to-end replication validation,
/// `meta` carries the service's routing fields (op, target, lease,
/// events).
pub fn checkpoint_transfer_to_binary(job: &str, cp: &MatrixCheckpoint, meta: &Json) -> Vec<u8> {
    FrameBuilder::new(KIND_TRANSFER)
        .str_section(TAG_JOB, job)
        .varint_section(TAG_WAVE, cp.wave as u64)
        .u64_section(TAG_DIGEST, cp.digest())
        .json_section(TAG_META, meta)
        .checkpoint_section(TAG_CHECKPOINT, cp)
        .build()
}

/// A decoded binary transfer frame: the digest-validating transfer plus
/// the service's routing meta document.
pub struct BinaryTransfer {
    /// The transfer (validate with [`CheckpointTransfer::validates`]).
    pub transfer: CheckpointTransfer,
    /// Routing fields (op, target, lease, events) as a JSON document.
    pub meta: Json,
}

/// Decode a frame written by [`checkpoint_transfer_to_binary`].  Rejects
/// a wave header that disagrees with the payload, and does **not** verify
/// the digest — callers decide.
pub fn checkpoint_transfer_from_binary(buf: &[u8]) -> Result<BinaryTransfer, DecodeError> {
    let frame = parse_frame(buf)?;
    if frame.kind != KIND_TRANSFER {
        return Err(format!("expected a transfer frame, found kind {}", frame.kind));
    }
    let job = frame.str_section(TAG_JOB, "job")?;
    let wave = frame.varint_section(TAG_WAVE, "wave")? as usize;
    let digest = frame.u64_section(TAG_DIGEST, "digest")?;
    let meta = frame.json_section(TAG_META, "meta")?;
    let checkpoint = frame.checkpoint_section(TAG_CHECKPOINT, "checkpoint")?;
    if wave != checkpoint.wave {
        return Err(format!(
            "transfer wave {wave} disagrees with the checkpoint's wave {}",
            checkpoint.wave
        ));
    }
    Ok(BinaryTransfer { transfer: CheckpointTransfer { job, digest, checkpoint }, meta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{matrix_checkpoint_to_json, violation_report_to_json};
    use revizor::campaign::NoopObserver;
    use revizor::orchestrator::CampaignMatrix;
    use revizor::targets::Target;
    use rvz_model::Contract;

    fn mid_run_checkpoint() -> MatrixCheckpoint {
        let matrix = CampaignMatrix::new(7)
            .with_budget(40)
            .add_cells(Target::target5(), Contract::table3_contracts());
        let mut run = matrix.start();
        run.step(&mut NoopObserver);
        run.step(&mut NoopObserver);
        run.checkpoint()
    }

    fn v1_report() -> ViolationReport {
        let report = CampaignMatrix::new(7)
            .with_budget(60)
            .add_cell(Target::target5(), Contract::ct_seq())
            .run();
        report.cells[0].violation.clone().expect("V1 found within 60 test cases")
    }

    #[test]
    fn checkpoint_frame_round_trips_and_preserves_the_digest() {
        let cp = mid_run_checkpoint();
        let frame = matrix_checkpoint_to_binary(&cp);
        let decoded = matrix_checkpoint_from_binary(&frame).unwrap();
        assert_eq!(decoded, cp);
        assert_eq!(decoded.digest(), cp.digest());
        // Deterministic encoding: same checkpoint, same bytes.
        assert_eq!(matrix_checkpoint_to_binary(&decoded), frame);
    }

    #[test]
    fn violation_report_frame_round_trips_on_a_real_v1() {
        let report = v1_report();
        let frame = violation_report_to_binary(&report);
        let decoded = violation_report_from_binary(&frame).unwrap();
        assert_eq!(decoded, report);
        // Binary ↔ JSON is lossless: both forms decode to the same value,
        // so their JSON renderings agree byte for byte.
        assert_eq!(
            violation_report_to_json(&decoded).render(),
            violation_report_to_json(&report).render()
        );
    }

    #[test]
    fn transfer_frame_round_trips_validates_and_rejects_wave_mismatch() {
        let cp = mid_run_checkpoint();
        let meta = Json::obj().field("op", "wave").field("target", 5u64).field("lease", 77u64);
        let frame = checkpoint_transfer_to_binary("j-bin-1", &cp, &meta);
        let decoded = checkpoint_transfer_from_binary(&frame).unwrap();
        assert_eq!(decoded.transfer.job, "j-bin-1");
        assert_eq!(decoded.transfer.checkpoint, cp);
        assert!(decoded.transfer.validates());
        assert_eq!(decoded.meta.get("lease").and_then(Json::as_u64), Some(77));
        // The digest is the sender's, computed before encoding; tampering
        // with the payload (or a codec regression) is caught.
        assert_eq!(decoded.transfer.digest, cp.digest());
        let mut tampered = decoded.transfer.clone();
        tampered.checkpoint.groups[0].next_index += 1;
        assert!(!tampered.validates());
        // A frame whose wave header disagrees with its payload is rejected.
        let bad = FrameBuilder::new(KIND_TRANSFER)
            .str_section(TAG_JOB, "j")
            .varint_section(TAG_WAVE, cp.wave as u64 + 7)
            .u64_section(TAG_DIGEST, cp.digest())
            .json_section(TAG_META, &meta)
            .checkpoint_section(TAG_CHECKPOINT, &cp)
            .build();
        assert!(checkpoint_transfer_from_binary(&bad).is_err());
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let cp = mid_run_checkpoint();
        let bin = matrix_checkpoint_to_binary(&cp).len();
        let json = matrix_checkpoint_to_json(&cp).render().len();
        assert!(
            bin * 3 <= json,
            "binary checkpoint ({bin} B) must be at least 3x smaller than JSON ({json} B)"
        );
    }

    #[test]
    fn truncation_at_every_boundary_errors_cleanly() {
        let cp = mid_run_checkpoint();
        let frame = matrix_checkpoint_to_binary(&cp);
        // Every strict prefix must error, never panic.  Sampling all
        // lengths is cheap enough at this frame size.
        for len in 0..frame.len() {
            assert!(matrix_checkpoint_from_binary(&frame[..len]).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let cp = mid_run_checkpoint();
        let frame = FrameBuilder::new(KIND_CHECKPOINT)
            .section(200, vec![1, 2, 3])
            .checkpoint_section(TAG_CHECKPOINT, &cp)
            .section(201, Vec::new())
            .build();
        assert_eq!(matrix_checkpoint_from_binary(&frame).unwrap(), cp);
    }

    #[test]
    fn wrong_magic_version_and_kind_are_rejected() {
        let cp = mid_run_checkpoint();
        let frame = matrix_checkpoint_to_binary(&cp);
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert!(matrix_checkpoint_from_binary(&bad_magic).is_err());
        let mut bad_version = frame.clone();
        bad_version[4] = FORMAT_VERSION + 1;
        assert!(matrix_checkpoint_from_binary(&bad_version).is_err());
        let mut bad_kind = frame;
        bad_kind[5] = KIND_TRANSFER;
        assert!(matrix_checkpoint_from_binary(&bad_kind).is_err());
        // frame_len mirrors the header checks for the framing layer.
        assert!(frame_len(b"JUNKJUNKJUNK").is_err());
        assert_eq!(frame_len(b"RVZ").unwrap(), None);
    }

    #[test]
    fn binary_json_round_trips() {
        let doc = Json::obj()
            .field("op", "grant")
            .field("lease", u64::MAX)
            .field("pi", 3.25)
            .field("neg", Json::Num(-17.0))
            .field("none", Json::Null)
            .field("flag", true)
            .field("items", Json::Arr(vec![Json::UInt(1), Json::Str("two".into())]));
        let mut out = Vec::new();
        enc_json(&mut out, &doc);
        let decoded = dec_json(&mut Reader::new(&out)).unwrap();
        assert_eq!(decoded, doc);
        for len in 0..out.len() {
            assert!(dec_json(&mut Reader::new(&out[..len])).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn zero_run_packing_round_trips() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0; 1000],
            vec![1, 2, 3],
            vec![0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 2, 0],
            (0..=255u8).collect(),
            (0..4096).map(|i| if i % 8 == 0 { (i / 8) as u8 } else { 0 }).collect(),
        ];
        for src in cases {
            let packed = encode_rle(&src);
            assert_eq!(decode_rle(&packed, MAX_FRAME).unwrap(), src);
        }
        // A low-entropy sandbox-style payload (one value byte per u64
        // word) packs to ~3 bytes per 8: lit-length, literal, run-length.
        let sparse: Vec<u8> = (0..4096).map(|i| if i % 8 == 0 { 0x40 } else { 0 }).collect();
        assert!(encode_rle(&sparse).len() * 2 < sparse.len());
        // A hostile run length is bounded, not allocated.
        let mut hostile = Vec::new();
        put_varint(&mut hostile, 0);
        put_varint(&mut hostile, u64::MAX);
        assert!(decode_rle(&hostile, MAX_FRAME).is_err());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            put_zigzag(&mut out, v);
            assert_eq!(Reader::new(&out).zigzag().unwrap(), v, "{v}");
        }
    }
}
