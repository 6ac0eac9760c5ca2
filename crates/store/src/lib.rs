//! The indexed result store: a queryable, on-disk index of every violation
//! a finished campaign job found.
//!
//! A long-lived campaign server accumulates job results as opaque payloads
//! in the spool; answering "did we ever see this gadget before?" used to
//! mean re-parsing every result. This crate keeps a separate append-only
//! index (`index.rvz`, a chain of [`binfmt`] `KIND_STORE_ENTRY` frames)
//! with one small entry per violation cell, keyed by **target**,
//! **contract**, **gadget class** and **instruction mnemonics**, so
//! `revizor-query` can answer "all V4 hits on target 3" or "new gadget
//! classes since job X" from the index alone.
//!
//! Entries are deduplicated by *minimized-gadget equivalence*: the
//! [`fingerprint`](fingerprint_violation) hashes the gadget's static
//! signature ([`GadgetSignature::canonical`]) together with its program
//! blocks after renaming registers in first-appearance order, so the same
//! gadget found under different register allocations (e.g. by two jobs
//! with different seeds) collapses into one entry with an occurrence
//! count. Sandbox layout and generator origin metadata are deliberately
//! excluded from the hash — they describe the harness, not the gadget.
//!
//! Like the spool, the index tolerates a torn tail: a crash mid-append
//! loses at most the entry in flight, never the index.
//!
//! [`GadgetSignature::canonical`]: revizor::staticanalysis::GadgetSignature::canonical

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use revizor::fuzzer::ViolationReport;
use revizor::orchestrator::{CellReport, MatrixReport};
use rvz_bench::binfmt::{self, FrameBuilder, KIND_STORE_ENTRY, TAG_META};
use rvz_bench::json::Json;
use rvz_bench::report::to_json;
use rvz_isa::{Reg, Width};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Name of the index file inside the store directory.
pub const INDEX_FILE: &str = "index.rvz";

/// One indexed violation: the query key fields plus the dedup fingerprint.
///
/// Entries carry no result payload — the full counterexample stays in the
/// job result; the index holds just enough to group, filter and count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// The job whose result produced this entry.
    pub job: String,
    /// Table 2 target id of the violating cell.
    pub target: u8,
    /// Contract name of the violating cell (e.g. `CT-SEQ`).
    pub contract: String,
    /// Vulnerability class label (e.g. `Spectre-V1`).
    pub vulnerability: String,
    /// Gadget class label from the static classifier (e.g. `V1`, `V4`);
    /// `unclassified` when the classifier produced no signature.
    pub class: String,
    /// Canonical gadget signature (e.g. `cond->load[dep]`).
    pub signature: String,
    /// Sorted, deduplicated lowercase mnemonics of the violating test case
    /// (terminators contribute `jmp` / `jcc`).
    pub mnemonics: Vec<String>,
    /// Minimized-gadget equivalence fingerprint (see
    /// [`fingerprint_violation`]).
    pub fingerprint: u64,
    /// Observations this entry stands for (1 per append; >1 only after
    /// merging).
    pub count: u64,
}

/// A group of [`StoreEntry`]s with the same fingerprint, in first-seen
/// order.
#[derive(Debug, Clone)]
pub struct MergedEntry {
    /// The first-seen entry of the group (key fields are identical across
    /// the group by construction).
    pub entry: StoreEntry,
    /// Total observations across the group.
    pub count: u64,
    /// Jobs that observed the gadget, in first-seen order, deduplicated.
    pub jobs: Vec<String>,
}

/// The on-disk store: a directory holding the append-only [`INDEX_FILE`].
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Open (creating if needed) a store directory.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Store { dir })
    }

    /// Path of the index file.
    pub fn index_path(&self) -> PathBuf {
        self.dir.join(INDEX_FILE)
    }

    /// Append one entry to the index.
    ///
    /// # Errors
    /// Propagates I/O failures; the index is untouched or grows by exactly
    /// one frame.
    pub fn append(&self, entry: &StoreEntry) -> io::Result<()> {
        let frame = entry_frame(entry);
        let mut file =
            fs::OpenOptions::new().create(true).append(true).open(self.index_path())?;
        file.write_all(&frame)
    }

    /// Index every violation cell of a finished job's report, returning how
    /// many entries were appended.
    ///
    /// # Errors
    /// Propagates I/O failures from [`Store::append`].
    pub fn index_report(&self, job: &str, report: &MatrixReport) -> io::Result<usize> {
        let mut appended = 0;
        for cell in &report.cells {
            if let Some(entry) = entry_for(job, cell) {
                self.append(&entry)?;
                appended += 1;
            }
        }
        Ok(appended)
    }

    /// All entries in append order. A missing index is an empty store; a
    /// torn tail (crash mid-append) silently ends the scan at the last
    /// complete entry.
    ///
    /// # Errors
    /// Returns a message when the index cannot be read or its first frame
    /// is corrupt (a torn *tail* after at least one good entry is not an
    /// error).
    pub fn entries(&self) -> Result<Vec<StoreEntry>, String> {
        let path = self.index_path();
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        entries_from_bytes(&data, &path)
    }

    /// [`Store::entries`] merged by fingerprint: one [`MergedEntry`] per
    /// distinct gadget, in first-seen order, with occurrence counts.
    ///
    /// # Errors
    /// Propagates [`Store::entries`] failures.
    pub fn merged(&self) -> Result<Vec<MergedEntry>, String> {
        Ok(merge(&self.entries()?))
    }

    /// Gadgets first observed strictly *after* the given job's last entry —
    /// the "show me new gadget classes since job X" query. Fingerprints
    /// already seen at or before that point are excluded even if later
    /// jobs re-observe them.
    ///
    /// # Errors
    /// Returns a message for an unreadable index or a job with no entries
    /// (a job that found nothing is indistinguishable from an unknown one —
    /// only violations are indexed).
    pub fn new_since(&self, job: &str) -> Result<Vec<MergedEntry>, String> {
        let entries = self.entries()?;
        let cutoff = entries
            .iter()
            .rposition(|e| e.job == job)
            .ok_or_else(|| format!("job `{job}` has no entries in the store"))?;
        let seen: HashSet<u64> = entries[..=cutoff].iter().map(|e| e.fingerprint).collect();
        Ok(merge(&entries[cutoff + 1..])
            .into_iter()
            .filter(|m| !seen.contains(&m.entry.fingerprint))
            .collect())
    }
}

/// Build the index entry for one matrix cell; `None` for cells without a
/// violation (only violations are indexed).
pub fn entry_for(job: &str, cell: &CellReport) -> Option<StoreEntry> {
    let v = cell.violation.as_ref()?;
    let tc = to_json(&v.test_case);
    Some(StoreEntry {
        job: job.to_string(),
        target: cell.target.id,
        contract: cell.contract.name().to_string(),
        vulnerability: v.vulnerability.to_string(),
        class: v.gadget.map(|g| g.label().to_string()).unwrap_or_else(unclassified),
        signature: v.gadget.map(|g| g.canonical()).unwrap_or_else(unclassified),
        mnemonics: mnemonics_of(&tc),
        fingerprint: fingerprint_violation(v),
        count: 1,
    })
}

fn unclassified() -> String {
    "unclassified".to_string()
}

/// The minimized-gadget equivalence fingerprint: FNV-1a over the canonical
/// gadget signature and the register-canonicalized program blocks (see
/// [`canonical_gadget_json`]). Two violations with the same program shape
/// and signature hash identically regardless of register allocation, job,
/// seed or sandbox layout.
pub fn fingerprint_violation(v: &ViolationReport) -> u64 {
    let signature = v.gadget.map(|g| g.canonical()).unwrap_or_else(unclassified);
    let canon = canonical_gadget_json(&to_json(&v.test_case)).render();
    let mut hash = fnv1a(FNV_OFFSET, signature.as_bytes());
    hash = fnv1a(hash, &[0]);
    fnv1a(hash, canon.as_bytes())
}

/// The program shape of a serialized test case ([`to_json`]
/// form): its `blocks` array with every register name replaced by `g0`,
/// `g1`, … in first-appearance order. Origin and sandbox metadata are
/// dropped — they describe the harness, not the gadget.
pub fn canonical_gadget_json(tc_json: &Json) -> Json {
    let blocks = tc_json.get("blocks").cloned().unwrap_or(Json::Null);
    let mut names = Vec::new();
    canonical_value(&blocks, &mut names)
}

fn canonical_value(doc: &Json, names: &mut Vec<String>) -> Json {
    match doc {
        Json::Str(s) if is_reg_name(s) => {
            let idx = names.iter().position(|n| n == s).unwrap_or_else(|| {
                names.push(s.clone());
                names.len() - 1
            });
            Json::Str(format!("g{idx}"))
        }
        Json::Arr(items) => Json::Arr(items.iter().map(|i| canonical_value(i, names)).collect()),
        Json::Obj(fields) => Json::Obj(
            fields.iter().map(|(k, v)| (k.clone(), canonical_value(v, names))).collect(),
        ),
        other => other.clone(),
    }
}

fn is_reg_name(s: &str) -> bool {
    // The codec always writes the 64-bit name; condition suffixes and
    // mnemonics never collide with it.
    Reg::ALL.iter().any(|r| r.name(Width::Qword) == s)
}

/// Sorted, deduplicated lowercase mnemonics of a serialized test case:
/// every instruction's specific mnemonic (`add`, `shl`, `not`, `mov`, …)
/// plus `jmp` / `jcc` for branching terminators.
pub fn mnemonics_of(tc_json: &Json) -> Vec<String> {
    let mut out = BTreeSet::new();
    let Some(blocks) = tc_json.get("blocks").and_then(Json::as_array) else {
        return Vec::new();
    };
    for block in blocks {
        for instr in block.get("instrs").and_then(Json::as_array).unwrap_or(&[]) {
            let Some(op) = instr.get("op").and_then(Json::as_str) else { continue };
            let mnemonic = match op {
                // These carry their specific mnemonic in a same-named field.
                "alu" | "shift" | "unary" => instr.get(op).and_then(Json::as_str).unwrap_or(op),
                _ => op,
            };
            out.insert(mnemonic.to_ascii_lowercase());
        }
        match block.get("terminator").and_then(|t| t.get("kind")).and_then(Json::as_str) {
            Some("jmp") => {
                out.insert("jmp".to_string());
            }
            Some("condjmp") => {
                out.insert("jcc".to_string());
            }
            _ => {}
        }
    }
    out.into_iter().collect()
}

/// Merge entries by fingerprint: one [`MergedEntry`] per distinct gadget,
/// in first-seen order, counts summed and observing jobs collected.
pub fn merge(entries: &[StoreEntry]) -> Vec<MergedEntry> {
    let mut order: Vec<MergedEntry> = Vec::new();
    let mut by_fingerprint: HashMap<u64, usize> = HashMap::new();
    for e in entries {
        match by_fingerprint.get(&e.fingerprint) {
            Some(&i) => {
                let m = &mut order[i];
                m.count += e.count;
                if !m.jobs.contains(&e.job) {
                    m.jobs.push(e.job.clone());
                }
            }
            None => {
                by_fingerprint.insert(e.fingerprint, order.len());
                order.push(MergedEntry {
                    entry: e.clone(),
                    count: e.count,
                    jobs: vec![e.job.clone()],
                });
            }
        }
    }
    order
}

/// Encode an entry as one `KIND_STORE_ENTRY` frame.
pub fn entry_frame(entry: &StoreEntry) -> Vec<u8> {
    let meta = Json::obj()
        .field("version", 1u64)
        .field("job", entry.job.as_str())
        .field("target", entry.target)
        .field("contract", entry.contract.as_str())
        .field("vulnerability", entry.vulnerability.as_str())
        .field("class", entry.class.as_str())
        .field("signature", entry.signature.as_str())
        .field(
            "mnemonics",
            Json::Arr(entry.mnemonics.iter().map(|m| Json::Str(m.clone())).collect()),
        )
        .field("fingerprint", entry.fingerprint)
        .field("count", entry.count);
    FrameBuilder::new(KIND_STORE_ENTRY).json_section(TAG_META, &meta).build()
}

/// Decode one entry from the bytes of a `KIND_STORE_ENTRY` frame.
///
/// # Errors
/// Returns a message for wrong kinds, missing sections or malformed meta.
pub fn entry_from_bytes(bytes: &[u8]) -> Result<StoreEntry, String> {
    let frame = binfmt::parse_frame(bytes)?;
    if frame.kind != KIND_STORE_ENTRY {
        return Err(format!("expected a store-entry frame, got kind {}", frame.kind));
    }
    let meta = frame.json_section(TAG_META, "store entry meta")?;
    let str_of = |key: &str| -> Result<String, String> {
        meta.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("store entry meta lacks `{key}`"))
    };
    let u64_of = |key: &str| -> Result<u64, String> {
        meta.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("store entry meta lacks `{key}`"))
    };
    let mnemonics = meta
        .get("mnemonics")
        .and_then(Json::as_array)
        .ok_or("store entry meta lacks `mnemonics`")?
        .iter()
        .map(|m| m.as_str().map(str::to_string).ok_or("non-string mnemonic".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(StoreEntry {
        job: str_of("job")?,
        target: u8::try_from(u64_of("target")?).map_err(|_| "target out of range".to_string())?,
        contract: str_of("contract")?,
        vulnerability: str_of("vulnerability")?,
        class: str_of("class")?,
        signature: str_of("signature")?,
        mnemonics,
        fingerprint: u64_of("fingerprint")?,
        count: u64_of("count")?,
    })
}

fn entries_from_bytes(data: &[u8], path: &Path) -> Result<Vec<StoreEntry>, String> {
    let mut out = Vec::new();
    let mut offset = 0;
    while offset < data.len() {
        let rest = &data[offset..];
        let total = match binfmt::frame_len(rest) {
            Ok(Some(total)) if total <= rest.len() => total,
            // An incomplete header or body is a torn tail from a
            // mid-append kill: everything before it is intact.
            Ok(_) => break,
            Err(e) => {
                if out.is_empty() {
                    return Err(format!("{}: {e}", path.display()));
                }
                break;
            }
        };
        match entry_from_bytes(&rest[..total]) {
            Ok(entry) => out.push(entry),
            Err(e) => {
                if out.is_empty() {
                    return Err(format!("{}: {e}", path.display()));
                }
                break;
            }
        }
        offset += total;
    }
    Ok(out)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use revizor::orchestrator::CampaignMatrix;
    use revizor::targets::Target;
    use rvz_bench::json::parse;
    use rvz_model::Contract;

    fn v1_report() -> MatrixReport {
        CampaignMatrix::new(7)
            .with_budget(60)
            .add_cell(Target::target5(), Contract::ct_seq())
            .run()
    }

    fn temp_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!("rvz-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn two_jobs_hitting_the_same_gadget_merge_into_one_entry_with_count_2() {
        let (dir, store) = temp_store("dedup");
        let report = v1_report();
        assert_eq!(store.index_report("job-a", &report).unwrap(), 1);
        assert_eq!(store.index_report("job-b", &report).unwrap(), 1);
        let merged = store.merged().unwrap();
        assert_eq!(merged.len(), 1, "identical gadgets dedup into one entry");
        assert_eq!(merged[0].count, 2);
        assert_eq!(merged[0].jobs, vec!["job-a".to_string(), "job-b".to_string()]);
        assert_eq!(merged[0].entry.vulnerability, "V1");
        assert_eq!(merged[0].entry.target, 5);
        assert_eq!(merged[0].entry.contract, "CT-SEQ");
        assert!(merged[0].entry.mnemonics.contains(&"jcc".to_string()), "V1 has a branch");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn register_renaming_does_not_change_the_canonical_form() {
        // The same program shape under two register allocations: RAX/RBX
        // vs RCX/RDX, in the serialized (`to_json`) form.
        let shape = |a: &str, b: &str| {
            format!(
                r#"{{"origin":"x","sandbox":null,"blocks":[{{"id":0,"label":null,
                    "instrs":[{{"op":"mov","dest":{{"kind":"reg","reg":"{a}","width":"qword"}},
                                "src":{{"kind":"reg","reg":"{b}","width":"qword"}}}}],
                    "terminator":{{"kind":"exit"}}}}]}}"#
            )
        };
        let one = canonical_gadget_json(&parse(&shape("RAX", "RBX")).unwrap());
        let other = canonical_gadget_json(&parse(&shape("RCX", "RDX")).unwrap());
        assert_eq!(one.render(), other.render());
        // But a genuinely different shape (src == dest) stays distinct.
        let same_reg = canonical_gadget_json(&parse(&shape("RAX", "RAX")).unwrap());
        assert_ne!(one.render(), same_reg.render());
    }

    #[test]
    fn entries_survive_a_torn_tail() {
        let (dir, store) = temp_store("torn");
        let report = v1_report();
        store.index_report("job-a", &report).unwrap();
        // A crash mid-append leaves a partial frame at the tail.
        let entry = entry_for("job-b", &report.cells[0]).unwrap();
        let frame = entry_frame(&entry);
        let mut file =
            fs::OpenOptions::new().append(true).open(store.index_path()).unwrap();
        file.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(file);
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].job, "job-a");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_since_reports_only_fingerprints_unseen_at_the_cutoff() {
        let (dir, store) = temp_store("since");
        let report = v1_report();
        let base = entry_for("job-a", &report.cells[0]).unwrap();
        store.append(&base).unwrap();
        // job-b re-observes the same gadget AND finds a new one.
        store.append(&StoreEntry { job: "job-b".to_string(), ..base.clone() }).unwrap();
        let novel = StoreEntry {
            job: "job-b".to_string(),
            class: "V4".to_string(),
            signature: "store-bypass->load".to_string(),
            fingerprint: base.fingerprint ^ 1,
            ..base.clone()
        };
        store.append(&novel).unwrap();
        let since_a = store.new_since("job-a").unwrap();
        assert_eq!(since_a.len(), 1, "the re-observation is not new");
        assert_eq!(since_a[0].entry.class, "V4");
        assert!(store.new_since("job-b").unwrap().is_empty());
        assert!(store.new_since("job-zz").is_err(), "unknown job is an error");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_round_trip_through_the_frame_codec() {
        let report = v1_report();
        let entry = entry_for("job-x", &report.cells[0]).unwrap();
        let decoded = entry_from_bytes(&entry_frame(&entry)).unwrap();
        assert_eq!(decoded, entry);
    }
}
