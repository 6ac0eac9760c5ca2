//! Store buffer with memory-disambiguation state.
//!
//! Models the structure behind Spectre V4 (Speculative Store Bypass): a
//! store whose address is not yet resolved sits in the store buffer, and a
//! younger load to the same address may be predicted not to alias it and
//! speculatively read the *stale* memory value from before the store.

/// One in-flight store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreBufferEntry {
    /// Line-aligned address written by the store.
    pub addr: u64,
    /// Access size in bytes.
    pub len: u64,
    /// Memory value at `addr` *before* the store (what a bypassing load
    /// transiently observes).
    pub stale_value: u64,
    /// Value written by the store.
    pub new_value: u64,
    /// Cycle at which the store's address becomes known to the memory
    /// disambiguation logic.
    pub addr_ready_cycle: u64,
    /// Cycle at which the store issued.
    pub issue_cycle: u64,
}

impl StoreBufferEntry {
    /// Does this store overlap the `len`-byte access at `addr`?
    pub fn overlaps(&self, addr: u64, len: u64) -> bool {
        addr < self.addr + self.len && self.addr < addr + len
    }
}

/// A bounded FIFO of in-flight stores.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    entries: Vec<StoreBufferEntry>,
    capacity: usize,
}

impl StoreBuffer {
    /// The 56-entry store buffer of Skylake-class parts.
    pub fn new() -> StoreBuffer {
        StoreBuffer::with_capacity(56)
    }

    /// Store buffer with an explicit capacity.
    pub fn with_capacity(capacity: usize) -> StoreBuffer {
        StoreBuffer { entries: Vec::new(), capacity }
    }

    /// Record a store; the oldest entry is dropped (retired) if full.
    pub fn push(&mut self, entry: StoreBufferEntry) {
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(entry);
    }

    /// Find the youngest store that overlaps the given load and whose
    /// address is still unresolved at `load_issue_cycle` — i.e. a store the
    /// load could erroneously bypass.
    pub fn bypass_candidate(
        &self,
        addr: u64,
        len: u64,
        load_issue_cycle: u64,
    ) -> Option<StoreBufferEntry> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.overlaps(addr, len) && e.addr_ready_cycle > load_issue_cycle)
            .copied()
    }

    /// Youngest store overlapping the access, regardless of resolution (used
    /// for store-to-load forwarding).
    pub fn forwarding_candidate(&self, addr: u64, len: u64) -> Option<StoreBufferEntry> {
        self.entries.iter().rev().find(|e| e.overlaps(addr, len)).copied()
    }

    /// Number of buffered stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drain all entries (executed at serializing instructions and at the
    /// end of a run).
    pub fn drain(&mut self) {
        self.entries.clear();
    }
}

impl Default for StoreBuffer {
    fn default() -> Self {
        StoreBuffer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(addr: u64, ready: u64) -> StoreBufferEntry {
        StoreBufferEntry {
            addr,
            len: 8,
            stale_value: 1,
            new_value: 2,
            addr_ready_cycle: ready,
            issue_cycle: 0,
        }
    }

    #[test]
    fn overlap_detection() {
        let e = entry(0x100, 10);
        assert!(e.overlaps(0x100, 8));
        assert!(e.overlaps(0x104, 1));
        assert!(e.overlaps(0xfc, 8), "partial overlap from below");
        assert!(!e.overlaps(0x108, 8));
        assert!(!e.overlaps(0xf8, 8));
    }

    #[test]
    fn bypass_candidate_requires_unresolved_address() {
        let mut sb = StoreBuffer::new();
        sb.push(entry(0x100, 20));
        assert!(sb.bypass_candidate(0x100, 8, 10).is_some(), "address still unknown at cycle 10");
        assert!(sb.bypass_candidate(0x100, 8, 25).is_none(), "address resolved by cycle 25");
        assert!(sb.bypass_candidate(0x200, 8, 10).is_none(), "different address");
    }

    #[test]
    fn youngest_overlapping_store_wins() {
        let mut sb = StoreBuffer::new();
        sb.push(StoreBufferEntry { stale_value: 10, ..entry(0x100, 30) });
        sb.push(StoreBufferEntry { stale_value: 20, ..entry(0x100, 40) });
        let c = sb.bypass_candidate(0x100, 8, 5).unwrap();
        assert_eq!(c.stale_value, 20);
        let f = sb.forwarding_candidate(0x100, 8).unwrap();
        assert_eq!(f.stale_value, 20);
    }

    #[test]
    fn capacity_drops_oldest() {
        let mut sb = StoreBuffer::with_capacity(2);
        sb.push(entry(0x0, 1));
        sb.push(entry(0x40, 1));
        sb.push(entry(0x80, 1));
        assert_eq!(sb.len(), 2);
        assert!(sb.forwarding_candidate(0x0, 8).is_none(), "oldest retired");
        assert!(sb.forwarding_candidate(0x80, 8).is_some());
    }

    #[test]
    fn drain_empties_buffer() {
        let mut sb = StoreBuffer::new();
        sb.push(entry(0, 1));
        assert!(!sb.is_empty());
        sb.drain();
        assert!(sb.is_empty());
    }
}
