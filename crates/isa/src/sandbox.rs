//! Memory-sandbox layout.
//!
//! Generated test cases confine every memory access to a dedicated region —
//! the *sandbox* (§5.1).  The generator masks address registers to a
//! cache-line-aligned offset within one or two 4 KiB pages, and the sandbox
//! base lives in `R14`.  The executor additionally designates one page as the
//! *faulty* page whose "Accessed" bit is cleared so that the first access to
//! it triggers a microcode assist (§5.3, `*+Assist` mode).

/// Size of a page in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Size of a cache line in bytes (also the L1D set stride observed by
/// Prime+Probe).
pub const CACHE_LINE: u64 = 64;

/// Number of L1D cache sets visible to the side channel: a 4 KiB page maps
/// exactly one line to each of the 64 sets, which is why Prime+Probe and
/// Flush+Reload produce equivalent traces on a 4 KiB sandbox (§6.1).
pub const L1D_SETS: usize = 64;

/// Virtual address at which the sandbox is mapped inside the emulator and
/// the CPU simulator.  The concrete value is arbitrary but fixed so contract
/// traces are reproducible.
pub const SANDBOX_BASE_ADDR: u64 = 0x0010_0000;

/// Description of the sandbox memory layout for one test-case run.
///
/// # Example
/// ```
/// use rvz_isa::SandboxLayout;
/// let l = SandboxLayout::two_pages();
/// assert_eq!(l.size(), 2 * 4096 + SandboxLayout::STACK_SIZE);
/// assert!(l.contains(l.base + 4096));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SandboxLayout {
    /// Base virtual address (held in `R14`).
    pub base: u64,
    /// Number of data pages (1 or 2 in the paper's experiments).
    pub data_pages: u64,
    /// Index of the page whose accessed-bit is cleared in `*+Assist` mode,
    /// if any.
    pub assist_page: Option<u64>,
    /// Cache-line offset (0..64) added to every masked access so different
    /// test cases exercise different alignments (§5.1).
    pub line_offset: u64,
}

impl SandboxLayout {
    /// Size of the dedicated stack area appended after the data pages, used
    /// by `CALL`/`RET`.
    pub const STACK_SIZE: u64 = 256;

    /// Single data page, no assist page, zero alignment offset.
    pub fn one_page() -> SandboxLayout {
        SandboxLayout {
            base: SANDBOX_BASE_ADDR,
            data_pages: 1,
            assist_page: None,
            line_offset: 0,
        }
    }

    /// Two data pages, no assist page, zero alignment offset.
    pub fn two_pages() -> SandboxLayout {
        SandboxLayout {
            base: SANDBOX_BASE_ADDR,
            data_pages: 2,
            assist_page: None,
            line_offset: 0,
        }
    }

    /// Enable the microcode-assist page (clears the accessed bit on the given
    /// data page).
    ///
    /// # Panics
    /// Panics if `page >= self.data_pages`.
    pub fn with_assist_page(mut self, page: u64) -> SandboxLayout {
        assert!(page < self.data_pages, "assist page {page} out of range");
        self.assist_page = Some(page);
        self
    }

    /// Set the cache-line alignment offset (taken modulo the line size).
    pub fn with_line_offset(mut self, offset: u64) -> SandboxLayout {
        self.line_offset = offset % CACHE_LINE;
        self
    }

    /// Total sandbox size in bytes (data pages plus the stack area).
    pub fn size(&self) -> u64 {
        self.data_pages * PAGE_SIZE + Self::STACK_SIZE
    }

    /// Size of the data area only.
    pub fn data_size(&self) -> u64 {
        self.data_pages * PAGE_SIZE
    }

    /// First address of the stack area (the stack pointer is initialized to
    /// the *end* of the stack area and grows downwards).
    pub fn stack_base(&self) -> u64 {
        self.base + self.data_size()
    }

    /// Initial value of `RSP`.
    pub fn initial_rsp(&self) -> u64 {
        self.base + self.size() - 8
    }

    /// Does the sandbox contain `addr`?
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size()
    }

    /// Does the sandbox contain the `len`-byte access starting at `addr`?
    pub fn contains_range(&self, addr: u64, len: u64) -> bool {
        self.contains(addr) && addr + len <= self.base + self.size()
    }

    /// Offset of `addr` within the sandbox.
    ///
    /// # Panics
    /// Panics if `addr` is outside the sandbox.
    pub fn offset_of(&self, addr: u64) -> u64 {
        assert!(self.contains(addr), "address {addr:#x} outside sandbox");
        addr - self.base
    }

    /// The data page index containing `addr`, or `None` if `addr` falls in
    /// the stack area or outside the sandbox.
    pub fn page_of(&self, addr: u64) -> Option<u64> {
        if !self.contains(addr) {
            return None;
        }
        let off = addr - self.base;
        if off < self.data_size() {
            Some(off / PAGE_SIZE)
        } else {
            None
        }
    }

    /// Is `addr` on the microcode-assist page?
    pub fn is_assist_addr(&self, addr: u64) -> bool {
        match (self.assist_page, self.page_of(addr)) {
            (Some(p), Some(q)) => p == q,
            _ => false,
        }
    }

    /// L1D cache-set index of `addr` (the quantity exposed by a Prime+Probe
    /// hardware trace).
    pub fn cache_set_of(&self, addr: u64) -> usize {
        ((addr / CACHE_LINE) as usize) % L1D_SETS
    }

    /// The canonical address-masking constant used by the generator's
    /// instrumentation: keeps the low line-offset bits zero and the address
    /// within `data_pages * 4096`.
    ///
    /// For one page this is `0b111111000000` (the constant visible in
    /// Figure 3 of the paper); for two pages the mask has one extra bit.
    pub fn address_mask(&self) -> u64 {
        (self.data_size() - 1) & !(CACHE_LINE - 1)
    }
}

impl Default for SandboxLayout {
    fn default() -> Self {
        SandboxLayout::one_page()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_page_mask_matches_paper_constant() {
        let l = SandboxLayout::one_page();
        assert_eq!(l.address_mask(), 0b111111000000);
    }

    #[test]
    fn two_page_mask() {
        let l = SandboxLayout::two_pages();
        assert_eq!(l.address_mask(), 0b1111111000000);
    }

    #[test]
    fn layout_sizes() {
        let l = SandboxLayout::one_page();
        assert_eq!(l.size(), PAGE_SIZE + SandboxLayout::STACK_SIZE);
        assert_eq!(l.data_size(), PAGE_SIZE);
        assert_eq!(l.stack_base(), l.base + PAGE_SIZE);
        assert_eq!(l.initial_rsp(), l.base + l.size() - 8);
    }

    #[test]
    fn containment_and_offsets() {
        let l = SandboxLayout::two_pages();
        assert!(l.contains(l.base));
        assert!(l.contains(l.base + l.size() - 1));
        assert!(!l.contains(l.base + l.size()));
        assert!(!l.contains(l.base - 1));
        assert_eq!(l.offset_of(l.base + 100), 100);
        assert!(l.contains_range(l.base, 8));
        assert!(!l.contains_range(l.base + l.size() - 4, 8));
    }

    #[test]
    fn page_of_and_assist() {
        let l = SandboxLayout::two_pages().with_assist_page(1);
        assert_eq!(l.page_of(l.base), Some(0));
        assert_eq!(l.page_of(l.base + PAGE_SIZE), Some(1));
        assert_eq!(l.page_of(l.stack_base()), None);
        assert!(l.is_assist_addr(l.base + PAGE_SIZE + 64));
        assert!(!l.is_assist_addr(l.base + 64));
    }

    #[test]
    #[should_panic(expected = "assist page")]
    fn assist_page_out_of_range_panics() {
        let _ = SandboxLayout::one_page().with_assist_page(1);
    }

    #[test]
    fn cache_set_mapping_covers_all_sets() {
        let l = SandboxLayout::one_page();
        let mut seen = [false; L1D_SETS];
        for line in 0..64u64 {
            seen[l.cache_set_of(l.base + line * CACHE_LINE)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn line_offset_is_wrapped() {
        let l = SandboxLayout::one_page().with_line_offset(70);
        assert_eq!(l.line_offset, 6);
    }
}
