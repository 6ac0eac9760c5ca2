//! Architectural inputs to a test case.
//!
//! An *input* is "a set of values to initialize the architectural state,
//! which includes registers (including FLAGS) and the memory sandbox" (§5.2).

use crate::reg::{FlagSet, Reg};
use crate::sandbox::SandboxLayout;

/// One architectural input (`Data` in Definition 1).
///
/// The reserved registers ([`Reg::R14`] sandbox base, [`Reg::Rsp`]) are
/// always overwritten by the emulator / CPU before execution, so their
/// values here are irrelevant.
///
/// # Example
/// ```
/// use rvz_isa::{Input, Reg, SandboxLayout};
/// let mut input = Input::zeroed(SandboxLayout::one_page());
/// input.set_reg(Reg::Rax, 0x40);
/// input.write_mem_u64(64, 0xdead_beef);
/// assert_eq!(input.reg(Reg::Rax), 0x40);
/// assert_eq!(input.read_mem_u64(64), 0xdead_beef);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Input {
    /// General-purpose register values, indexed by [`Reg::index`].
    pub regs: [u64; 16],
    /// Initial status flags.
    pub flags: FlagSet,
    /// Initial contents of the memory sandbox (data pages + stack area).
    pub mem: Vec<u8>,
    /// Identifier of the generation seed, for reproducibility reports.
    pub seed_id: u64,
}

impl Input {
    /// An all-zero input sized for the given sandbox.
    pub fn zeroed(sandbox: SandboxLayout) -> Input {
        Input {
            regs: [0; 16],
            flags: FlagSet::default(),
            mem: vec![0; sandbox.size() as usize],
            seed_id: 0,
        }
    }

    /// Read a register value.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Set a register value.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Read a 64-bit little-endian value at a byte offset into the sandbox.
    ///
    /// # Panics
    /// Panics if the offset is out of bounds.
    pub fn read_mem_u64(&self, offset: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.mem[offset..offset + 8]);
        u64::from_le_bytes(b)
    }

    /// Write a 64-bit little-endian value at a byte offset into the sandbox.
    ///
    /// # Panics
    /// Panics if the offset is out of bounds.
    pub fn write_mem_u64(&mut self, offset: usize, value: u64) {
        self.mem[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Number of sandbox bytes in this input.
    pub fn mem_size(&self) -> usize {
        self.mem.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_has_sandbox_size() {
        let s = SandboxLayout::two_pages();
        let i = Input::zeroed(s);
        assert_eq!(i.mem_size() as u64, s.size());
        assert_eq!(i.reg(Reg::Rax), 0);
    }

    #[test]
    fn reg_roundtrip() {
        let mut i = Input::zeroed(SandboxLayout::one_page());
        i.set_reg(Reg::Rbx, 42);
        assert_eq!(i.reg(Reg::Rbx), 42);
        assert_eq!(i.reg(Reg::Rcx), 0);
    }

    #[test]
    fn mem_u64_roundtrip() {
        let mut i = Input::zeroed(SandboxLayout::one_page());
        i.write_mem_u64(128, 0x0123_4567_89ab_cdef);
        assert_eq!(i.read_mem_u64(128), 0x0123_4567_89ab_cdef);
        assert_eq!(i.read_mem_u64(136), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_mem_panics() {
        let i = Input::zeroed(SandboxLayout::one_page());
        let _ = i.read_mem_u64(i.mem_size());
    }
}
