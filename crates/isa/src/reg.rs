//! Architectural registers, status flags and operand widths.

use std::fmt;

/// General-purpose registers of the ISA.
///
/// The set mirrors the x86-64 integer register file.  Two registers have a
/// fixed role in generated test cases, following the paper:
///
/// * [`Reg::R14`] always holds the base address of the memory sandbox
///   (§5.1, Figure 3);
/// * [`Reg::Rsp`] is the stack pointer used by `CALL`/`RET` and points into
///   the dedicated stack area of the sandbox.
///
/// # Example
/// ```
/// use rvz_isa::Reg;
/// assert_eq!(Reg::Rax.index(), 0);
/// assert_eq!(Reg::ALL.len(), 16);
/// assert_eq!(format!("{}", Reg::R14), "R14");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Reg {
    Rax,
    Rbx,
    Rcx,
    Rdx,
    Rsi,
    Rdi,
    Rbp,
    Rsp,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl Reg {
    /// All registers, in index order.
    pub const ALL: [Reg; 16] = [
        Reg::Rax,
        Reg::Rbx,
        Reg::Rcx,
        Reg::Rdx,
        Reg::Rsi,
        Reg::Rdi,
        Reg::Rbp,
        Reg::Rsp,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// The reduced register set used by the generator to improve input
    /// effectiveness ("the generator generates programs with only four
    /// registers", §5.1).
    pub const GENERATOR_SET: [Reg; 4] = [Reg::Rax, Reg::Rbx, Reg::Rcx, Reg::Rdx];

    /// Register reserved as the sandbox base pointer.
    pub const SANDBOX_BASE: Reg = Reg::R14;

    /// Dense index of the register (0..16).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Reg::index`].
    ///
    /// # Panics
    /// Panics if `idx >= 16`.
    #[inline]
    pub fn from_index(idx: usize) -> Reg {
        Reg::ALL[idx]
    }

    /// Returns `true` for registers that generated code must not clobber
    /// arbitrarily (the sandbox base and the stack pointer).
    #[inline]
    pub fn is_reserved(self) -> bool {
        matches!(self, Reg::R14 | Reg::Rsp)
    }

    /// x86-style name for the given access width (e.g. `EAX` for the 32-bit
    /// view of `RAX`).
    pub fn name(self, width: Width) -> String {
        let full = format!("{self}");
        match width {
            Width::Qword => full,
            Width::Dword => match self {
                Reg::Rax | Reg::Rbx | Reg::Rcx | Reg::Rdx | Reg::Rsi | Reg::Rdi | Reg::Rbp
                | Reg::Rsp => full.replacen('R', "E", 1),
                _ => format!("{full}D"),
            },
            Width::Word => match self {
                Reg::Rax | Reg::Rbx | Reg::Rcx | Reg::Rdx | Reg::Rsi | Reg::Rdi | Reg::Rbp
                | Reg::Rsp => full[1..].to_string(),
                _ => format!("{full}W"),
            },
            Width::Byte => match self {
                Reg::Rax => "AL".to_string(),
                Reg::Rbx => "BL".to_string(),
                Reg::Rcx => "CL".to_string(),
                Reg::Rdx => "DL".to_string(),
                Reg::Rsi => "SIL".to_string(),
                Reg::Rdi => "DIL".to_string(),
                Reg::Rbp => "BPL".to_string(),
                Reg::Rsp => "SPL".to_string(),
                _ => format!("{full}B"),
            },
        }
    }
}

/// A set of general-purpose registers as a 16-bit mask, one bit per
/// [`Reg::index`].
///
/// This is the allocation-free form of a `Vec<Reg>` read/write set: building
/// it, testing membership and intersecting two sets are single-word
/// operations, which is what lets per-instruction execution records stay
/// `Copy` on the measurement hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegSet {
    bits: u16,
}

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet { bits: 0 };

    /// Set containing exactly the given registers.
    pub fn of(regs: &[Reg]) -> RegSet {
        let mut s = RegSet::EMPTY;
        for &r in regs {
            s.insert(r);
        }
        s
    }

    /// Add a register to the set.
    #[inline]
    pub fn insert(&mut self, r: Reg) {
        self.bits |= 1 << r.index();
    }

    /// Whether the register is in the set.
    #[inline]
    pub fn contains(self, r: Reg) -> bool {
        self.bits & (1 << r.index()) != 0
    }

    /// Whether the two sets share any register.
    #[inline]
    pub fn intersects(self, other: RegSet) -> bool {
        self.bits & other.bits != 0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Number of registers in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// The registers in the set, in [`Reg::index`] order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        Reg::ALL.into_iter().filter(move |r| self.contains(*r))
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<T: IntoIterator<Item = Reg>>(iter: T) -> RegSet {
        let mut s = RegSet::EMPTY;
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Reg::Rax => "RAX",
            Reg::Rbx => "RBX",
            Reg::Rcx => "RCX",
            Reg::Rdx => "RDX",
            Reg::Rsi => "RSI",
            Reg::Rdi => "RDI",
            Reg::Rbp => "RBP",
            Reg::Rsp => "RSP",
            Reg::R8 => "R8",
            Reg::R9 => "R9",
            Reg::R10 => "R10",
            Reg::R11 => "R11",
            Reg::R12 => "R12",
            Reg::R13 => "R13",
            Reg::R14 => "R14",
            Reg::R15 => "R15",
        };
        f.write_str(s)
    }
}

/// Status flags written by arithmetic instructions and read by conditional
/// instructions (`Jcc`, `CMOVcc`, `SETcc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Flag {
    /// Carry flag.
    Cf,
    /// Zero flag.
    Zf,
    /// Sign flag.
    Sf,
    /// Overflow flag.
    Of,
    /// Parity flag (parity of the low byte of the result).
    Pf,
}

impl Flag {
    /// All flags in index order.
    pub const ALL: [Flag; 5] = [Flag::Cf, Flag::Zf, Flag::Sf, Flag::Of, Flag::Pf];

    /// Dense index of the flag (0..5).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Flag::Cf => "CF",
            Flag::Zf => "ZF",
            Flag::Sf => "SF",
            Flag::Of => "OF",
            Flag::Pf => "PF",
        };
        f.write_str(s)
    }
}

/// Access width of an operand, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Width {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Word,
    /// 32-bit access.
    Dword,
    /// 64-bit access.
    Qword,
}

impl Width {
    /// All widths from narrowest to widest.
    pub const ALL: [Width; 4] = [Width::Byte, Width::Word, Width::Dword, Width::Qword];

    /// Number of bytes accessed.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Width::Byte => 1,
            Width::Word => 2,
            Width::Dword => 4,
            Width::Qword => 8,
        }
    }

    /// Number of bits accessed.
    #[inline]
    pub fn bits(self) -> u32 {
        (self.bytes() * 8) as u32
    }

    /// Mask selecting the low `bits()` bits of a 64-bit value.
    #[inline]
    pub fn mask(self) -> u64 {
        match self {
            Width::Qword => u64::MAX,
            w => (1u64 << w.bits()) - 1,
        }
    }

    /// Truncate `value` to this width (zero-extending representation).
    #[inline]
    pub fn truncate(self, value: u64) -> u64 {
        value & self.mask()
    }

    /// Sign bit position for this width.
    #[inline]
    pub fn sign_bit(self) -> u64 {
        1u64 << (self.bits() - 1)
    }

    /// x86 pointer-size keyword, e.g. `byte ptr`.
    pub fn ptr_keyword(self) -> &'static str {
        match self {
            Width::Byte => "byte ptr",
            Width::Word => "word ptr",
            Width::Dword => "dword ptr",
            Width::Qword => "qword ptr",
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes() * 8)
    }
}

/// A packed snapshot of the five status flags.
///
/// # Example
/// ```
/// use rvz_isa::reg::FlagSet;
/// use rvz_isa::Flag;
/// let mut f = FlagSet::default();
/// f.set(Flag::Zf, true);
/// assert!(f.get(Flag::Zf));
/// assert!(!f.get(Flag::Cf));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FlagSet(u8);

impl FlagSet {
    /// Create a flag set from a raw bit pattern (low five bits used).
    #[inline]
    pub fn from_bits(bits: u8) -> FlagSet {
        FlagSet(bits & 0x1f)
    }

    /// Raw bit pattern.
    #[inline]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Read a flag.
    #[inline]
    pub fn get(self, flag: Flag) -> bool {
        self.0 & (1 << flag.index()) != 0
    }

    /// Write a flag.
    #[inline]
    pub fn set(&mut self, flag: Flag, value: bool) {
        if value {
            self.0 |= 1 << flag.index();
        } else {
            self.0 &= !(1 << flag.index());
        }
    }
}

impl fmt::Display for FlagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for flag in Flag::ALL {
            if self.get(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{flag}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_index_roundtrip() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Reg::from_index(i), *r);
        }
    }

    #[test]
    fn reserved_registers() {
        assert!(Reg::R14.is_reserved());
        assert!(Reg::Rsp.is_reserved());
        assert!(!Reg::Rax.is_reserved());
        assert_eq!(Reg::SANDBOX_BASE, Reg::R14);
    }

    #[test]
    fn generator_set_excludes_reserved() {
        for r in Reg::GENERATOR_SET {
            assert!(!r.is_reserved());
        }
    }

    #[test]
    fn width_masks() {
        assert_eq!(Width::Byte.mask(), 0xff);
        assert_eq!(Width::Word.mask(), 0xffff);
        assert_eq!(Width::Dword.mask(), 0xffff_ffff);
        assert_eq!(Width::Qword.mask(), u64::MAX);
        assert_eq!(Width::Byte.truncate(0x1234), 0x34);
        assert_eq!(Width::Dword.sign_bit(), 0x8000_0000);
    }

    #[test]
    fn width_bytes_and_bits() {
        for w in Width::ALL {
            assert_eq!(w.bits() as u64, w.bytes() * 8);
        }
    }

    #[test]
    fn flagset_set_get() {
        let mut f = FlagSet::default();
        assert_eq!(f.bits(), 0);
        f.set(Flag::Cf, true);
        f.set(Flag::Of, true);
        assert!(f.get(Flag::Cf));
        assert!(f.get(Flag::Of));
        assert!(!f.get(Flag::Zf));
        f.set(Flag::Cf, false);
        assert!(!f.get(Flag::Cf));
    }

    #[test]
    fn flagset_display() {
        let mut f = FlagSet::default();
        assert_eq!(format!("{f}"), "-");
        f.set(Flag::Zf, true);
        f.set(Flag::Sf, true);
        assert_eq!(format!("{f}"), "ZF|SF");
    }

    #[test]
    fn reg_subregister_names() {
        assert_eq!(Reg::Rax.name(Width::Qword), "RAX");
        assert_eq!(Reg::Rax.name(Width::Dword), "EAX");
        assert_eq!(Reg::Rax.name(Width::Word), "AX");
        assert_eq!(Reg::Rax.name(Width::Byte), "AL");
        assert_eq!(Reg::R8.name(Width::Dword), "R8D");
        assert_eq!(Reg::R10.name(Width::Byte), "R10B");
        assert_eq!(Reg::Rsi.name(Width::Byte), "SIL");
    }

    #[test]
    fn flagset_from_bits_masks_high_bits() {
        let f = FlagSet::from_bits(0xff);
        assert_eq!(f.bits(), 0x1f);
    }
}
