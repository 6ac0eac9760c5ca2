//! Instructions of the ISA.

use crate::block::BlockId;
use crate::operand::{MemOperand, Operand};
use crate::reg::{Reg, Width};
use std::fmt;

/// Binary ALU operations (`dest = dest OP src`, flags written).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Adc,
    Sub,
    Sbb,
    And,
    Or,
    Xor,
}

impl AluOp {
    /// All ALU operations.
    pub const ALL: [AluOp; 7] =
        [AluOp::Add, AluOp::Adc, AluOp::Sub, AluOp::Sbb, AluOp::And, AluOp::Or, AluOp::Xor];

    /// Mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "ADD",
            AluOp::Adc => "ADC",
            AluOp::Sub => "SUB",
            AluOp::Sbb => "SBB",
            AluOp::And => "AND",
            AluOp::Or => "OR",
            AluOp::Xor => "XOR",
        }
    }

    /// Whether the operation also reads the carry flag.
    pub fn reads_carry(self) -> bool {
        matches!(self, AluOp::Adc | AluOp::Sbb)
    }
}

/// Unary read-modify-write operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Not,
    Neg,
    Inc,
    Dec,
}

impl UnaryOp {
    /// All unary operations.
    pub const ALL: [UnaryOp; 4] = [UnaryOp::Not, UnaryOp::Neg, UnaryOp::Inc, UnaryOp::Dec];

    /// Mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnaryOp::Not => "NOT",
            UnaryOp::Neg => "NEG",
            UnaryOp::Inc => "INC",
            UnaryOp::Dec => "DEC",
        }
    }

    /// NOT does not modify flags; the others do.
    pub fn writes_flags(self) -> bool {
        !matches!(self, UnaryOp::Not)
    }
}

/// Shift operations (`dest = dest OP amount`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ShiftOp {
    Shl,
    Shr,
    Sar,
    Rol,
    Ror,
}

impl ShiftOp {
    /// All shift operations.
    pub const ALL: [ShiftOp; 5] =
        [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar, ShiftOp::Rol, ShiftOp::Ror];

    /// Mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ShiftOp::Shl => "SHL",
            ShiftOp::Shr => "SHR",
            ShiftOp::Sar => "SAR",
            ShiftOp::Rol => "ROL",
            ShiftOp::Ror => "ROR",
        }
    }
}

/// x86-style condition codes for `Jcc`, `CMOVcc` and `SETcc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Cond {
    /// Overflow.
    O,
    /// Not overflow.
    No,
    /// Below (carry set).
    B,
    /// Not below (carry clear).
    Nb,
    /// Equal / zero.
    E,
    /// Not equal / not zero.
    Ne,
    /// Below or equal.
    Be,
    /// Not below or equal (above).
    Nbe,
    /// Sign.
    S,
    /// Not sign.
    Ns,
    /// Parity.
    P,
    /// Not parity.
    Np,
    /// Less (signed).
    L,
    /// Not less (signed greater or equal).
    Nl,
    /// Less or equal (signed).
    Le,
    /// Not less or equal (signed greater).
    Nle,
}

impl Cond {
    /// All condition codes.
    pub const ALL: [Cond; 16] = [
        Cond::O,
        Cond::No,
        Cond::B,
        Cond::Nb,
        Cond::E,
        Cond::Ne,
        Cond::Be,
        Cond::Nbe,
        Cond::S,
        Cond::Ns,
        Cond::P,
        Cond::Np,
        Cond::L,
        Cond::Nl,
        Cond::Le,
        Cond::Nle,
    ];

    /// Condition-code suffix, e.g. `NS` in `JNS`.
    pub fn suffix(self) -> &'static str {
        match self {
            Cond::O => "O",
            Cond::No => "NO",
            Cond::B => "B",
            Cond::Nb => "NB",
            Cond::E => "E",
            Cond::Ne => "NE",
            Cond::Be => "BE",
            Cond::Nbe => "NBE",
            Cond::S => "S",
            Cond::Ns => "NS",
            Cond::P => "P",
            Cond::Np => "NP",
            Cond::L => "L",
            Cond::Nl => "NL",
            Cond::Le => "LE",
            Cond::Nle => "NLE",
        }
    }

    /// The logically inverted condition (used by the contract execution
    /// clause, which executes the *inverted* branch direction, Table 1).
    pub fn inverted(self) -> Cond {
        match self {
            Cond::O => Cond::No,
            Cond::No => Cond::O,
            Cond::B => Cond::Nb,
            Cond::Nb => Cond::B,
            Cond::E => Cond::Ne,
            Cond::Ne => Cond::E,
            Cond::Be => Cond::Nbe,
            Cond::Nbe => Cond::Be,
            Cond::S => Cond::Ns,
            Cond::Ns => Cond::S,
            Cond::P => Cond::Np,
            Cond::Np => Cond::P,
            Cond::L => Cond::Nl,
            Cond::Nl => Cond::L,
            Cond::Le => Cond::Nle,
            Cond::Nle => Cond::Le,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// A straight-line (non-terminator) instruction.
///
/// Control flow is expressed separately by [`Terminator`](crate::Terminator)s
/// at the end of each basic block, which keeps generated programs loop-free
/// (the paper generates DAGs of basic blocks, §5.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `dest = dest op src`; writes flags.  `lock` mirrors the x86 `LOCK`
    /// prefix on memory destinations (semantically a no-op for the
    /// single-core emulator but kept for display fidelity with Figure 3).
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination (register or memory).
        dest: Operand,
        /// Source (register, immediate or memory).
        src: Operand,
        /// LOCK prefix.
        lock: bool,
    },
    /// `dest = src`.
    Mov {
        /// Destination (register or memory).
        dest: Operand,
        /// Source (register, immediate or memory).
        src: Operand,
    },
    /// `if cond { dest = src }`; reads flags.
    Cmov {
        /// Condition code.
        cond: Cond,
        /// Destination register.
        dest: Reg,
        /// Source (register or memory).
        src: Operand,
        /// Access width.
        width: Width,
    },
    /// `dest = cond ? 1 : 0` (byte); reads flags.
    Setcc {
        /// Condition code.
        cond: Cond,
        /// Destination register (byte view written).
        dest: Reg,
    },
    /// Compare: computes `a - b` and sets flags, discarding the result.
    Cmp {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Test: computes `a & b` and sets flags, discarding the result.
    Test {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dest = dest shift_op amount`; writes flags.
    Shift {
        /// Operation.
        op: ShiftOp,
        /// Destination (register or memory).
        dest: Operand,
        /// Shift amount (immediate or CL).
        amount: Operand,
    },
    /// Unary read-modify-write.
    Unary {
        /// Operation.
        op: UnaryOp,
        /// Destination (register or memory).
        dest: Operand,
    },
    /// Unsigned division: `RAX = RDX:RAX / src`, `RDX = RDX:RAX % src`.
    ///
    /// This is the paper's only variable-latency instruction class (`VAR`);
    /// its latency depends on the operand values, which is what the novel
    /// V1-var / V4-var leaks expose (§6.3).
    Div {
        /// Divisor (register or memory).
        src: Operand,
    },
    /// Signed multiply: `dest = dest * src` (two-operand form); writes flags.
    Imul {
        /// Destination register.
        dest: Reg,
        /// Source (register, immediate or memory).
        src: Operand,
    },
    /// Load effective address: `dest = &mem` (no memory access, no flags).
    Lea {
        /// Destination register.
        dest: Reg,
        /// Address expression.
        addr: MemOperand,
    },
    /// Byte swap of a register (no flags).
    Bswap {
        /// Register to byte-swap.
        dest: Reg,
    },
    /// Exchange register with operand (no flags).
    Xchg {
        /// First operand (register).
        dest: Reg,
        /// Second operand (register or memory).
        src: Operand,
    },
    /// Load fence: serializes speculation (used by the postprocessor when
    /// locating the leaking region, §5.7 and Figure 4).
    Lfence,
    /// Full memory fence; also serializes speculation.
    Mfence,
    /// No operation.
    Nop,
}

impl Instr {
    /// Registers read by the instruction (including address registers and
    /// implicit sources such as `RAX`/`RDX` for `DIV`).
    pub fn reads_regs(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        match self {
            Instr::Alu { dest, src, .. } => {
                out.extend(src.source_regs());
                out.extend(dest.dest_addr_regs());
                if let Some(r) = dest.as_reg() {
                    out.push(r);
                }
            }
            Instr::Mov { dest, src } => {
                out.extend(src.source_regs());
                out.extend(dest.dest_addr_regs());
            }
            Instr::Cmov { dest, src, .. } => {
                out.push(*dest);
                out.extend(src.source_regs());
            }
            Instr::Setcc { .. } => {}
            Instr::Cmp { a, b } | Instr::Test { a, b } => {
                out.extend(a.source_regs());
                out.extend(b.source_regs());
            }
            Instr::Shift { dest, amount, .. } => {
                out.extend(amount.source_regs());
                out.extend(dest.dest_addr_regs());
                if let Some(r) = dest.as_reg() {
                    out.push(r);
                }
            }
            Instr::Unary { dest, .. } => {
                out.extend(dest.dest_addr_regs());
                if let Some(r) = dest.as_reg() {
                    out.push(r);
                }
            }
            Instr::Div { src } => {
                out.push(Reg::Rax);
                out.push(Reg::Rdx);
                out.extend(src.source_regs());
            }
            Instr::Imul { dest, src } => {
                out.push(*dest);
                out.extend(src.source_regs());
            }
            Instr::Lea { addr, .. } => out.extend(addr.address_regs()),
            Instr::Bswap { dest } => out.push(*dest),
            Instr::Xchg { dest, src } => {
                out.push(*dest);
                out.extend(src.source_regs());
                out.extend(src.dest_addr_regs());
            }
            Instr::Lfence | Instr::Mfence | Instr::Nop => {}
        }
        out
    }

    /// Registers written by the instruction.
    pub fn writes_regs(&self) -> Vec<Reg> {
        match self {
            Instr::Alu { dest, .. }
            | Instr::Mov { dest, .. }
            | Instr::Shift { dest, .. }
            | Instr::Unary { dest, .. } => dest.as_reg().into_iter().collect(),
            Instr::Cmov { dest, .. } | Instr::Setcc { dest, .. } => vec![*dest],
            Instr::Cmp { .. } | Instr::Test { .. } => vec![],
            Instr::Div { .. } => vec![Reg::Rax, Reg::Rdx],
            Instr::Imul { dest, .. } | Instr::Lea { dest, .. } | Instr::Bswap { dest } => {
                vec![*dest]
            }
            Instr::Xchg { dest, src } => {
                let mut v = vec![*dest];
                if let Some(r) = src.as_reg() {
                    v.push(r);
                }
                v
            }
            Instr::Lfence | Instr::Mfence | Instr::Nop => vec![],
        }
    }

    /// Does the instruction read from memory?
    pub fn reads_mem(&self) -> bool {
        match self {
            Instr::Alu { dest, src, .. } => src.is_mem() || dest.is_mem(),
            Instr::Mov { src, .. } => src.is_mem(),
            Instr::Cmov { src, .. } | Instr::Imul { src, .. } | Instr::Div { src } => src.is_mem(),
            Instr::Cmp { a, b } | Instr::Test { a, b } => a.is_mem() || b.is_mem(),
            Instr::Shift { dest, .. } | Instr::Unary { dest, .. } => dest.is_mem(),
            Instr::Xchg { src, .. } => src.is_mem(),
            _ => false,
        }
    }

    /// Does the instruction write to memory?
    pub fn writes_mem(&self) -> bool {
        match self {
            Instr::Alu { dest, .. }
            | Instr::Mov { dest, .. }
            | Instr::Shift { dest, .. }
            | Instr::Unary { dest, .. } => dest.is_mem(),
            Instr::Xchg { src, .. } => src.is_mem(),
            _ => false,
        }
    }

    /// Does the instruction access memory at all?
    pub fn accesses_mem(&self) -> bool {
        self.reads_mem() || self.writes_mem()
    }

    /// Does the instruction write the status flags?
    pub fn writes_flags(&self) -> bool {
        match self {
            Instr::Alu { .. }
            | Instr::Cmp { .. }
            | Instr::Test { .. }
            | Instr::Shift { .. }
            | Instr::Div { .. }
            | Instr::Imul { .. } => true,
            Instr::Unary { op, .. } => op.writes_flags(),
            _ => false,
        }
    }

    /// Does the instruction read the status flags?
    pub fn reads_flags(&self) -> bool {
        match self {
            Instr::Cmov { .. } | Instr::Setcc { .. } => true,
            Instr::Alu { op, .. } => op.reads_carry(),
            _ => false,
        }
    }

    /// Is this a speculation barrier (`LFENCE`/`MFENCE`)?
    pub fn is_fence(&self) -> bool {
        matches!(self, Instr::Lfence | Instr::Mfence)
    }

    /// Is this a variable-latency instruction (the `VAR` class)?
    pub fn is_variable_latency(&self) -> bool {
        matches!(self, Instr::Div { .. })
    }

    /// Memory operands referenced by this instruction together with their
    /// access kinds `(operand, width, is_write)`.
    pub fn mem_operands(&self) -> Vec<(MemOperand, Width, bool)> {
        let mut out = Vec::new();
        let mut push = |op: &Operand, write: bool| {
            if let Some((m, w)) = op.as_mem() {
                out.push((m, w, write));
            }
        };
        match self {
            Instr::Alu { dest, src, .. } => {
                push(src, false);
                if dest.is_mem() {
                    push(dest, true);
                }
            }
            Instr::Mov { dest, src } => {
                push(src, false);
                push(dest, true);
            }
            Instr::Cmov { src, .. } | Instr::Imul { src, .. } | Instr::Div { src } => {
                push(src, false)
            }
            Instr::Cmp { a, b } | Instr::Test { a, b } => {
                push(a, false);
                push(b, false);
            }
            Instr::Shift { dest, .. } | Instr::Unary { dest, .. } if dest.is_mem() => {
                push(dest, true);
            }
            Instr::Xchg { src, .. } if src.is_mem() => {
                push(src, true);
            }
            _ => {}
        }
        out
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, dest, src, lock } => {
                if *lock && dest.is_mem() {
                    write!(f, "LOCK ")?;
                }
                write!(f, "{} {}, {}", op.mnemonic(), dest, src)
            }
            Instr::Mov { dest, src } => write!(f, "MOV {dest}, {src}"),
            Instr::Cmov { cond, dest, src, width } => {
                write!(f, "CMOV{} {}, {}", cond.suffix(), dest.name(*width), src)
            }
            Instr::Setcc { cond, dest } => {
                write!(f, "SET{} {}", cond.suffix(), dest.name(Width::Byte))
            }
            Instr::Cmp { a, b } => write!(f, "CMP {a}, {b}"),
            Instr::Test { a, b } => write!(f, "TEST {a}, {b}"),
            Instr::Shift { op, dest, amount } => {
                write!(f, "{} {}, {}", op.mnemonic(), dest, amount)
            }
            Instr::Unary { op, dest } => write!(f, "{} {}", op.mnemonic(), dest),
            Instr::Div { src } => write!(f, "DIV {src}"),
            Instr::Imul { dest, src } => write!(f, "IMUL {dest}, {src}"),
            Instr::Lea { dest, addr } => {
                write!(f, "LEA {}, {}", dest, addr.display(Width::Qword))
            }
            Instr::Bswap { dest } => write!(f, "BSWAP {dest}"),
            Instr::Xchg { dest, src } => write!(f, "XCHG {dest}, {src}"),
            Instr::Lfence => write!(f, "LFENCE"),
            Instr::Mfence => write!(f, "MFENCE"),
            Instr::Nop => write!(f, "NOP"),
        }
    }
}

/// A pending jump target: either a resolved [`BlockId`] or a named label
/// (used by the builder before resolution).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JumpTarget {
    /// A resolved basic-block id.
    Block(BlockId),
    /// An unresolved label name.
    Label(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::{MemOperand, Operand};

    fn mem_rax() -> Operand {
        Operand::mem_w(MemOperand::base_index(Reg::R14, Reg::Rax), Width::Byte)
    }

    #[test]
    fn cond_inverted_is_involution() {
        for c in Cond::ALL {
            assert_eq!(c.inverted().inverted(), c);
            assert_ne!(c.inverted(), c);
        }
    }

    #[test]
    fn alu_reads_writes() {
        let i = Instr::Alu {
            op: AluOp::Sub,
            dest: mem_rax(),
            src: Operand::imm(35),
            lock: true,
        };
        assert!(i.reads_mem());
        assert!(i.writes_mem());
        assert!(i.writes_flags());
        assert!(!i.reads_flags());
        let reads = i.reads_regs();
        assert!(reads.contains(&Reg::R14));
        assert!(reads.contains(&Reg::Rax));
        assert!(i.writes_regs().is_empty());
    }

    #[test]
    fn adc_reads_carry() {
        let i = Instr::Alu {
            op: AluOp::Adc,
            dest: Operand::reg(Reg::Rbx),
            src: Operand::reg(Reg::Rcx),
            lock: false,
        };
        assert!(i.reads_flags());
    }

    #[test]
    fn mov_load_is_read_only() {
        let i = Instr::Mov { dest: Operand::reg(Reg::Rbx), src: mem_rax() };
        assert!(i.reads_mem());
        assert!(!i.writes_mem());
        assert_eq!(i.writes_regs(), vec![Reg::Rbx]);
    }

    #[test]
    fn mov_store_is_write_only() {
        let i = Instr::Mov { dest: mem_rax(), src: Operand::reg(Reg::Rbx) };
        assert!(!i.reads_mem());
        assert!(i.writes_mem());
        assert!(i.writes_regs().is_empty());
    }

    #[test]
    fn div_implicit_operands() {
        let i = Instr::Div { src: Operand::reg(Reg::Rcx) };
        let reads = i.reads_regs();
        assert!(reads.contains(&Reg::Rax));
        assert!(reads.contains(&Reg::Rdx));
        assert!(reads.contains(&Reg::Rcx));
        assert_eq!(i.writes_regs(), vec![Reg::Rax, Reg::Rdx]);
        assert!(i.is_variable_latency());
    }

    #[test]
    fn fences() {
        assert!(Instr::Lfence.is_fence());
        assert!(Instr::Mfence.is_fence());
        assert!(!Instr::Nop.is_fence());
    }

    #[test]
    fn display_matches_paper_style() {
        let i = Instr::Alu {
            op: AluOp::Sub,
            dest: mem_rax(),
            src: Operand::imm(35),
            lock: true,
        };
        assert_eq!(format!("{i}"), "LOCK SUB byte ptr [R14 + RAX], 35");
        let i = Instr::Alu {
            op: AluOp::And,
            dest: Operand::reg(Reg::Rax),
            src: Operand::imm(0b111111000000),
            lock: false,
        };
        assert_eq!(format!("{i}"), "AND RAX, 4032");
        let i = Instr::Cmov {
            cond: Cond::Be,
            dest: Reg::Rcx,
            src: Operand::mem(MemOperand::base_index(Reg::R14, Reg::Rdx)),
            width: Width::Qword,
        };
        assert_eq!(format!("{i}"), "CMOVBE RCX, qword ptr [R14 + RDX]");
    }

    #[test]
    fn mem_operands_classification() {
        let store = Instr::Mov { dest: mem_rax(), src: Operand::imm(1) };
        let ops = store.mem_operands();
        assert_eq!(ops.len(), 1);
        assert!(ops[0].2, "store should be a write");
        let rmw = Instr::Unary { op: UnaryOp::Inc, dest: mem_rax() };
        assert!(rmw.reads_mem() && rmw.writes_mem());
    }

    #[test]
    fn setcc_and_cmov_read_flags() {
        let s = Instr::Setcc { cond: Cond::Ns, dest: Reg::Rbx };
        assert!(s.reads_flags());
        assert!(!s.writes_flags());
        assert_eq!(s.writes_regs(), vec![Reg::Rbx]);
    }

    #[test]
    fn lea_does_not_access_memory() {
        let i = Instr::Lea { dest: Reg::Rax, addr: MemOperand::base_index(Reg::R14, Reg::Rbx) };
        assert!(!i.accesses_mem());
        assert_eq!(i.writes_regs(), vec![Reg::Rax]);
        assert!(i.reads_regs().contains(&Reg::Rbx));
    }

    #[test]
    fn xchg_reads_and_writes_both() {
        let i = Instr::Xchg { dest: Reg::Rax, src: Operand::reg(Reg::Rbx) };
        assert_eq!(i.writes_regs(), vec![Reg::Rax, Reg::Rbx]);
        let i = Instr::Xchg { dest: Reg::Rax, src: mem_rax() };
        assert!(i.reads_mem() && i.writes_mem());
    }
}
