//! The instruction set.
//!
//! Instructions are grouped the way the XS1 reference manual groups them:
//! arithmetic/logic, memory access, control flow, resource management and
//! channel communication. Branch offsets are in *words* relative to the
//! instruction following the branch (all instructions occupy one or two
//! 32-bit words; see the `encode` module).
//!
//! The [`fmt::Display`] implementation is the disassembler: it renders the
//! exact textual form accepted by the [assembler](crate::Assembler), so
//! `parse ∘ print` is the identity (verified by property tests).

use crate::reg::Reg;
use std::fmt;

/// A memory operand: `base[index]` with either a register or an immediate
/// index. Word/halfword accesses scale the index by the access size, as on
/// XS1 (`ldw d, b[i]` addresses `b + 4*i`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemOffset {
    /// Register index, scaled by the access size.
    Reg(Reg),
    /// Immediate index, scaled by the access size.
    Imm(i16),
}

impl fmt::Display for MemOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemOffset::Reg(r) => write!(f, "{r}"),
            MemOffset::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// Resource types allocatable with `getr`.
///
/// `PowerProbe` is Swallow-specific: it models the ADC measurement
/// daughter-board being readable from the system itself (the paper's
/// self-measurement feature, §II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResType {
    /// A channel end for message passing.
    Chanend,
    /// A 32-bit free-running timer (10 ns reference ticks).
    Timer,
    /// A thread synchroniser (barrier).
    Sync,
    /// A hardware lock (mutex).
    Lock,
    /// A power-measurement probe (Swallow ADC daughter-board).
    PowerProbe,
}

impl ResType {
    /// All resource types.
    pub const ALL: [ResType; 5] = [
        ResType::Chanend,
        ResType::Timer,
        ResType::Sync,
        ResType::Lock,
        ResType::PowerProbe,
    ];

    /// The 4-bit type code used in resource identifiers and encodings.
    pub const fn code(self) -> u8 {
        match self {
            ResType::Chanend => 0x2,
            ResType::Timer => 0x1,
            ResType::Sync => 0x3,
            ResType::Lock => 0x4,
            ResType::PowerProbe => 0xA,
        }
    }

    /// Inverse of [`ResType::code`].
    pub fn from_code(code: u8) -> Option<ResType> {
        ResType::ALL.into_iter().find(|t| t.code() == code)
    }

    /// The assembler keyword for this resource type.
    pub const fn keyword(self) -> &'static str {
        match self {
            ResType::Chanend => "chanend",
            ResType::Timer => "timer",
            ResType::Sync => "sync",
            ResType::Lock => "lock",
            ResType::PowerProbe => "probe",
        }
    }
}

impl fmt::Display for ResType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Well-known control-token values used by the link protocol (§V.B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ControlToken(pub u8);

impl ControlToken {
    /// Closes the route held open by a packet (end of message).
    pub const END: ControlToken = ControlToken(0x01);
    /// Closes the route, pausing a stream without ending the message.
    pub const PAUSE: ControlToken = ControlToken(0x02);
    /// Positive acknowledgement.
    pub const ACK: ControlToken = ControlToken(0x03);
    /// Negative acknowledgement.
    pub const NACK: ControlToken = ControlToken(0x04);

    /// The assembler keyword, if this token has one.
    pub fn keyword(self) -> Option<&'static str> {
        match self {
            ControlToken::END => Some("end"),
            ControlToken::PAUSE => Some("pause"),
            ControlToken::ACK => Some("ack"),
            ControlToken::NACK => Some("nack"),
            _ => None,
        }
    }
}

impl fmt::Display for ControlToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.keyword() {
            Some(kw) => f.write_str(kw),
            None => write!(f, "{}", self.0),
        }
    }
}

/// Simulator services (akin to semihosting on real development boards;
/// on physical Swallow the same role is played by streaming over the
/// Ethernet bridge).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HostcallFn {
    /// Print a register as a signed integer.
    PrintInt,
    /// Print the low byte of a register as a character.
    PrintChar,
    /// Halt the whole core (ends simulation for it).
    Halt,
}

/// One machine instruction.
///
/// Operand order follows XS1 conventions: destination first for loads and
/// ALU operations; resource first for channel outputs (`out res, s`),
/// destination first for inputs (`in d, res`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // Fields are conventional: d=dest, a/b/s=sources, r=resource.
pub enum Instr {
    // --- arithmetic / logic, three-register -------------------------------
    Add {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Sub {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Mul {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Divs {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Divu {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Rems {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Remu {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    And {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Or {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Xor {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Shl {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Shr {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Ashr {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Eq {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Lss {
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Lsu {
        d: Reg,
        a: Reg,
        b: Reg,
    },

    // --- arithmetic / logic, two-register ---------------------------------
    Neg {
        d: Reg,
        a: Reg,
    },
    Not {
        d: Reg,
        a: Reg,
    },
    Clz {
        d: Reg,
        a: Reg,
    },
    Byterev {
        d: Reg,
        a: Reg,
    },
    Bitrev {
        d: Reg,
        a: Reg,
    },

    // --- immediate forms ---------------------------------------------------
    AddI {
        d: Reg,
        a: Reg,
        imm: u16,
    },
    SubI {
        d: Reg,
        a: Reg,
        imm: u16,
    },
    EqI {
        d: Reg,
        a: Reg,
        imm: u16,
    },
    ShlI {
        d: Reg,
        a: Reg,
        imm: u8,
    },
    ShrI {
        d: Reg,
        a: Reg,
        imm: u8,
    },
    AshrI {
        d: Reg,
        a: Reg,
        imm: u8,
    },
    /// `mkmsk d, width`: d = (1 << width) - 1.
    MkMskI {
        d: Reg,
        width: u8,
    },
    /// `mkmsk d, s`: d = (1 << s) - 1 (width from register).
    MkMsk {
        d: Reg,
        s: Reg,
    },
    /// Sign-extend register in place from `bits` to 32.
    Sext {
        r: Reg,
        bits: u8,
    },
    /// Zero-extend register in place from `bits` to 32.
    Zext {
        r: Reg,
        bits: u8,
    },
    /// Load constant (up to 32 bits; wide constants use an extension word).
    Ldc {
        d: Reg,
        imm: u32,
    },

    // --- memory ------------------------------------------------------------
    Ldw {
        d: Reg,
        base: Reg,
        off: MemOffset,
    },
    Stw {
        s: Reg,
        base: Reg,
        off: MemOffset,
    },
    Ld16s {
        d: Reg,
        base: Reg,
        off: MemOffset,
    },
    Ld8u {
        d: Reg,
        base: Reg,
        off: MemOffset,
    },
    St16 {
        s: Reg,
        base: Reg,
        off: MemOffset,
    },
    St8 {
        s: Reg,
        base: Reg,
        off: MemOffset,
    },
    /// Load effective address of a word: d = base + 4*imm.
    Ldaw {
        d: Reg,
        base: Reg,
        imm: i16,
    },
    /// Load a program-relative address: d = pc_next + 4*off.
    Ldap {
        d: Reg,
        off: i32,
    },

    // --- control flow (offsets in words, relative to next pc) --------------
    Bu {
        off: i32,
    },
    Bt {
        s: Reg,
        off: i32,
    },
    Bf {
        s: Reg,
        off: i32,
    },
    /// Branch and link (call); lr = return address.
    Bl {
        off: i32,
    },
    /// Branch absolute (register holds byte address).
    Bau {
        s: Reg,
    },
    /// Return via lr.
    Ret,

    // --- resources and threads ---------------------------------------------
    GetR {
        d: Reg,
        ty: ResType,
    },
    FreeR {
        r: Reg,
    },
    /// Spawn a thread on this core: d = thread id, entry = byte address,
    /// arg becomes the new thread's r0. Condenses XS1's
    /// `getst/tsetpc/tseti/tstart` sequence (see `DESIGN.md` §5).
    TSpawn {
        d: Reg,
        entry: Reg,
        arg: Reg,
    },
    /// Terminate the current thread (`freet`).
    FreeT,
    /// Master synchronise on a barrier resource.
    MSync {
        r: Reg,
    },
    /// Slave synchronise on a barrier resource.
    SSync {
        r: Reg,
    },

    // --- channels, timers, locks, probes ------------------------------------
    /// Set the destination of a channel end (or parameter of a resource).
    SetD {
        r: Reg,
        s: Reg,
    },
    /// Output a 32-bit word to a resource.
    Out {
        r: Reg,
        s: Reg,
    },
    /// Output a single byte token.
    OutT {
        r: Reg,
        s: Reg,
    },
    /// Output a control token.
    OutCt {
        r: Reg,
        ct: ControlToken,
    },
    /// Input a 32-bit word from a resource (chanend, timer, lock, probe).
    In {
        d: Reg,
        r: Reg,
    },
    /// Input a single byte token.
    InT {
        d: Reg,
        r: Reg,
    },
    /// Check (consume) an expected control token; traps on mismatch.
    ChkCt {
        r: Reg,
        ct: ControlToken,
    },
    /// d = 1 if the next token on r is a control token, else 0 (peek).
    TestCt {
        d: Reg,
        r: Reg,
    },
    /// Block until the timer resource value is >= s.
    TmWait {
        r: Reg,
        s: Reg,
    },

    // --- events (the XS1 select mechanism) ----------------------------------
    /// Set a resource's event vector to a program-relative address.
    SetV {
        r: Reg,
        off: i32,
    },
    /// Enable events on a resource for the executing thread.
    Eeu {
        r: Reg,
    },
    /// Disable events on a resource.
    Edu {
        r: Reg,
    },
    /// Disable every event owned by the executing thread.
    ClrE,

    // --- miscellaneous -------------------------------------------------------
    Nop,
    /// Wait until an enabled event fires, vectoring to its handler; with
    /// no events enabled, idles the thread forever.
    Waiteu,
    /// Simulator service call.
    Hostcall {
        func: HostcallFn,
        s: Reg,
    },
}

/// Formats a word-offset branch target as it appears in assembly when no
/// label is available: `.+N` / `.-N` relative to the *next* instruction.
fn fmt_off(f: &mut fmt::Formatter<'_>, off: i32) -> fmt::Result {
    if off >= 0 {
        write!(f, ".+{off}")
    } else {
        write!(f, ".{off}")
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match *self {
            Add { d, a, b } => write!(f, "add {d}, {a}, {b}"),
            Sub { d, a, b } => write!(f, "sub {d}, {a}, {b}"),
            Mul { d, a, b } => write!(f, "mul {d}, {a}, {b}"),
            Divs { d, a, b } => write!(f, "divs {d}, {a}, {b}"),
            Divu { d, a, b } => write!(f, "divu {d}, {a}, {b}"),
            Rems { d, a, b } => write!(f, "rems {d}, {a}, {b}"),
            Remu { d, a, b } => write!(f, "remu {d}, {a}, {b}"),
            And { d, a, b } => write!(f, "and {d}, {a}, {b}"),
            Or { d, a, b } => write!(f, "or {d}, {a}, {b}"),
            Xor { d, a, b } => write!(f, "xor {d}, {a}, {b}"),
            Shl { d, a, b } => write!(f, "shl {d}, {a}, {b}"),
            Shr { d, a, b } => write!(f, "shr {d}, {a}, {b}"),
            Ashr { d, a, b } => write!(f, "ashr {d}, {a}, {b}"),
            Eq { d, a, b } => write!(f, "eq {d}, {a}, {b}"),
            Lss { d, a, b } => write!(f, "lss {d}, {a}, {b}"),
            Lsu { d, a, b } => write!(f, "lsu {d}, {a}, {b}"),
            Neg { d, a } => write!(f, "neg {d}, {a}"),
            Not { d, a } => write!(f, "not {d}, {a}"),
            Clz { d, a } => write!(f, "clz {d}, {a}"),
            Byterev { d, a } => write!(f, "byterev {d}, {a}"),
            Bitrev { d, a } => write!(f, "bitrev {d}, {a}"),
            AddI { d, a, imm } => write!(f, "add {d}, {a}, {imm}"),
            SubI { d, a, imm } => write!(f, "sub {d}, {a}, {imm}"),
            EqI { d, a, imm } => write!(f, "eq {d}, {a}, {imm}"),
            ShlI { d, a, imm } => write!(f, "shl {d}, {a}, {imm}"),
            ShrI { d, a, imm } => write!(f, "shr {d}, {a}, {imm}"),
            AshrI { d, a, imm } => write!(f, "ashr {d}, {a}, {imm}"),
            MkMskI { d, width } => write!(f, "mkmsk {d}, {width}"),
            MkMsk { d, s } => write!(f, "mkmsk {d}, {s}"),
            Sext { r, bits } => write!(f, "sext {r}, {bits}"),
            Zext { r, bits } => write!(f, "zext {r}, {bits}"),
            Ldc { d, imm } => write!(f, "ldc {d}, {imm}"),
            Ldw { d, base, off } => write!(f, "ldw {d}, {base}[{off}]"),
            Stw { s, base, off } => write!(f, "stw {s}, {base}[{off}]"),
            Ld16s { d, base, off } => write!(f, "ld16s {d}, {base}[{off}]"),
            Ld8u { d, base, off } => write!(f, "ld8u {d}, {base}[{off}]"),
            St16 { s, base, off } => write!(f, "st16 {s}, {base}[{off}]"),
            St8 { s, base, off } => write!(f, "st8 {s}, {base}[{off}]"),
            Ldaw { d, base, imm } => write!(f, "ldaw {d}, {base}[{imm}]"),
            Ldap { d, off } => {
                write!(f, "ldap {d}, ")?;
                fmt_off(f, off)
            }
            Bu { off } => {
                write!(f, "bu ")?;
                fmt_off(f, off)
            }
            Bt { s, off } => {
                write!(f, "bt {s}, ")?;
                fmt_off(f, off)
            }
            Bf { s, off } => {
                write!(f, "bf {s}, ")?;
                fmt_off(f, off)
            }
            Bl { off } => {
                write!(f, "bl ")?;
                fmt_off(f, off)
            }
            Bau { s } => write!(f, "bau {s}"),
            Ret => write!(f, "ret"),
            GetR { d, ty } => write!(f, "getr {d}, {ty}"),
            FreeR { r } => write!(f, "freer {r}"),
            TSpawn { d, entry, arg } => write!(f, "tspawn {d}, {entry}, {arg}"),
            FreeT => write!(f, "freet"),
            MSync { r } => write!(f, "msync {r}"),
            SSync { r } => write!(f, "ssync {r}"),
            SetD { r, s } => write!(f, "setd {r}, {s}"),
            Out { r, s } => write!(f, "out {r}, {s}"),
            OutT { r, s } => write!(f, "outt {r}, {s}"),
            OutCt { r, ct } => write!(f, "outct {r}, {ct}"),
            In { d, r } => write!(f, "in {d}, {r}"),
            InT { d, r } => write!(f, "int {d}, {r}"),
            ChkCt { r, ct } => write!(f, "chkct {r}, {ct}"),
            TestCt { d, r } => write!(f, "testct {d}, {r}"),
            TmWait { r, s } => write!(f, "tmwait {r}, {s}"),
            SetV { r, off } => {
                write!(f, "setv {r}, ")?;
                fmt_off(f, off)
            }
            Eeu { r } => write!(f, "eeu {r}"),
            Edu { r } => write!(f, "edu {r}"),
            ClrE => write!(f, "clre"),
            Nop => write!(f, "nop"),
            Waiteu => write!(f, "waiteu"),
            Hostcall { func, s } => match func {
                HostcallFn::PrintInt => write!(f, "print {s}"),
                HostcallFn::PrintChar => write!(f, "printc {s}"),
                HostcallFn::Halt => write!(f, "halt"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restype_code_round_trip() {
        for ty in ResType::ALL {
            assert_eq!(ResType::from_code(ty.code()), Some(ty));
        }
        assert_eq!(ResType::from_code(0xF), None);
    }

    #[test]
    fn control_token_keywords() {
        assert_eq!(ControlToken::END.to_string(), "end");
        assert_eq!(ControlToken::PAUSE.to_string(), "pause");
        assert_eq!(ControlToken(0x17).to_string(), "23");
    }

    #[test]
    fn display_matches_reference_forms() {
        assert_eq!(
            Instr::Ldw {
                d: Reg::R0,
                base: Reg::R1,
                off: MemOffset::Imm(3)
            }
            .to_string(),
            "ldw r0, r1[3]"
        );
        assert_eq!(Instr::Bu { off: -2 }.to_string(), "bu .-2");
        assert_eq!(Instr::Bu { off: 5 }.to_string(), "bu .+5");
        assert_eq!(
            Instr::GetR {
                d: Reg::R2,
                ty: ResType::Chanend
            }
            .to_string(),
            "getr r2, chanend"
        );
        assert_eq!(
            Instr::OutCt {
                r: Reg::R1,
                ct: ControlToken::END
            }
            .to_string(),
            "outct r1, end"
        );
    }
}
