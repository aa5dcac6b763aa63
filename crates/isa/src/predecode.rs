//! Decode-once instruction entries.
//!
//! Interpreting a core at speed means not re-deriving the same facts
//! about the same SRAM word millions of times. A [`Predecoded`] entry
//! packs everything the execution hot loop needs to know about one
//! instruction — the decoded [`Instr`], how many 32-bit words it
//! occupies, its fixed issue-slot count and its [`EnergyClass`] — so a
//! cache of entries (see `swallow-xcore`'s `decode_cache`) turns the
//! steady-state fetch/decode/classify path into a single array load.
//!
//! Everything in an entry is a pure function of the instruction words,
//! so caching entries can never change architectural behaviour: a cache
//! hit yields bit-identical state transitions, timing and energy charges
//! to a fresh [`decode`] (the invisibility argument in
//! DESIGN.md §3.11).

use crate::encode::{decode, DecodeError};
use crate::instr::Instr;
use crate::timing::{issue_cycles, EnergyClass};

/// One fully classified instruction: the decode result plus the derived
/// timing/energy facts the interpreter needs at every issue slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Predecoded {
    /// The decoded instruction.
    pub instr: Instr,
    /// 32-bit words the instruction occupies (1 or 2).
    pub words: u8,
    /// Issue slots the instruction holds the pipeline for
    /// ([`issue_cycles`]; at most 32, the iterative divider).
    pub issue_cycles: u8,
    /// Energy classification ([`EnergyClass::of`]).
    pub class: EnergyClass,
}

impl Predecoded {
    /// Classifies an already decoded instruction.
    pub fn of(instr: Instr, words: usize) -> Self {
        Predecoded {
            words: words as u8,
            issue_cycles: issue_cycles(&instr) as u8,
            class: EnergyClass::of(&instr),
            instr,
        }
    }
}

/// Decodes and classifies one instruction from `words`.
///
/// Equivalent to [`decode`] followed by [`Predecoded::of`].
///
/// # Errors
///
/// Returns the [`DecodeError`] from [`decode`] unchanged.
///
/// ```
/// use swallow_isa::{predecode, EnergyClass, Instr, Reg};
/// let words = [swallow_isa::encode(&Instr::Nop).unwrap().words()[0]];
/// let entry = predecode(&words).unwrap();
/// assert_eq!(entry.instr, Instr::Nop);
/// assert_eq!(entry.words, 1);
/// assert_eq!(entry.issue_cycles, 1);
/// assert_eq!(entry.class, EnergyClass::Idle);
/// ```
pub fn predecode(words: &[u32]) -> Result<Predecoded, DecodeError> {
    decode(words).map(|(instr, words)| Predecoded::of(instr, words))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::reg::Reg;

    #[test]
    fn entries_agree_with_decode_and_classifiers() {
        for instr in [
            Instr::Nop,
            Instr::Add {
                d: Reg::R0,
                a: Reg::R1,
                b: Reg::R2,
            },
            Instr::Divu {
                d: Reg::R0,
                a: Reg::R1,
                b: Reg::R2,
            },
            Instr::Ldc {
                d: Reg::R3,
                imm: 0xDEAD_BEEF,
            },
            Instr::Out {
                r: Reg::R0,
                s: Reg::R1,
            },
        ] {
            let enc = encode(&instr).expect("encodes");
            let entry = predecode(enc.words()).expect("decodes");
            let (fresh, words) = decode(enc.words()).expect("decodes");
            assert_eq!(entry.instr, fresh);
            assert_eq!(entry.words as usize, words);
            assert_eq!(entry.issue_cycles as u32, issue_cycles(&fresh));
            assert_eq!(entry.class, EnergyClass::of(&fresh));
        }
    }

    #[test]
    fn errors_pass_through() {
        assert_eq!(predecode(&[]), Err(DecodeError::Truncated));
    }
}
