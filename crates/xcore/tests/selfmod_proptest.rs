//! Self-modifying code vs the predecoded-instruction cache.
//!
//! Two identical cores — one with the cache on, one with it off — run
//! the same program through random interleavings of execution and code
//! stores (32-, 16- and 8-bit, via the same SRAM write funnels every
//! store uses). After every operation the two must agree on retired
//! instructions, output, trap state, architectural memory and energy:
//! any stale cache entry would split them at the first affected fetch.

use swallow_isa::{encode, Assembler, Instr, NodeId, Reg};
use swallow_testkit::proptest::prelude::*;
use swallow_xcore::{Core, CoreConfig};

/// Stores land in the first `CODE_BYTES` of SRAM, where the loop lives.
const CODE_BYTES: u32 = 64;

/// Single-word instructions stores may splice into the loop body.
fn palette_word(sel: usize) -> u32 {
    let instr = match sel {
        0 => Instr::Nop,
        1 => Instr::Add {
            d: Reg::R1,
            a: Reg::R1,
            b: Reg::R2,
        },
        2 => Instr::Sub {
            d: Reg::R3,
            a: Reg::R1,
            b: Reg::R2,
        },
        3 => Instr::Xor {
            d: Reg::R2,
            a: Reg::R2,
            b: Reg::R1,
        },
        _ => Instr::Mul {
            d: Reg::R4,
            a: Reg::R1,
            b: Reg::R2,
        },
    };
    encode(&instr).expect("palette encodes").words()[0]
}

fn busy_core(decode_cache: bool) -> Core {
    // An eight-nop loop body: every word is a valid splice target, and
    // the trailing branch keeps thread 0 executing forever (unless a
    // store clobbers it — then both cores fall off identically).
    let program = Assembler::new()
        .assemble(
            "
                ldc   r1, 3
                ldc   r2, 5
            loop:
                nop
                nop
                nop
                nop
                nop
                nop
                nop
                nop
                bu    loop
            ",
        )
        .expect("assembles");
    let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
    core.set_decode_cache(decode_cache);
    core.load_program(&program).expect("fits");
    core
}

/// Byte address of the code [`upper_core`] stores above its image.
const UPPER: u32 = 0x400;

/// A core whose loop jumps to code it never loaded: before the first
/// edge, a stub of nops, a two-word `ldc` and a branch back is stored at
/// [`UPPER`], far above the loaded image, so its fetches fill the decode
/// table well past the words the image covers, and stores can land in
/// the extension word of a two-word entry.
fn upper_core(decode_cache: bool) -> Core {
    let program = Assembler::new()
        .assemble(&format!(
            "
                ldc   r1, 3
                ldc   r2, 5
                ldc   r5, {UPPER}
                ldap  r6, loop
            loop:
                nop
                bau   r5
            "
        ))
        .expect("assembles");
    let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
    core.set_decode_cache(decode_cache);
    core.load_program(&program).expect("fits");
    assert!(program.len_bytes() < UPPER, "stub lies above the image");
    let wide = encode(&Instr::Ldc {
        d: Reg::R7,
        imm: 0x1234_5678,
    })
    .expect("encodes");
    let back = encode(&Instr::Bau { s: Reg::R6 }).expect("encodes");
    let tail = [wide.words(), back.words()].concat();
    let nops = (CODE_BYTES / 4) as usize - tail.len();
    let stub = std::iter::repeat_n(palette_word(0), nops).chain(tail);
    for (i, word) in stub.enumerate() {
        core.sram_mut()
            .write_u32(UPPER + 4 * i as u32, word)
            .expect("in bounds");
    }
    core
}

#[test]
fn stored_code_above_the_image_runs() {
    // Without stores, the loop runs through the stub indefinitely: ten
    // trips retire well over a hundred instructions and never trap.
    let mut core = upper_core(true);
    for _ in 0..2_000 {
        core.tick(core.next_tick_at());
    }
    assert_eq!(core.trap(), None);
    assert!(core.instret() > 100, "retired {}", core.instret());
}

/// Runs `ops` on both cores, with every store landing at `base` plus
/// the op's offset, and demands they agree after each one.
fn agree_under_code_stores(
    mut on: Core,
    mut off: Core,
    base: u32,
    ops: &[(u8, u32, u32, usize)],
) -> Result<(), String> {
    for &(kind, offset, raw, sel) in ops {
        let addr = base + offset;
        match kind {
            // A burst of clock edges (1..=24) on both cores.
            0 => {
                for _ in 0..(raw % 24 + 1) {
                    on.tick(on.next_tick_at());
                    off.tick(off.next_tick_at());
                }
            }
            // Word store: usually a valid instruction, sometimes a
            // raw word (both cores trap identically on garbage).
            1 => {
                let a = addr & !3;
                let w = if sel == 4 { raw } else { palette_word(sel) };
                prop_assert_eq!(
                    on.sram_mut().write_u32(a, w),
                    off.sram_mut().write_u32(a, w)
                );
            }
            // Partial-word stores into instruction words.
            2 => {
                let a = addr & !1;
                prop_assert_eq!(
                    on.sram_mut().write_u16(a, raw as u16),
                    off.sram_mut().write_u16(a, raw as u16)
                );
            }
            _ => {
                prop_assert_eq!(
                    on.sram_mut().write_u8(addr, raw as u8),
                    off.sram_mut().write_u8(addr, raw as u8)
                );
            }
        }
        prop_assert_eq!(on.instret(), off.instret());
        prop_assert_eq!(on.output(), off.output());
        prop_assert_eq!(on.trap(), off.trap());
        prop_assert_eq!(on.is_quiescent(), off.is_quiescent());
        prop_assert!(on.sram() == off.sram(), "architectural SRAM diverged");
        prop_assert!(
            on.ledger().total().as_joules().to_bits() == off.ledger().total().as_joules().to_bits(),
            "energy diverged: {} vs {} J",
            on.ledger().total().as_joules(),
            off.ledger().total().as_joules()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random (tick* | store)* interleavings: cache on ≡ cache off.
    #[test]
    fn cache_is_invisible_under_code_stores(
        ops in proptest::collection::vec(
            (0u8..4, 0u32..CODE_BYTES, any::<u32>(), 0usize..5),
            1..40,
        ),
    ) {
        agree_under_code_stores(busy_core(true), busy_core(false), 0, &ops)?;
    }

    /// The same interleavings on code stored above the loaded image:
    /// its fills land past the table's end, so the table grows under
    /// execution and stores at and just past its end must invalidate.
    #[test]
    fn cache_is_invisible_under_stores_to_code_above_the_image(
        ops in proptest::collection::vec(
            (0u8..4, 0u32..CODE_BYTES, any::<u32>(), 0usize..5),
            1..40,
        ),
    ) {
        agree_under_code_stores(upper_core(true), upper_core(false), UPPER, &ops)?;
    }
}
