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
        let mut on = busy_core(true);
        let mut off = busy_core(false);
        for &(kind, addr, raw, sel) in &ops {
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
                on.ledger().total().as_joules().to_bits()
                    == off.ledger().total().as_joules().to_bits(),
                "energy diverged: {} vs {} J",
                on.ledger().total().as_joules(),
                off.ledger().total().as_joules()
            );
        }
    }
}
