//! The experiment implementations, one module per paper artefact.

pub mod ablation;
pub mod ec_ratio;
pub mod eq2;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fleet;
pub mod latency;
pub mod overhead;
pub mod proportionality;
pub mod resilience;
pub mod system_power;
pub mod table1;

use swallow::{Assembler, Program};

/// A program whose steady-state instruction mix matches the power model's
/// calibrated heavy load (`swallow_energy::core_power::HEAVY_MIX`): per 20
/// issue slots — 9 ALU, 5 memory, 1 multiply, 2 communication (timer
/// reads) and 3 branches. `threads` hardware threads run it (1–8); with
/// four or more, the core sits exactly on the paper's Eq. 1 line.
pub fn heavy_mix_program(threads: usize) -> Program {
    assert!((1..=8).contains(&threads), "threads must be 1..=8");
    let spawners = threads - 1;
    let src = format!(
        "
            ldc   r5, {spawners}
            ldap  r6, worker
        spawn:
            bf    r5, mstart
            tspawn r7, r6, r5
            sub   r5, r5, 1
            bu    spawn
        mstart:
            ldc   r0, 0
        worker:                  # r0 = thread index
            getr  r11, timer
            shl   r10, r0, 6
            ldc   r9, 0x1000
            add   r10, r10, r9
            ldc   r0, 0
        mix:
            add   r1, r1, 1
            add   r2, r2, r1
            xor   r3, r3, r1
            shl   r4, r1, 3
            and   r5, r3, r4
            or    r6, r5, r2
            sub   r7, r6, r1
            add   r8, r8, r7
            add   r2, r2, 1
            ldw   r9, r10[0]
            stw   r9, r10[1]
            ldw   r9, r10[2]
            stw   r9, r10[3]
            ld8u  r9, r10[0]
            mul   r9, r1, r2
            in    r9, r11
            in    r9, r11
            bt    r0, mix
            bt    r0, mix
            bu    mix
        "
    );
    Assembler::new()
        .assemble(&src)
        .expect("heavy mix assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow::isa::NodeId;
    use swallow::xcore::{Core, CoreConfig};

    #[test]
    fn heavy_mix_hits_eq1_power() {
        let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
        core.load_program(&heavy_mix_program(4)).expect("fits");
        // Warm up, then measure.
        for _ in 0..2_000 {
            core.tick(core.next_tick_at());
        }
        let e0 = core.ledger().total();
        let cycles = 40_000u64;
        for _ in 0..cycles {
            core.tick(core.next_tick_at());
        }
        let span = swallow::TimeDelta::from_ps(cycles * 2_000);
        let power = (core.ledger().total() - e0).over(span).as_milliwatts();
        // Eq. 1 at 500 MHz: 196 mW.
        assert!((power - 196.0).abs() < 3.0, "heavy mix power = {power} mW");
        assert!(core.trap().is_none(), "trap: {:?}", core.trap());
    }
}
