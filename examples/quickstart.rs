//! Quickstart: boot a 16-core Swallow slice, run a program on one core,
//! exchange a message between two cores, and read the energy report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use swallow_repro::swallow::{Assembler, NodeId, SystemBuilder, TimeDelta};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One Swallow slice: eight XS1-L2A packages, sixteen cores, unwoven
    // lattice network, five-supply power tree.
    let mut system = SystemBuilder::new().slices(1, 1).build()?;
    println!("booted {} cores", system.core_count());

    // Core 0 computes 6 × 7 and sends the result to core 8 (its vertical
    // neighbour, one board link South). Core 8 prints whatever arrives.
    let sender = Assembler::new().assemble(
        "
            getr  r0, chanend        # allocate a channel end
            ldc   r1, 0x00080002     # core 8's first chanend (node<<16|type)
            setd  r0, r1             # aim it
            ldc   r2, 6
            ldc   r3, 7
            mul   r4, r2, r3
            out   r0, r4             # 32-bit word -> 4 tokens on the wire
            outct r0, end            # close the route (wormhole release)
            freet
        ",
    )?;
    let receiver = Assembler::new().assemble(
        "
            getr  r0, chanend
            in    r1, r0             # blocks until the word arrives
            chkct r0, end
            print r1
            freet
        ",
    )?;
    system.load_program(NodeId(0), &sender)?;
    system.load_program(NodeId(8), &receiver)?;

    let finished = system.run_until_quiescent(TimeDelta::from_us(100));
    assert!(finished, "programs should drain quickly");
    println!("core 8 printed: {}", system.output(NodeId(8)).trim());

    // Energy transparency: every joule of the run is attributed.
    println!("\n{}", system.run_report());
    Ok(())
}
