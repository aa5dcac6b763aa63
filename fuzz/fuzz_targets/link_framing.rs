//! Token-level link framing: the fabric's state codec carries every
//! link's in-flight token queue, receive buffer and fault windows. An
//! arbitrary byte stream fed to `restore_state` must either decode
//! cleanly or be rejected with a `CodecError` — never panic — and any
//! state it *does* accept must re-encode and restore again (the decoder
//! accepts only states the encoder can represent).

use swallow::energy::WireClass;
use swallow::noc::{Direction, Fabric, FabricBuilder, LinkParams, TableRouter};
use swallow::sim::{ByteReader, ByteWriter};
use swallow::NodeId;
use swallow_fuzz::fuzz_target;

fn small_fabric() -> Fabric {
    let mut b = FabricBuilder::new(3);
    b.link_two_way(
        NodeId(0),
        NodeId(1),
        Direction::East,
        LinkParams::from_class(WireClass::OnChip),
    );
    b.link_two_way(
        NodeId(1),
        NodeId(2),
        Direction::East,
        LinkParams::from_class(WireClass::OnChip),
    );
    let router = TableRouter::shortest_paths(3, b.link_descs());
    b.build(router)
}

fuzz_target!(
    seeds = {
        // A freshly-encoded pristine fabric: mutations of a *valid*
        // frame probe much deeper than random bytes.
        let mut w = ByteWriter::new();
        small_fabric().encode_state(&mut w);
        vec![w.finish()]
    },
    |data: &[u8]| {
        let mut fabric = small_fabric();
        if fabric.restore_state(&mut ByteReader::new(data)).is_ok() {
            // Accepted frames must round-trip: encode what was restored
            // and restore it again into a second fabric.
            let mut w = ByteWriter::new();
            fabric.encode_state(&mut w);
            let bytes = w.finish();
            small_fabric()
                .restore_state(&mut ByteReader::new(&bytes))
                .expect("re-encoded fabric state must restore");
        }
    }
);
