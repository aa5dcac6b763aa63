//! Shared leaf helpers for the board-level snapshot codecs.
//!
//! The per-component codecs live next to the private state they
//! serialize (`Machine` in `machine.rs`, `PowerMonitor` in `power.rs`,
//! the bridge in `ethernet.rs`, the fault engine in `resilience.rs`, the
//! metrics hub in `metrics.rs`); this module only holds the energy,
//! power and fault-counter encoders they share. Instants, spans and
//! tokens use the one codec every crate shares: [`ByteWriter::time`],
//! [`ByteWriter::delta`] and `Token`'s `u16` wire form. Every reader
//! validates what it decodes — non-finite floats, zero frequencies and
//! malformed tokens are rejected with a [`CodecError`], never accepted
//! or panicked on.

use swallow_energy::{Energy, Power};
use swallow_faults::FaultCounters;
use swallow_sim::{ByteReader, ByteWriter, CodecError};

pub(crate) fn write_energy(w: &mut ByteWriter, e: Energy) {
    w.f64_bits(e.as_joules());
}

pub(crate) fn read_energy(r: &mut ByteReader<'_>) -> Result<Energy, CodecError> {
    Ok(Energy::from_joules(r.finite_f64()?))
}

pub(crate) fn write_power(w: &mut ByteWriter, p: Power) {
    w.f64_bits(p.as_watts());
}

pub(crate) fn read_power(r: &mut ByteReader<'_>) -> Result<Power, CodecError> {
    Ok(Power::from_watts(r.finite_f64()?))
}

pub(crate) fn write_counters(w: &mut ByteWriter, c: &FaultCounters) {
    w.u64(c.link_downs);
    w.u64(c.link_ups);
    w.u64(c.retransmits);
    w.u64(c.dropped_tokens);
    w.u64(c.delivered_tokens);
    w.u64(c.core_stalls);
    w.u64(c.core_kills);
    w.u64(c.quarantined_cores);
    w.u64(c.brownouts);
    w.u64(c.reroutes);
}

pub(crate) fn read_counters(r: &mut ByteReader<'_>) -> Result<FaultCounters, CodecError> {
    Ok(FaultCounters {
        link_downs: r.u64()?,
        link_ups: r.u64()?,
        retransmits: r.u64()?,
        dropped_tokens: r.u64()?,
        delivered_tokens: r.u64()?,
        core_stalls: r.u64()?,
        core_kills: r.u64()?,
        quarantined_cores: r.u64()?,
        brownouts: r.u64()?,
        reroutes: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_round_trip() {
        let mut w = ByteWriter::new();
        let counters = FaultCounters {
            link_downs: 3,
            reroutes: 2,
            ..FaultCounters::default()
        };
        write_counters(&mut w, &counters);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_counters(&mut r).unwrap(), counters);
        r.expect_end().unwrap();
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        let mut w = ByteWriter::new();
        w.f64_bits(f64::NAN);
        let bytes = w.finish();
        assert!(read_energy(&mut ByteReader::new(&bytes)).is_err());
        assert!(read_power(&mut ByteReader::new(&bytes)).is_err());
    }
}
