//! Snapshot codecs for the public core-local types.
//!
//! These helpers serialize the architectural pieces of a core — threads,
//! resource tables, tokens, trap records — into the hand-rolled binary
//! format of `swallow_sim::codec`. [`crate::Core`] stitches them together
//! (its own fields are private to `core.rs`); they live here so the
//! per-type framing is testable in isolation.
//!
//! Every decoder is strict: out-of-range tags, impossible indices and
//! overfull buffers are rejected with a [`CodecError`], never accepted
//! into a state the interpreter could later panic on.

use crate::resource::{Chanend, EventCfg, Lock, Probe, ResourceTable, Sync, CHANEND_BUF_TOKENS};
use crate::sram::MemError;
use crate::thread::{Block, Thread, ThreadState, MAX_THREADS};
use swallow_isa::{DecodeError, ResourceId, ThreadId, Token};
use swallow_sim::{ByteReader, ByteWriter, CodecError};

/// The `IllegalOp` trap strings this build knows how to round-trip. A
/// snapshot carrying any other string is rejected (strictness beats
/// guessing); extend this table when a new `IllegalOp` site is added.
const ILLEGAL_OPS: [&str; 4] = [
    "divide by zero",
    "eeu before setv",
    "edu before setv",
    "releasing a lock not held",
];

fn read_thread_id(r: &mut ByteReader<'_>) -> Result<ThreadId, CodecError> {
    let raw = r.u8()?;
    if (raw as usize) >= MAX_THREADS {
        return Err(CodecError::Invalid("thread id out of range"));
    }
    Ok(ThreadId(raw))
}

fn write_block(w: &mut ByteWriter, b: &Block) {
    match *b {
        Block::RecvTokens { chanend, need } => {
            w.u8(0);
            w.u8(chanend);
            w.u64(need as u64);
        }
        Block::SendSpace { chanend, need } => {
            w.u8(1);
            w.u8(chanend);
            w.u64(need as u64);
        }
        Block::Timer { until } => {
            w.u8(2);
            w.time(until);
        }
        Block::Lock { lock } => {
            w.u8(3);
            w.u8(lock);
        }
        Block::Barrier { sync } => {
            w.u8(4);
            w.u8(sync);
        }
        Block::Divide { until_cycle } => {
            w.u8(5);
            w.u64(until_cycle);
        }
        Block::Event { until } => {
            w.u8(6);
            w.time(until);
        }
    }
}

fn read_block(r: &mut ByteReader<'_>, dims: &TableDims) -> Result<Block, CodecError> {
    let need_in_range = |need: u64| {
        if need as usize > CHANEND_BUF_TOKENS {
            Err(CodecError::Invalid("blocked token need exceeds buffer"))
        } else {
            Ok(need as usize)
        }
    };
    let chanend_in_range = |idx: u8| {
        if idx as usize >= dims.chanends {
            Err(CodecError::Invalid("blocked chanend index out of range"))
        } else {
            Ok(idx)
        }
    };
    match r.u8()? {
        0 => Ok(Block::RecvTokens {
            chanend: chanend_in_range(r.u8()?)?,
            need: need_in_range(r.u64()?)?,
        }),
        1 => Ok(Block::SendSpace {
            chanend: chanend_in_range(r.u8()?)?,
            need: need_in_range(r.u64()?)?,
        }),
        2 => Ok(Block::Timer { until: r.time()? }),
        3 => {
            let lock = r.u8()?;
            if lock as usize >= dims.locks {
                return Err(CodecError::Invalid("blocked lock index out of range"));
            }
            Ok(Block::Lock { lock })
        }
        4 => {
            let sync = r.u8()?;
            if sync as usize >= dims.syncs {
                return Err(CodecError::Invalid("blocked sync index out of range"));
            }
            Ok(Block::Barrier { sync })
        }
        5 => Ok(Block::Divide {
            until_cycle: r.u64()?,
        }),
        6 => Ok(Block::Event { until: r.time()? }),
        _ => Err(CodecError::Invalid("block tag out of range")),
    }
}

pub(crate) fn write_thread(w: &mut ByteWriter, t: &Thread) {
    for &reg in &t.regs {
        w.u32(reg);
    }
    w.u32(t.pc);
    match &t.state {
        ThreadState::Free => w.u8(0),
        ThreadState::Ready => w.u8(1),
        ThreadState::Trapped => w.u8(2),
        ThreadState::Blocked(b) => {
            w.u8(3);
            write_block(w, b);
        }
    }
    w.u64(t.instret);
}

pub(crate) fn read_thread(r: &mut ByteReader<'_>, dims: &TableDims) -> Result<Thread, CodecError> {
    let mut regs = [0u32; 14];
    for reg in regs.iter_mut() {
        *reg = r.u32()?;
    }
    let pc = r.u32()?;
    let state = match r.u8()? {
        0 => ThreadState::Free,
        1 => ThreadState::Ready,
        2 => ThreadState::Trapped,
        3 => ThreadState::Blocked(read_block(r, dims)?),
        _ => return Err(CodecError::Invalid("thread state tag out of range")),
    };
    let instret = r.u64()?;
    Ok(Thread {
        regs,
        pc,
        state,
        instret,
    })
}

fn write_event_cfg(w: &mut ByteWriter, cfg: &Option<EventCfg>) {
    match cfg {
        None => w.u8(0),
        Some(cfg) => {
            w.u8(1);
            w.u32(cfg.vector);
            w.u8(cfg.owner.0);
            w.bool(cfg.enabled);
        }
    }
}

fn read_event_cfg(r: &mut ByteReader<'_>) -> Result<Option<EventCfg>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(EventCfg {
            vector: r.u32()?,
            owner: read_thread_id(r)?,
            enabled: r.bool()?,
        })),
        _ => Err(CodecError::Invalid("event config tag out of range")),
    }
}

fn write_chanend(w: &mut ByteWriter, ch: &Chanend) {
    match ch.dest {
        None => w.u8(0),
        Some(rid) => {
            w.u8(1);
            w.u32(rid.raw());
        }
    }
    w.u64(ch.out_buf.len() as u64);
    for (t, dest) in &ch.out_buf {
        w.u16(u16::from(*t));
        w.u32(dest.raw());
    }
    w.u64(ch.in_buf.len() as u64);
    for t in &ch.in_buf {
        w.u16(u16::from(*t));
    }
    write_event_cfg(w, &ch.event);
}

fn read_chanend(r: &mut ByteReader<'_>) -> Result<Chanend, CodecError> {
    let dest = match r.u8()? {
        0 => None,
        1 => Some(ResourceId::from_raw(r.u32()?)),
        _ => return Err(CodecError::Invalid("chanend dest tag out of range")),
    };
    let mut ch = Chanend {
        dest,
        ..Chanend::default()
    };
    let out_len = r.len_prefixed(3)?;
    if out_len > CHANEND_BUF_TOKENS {
        return Err(CodecError::Invalid("chanend output buffer overfull"));
    }
    for _ in 0..out_len {
        let t = Token::try_from(r.u16()?)?;
        let dest = ResourceId::from_raw(r.u32()?);
        ch.out_buf.push_back((t, dest));
    }
    let in_len = r.len_prefixed(2)?;
    if in_len > CHANEND_BUF_TOKENS {
        return Err(CodecError::Invalid("chanend input buffer overfull"));
    }
    for _ in 0..in_len {
        ch.in_buf.push_back(Token::try_from(r.u16()?)?);
    }
    ch.event = read_event_cfg(r)?;
    Ok(ch)
}

fn write_slots<T>(w: &mut ByteWriter, slots: &[Option<T>], enc: impl Fn(&mut ByteWriter, &T)) {
    w.u64(slots.len() as u64);
    for slot in slots {
        match slot {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                enc(w, v);
            }
        }
    }
}

fn read_slots<T>(
    r: &mut ByteReader<'_>,
    expected: usize,
    mut dec: impl FnMut(&mut ByteReader<'_>) -> Result<T, CodecError>,
) -> Result<Vec<Option<T>>, CodecError> {
    let len = r.len_prefixed(1)?;
    if len != expected {
        return Err(CodecError::Invalid("resource table size mismatch"));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(match r.u8()? {
            0 => None,
            1 => Some(dec(r)?),
            _ => return Err(CodecError::Invalid("resource slot tag out of range")),
        });
    }
    Ok(out)
}

/// Slot counts of a resource table, used to validate decoded indices.
pub(crate) struct TableDims {
    pub chanends: usize,
    pub timers: usize,
    pub syncs: usize,
    pub locks: usize,
    pub probes: usize,
}

impl TableDims {
    pub(crate) fn of(table: &ResourceTable) -> Self {
        TableDims {
            chanends: table.chanends.len(),
            timers: table.timers.len(),
            syncs: table.syncs.len(),
            locks: table.locks.len(),
            probes: table.probes.len(),
        }
    }
}

pub(crate) fn write_resources(w: &mut ByteWriter, table: &ResourceTable) {
    write_slots(w, &table.chanends, write_chanend);
    write_slots(w, &table.timers, |w, t| {
        match t.threshold {
            None => w.u8(0),
            Some(thr) => {
                w.u8(1);
                w.u32(thr);
            }
        }
        write_event_cfg(w, &t.event);
    });
    write_slots(w, &table.syncs, |w, s| {
        w.u32(s.expected);
        w.u64(s.waiting.len() as u64);
        for &tid in &s.waiting {
            w.u8(tid.0);
        }
    });
    write_slots(w, &table.locks, |w, l| {
        match l.held_by {
            None => w.u8(0),
            Some(tid) => {
                w.u8(1);
                w.u8(tid.0);
            }
        }
        w.u64(l.queue.len() as u64);
        for &tid in &l.queue {
            w.u8(tid.0);
        }
    });
    write_slots(w, &table.probes, |w, p| w.u8(p.channel));
}

pub(crate) fn read_resources(
    r: &mut ByteReader<'_>,
    dims: &TableDims,
) -> Result<ResourceTable, CodecError> {
    let chanends = read_slots(r, dims.chanends, read_chanend)?;
    let timers = read_slots(r, dims.timers, |r| {
        let threshold = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            _ => return Err(CodecError::Invalid("timer threshold tag out of range")),
        };
        Ok(crate::resource::Timer {
            threshold,
            event: read_event_cfg(r)?,
        })
    })?;
    let syncs = read_slots(r, dims.syncs, |r| {
        let expected = r.u32()?;
        let len = r.len_prefixed(1)?;
        if len > MAX_THREADS {
            return Err(CodecError::Invalid("sync wait queue overfull"));
        }
        let mut waiting = Vec::with_capacity(len);
        for _ in 0..len {
            waiting.push(read_thread_id(r)?);
        }
        Ok(Sync { expected, waiting })
    })?;
    let locks = read_slots(r, dims.locks, |r| {
        let held_by = match r.u8()? {
            0 => None,
            1 => Some(read_thread_id(r)?),
            _ => return Err(CodecError::Invalid("lock owner tag out of range")),
        };
        let len = r.len_prefixed(1)?;
        if len > MAX_THREADS {
            return Err(CodecError::Invalid("lock queue overfull"));
        }
        let mut lock = Lock {
            held_by,
            ..Lock::default()
        };
        for _ in 0..len {
            lock.queue.push_back(read_thread_id(r)?);
        }
        Ok(lock)
    })?;
    let probes = read_slots(r, dims.probes, |r| {
        let channel = r.u8()?;
        if channel as usize >= crate::core::PROBE_CHANNELS {
            return Err(CodecError::Invalid("probe channel out of range"));
        }
        Ok(Probe { channel })
    })?;
    Ok(ResourceTable {
        chanends,
        timers,
        syncs,
        locks,
        probes,
    })
}

fn write_mem_error(w: &mut ByteWriter, e: &MemError) {
    match *e {
        MemError::OutOfBounds { addr, width } => {
            w.u8(0);
            w.u32(addr);
            w.u8(width);
        }
        MemError::Misaligned { addr, width } => {
            w.u8(1);
            w.u32(addr);
            w.u8(width);
        }
    }
}

fn read_mem_error(r: &mut ByteReader<'_>) -> Result<MemError, CodecError> {
    let tag = r.u8()?;
    let addr = r.u32()?;
    let width = r.u8()?;
    match tag {
        0 => Ok(MemError::OutOfBounds { addr, width }),
        1 => Ok(MemError::Misaligned { addr, width }),
        _ => Err(CodecError::Invalid("memory error tag out of range")),
    }
}

fn write_decode_error(w: &mut ByteWriter, e: &DecodeError) {
    match *e {
        DecodeError::BadOpcode(op) => {
            w.u8(0);
            w.u8(op);
        }
        DecodeError::BadRegister(reg) => {
            w.u8(1);
            w.u8(reg);
        }
        DecodeError::BadResType(code) => {
            w.u8(2);
            w.u8(code);
        }
        DecodeError::BadHostcall(func) => {
            w.u8(3);
            w.u16(func);
        }
        DecodeError::Truncated => w.u8(4),
        DecodeError::BadAddress(addr) => {
            w.u8(5);
            w.u32(addr);
        }
        DecodeError::BadImmediate(imm) => {
            w.u8(6);
            w.u16(imm);
        }
        DecodeError::NonCanonical(word) => {
            w.u8(7);
            w.u32(word);
        }
    }
}

fn read_decode_error(r: &mut ByteReader<'_>) -> Result<DecodeError, CodecError> {
    match r.u8()? {
        0 => Ok(DecodeError::BadOpcode(r.u8()?)),
        1 => Ok(DecodeError::BadRegister(r.u8()?)),
        2 => Ok(DecodeError::BadResType(r.u8()?)),
        3 => Ok(DecodeError::BadHostcall(r.u16()?)),
        4 => Ok(DecodeError::Truncated),
        5 => Ok(DecodeError::BadAddress(r.u32()?)),
        6 => Ok(DecodeError::BadImmediate(r.u16()?)),
        7 => Ok(DecodeError::NonCanonical(r.u32()?)),
        _ => Err(CodecError::Invalid("decode error tag out of range")),
    }
}

pub(crate) fn write_trap_cause(w: &mut ByteWriter, cause: &crate::TrapCause) {
    use crate::TrapCause;
    match cause {
        TrapCause::Mem(e) => {
            w.u8(0);
            write_mem_error(w, e);
        }
        TrapCause::Decode(e) => {
            w.u8(1);
            write_decode_error(w, e);
        }
        TrapCause::BadResource { raw } => {
            w.u8(2);
            w.u32(*raw);
        }
        TrapCause::CtMismatch { expected, got } => {
            w.u8(3);
            w.u8(*expected);
            w.u16(u16::from(*got));
        }
        TrapCause::DataExpected { got } => {
            w.u8(4);
            w.u16(u16::from(*got));
        }
        TrapCause::NoDest { chanend } => {
            w.u8(5);
            w.u8(*chanend);
        }
        TrapCause::IllegalOp(what) => {
            w.u8(6);
            w.str_prefixed(what);
        }
    }
}

pub(crate) fn read_trap_cause(r: &mut ByteReader<'_>) -> Result<crate::TrapCause, CodecError> {
    use crate::TrapCause;
    match r.u8()? {
        0 => Ok(TrapCause::Mem(read_mem_error(r)?)),
        1 => Ok(TrapCause::Decode(read_decode_error(r)?)),
        2 => Ok(TrapCause::BadResource { raw: r.u32()? }),
        3 => Ok(TrapCause::CtMismatch {
            expected: r.u8()?,
            got: Token::try_from(r.u16()?)?,
        }),
        4 => Ok(TrapCause::DataExpected {
            got: Token::try_from(r.u16()?)?,
        }),
        5 => Ok(TrapCause::NoDest { chanend: r.u8()? }),
        6 => {
            let what = r.str_prefixed()?;
            ILLEGAL_OPS
                .iter()
                .find(|&&known| known == what)
                .map(|&known| TrapCause::IllegalOp(known))
                .ok_or(CodecError::Invalid("unknown illegal-op trap string"))
        }
        _ => Err(CodecError::Invalid("trap cause tag out of range")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrapCause;
    use swallow_isa::{NodeId, ResType};
    use swallow_sim::Time;

    fn dims() -> TableDims {
        TableDims {
            chanends: 32,
            timers: 10,
            syncs: 7,
            locks: 4,
            probes: 2,
        }
    }

    #[test]
    fn thread_round_trips_every_state() {
        let states = [
            ThreadState::Free,
            ThreadState::Ready,
            ThreadState::Trapped,
            ThreadState::Blocked(Block::RecvTokens {
                chanend: 3,
                need: 4,
            }),
            ThreadState::Blocked(Block::SendSpace {
                chanend: 31,
                need: 1,
            }),
            ThreadState::Blocked(Block::Timer {
                until: Time::from_ps(123_456),
            }),
            ThreadState::Blocked(Block::Lock { lock: 2 }),
            ThreadState::Blocked(Block::Barrier { sync: 6 }),
            ThreadState::Blocked(Block::Divide { until_cycle: 99 }),
            ThreadState::Blocked(Block::Event { until: Time::MAX }),
        ];
        for state in states {
            let mut t = Thread::free();
            t.regs[0] = 0xDEAD_BEEF;
            t.regs[13] = 42;
            t.pc = 0x104;
            t.instret = 7;
            t.state = state;
            let mut w = ByteWriter::new();
            write_thread(&mut w, &t);
            let bytes = w.finish();
            let mut r = ByteReader::new(&bytes);
            let back = read_thread(&mut r, &dims()).expect("round trip");
            assert_eq!(r.expect_end(), Ok(()));
            assert_eq!(back, t);
        }
    }

    #[test]
    fn out_of_range_block_indices_are_rejected() {
        let mut t = Thread::free();
        t.state = ThreadState::Blocked(Block::Lock { lock: 200 });
        let mut w = ByteWriter::new();
        write_thread(&mut w, &t);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert!(read_thread(&mut r, &dims()).is_err());
    }

    #[test]
    fn resource_table_round_trips() {
        let mut table = ResourceTable::new(32, 10, 7, 4, 2);
        let ch = table.alloc(ResType::Chanend).expect("chanend");
        let dest = ResourceId::new(NodeId(3), 5, ResType::Chanend);
        {
            let ch = table.chanend_mut(ch).expect("live");
            ch.dest = Some(dest);
            ch.out_buf.push_back((Token::Data(9), dest));
            ch.in_buf
                .push_back(Token::Ctrl(swallow_isa::ControlToken::END));
            ch.event = Some(EventCfg {
                vector: 0x40,
                owner: ThreadId(1),
                enabled: true,
            });
        }
        table.alloc(ResType::Timer).expect("timer");
        table.timers[0].as_mut().expect("live").threshold = Some(777);
        table.alloc(ResType::Sync).expect("sync");
        table.syncs[0].as_mut().expect("live").expected = 3;
        table.syncs[0]
            .as_mut()
            .expect("live")
            .waiting
            .push(ThreadId(2));
        table.alloc(ResType::Lock).expect("lock");
        table.locks[0].as_mut().expect("live").held_by = Some(ThreadId(4));
        table.alloc(ResType::PowerProbe).expect("probe");
        table.probes[0].as_mut().expect("live").channel = 4;

        let mut w = ByteWriter::new();
        write_resources(&mut w, &table);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let back = read_resources(&mut r, &TableDims::of(&table)).expect("round trip");
        assert_eq!(r.expect_end(), Ok(()));
        let ch_back = back.chanend(ch).expect("live");
        assert_eq!(ch_back.dest, Some(dest));
        assert_eq!(ch_back.out_buf.len(), 1);
        assert_eq!(ch_back.in_buf.len(), 1);
        assert_eq!(
            ch_back.event,
            Some(EventCfg {
                vector: 0x40,
                owner: ThreadId(1),
                enabled: true,
            })
        );
        assert_eq!(back.timers[0].as_ref().expect("live").threshold, Some(777));
        assert_eq!(back.syncs[0].as_ref().expect("live").expected, 3);
        assert_eq!(
            back.locks[0].as_ref().expect("live").held_by,
            Some(ThreadId(4))
        );
        assert_eq!(back.probes[0].as_ref().expect("live").channel, 4);
    }

    #[test]
    fn trap_causes_round_trip() {
        let causes = [
            TrapCause::Mem(MemError::OutOfBounds {
                addr: 0x1_0000,
                width: 4,
            }),
            TrapCause::Mem(MemError::Misaligned { addr: 3, width: 2 }),
            TrapCause::Decode(DecodeError::BadOpcode(0xFF)),
            TrapCause::Decode(DecodeError::Truncated),
            TrapCause::BadResource { raw: 0xABCD },
            TrapCause::CtMismatch {
                expected: 1,
                got: Token::Data(9),
            },
            TrapCause::DataExpected {
                got: Token::Ctrl(swallow_isa::ControlToken::PAUSE),
            },
            TrapCause::NoDest { chanend: 5 },
            TrapCause::IllegalOp("divide by zero"),
            TrapCause::IllegalOp("releasing a lock not held"),
        ];
        for cause in causes {
            let mut w = ByteWriter::new();
            write_trap_cause(&mut w, &cause);
            let bytes = w.finish();
            let mut r = ByteReader::new(&bytes);
            let back = read_trap_cause(&mut r).expect("round trip");
            assert_eq!(r.expect_end(), Ok(()));
            assert_eq!(back, cause);
        }
    }

    #[test]
    fn unknown_illegal_op_string_is_rejected() {
        let mut w = ByteWriter::new();
        w.u8(6);
        w.str_prefixed("some future trap");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            read_trap_cause(&mut r),
            Err(CodecError::Invalid("unknown illegal-op trap string"))
        );
    }
}
