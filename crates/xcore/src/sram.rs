//! The 64 KiB single-cycle unified SRAM.
//!
//! The XS1-L has no cache and no external memory: every core owns 64 KiB
//! of SRAM serving both instructions and data in a single cycle. That
//! uniformity is one of the two pillars of Swallow's time determinism
//! (Table II), so the model is deliberately boring: flat bytes, checked
//! alignment, checked bounds, fixed latency.
//!
//! The *simulator* does keep one piece of derived state here: the
//! [`DecodeCache`] of predecoded instruction entries ([`Sram::fetch`]).
//! It lives inside the SRAM so that every write funnel invalidates it —
//! there is no way to change a byte without the cache seeing it — and it
//! is excluded from `PartialEq`, which compares architectural bytes
//! only. See `decode_cache` for the invisibility argument.

use crate::decode_cache::DecodeCache;
use std::fmt;
use swallow_isa::{predecode, DecodeError, Predecoded};
use swallow_sim::{ByteReader, ByteWriter, CodecError};

/// Default SRAM size per core (64 KiB, §IV.A).
pub const DEFAULT_SRAM_BYTES: u32 = 64 * 1024;

/// Granule of the sparse SRAM image a snapshot stores
/// ([`Sram::encode_blocks`]): only blocks holding a non-zero byte are
/// written.
const SNAPSHOT_BLOCK_BYTES: usize = 256;

/// True when every byte is zero, read a machine word at a time.
fn all_zero(bytes: &[u8]) -> bool {
    let (words, tail) = bytes.as_chunks::<8>();
    words.iter().fold(0, |acc, w| acc | u64::from_ne_bytes(*w)) == 0 && tail.iter().all(|&b| b == 0)
}

/// Zeroes `bytes`, writing only when one is set, so restoring into a
/// fresh SRAM touches none of the pages that stay zero.
fn clear(bytes: &mut [u8]) {
    if !all_zero(bytes) {
        bytes.fill(0);
    }
}

/// A memory access fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Address beyond the end of SRAM.
    OutOfBounds {
        /// The faulting byte address.
        addr: u32,
        /// The access width in bytes.
        width: u8,
    },
    /// Address not aligned to the access width.
    Misaligned {
        /// The faulting byte address.
        addr: u32,
        /// The access width in bytes.
        width: u8,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, width } => {
                write!(f, "{width}-byte access at {addr:#x} is out of bounds")
            }
            MemError::Misaligned { addr, width } => {
                write!(f, "{width}-byte access at {addr:#x} is misaligned")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// An instruction-fetch fault (see [`Sram::fetch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchError {
    /// The fetch itself faulted (misaligned pc, or a word off the end of
    /// SRAM).
    Mem(MemError),
    /// The fetched words do not decode.
    Decode(DecodeError),
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Mem(e) => write!(f, "fetch fault: {e}"),
            FetchError::Decode(e) => write!(f, "decode fault: {e}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// A core's unified SRAM.
///
/// ```
/// use swallow_xcore::sram::Sram;
/// let mut mem = Sram::new(1024);
/// mem.write_u32(0, 0xDEAD_BEEF).expect("in bounds");
/// assert_eq!(mem.read_u32(0), Ok(0xDEAD_BEEF));
/// assert!(mem.read_u32(1).is_err()); // misaligned
/// ```
#[derive(Clone)]
pub struct Sram {
    bytes: Vec<u8>,
    /// Predecoded instruction entries (derived state, not architectural;
    /// ignored by `PartialEq`).
    cache: DecodeCache,
}

impl PartialEq for Sram {
    fn eq(&self, other: &Self) -> bool {
        // Architectural state only: the decode cache is a pure function
        // of the bytes it was filled from.
        self.bytes == other.bytes
    }
}

impl Eq for Sram {}

impl Sram {
    /// Creates a zeroed SRAM of `size` bytes (rounded up to 4), with the
    /// decode cache on.
    pub fn new(size: u32) -> Self {
        let size = size.next_multiple_of(4);
        Sram {
            bytes: vec![0; size as usize],
            cache: DecodeCache::new(size, true),
        }
    }

    /// Enables or disables the predecoded-instruction cache (off is the
    /// differential-testing reference). Disabling drops every cached
    /// entry; behaviour is bit-identical either way.
    pub fn set_decode_cache(&mut self, enabled: bool) {
        self.cache.set_enabled(enabled);
    }

    /// Whether the predecoded-instruction cache is active.
    pub fn decode_cache_enabled(&self) -> bool {
        self.cache.is_enabled()
    }

    /// Fetches and decodes the instruction at byte address `pc`,
    /// predecode-cached: the steady-state path is a single array load.
    /// On a miss, reads one word (retrying with a second on a truncated
    /// two-word encoding, exactly like the uncached interpreter did),
    /// decodes, classifies and caches the entry. Failures are never
    /// cached.
    ///
    /// # Errors
    ///
    /// [`FetchError::Mem`] when `pc` (or the extension word of a
    /// two-word instruction) faults; [`FetchError::Decode`] when the
    /// words do not decode.
    #[inline]
    pub fn fetch(&mut self, pc: u32) -> Result<Predecoded, FetchError> {
        if pc & 3 == 0 {
            if let Some(entry) = self.cache.lookup((pc >> 2) as usize) {
                return Ok(entry);
            }
        }
        self.fetch_slow(pc)
    }

    /// The miss path of [`Sram::fetch`]: decode from bytes and fill.
    #[cold]
    fn fetch_slow(&mut self, pc: u32) -> Result<Predecoded, FetchError> {
        let w0 = self.read_u32(pc).map_err(FetchError::Mem)?;
        let entry = match predecode(&[w0]) {
            Ok(entry) => entry,
            Err(DecodeError::Truncated) => {
                let w1 = self.read_u32(pc + 4).map_err(FetchError::Mem)?;
                predecode(&[w0, w1]).map_err(FetchError::Decode)?
            }
            Err(e) => return Err(FetchError::Decode(e)),
        };
        self.cache.fill((pc >> 2) as usize, entry);
        Ok(entry)
    }

    /// The SRAM size in bytes.
    pub fn len(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Always false: a core without memory is not constructible.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn check(&self, addr: u32, width: u8) -> Result<usize, MemError> {
        if !addr.is_multiple_of(width as u32) {
            return Err(MemError::Misaligned { addr, width });
        }
        let end = addr as u64 + width as u64;
        if end > self.bytes.len() as u64 {
            return Err(MemError::OutOfBounds { addr, width });
        }
        Ok(addr as usize)
    }

    /// Reads a 32-bit word (little-endian).
    ///
    /// # Errors
    ///
    /// [`MemError`] on unaligned or out-of-bounds access.
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        let i = self.check(addr, 4)?;
        Ok(u32::from_le_bytes(
            self.bytes[i..i + 4].try_into().expect("bounds checked"),
        ))
    }

    /// Writes a 32-bit word (little-endian).
    ///
    /// # Errors
    ///
    /// [`MemError`] on unaligned or out-of-bounds access.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let i = self.check(addr, 4)?;
        self.bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
        self.cache.invalidate_word(i >> 2);
        Ok(())
    }

    /// Reads a 16-bit halfword.
    ///
    /// # Errors
    ///
    /// [`MemError`] on unaligned or out-of-bounds access.
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        let i = self.check(addr, 2)?;
        Ok(u16::from_le_bytes(
            self.bytes[i..i + 2].try_into().expect("bounds checked"),
        ))
    }

    /// Writes a 16-bit halfword.
    ///
    /// # Errors
    ///
    /// [`MemError`] on unaligned or out-of-bounds access.
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        let i = self.check(addr, 2)?;
        self.bytes[i..i + 2].copy_from_slice(&value.to_le_bytes());
        self.cache.invalidate_word(i >> 2);
        Ok(())
    }

    /// Reads a byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] past the end of SRAM.
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1)?;
        Ok(self.bytes[i])
    }

    /// Writes a byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] past the end of SRAM.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.bytes[i] = value;
        self.cache.invalidate_word(i >> 2);
        Ok(())
    }

    /// Writes the architectural bytes in the snapshot's sparse form: a
    /// `u64` count, then for each 256-byte block that holds a non-zero
    /// byte its `u32` index and its bytes, indices
    /// strictly increasing (the last block is short when the SRAM size
    /// is not a multiple of the block). The decode cache is derived
    /// state and not part of it.
    pub(crate) fn encode_blocks(&self, w: &mut ByteWriter) {
        let live: Vec<(usize, &[u8])> = self
            .bytes
            .chunks(SNAPSHOT_BLOCK_BYTES)
            .enumerate()
            .filter(|(_, block)| !all_zero(block))
            .collect();
        w.u64(live.len() as u64);
        for (index, block) in live {
            w.u32(index as u32);
            w.raw(block);
        }
    }

    /// Restores the architectural bytes from [`Sram::encode_blocks`]'
    /// form: the listed blocks are written in place and every other
    /// block is left zero. Drops every predecoded entry — the cache
    /// refills on demand, exactly as after [`Sram::load_words`].
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the count exceeds what the
    /// remaining bytes can hold (checked before any block is read);
    /// [`CodecError::Invalid`] for indices that are not strictly
    /// increasing or that lie past the SRAM, and for an all-zero block,
    /// which the writer never lists (so an accepted image re-encodes
    /// byte-identically). On error the SRAM is left partly written.
    pub(crate) fn restore_blocks(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.cache.invalidate_all();
        let len = self.bytes.len();
        let smallest = match len % SNAPSHOT_BLOCK_BYTES {
            0 => SNAPSHOT_BLOCK_BYTES,
            tail => tail,
        };
        let count = r.len_prefixed(4 + smallest)?;
        // Start of the first byte no listed block has covered yet.
        let mut done = 0;
        for _ in 0..count {
            let start = (r.u32()? as usize).saturating_mul(SNAPSHOT_BLOCK_BYTES);
            if start < done {
                return Err(CodecError::Invalid("SRAM block indices not increasing"));
            }
            if start >= len {
                return Err(CodecError::Invalid("SRAM block past the end of SRAM"));
            }
            let end = (start + SNAPSHOT_BLOCK_BYTES).min(len);
            let block = r.take(end - start)?;
            if all_zero(block) {
                return Err(CodecError::Invalid("SRAM block is all zeros"));
            }
            clear(&mut self.bytes[done..start]);
            self.bytes[start..end].copy_from_slice(block);
            done = end;
        }
        clear(&mut self.bytes[done..]);
        Ok(())
    }

    /// Copies a program image (32-bit words) to address 0.
    ///
    /// Returns `false` (and copies nothing) if the image does not fit.
    pub fn load_words(&mut self, words: &[u32]) -> bool {
        if words.len() * 4 > self.bytes.len() {
            return false;
        }
        for (i, w) in words.iter().enumerate() {
            self.bytes[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        self.cache.invalidate_all();
        true
    }
}

impl fmt::Debug for Sram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sram")
            .field("bytes", &self.bytes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_halfword_byte_round_trips() {
        let mut m = Sram::new(64);
        m.write_u32(8, 0x0102_0304).expect("aligned");
        assert_eq!(m.read_u16(8), Ok(0x0304));
        assert_eq!(m.read_u16(10), Ok(0x0102));
        assert_eq!(m.read_u8(11), Ok(0x01));
        m.write_u8(8, 0xFF).expect("in bounds");
        assert_eq!(m.read_u32(8), Ok(0x0102_03FF));
        m.write_u16(10, 0xBEEF).expect("aligned");
        assert_eq!(m.read_u32(8), Ok(0xBEEF_03FF));
    }

    #[test]
    fn faults_are_detected() {
        let mut m = Sram::new(16);
        assert_eq!(
            m.read_u32(2),
            Err(MemError::Misaligned { addr: 2, width: 4 })
        );
        assert_eq!(
            m.read_u32(16),
            Err(MemError::OutOfBounds { addr: 16, width: 4 })
        );
        assert_eq!(
            m.write_u16(15, 0),
            Err(MemError::Misaligned { addr: 15, width: 2 })
        );
        assert_eq!(
            m.write_u8(16, 0),
            Err(MemError::OutOfBounds { addr: 16, width: 1 })
        );
        // Wrap-around does not sneak past the bounds check.
        assert!(m.read_u32(u32::MAX - 3).is_err());
    }

    #[test]
    fn loads_program_images() {
        let mut m = Sram::new(16);
        assert!(m.load_words(&[0x1111_1111, 0x2222_2222]));
        assert_eq!(m.read_u32(4), Ok(0x2222_2222));
        assert!(!m.load_words(&[0; 5]));
    }

    /// The sparse image of `m`.
    fn image_of(m: &Sram) -> Vec<u8> {
        let mut w = ByteWriter::new();
        m.encode_blocks(&mut w);
        w.finish()
    }

    /// A hand-made image: `count`, then each `(index, fill byte)` as a
    /// full block.
    fn forged(count: u64, blocks: &[(u32, u8)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(count);
        for &(index, fill) in blocks {
            w.u32(index);
            w.raw(&[fill; SNAPSHOT_BLOCK_BYTES]);
        }
        w.finish()
    }

    fn restore(m: &mut Sram, image: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(image);
        m.restore_blocks(&mut r)?;
        r.expect_end()
    }

    #[test]
    fn sparse_images_hold_only_non_zero_blocks() {
        let mut m = Sram::new(DEFAULT_SRAM_BYTES);
        assert_eq!(image_of(&m), 0u64.to_le_bytes(), "a zero SRAM is a count");
        m.write_u8(3, 1).expect("in bounds");
        m.write_u32(0xFFFC, 0xDEAD_BEEF).expect("in bounds");
        let image = image_of(&m);
        assert_eq!(image.len(), 8 + 2 * (4 + SNAPSHOT_BLOCK_BYTES));
        // Restoring into a dirty SRAM clears every unlisted block.
        let mut other = Sram::new(DEFAULT_SRAM_BYTES);
        other.write_u32(0x100, 7).expect("in bounds");
        other.write_u32(0x8000, 7).expect("in bounds");
        restore(&mut other, &image).expect("restores");
        assert!(other == m);
        assert_eq!(image_of(&other), image, "re-encodes byte-identically");
    }

    #[test]
    fn a_short_last_block_round_trips() {
        // 300 bytes: one full block and a 44-byte tail.
        let mut m = Sram::new(300);
        m.write_u32(296, 0x0102_0304).expect("in bounds");
        let image = image_of(&m);
        assert_eq!(image.len(), 8 + 4 + 44);
        let mut other = Sram::new(300);
        restore(&mut other, &image).expect("restores");
        assert!(other == m);
    }

    #[test]
    fn restore_drops_cached_code() {
        let mut m = Sram::new(1024);
        let nop = swallow_isa::encode(&swallow_isa::Instr::Nop).expect("encodes");
        assert!(m.load_words(nop.words()));
        m.fetch(0).expect("decodes");
        assert_eq!(m.cache.live_entries(), 1);
        restore(&mut m, &image_of(&Sram::new(1024))).expect("restores");
        assert_eq!(m.cache.live_entries(), 0);
        assert_eq!(m.read_u32(0), Ok(0));
    }

    #[test]
    fn unsorted_block_indices_are_refused() {
        let image = forged(2, &[(5, 1), (4, 1)]);
        assert_eq!(
            restore(&mut Sram::new(DEFAULT_SRAM_BYTES), &image),
            Err(CodecError::Invalid("SRAM block indices not increasing"))
        );
    }

    #[test]
    fn duplicate_block_indices_are_refused() {
        let image = forged(2, &[(4, 1), (4, 2)]);
        assert_eq!(
            restore(&mut Sram::new(DEFAULT_SRAM_BYTES), &image),
            Err(CodecError::Invalid("SRAM block indices not increasing"))
        );
    }

    #[test]
    fn block_indices_past_the_sram_are_refused() {
        let blocks = (DEFAULT_SRAM_BYTES as usize / SNAPSHOT_BLOCK_BYTES) as u32;
        for index in [blocks, u32::MAX] {
            let image = forged(1, &[(index, 1)]);
            assert_eq!(
                restore(&mut Sram::new(DEFAULT_SRAM_BYTES), &image),
                Err(CodecError::Invalid("SRAM block past the end of SRAM")),
                "index {index}"
            );
        }
        // The last real block is accepted.
        let image = forged(1, &[(blocks - 1, 1)]);
        assert!(restore(&mut Sram::new(DEFAULT_SRAM_BYTES), &image).is_ok());
    }

    #[test]
    fn all_zero_blocks_are_refused() {
        let image = forged(2, &[(1, 1), (2, 0)]);
        assert_eq!(
            restore(&mut Sram::new(DEFAULT_SRAM_BYTES), &image),
            Err(CodecError::Invalid("SRAM block is all zeros"))
        );
    }

    #[test]
    fn counts_the_bytes_cannot_hold_are_truncated() {
        // Two blocks' worth of bytes behind a count of three, and a
        // count no image could hold.
        for count in [3, u64::MAX] {
            let image = forged(count, &[(1, 1), (2, 1)]);
            assert_eq!(
                restore(&mut Sram::new(DEFAULT_SRAM_BYTES), &image),
                Err(CodecError::Truncated),
                "count {count}"
            );
        }
    }

    #[test]
    fn size_rounds_up_to_words() {
        assert_eq!(Sram::new(3).len(), 4);
        assert_eq!(Sram::new(DEFAULT_SRAM_BYTES).len(), 65536);
    }
}
