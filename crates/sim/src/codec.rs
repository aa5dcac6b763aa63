//! Hand-rolled binary serialization primitives for machine snapshots.
//!
//! The snapshot format (DESIGN.md §3.13) is deliberately dependency-free:
//! a [`ByteWriter`] emits little-endian scalars into a growable buffer and
//! a [`ByteReader`] decodes them with every read bounds-checked, so a
//! truncated or corrupted snapshot is *rejected* with a [`CodecError`] —
//! never a panic, never a half-restored machine.
//!
//! Sections group related state behind a four-byte tag, a length and an
//! FNV-1a 64 checksum of the payload, written by [`ByteWriter::begin_section`]
//! / [`ByteWriter::end_section`] and verified by [`ByteReader::section`].
//! A single flipped payload byte always changes the FNV-1a digest (each
//! step `h = (h ^ b) · p` is a bijection of `h` for fixed `b` and maps
//! distinct bytes to distinct states for fixed `h`), so corrupt-one-byte
//! inputs are always caught by the checksum, the tag check, or a bounds
//! failure.

use crate::time::{Time, TimeDelta};
use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 digest of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A decoding failure. Every variant is a *rejection*: the decoder never
/// panics on hostile input and never yields partially-decoded state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the read required.
    Truncated,
    /// The stream does not start with the expected magic.
    BadMagic,
    /// The format version is not one this build can decode.
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A section arrived with an unexpected tag.
    BadSection {
        /// The tag expected next.
        expected: [u8; 4],
        /// The tag found.
        found: [u8; 4],
    },
    /// A section payload failed its checksum.
    BadChecksum {
        /// The tag of the failing section.
        section: [u8; 4],
    },
    /// A decoded value was structurally invalid (out-of-range tag,
    /// zero frequency, mismatched element count, ...).
    Invalid(&'static str),
    /// Bytes remained after the last expected field.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "snapshot truncated"),
            CodecError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            CodecError::BadVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            CodecError::BadSection { expected, found } => write!(
                f,
                "expected section {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            CodecError::BadChecksum { section } => write!(
                f,
                "checksum mismatch in section {:?}",
                String::from_utf8_lossy(section)
            ),
            CodecError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A leaf type's own decoder reports why a value is invalid as a static
/// reason (`TryFrom<u16> for Token`, say); `?` turns that reason into
/// [`CodecError::Invalid`].
impl From<&'static str> for CodecError {
    fn from(why: &'static str) -> Self {
        CodecError::Invalid(why)
    }
}

/// Little-endian binary writer over a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
    /// Open section stack: `(header_pos, payload_start)`.
    sections: Vec<(usize, usize)>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The bytes written so far.
    ///
    /// # Panics
    ///
    /// Panics if a section is still open — that is a serializer bug, not
    /// an input condition.
    pub fn finish(self) -> Vec<u8> {
        assert!(self.sections.is_empty(), "unclosed snapshot section");
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes an `f64` by exact bit pattern (restores bit-identically).
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes an instant as its picosecond count.
    pub fn time(&mut self, t: Time) {
        self.u64(t.as_ps());
    }

    /// Writes a span as its picosecond count.
    pub fn delta(&mut self, d: TimeDelta) {
        self.u64(d.as_ps());
    }

    /// Writes raw bytes (length is *not* prefixed; pair with
    /// [`ByteWriter::bytes_prefixed`] when the reader cannot know it).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a u64 length prefix followed by the bytes.
    pub fn bytes_prefixed(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.raw(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str_prefixed(&mut self, s: &str) {
        self.bytes_prefixed(s.as_bytes());
    }

    /// Opens a section: writes the tag and reserves the length and
    /// checksum slots, to be patched by [`ByteWriter::end_section`].
    pub fn begin_section(&mut self, tag: [u8; 4]) {
        self.raw(&tag);
        let header_pos = self.buf.len();
        self.u64(0); // length, patched on close
        let payload_start = self.buf.len();
        self.sections.push((header_pos, payload_start));
    }

    /// Closes the innermost open section: patches its length and appends
    /// the FNV-1a 64 checksum of the payload.
    ///
    /// # Panics
    ///
    /// Panics if no section is open (a serializer bug).
    pub fn end_section(&mut self) {
        let (header_pos, payload_start) = self.sections.pop().expect("open snapshot section");
        let len = (self.buf.len() - payload_start) as u64;
        self.buf[header_pos..header_pos + 8].copy_from_slice(&len.to_le_bytes());
        let digest = fnv1a64(&self.buf[payload_start..]);
        self.u64(digest);
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails with [`CodecError::TrailingBytes`] unless fully consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("length checked"),
        ))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("length checked"),
        ))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("length checked"),
        ))
    }

    /// Reads a strict bool (exactly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool out of range")),
        }
    }

    /// Reads an `f64` by exact bit pattern.
    pub fn f64_bits(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `f64` by exact bit pattern, rejecting NaN and ±infinity:
    /// the decoder for quantities that are always finite (energy, power).
    pub fn finite_f64(&mut self) -> Result<f64, CodecError> {
        let v = self.f64_bits()?;
        if !v.is_finite() {
            return Err(CodecError::Invalid("non-finite value"));
        }
        Ok(v)
    }

    /// Reads an instant written by [`ByteWriter::time`].
    pub fn time(&mut self) -> Result<Time, CodecError> {
        Ok(Time::from_ps(self.u64()?))
    }

    /// Reads a span written by [`ByteWriter::delta`].
    pub fn delta(&mut self) -> Result<TimeDelta, CodecError> {
        Ok(TimeDelta::from_ps(self.u64()?))
    }

    /// Reads a u64 length that must describe at most the remaining bytes
    /// (guards `Vec` preallocation against hostile lengths). `width` is
    /// the minimum encoded size of one element.
    pub fn len_prefixed(&mut self, width: usize) -> Result<usize, CodecError> {
        let len = self.u64()?;
        let width = width.max(1) as u64;
        if len > self.remaining() as u64 / width {
            return Err(CodecError::Truncated);
        }
        Ok(len as usize)
    }

    /// Reads a u64-length-prefixed byte run.
    pub fn bytes_prefixed(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.len_prefixed(1)?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str_prefixed(&mut self) -> Result<String, CodecError> {
        let bytes = self.bytes_prefixed()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("non-UTF-8 string"))
    }

    /// Reads one section: verifies the tag, takes the declared payload,
    /// verifies its checksum and returns a reader over the payload alone.
    /// Callers should finish with [`ByteReader::expect_end`] on the
    /// returned reader so overlong sections are rejected too.
    pub fn section(&mut self, expected: [u8; 4]) -> Result<ByteReader<'a>, CodecError> {
        let found: [u8; 4] = self.take(4)?.try_into().expect("length checked");
        if found != expected {
            return Err(CodecError::BadSection { expected, found });
        }
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        let payload = self.take(len as usize)?;
        let digest = self.u64()?;
        if fnv1a64(payload) != digest {
            return Err(CodecError::BadChecksum { section: expected });
        }
        Ok(ByteReader::new(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.bool(true);
        w.f64_bits(-0.0);
        w.str_prefixed("swallow");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.f64_bits().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.str_prefixed().as_deref(), Ok("swallow"));
        assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn time_round_trips_and_non_finite_floats_are_rejected() {
        let mut w = ByteWriter::new();
        w.time(Time::from_ps(1_234));
        w.delta(TimeDelta::from_ps(56));
        w.f64_bits(f64::NAN);
        w.f64_bits(f64::NEG_INFINITY);
        w.f64_bits(0.25);
        let bytes = w.finish();
        assert_eq!(bytes[..8], 1_234u64.to_le_bytes());
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.time(), Ok(Time::from_ps(1_234)));
        assert_eq!(r.delta(), Ok(TimeDelta::from_ps(56)));
        assert!(matches!(r.finite_f64(), Err(CodecError::Invalid(_))));
        assert!(matches!(r.finite_f64(), Err(CodecError::Invalid(_))));
        assert_eq!(r.finite_f64(), Ok(0.25));
        assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn truncation_is_rejected_not_panicked() {
        let mut w = ByteWriter::new();
        w.u64(42);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // claims far more elements than bytes remain
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.len_prefixed(4), Err(CodecError::Truncated));
    }

    #[test]
    fn sections_frame_and_checksum() {
        let mut w = ByteWriter::new();
        w.begin_section(*b"TEST");
        w.u32(99);
        w.end_section();
        let bytes = w.finish();

        let mut r = ByteReader::new(&bytes);
        let mut body = r.section(*b"TEST").expect("valid section");
        assert_eq!(body.u32(), Ok(99));
        assert_eq!(body.expect_end(), Ok(()));
        assert_eq!(r.expect_end(), Ok(()));

        // Any single corrupted byte is rejected with an error.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let mut r = ByteReader::new(&bad);
            let outcome = r.section(*b"TEST").and_then(|mut b| {
                b.u32()?;
                b.expect_end()?;
                r.expect_end()
            });
            assert!(outcome.is_err(), "corrupt byte {i} slipped through");
        }
    }

    #[test]
    fn wrong_tag_is_rejected() {
        let mut w = ByteWriter::new();
        w.begin_section(*b"AAAA");
        w.end_section();
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.section(*b"BBBB"),
            Err(CodecError::BadSection { .. })
        ));
    }

    #[test]
    fn fnv_distinguishes_single_byte_changes() {
        let a = fnv1a64(b"swallow snapshot");
        let b = fnv1a64(b"swallow snapshos");
        assert_ne!(a, b);
        assert_eq!(fnv1a64(b""), FNV_OFFSET);
    }
}
