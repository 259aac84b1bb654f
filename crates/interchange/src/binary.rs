//! A small framed **binary codec** for persistable pipeline artefacts.
//!
//! The textual `.psm` format in this crate carries *models*; restartable
//! runtime components (the monitor snapshots of `privacy-runtime`) need a
//! compact, integrity-checked byte format for *state*. This module provides
//! the shared framing both directions agree on:
//!
//! ```text
//! ┌───────────┬──────────┬─────────────┬──────────────┬─────────┬─────────────┐
//! │ magic (4) │ kind (4) │ version u32 │ pay_len  u64 │ payload │ checksum u64│
//! └───────────┴──────────┴─────────────┴──────────────┴─────────┴─────────────┘
//! ```
//!
//! * the **magic** pins the codec family, the caller-chosen **kind** tag pins
//!   the artefact type (a monitor snapshot is never confused with some future
//!   artefact sharing the framing);
//! * the explicit **version** lets readers reject formats they do not speak
//!   with a typed error instead of misparsing them;
//! * the **payload length** makes truncation detectable before any payload
//!   read, and the trailing **word-folded FNV-1a checksum** (computed over
//!   everything before it) makes corruption — bit flips anywhere in the
//!   frame — detectable;
//! * every read returns a typed [`CodecError`]; no input, however mangled,
//!   panics a decoder.
//!
//! All integers are little-endian. The primitive vocabulary (bytes, bools,
//! `u32`/`u64`/`f64`, strings, `u64` slices) is exactly what the snapshot
//! formats need; higher-level structure lives with the artefact owner.

use std::error::Error;
use std::fmt;

/// The codec-family magic: "privacy-mde binary frame".
const MAGIC: [u8; 4] = *b"PMBF";

/// Frame bytes before the payload: magic, kind, version, payload length.
const HEADER_LEN: usize = 4 + 4 + 4 + 8;

/// Trailing checksum width.
const CHECKSUM_LEN: usize = 8;

/// FNV-1a 64-bit folded over 8-byte words (tail bytes singly) — the frame
/// checksum. Not cryptographic; it detects truncation remnants, bit flips
/// and transposition, which is the threat model for state files on trusted
/// storage.
///
/// Each step `h = (h ^ w) * prime` is a bijection of the running hash
/// (xor with a constant and multiplication by an odd prime are both
/// invertible mod 2⁶⁴), so any corruption confined to a single word — every
/// single-bit flip in particular — provably changes the final checksum.
/// Folding words instead of bytes keeps the serially dependent multiply
/// chain an eighth of the length, which matters because every framed
/// artefact — each wire message, snapshot, and checkpoint file — pays this
/// hash at both ends; megabyte checkpoints were spending more time in the
/// byte-at-a-time chain than in the fsync they guard.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().expect("8 bytes"));
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &byte in words.remainder() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The largest element count a row codec will materialise for one row
/// (2²² words or values — a 32 MB dense row). Rows describe per-user state;
/// a declared dimension past this is a corrupted or hostile header, and
/// rejecting it before the first row read keeps a bad frame from driving a
/// multi-gigabyte allocation out of a few sparse bytes.
pub const MAX_ROW_ELEMS: usize = 1 << 22;

/// A typed decoding failure. Every variant names what was being read, so the
/// error message alone places the corruption.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input does not start with the codec magic, or carries a different
    /// artefact kind than the reader expects.
    BadMagic {
        /// The four kind bytes the reader expected (or the codec magic).
        expected: [u8; 4],
        /// What the input carried instead (zero-padded when shorter).
        found: [u8; 4],
    },
    /// The frame declares a format version this reader does not speak.
    UnsupportedVersion {
        /// The version the frame declares.
        found: u32,
        /// The version the reader supports.
        supported: u32,
    },
    /// The input ends before the declared content does.
    Truncated {
        /// How many bytes the current read needed.
        needed: usize,
        /// How many bytes were available.
        available: usize,
    },
    /// The trailing checksum does not match the frame contents.
    ChecksumMismatch {
        /// The checksum recorded in the frame.
        recorded: u64,
        /// The checksum computed over the received bytes.
        computed: u64,
    },
    /// The frame decoded cleanly but bytes remain after the declared payload
    /// was consumed.
    TrailingBytes {
        /// How many undeclared bytes follow the payload.
        extra: usize,
    },
    /// A field decoded to a value its type cannot carry (bad UTF-8, an
    /// out-of-range discriminant, an impossible count).
    Malformed {
        /// What was being decoded.
        what: &'static str,
        /// Why the value is impossible.
        detail: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected `{}`, found `{}`",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            CodecError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported format version {found} (this reader speaks {supported})")
            }
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} more bytes, {available} available")
            }
            CodecError::ChecksumMismatch { recorded, computed } => write!(
                f,
                "checksum mismatch: frame records {recorded:#018x}, contents hash to \
                 {computed:#018x}"
            ),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the declared payload")
            }
            CodecError::Malformed { what, detail } => write!(f, "malformed {what}: {detail}"),
        }
    }
}

impl Error for CodecError {}

/// Writes one framed artefact. Primitive writes append to the payload;
/// [`Encoder::finish`] seals the frame with the length and checksum.
///
/// # Examples
///
/// ```
/// use privacy_interchange::binary::{Decoder, Encoder};
///
/// let mut encoder = Encoder::new(*b"DEMO", 1);
/// encoder.u64(42);
/// encoder.str("hello");
/// let bytes = encoder.finish();
///
/// let mut decoder = Decoder::new(&bytes, *b"DEMO", 1).unwrap();
/// assert_eq!(decoder.u64().unwrap(), 42);
/// assert_eq!(decoder.string().unwrap(), "hello");
/// decoder.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct Encoder {
    /// The whole frame under construction: the header (its payload length
    /// still zero) followed by the payload written so far. Sealing patches
    /// the length and appends the checksum in place, so a frame is never
    /// copied to prepend its header.
    frame: Vec<u8>,
    /// Where this frame's header starts in `frame`: 0, or just past the
    /// outer frame's bytes for a frame written by [`Encoder::nested`].
    start: usize,
}

impl Encoder {
    /// Starts a frame of the given artefact kind and format version.
    pub fn new(kind: [u8; 4], version: u32) -> Encoder {
        Encoder::reusing(Vec::with_capacity(HEADER_LEN), kind, version)
    }

    /// [`Encoder::new`] in a caller's buffer: its contents are discarded
    /// and its allocation reused, so a caller that seals frames of similar
    /// size over and over (a checkpoint writer) stops allocating once the
    /// buffer has grown. [`Encoder::finish`] hands the buffer back.
    pub fn reusing(mut frame: Vec<u8>, kind: [u8; 4], version: u32) -> Encoder {
        frame.clear();
        Encoder::append_to(frame, kind, version)
    }

    /// Starts a frame after the bytes `frame` already holds.
    fn append_to(mut frame: Vec<u8>, kind: [u8; 4], version: u32) -> Encoder {
        let start = frame.len();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&kind);
        frame.extend_from_slice(&version.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        Encoder { frame, start }
    }

    /// Appends a whole inner frame as a length-prefixed blob, exactly as
    /// [`Encoder::bytes`] would append the sealed inner frame, but written
    /// in place: `write` fills the inner frame's payload, and the inner
    /// frame is sealed where it stands instead of being encoded into a
    /// buffer of its own and copied.
    pub fn nested(&mut self, kind: [u8; 4], version: u32, write: impl FnOnce(&mut Encoder)) {
        let length_at = self.frame.len();
        self.u32(0);
        let mut inner = Encoder::append_to(std::mem::take(&mut self.frame), kind, version);
        let start = inner.start;
        write(&mut inner);
        self.frame = inner.finish();
        let length = (self.frame.len() - start) as u32;
        self.frame[length_at..start].copy_from_slice(&length.to_le_bytes());
    }

    /// Reserves room for at least `additional` more payload bytes plus the
    /// trailing checksum, so a caller that knows its payload size up front
    /// seals the frame without the buffer ever being regrown.
    pub fn reserve(&mut self, additional: usize) {
        self.frame.reserve(additional + CHECKSUM_LEN);
    }

    /// Appends one byte.
    pub fn u8(&mut self, value: u8) {
        self.frame.push(value);
    }

    /// Appends a bool as one byte (`0` / `1`).
    pub fn bool(&mut self, value: bool) {
        self.frame.push(u8::from(value));
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, value: u32) {
        self.frame.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, value: u64) {
        self.frame.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, value: &str) {
        self.u32(value.len() as u32);
        self.frame.extend_from_slice(value.as_bytes());
    }

    /// Appends a length-prefixed `u64` slice (bitset words, timelines).
    pub fn u64_slice(&mut self, values: &[u64]) {
        self.u32(values.len() as u32);
        for &value in values {
            self.u64(value);
        }
    }

    /// Appends a length-prefixed raw byte blob — the nesting primitive: a
    /// whole inner frame (e.g. a monitor snapshot) carried opaquely inside an
    /// outer frame (e.g. a checkpoint file or a supervisor message).
    pub fn bytes(&mut self, value: &[u8]) {
        self.u32(value.len() as u32);
        self.frame.extend_from_slice(value);
    }

    /// Appends a canonical LEB128 varint (see [`put_varu`]).
    pub fn varu(&mut self, value: u64) {
        put_varu(&mut self.frame, value);
    }

    /// Appends a varint-length-prefixed UTF-8 string — one length byte
    /// instead of four for the short identifiers per-user rows are keyed by.
    pub fn str_var(&mut self, value: &str) {
        put_varu(&mut self.frame, value.len() as u64);
        self.frame.extend_from_slice(value.as_bytes());
    }

    /// Appends raw bytes verbatim, with **no** length prefix. The caller's
    /// format must make the extent recoverable (normally by pairing with
    /// [`Encoder::varu`]); this exists so pre-encoded rows can be moved into
    /// a frame without a second length field or a re-encode.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.frame.extend_from_slice(bytes);
    }

    /// Seals the frame in place: patches the payload length into the
    /// header and appends the trailing checksum.
    pub fn finish(self) -> Vec<u8> {
        let (mut out, start) = (self.frame, self.start);
        let payload_len = (out.len() - start - HEADER_LEN) as u64;
        out[start + 12..start + HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let checksum = fnv1a(&out[start..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
}

/// Reads one framed artefact. [`Decoder::new`] validates magic, kind,
/// version, declared length and checksum before any payload read;
/// [`Decoder::finish`] asserts the payload was consumed exactly.
#[derive(Debug)]
pub struct Decoder<'a> {
    payload: &'a [u8],
    offset: usize,
}

impl<'a> Decoder<'a> {
    /// Opens a frame, validating the envelope.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CodecError`] describing the first envelope
    /// problem: wrong magic or kind, unsupported version, truncation
    /// (anywhere from the header to the checksum) or a checksum mismatch.
    pub fn new(bytes: &'a [u8], kind: [u8; 4], version: u32) -> Result<Decoder<'a>, CodecError> {
        let take4 = |at: usize| -> [u8; 4] {
            let mut out = [0u8; 4];
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = bytes.get(at + i).copied().unwrap_or(0);
            }
            out
        };
        if bytes.len() < HEADER_LEN {
            // Distinguish "not even our magic" from "our magic, cut short".
            if bytes.len() >= 4 && bytes[..4] != MAGIC {
                return Err(CodecError::BadMagic { expected: MAGIC, found: take4(0) });
            }
            return Err(CodecError::Truncated { needed: HEADER_LEN, available: bytes.len() });
        }
        if bytes[..4] != MAGIC {
            return Err(CodecError::BadMagic { expected: MAGIC, found: take4(0) });
        }
        if bytes[4..8] != kind {
            return Err(CodecError::BadMagic { expected: kind, found: take4(4) });
        }
        let found_version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if found_version != version {
            return Err(CodecError::UnsupportedVersion {
                found: found_version,
                supported: version,
            });
        }
        let payload_len = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes"));
        let payload_len = usize::try_from(payload_len)
            .map_err(|_| CodecError::Truncated { needed: usize::MAX, available: bytes.len() })?;
        let framed_len = HEADER_LEN
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(CHECKSUM_LEN))
            .ok_or(CodecError::Truncated { needed: usize::MAX, available: bytes.len() })?;
        if bytes.len() < framed_len {
            return Err(CodecError::Truncated { needed: framed_len, available: bytes.len() });
        }
        if bytes.len() > framed_len {
            return Err(CodecError::TrailingBytes { extra: bytes.len() - framed_len });
        }
        let recorded = u64::from_le_bytes(
            bytes[framed_len - CHECKSUM_LEN..framed_len].try_into().expect("8 bytes"),
        );
        let computed = fnv1a(&bytes[..framed_len - CHECKSUM_LEN]);
        if recorded != computed {
            return Err(CodecError::ChecksumMismatch { recorded, computed });
        }
        Ok(Decoder { payload: &bytes[HEADER_LEN..framed_len - CHECKSUM_LEN], offset: 0 })
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let available = self.payload.len() - self.offset;
        if available < len {
            return Err(CodecError::Truncated { needed: len, available });
        }
        let slice = &self.payload[self.offset..self.offset + len];
        self.offset += len;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than `0`/`1` is malformed.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Malformed {
                what: "bool",
                detail: format!("byte {other} is neither 0 nor 1"),
            }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|error| CodecError::Malformed { what: "string", detail: error.to_string() })
    }

    /// Reads a length-prefixed raw byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a canonical LEB128 varint (see [`get_varu`]).
    pub fn varu(&mut self) -> Result<u64, CodecError> {
        get_varu(self.payload, &mut self.offset)
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn string_var(&mut self) -> Result<String, CodecError> {
        let len = self.varu()?;
        let len = usize::try_from(len).map_err(|_| CodecError::Truncated {
            needed: usize::MAX,
            available: self.payload.len() - self.offset,
        })?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|error| CodecError::Malformed { what: "string", detail: error.to_string() })
    }

    /// Reads `len` raw bytes (the counterpart of [`Encoder::raw`]).
    pub fn raw(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        self.take(len)
    }

    /// The unread rest of the payload, without consuming it — for formats
    /// that walk a run of records with the free row functions below and
    /// then take the whole run at once with [`Decoder::raw`].
    #[must_use]
    pub fn remaining(&self) -> &'a [u8] {
        &self.payload[self.offset..]
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.u32()? as usize;
        // Bound the allocation by what the remaining payload can carry, so a
        // corrupted count cannot trigger a huge allocation before the
        // per-element reads fail.
        let available = (self.payload.len() - self.offset) / 8;
        if len > available {
            return Err(CodecError::Truncated { needed: len * 8, available: available * 8 });
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(self.u64()?);
        }
        Ok(values)
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::TrailingBytes`] if undeclared payload remains —
    /// a decoder that stops early has misread the format.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.offset < self.payload.len() {
            return Err(CodecError::TrailingBytes { extra: self.payload.len() - self.offset });
        }
        Ok(())
    }
}

/// The length of the frame at the start of `bytes`, header to checksum,
/// as its header declares — how a reader walks frames written back to
/// back. Only the magic is checked; [`Decoder::new`] on exactly that many
/// bytes validates the rest.
///
/// # Errors
///
/// [`CodecError::BadMagic`] when `bytes` does not start with a frame,
/// [`CodecError::Truncated`] when its header is cut short or declares a
/// length past `usize`.
pub fn frame_len(bytes: &[u8]) -> Result<usize, CodecError> {
    if bytes.len() >= 4 && bytes[..4] != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&bytes[..4]);
        return Err(CodecError::BadMagic { expected: MAGIC, found });
    }
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated { needed: HEADER_LEN, available: bytes.len() });
    }
    let payload_len = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes"));
    usize::try_from(payload_len)
        .ok()
        .and_then(|len| len.checked_add(HEADER_LEN + CHECKSUM_LEN))
        .ok_or(CodecError::Truncated { needed: usize::MAX, available: bytes.len() })
}

// ---------------------------------------------------------------------------
// Varints, packed floats, and the per-user row codec
// ---------------------------------------------------------------------------
//
// These operate on plain byte buffers rather than on `Encoder`/`Decoder`, so
// a row can be encoded once into its own `Vec<u8>` and then *moved* between
// frames (snapshot capture, resume) without a decode/encode round trip. The
// `Encoder`/`Decoder` methods above are thin wrappers.

/// The encoded length of `value` as a LEB128 varint (1–10 bytes).
#[must_use]
pub fn varu_len(value: u64) -> usize {
    let bits = 64 - value.leading_zeros() as usize;
    bits.max(1).div_ceil(7)
}

/// Appends `value` as a canonical LEB128 varint: 7 value bits per byte,
/// low-order bits first, high bit set on every byte but the last.
pub fn put_varu(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a canonical LEB128 varint at `*offset`, advancing the offset past
/// it. Overlong encodings — a zero final byte after a continuation, or bits
/// past the 64th — are rejected as [`CodecError::Malformed`], so every value
/// has exactly one representation: the sizes computed at encode time stay
/// honest and re-encoding a decoded artefact is byte-identical.
pub fn get_varu(bytes: &[u8], offset: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*offset) else {
            return Err(CodecError::Truncated { needed: 1, available: 0 });
        };
        *offset += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError::Malformed {
                what: "varint",
                detail: "value does not fit in 64 bits".to_owned(),
            });
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift != 0 {
                return Err(CodecError::Malformed {
                    what: "varint",
                    detail: "overlong encoding (zero final byte)".to_owned(),
                });
            }
            return Ok(value);
        }
        shift += 7;
    }
}

/// The encoded length of `value` under [`put_f64_packed`].
#[must_use]
pub fn f64_packed_len(value: f64) -> usize {
    varu_len(value.to_bits().swap_bytes())
}

/// Appends an `f64` as the varint of its byte-swapped IEEE-754 bits.
///
/// "Round" doubles — `0.0`, `1.0`, `0.25`, the questionnaire-style
/// sensitivity grades per-user state is full of — have bit patterns whose
/// low-order bytes are zero; swapping moves the information into the low
/// bits, so such values pack into 1–3 varint bytes. Arbitrary doubles cost
/// at most 10 bytes.
pub fn put_f64_packed(out: &mut Vec<u8>, value: f64) {
    put_varu(out, value.to_bits().swap_bytes());
}

/// Reads an `f64` written by [`put_f64_packed`].
pub fn get_f64_packed(bytes: &[u8], offset: &mut usize) -> Result<f64, CodecError> {
    Ok(f64::from_bits(get_varu(bytes, offset)?.swap_bytes()))
}

/// `u64`-row encoding tag: every word stored raw (little-endian, no count —
/// the row width comes from the reader's declared dimensions).
pub const U64_ROW_DENSE: u8 = 0;
/// `u64`-row encoding tag: only the nonzero words, as strictly increasing
/// (varint word index, raw word) pairs.
pub const U64_ROW_INDEXED: u8 = 1;
/// `u64`-row encoding tag: maximal runs of set bits, as (varint gap from the
/// previous run's end, varint run length) pairs.
pub const U64_ROW_RUNS: u8 = 2;

/// The maximal runs of set bits in `words` as ascending (first bit, length)
/// pairs, runs merging across word boundaries. Computed lazily, so sizing
/// and writing a row allocate nothing.
struct BitRuns<'a> {
    words: &'a [u64],
    /// The word being scanned.
    index: usize,
    /// Its bits not yet reported.
    word: u64,
}

impl<'a> BitRuns<'a> {
    fn new(words: &'a [u64]) -> Self {
        BitRuns { words, index: 0, word: words.first().copied().unwrap_or(0) }
    }
}

impl Iterator for BitRuns<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        while self.word == 0 {
            self.index += 1;
            self.word = *self.words.get(self.index)?;
        }
        let offset = self.word.trailing_zeros();
        let start = self.index as u64 * 64 + u64::from(offset);
        let ones = (self.word >> offset).trailing_ones();
        let mut len = u64::from(ones);
        if offset + ones < 64 {
            self.word &= !(((1u64 << ones) - 1) << offset);
            return Some((start, len));
        }
        // The run reaches the word's top bit: it continues through the
        // leading ones of the following words.
        loop {
            self.index += 1;
            let Some(&next) = self.words.get(self.index) else {
                self.word = 0;
                return Some((start, len));
            };
            let ones = next.trailing_ones();
            len += u64::from(ones);
            if ones < 64 {
                self.word = next & !((1u64 << ones) - 1);
                return Some((start, len));
            }
        }
    }
}

/// Sets bits `start..end` in `row`, whole words at a time.
fn set_bit_range(row: &mut [u64], start: u64, end: u64) {
    let mut bit = start;
    while bit < end {
        let lo = bit % 64;
        let take = (64 - lo).min(end - bit);
        let mask = if take == 64 { u64::MAX } else { ((1u64 << take) - 1) << lo };
        row[(bit / 64) as usize] |= mask;
        bit += take;
    }
}

/// Appends `words` under whichever of the three row encodings is smallest —
/// dense raw words, (index, word) pairs for scattered-word rows, or bit
/// runs for clustered-bit rows — and returns the tag chosen. Ties break
/// toward the lower tag, so the choice is deterministic and re-encoding a
/// decoded row is byte-stable.
pub fn put_u64_row(out: &mut Vec<u8>, words: &[u64]) -> u8 {
    let mut nonzero = 0usize;
    let mut indexed_body = 0usize;
    for (index, &word) in words.iter().enumerate() {
        if word != 0 {
            nonzero += 1;
            indexed_body += varu_len(index as u64) + 8;
        }
    }
    let mut runs = 0usize;
    let mut runs_body = 0usize;
    let mut prev_end = 0u64;
    for (start, len) in BitRuns::new(words) {
        runs += 1;
        runs_body += varu_len(start - prev_end) + varu_len(len);
        prev_end = start + len;
    }
    let runs_size = 1 + varu_len(runs as u64) + runs_body;
    let dense_size = 1 + 8 * words.len();
    let indexed_size = 1 + varu_len(nonzero as u64) + indexed_body;

    if dense_size <= indexed_size && dense_size <= runs_size {
        out.push(U64_ROW_DENSE);
        for &word in words {
            out.extend_from_slice(&word.to_le_bytes());
        }
        U64_ROW_DENSE
    } else if indexed_size <= runs_size {
        out.push(U64_ROW_INDEXED);
        put_varu(out, nonzero as u64);
        for (index, &word) in words.iter().enumerate() {
            if word != 0 {
                put_varu(out, index as u64);
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        U64_ROW_INDEXED
    } else {
        out.push(U64_ROW_RUNS);
        put_varu(out, runs as u64);
        let mut prev_end = 0u64;
        for (start, len) in BitRuns::new(words) {
            put_varu(out, start - prev_end);
            put_varu(out, len);
            prev_end = start + len;
        }
        U64_ROW_RUNS
    }
}

/// Reads a row written by [`put_u64_row`] into `row` (cleared and resized to
/// `expected_words`), advancing `*offset` past it. Returns the encoding tag
/// found.
///
/// # Errors
///
/// Rejects, as typed [`CodecError`]s: widths past [`MAX_ROW_ELEMS`], unknown
/// tags, truncation, and every non-canonical sparse form — zero words or
/// non-increasing indices in an indexed row, empty / unmerged / overlapping
/// runs, or a run past the row end.
pub fn get_u64_row(
    bytes: &[u8],
    offset: &mut usize,
    expected_words: usize,
    row: &mut Vec<u64>,
) -> Result<u8, CodecError> {
    if expected_words > MAX_ROW_ELEMS {
        return Err(CodecError::Malformed {
            what: "u64 row",
            detail: format!("declared width of {expected_words} words exceeds {MAX_ROW_ELEMS}"),
        });
    }
    let Some(&tag) = bytes.get(*offset) else {
        return Err(CodecError::Truncated { needed: 1, available: 0 });
    };
    *offset += 1;
    match tag {
        U64_ROW_DENSE => {
            let needed = expected_words * 8;
            let available = bytes.len() - *offset;
            if available < needed {
                return Err(CodecError::Truncated { needed, available });
            }
            row.clear();
            row.extend(
                bytes[*offset..*offset + needed]
                    .chunks_exact(8)
                    .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("8 bytes"))),
            );
            *offset += needed;
        }
        U64_ROW_INDEXED => {
            let count = get_varu(bytes, offset)?;
            if count > expected_words as u64 {
                return Err(CodecError::Malformed {
                    what: "u64 row",
                    detail: format!("{count} indexed words in a {expected_words}-word row"),
                });
            }
            row.clear();
            row.resize(expected_words, 0);
            let mut prev: Option<u64> = None;
            for _ in 0..count {
                let index = get_varu(bytes, offset)?;
                if index >= expected_words as u64 {
                    return Err(CodecError::Malformed {
                        what: "u64 row",
                        detail: format!(
                            "word index {index} out of range (row has {expected_words} words)"
                        ),
                    });
                }
                if prev.is_some_and(|p| index <= p) {
                    return Err(CodecError::Malformed {
                        what: "u64 row",
                        detail: "word indices not strictly increasing".to_owned(),
                    });
                }
                let available = bytes.len() - *offset;
                if available < 8 {
                    return Err(CodecError::Truncated { needed: 8, available });
                }
                let word =
                    u64::from_le_bytes(bytes[*offset..*offset + 8].try_into().expect("8 bytes"));
                *offset += 8;
                if word == 0 {
                    return Err(CodecError::Malformed {
                        what: "u64 row",
                        detail: format!("zero word stored at index {index} of an indexed row"),
                    });
                }
                row[index as usize] = word;
                prev = Some(index);
            }
        }
        U64_ROW_RUNS => {
            let run_count = get_varu(bytes, offset)?;
            row.clear();
            row.resize(expected_words, 0);
            let total_bits = expected_words as u64 * 64;
            let mut cursor = 0u64;
            for i in 0..run_count {
                let gap = get_varu(bytes, offset)?;
                if i > 0 && gap == 0 {
                    return Err(CodecError::Malformed {
                        what: "u64 row",
                        detail: "adjacent bit runs not merged".to_owned(),
                    });
                }
                let len = get_varu(bytes, offset)?;
                if len == 0 {
                    return Err(CodecError::Malformed {
                        what: "u64 row",
                        detail: "empty bit run".to_owned(),
                    });
                }
                let (Some(start), Some(end)) = (
                    cursor.checked_add(gap),
                    cursor.checked_add(gap).and_then(|s| s.checked_add(len)),
                ) else {
                    return Err(CodecError::Malformed {
                        what: "u64 row",
                        detail: "bit-run position overflows".to_owned(),
                    });
                };
                if end > total_bits {
                    return Err(CodecError::Malformed {
                        what: "u64 row",
                        detail: format!(
                            "run of {len} bits at bit {start} passes the row end ({total_bits} \
                             bits)"
                        ),
                    });
                }
                set_bit_range(row, start, end);
                cursor = end;
            }
        }
        other => {
            return Err(CodecError::Malformed {
                what: "u64 row",
                detail: format!("unknown encoding tag {other}"),
            });
        }
    }
    Ok(tag)
}

/// `f64`-row encoding tag: every value stored packed ([`put_f64_packed`]).
pub const F64_ROW_DENSE: u8 = 0;
/// `f64`-row encoding tag: a packed base value (the row's most common) plus
/// strictly increasing (varint index, packed value) exceptions.
pub const F64_ROW_BASED: u8 = 1;

/// Appends `values` under the smaller of the two value-row encodings —
/// dense packed values, or a base value plus exceptions (1 + a few bytes for
/// the constant rows that dominate per-user sensitivity state) — and returns
/// the tag chosen. Values compare by bit pattern, so the decoded row is
/// bit-exact, NaNs included; ties break toward dense.
pub fn put_f64_row(out: &mut Vec<u8>, values: &[f64]) -> u8 {
    let mut dense_size = 1usize;
    for &value in values {
        dense_size += f64_packed_len(value);
    }
    let based = if values.is_empty() {
        None
    } else {
        // The mode by bit pattern: sort a copy, scan for the longest group
        // (smallest pattern on ties, keeping the choice deterministic). The
        // copy lives on the stack for rows of up to 64 values, so encoding
        // per-user sensitivity rows allocates nothing.
        let mut stack = [0u64; 64];
        let mut heap = Vec::new();
        let bits: &mut [u64] = if values.len() <= stack.len() {
            &mut stack[..values.len()]
        } else {
            heap.resize(values.len(), 0);
            &mut heap
        };
        for (bit, value) in bits.iter_mut().zip(values) {
            *bit = value.to_bits();
        }
        bits.sort_unstable();
        let mut best = (bits[0], 0usize);
        let mut current = (bits[0], 0usize);
        for &b in bits.iter() {
            if b == current.0 {
                current.1 += 1;
            } else {
                current = (b, 1);
            }
            if current.1 > best.1 {
                best = current;
            }
        }
        let base_bits = best.0;
        let mut size = 1 + f64_packed_len(f64::from_bits(base_bits));
        let mut exceptions = 0u64;
        let mut body = 0usize;
        for (index, &value) in values.iter().enumerate() {
            if value.to_bits() != base_bits {
                exceptions += 1;
                body += varu_len(index as u64) + f64_packed_len(value);
            }
        }
        size += varu_len(exceptions) + body;
        Some((base_bits, size))
    };
    match based {
        Some((base_bits, size)) if size < dense_size => {
            out.push(F64_ROW_BASED);
            put_f64_packed(out, f64::from_bits(base_bits));
            let exceptions = values.iter().filter(|value| value.to_bits() != base_bits).count();
            put_varu(out, exceptions as u64);
            for (index, &value) in values.iter().enumerate() {
                if value.to_bits() != base_bits {
                    put_varu(out, index as u64);
                    put_f64_packed(out, value);
                }
            }
            F64_ROW_BASED
        }
        _ => {
            out.push(F64_ROW_DENSE);
            for &value in values {
                put_f64_packed(out, value);
            }
            F64_ROW_DENSE
        }
    }
}

/// Reads a row written by [`put_f64_row`] into `row` (cleared and resized to
/// `expected`), advancing `*offset` past it. Returns the encoding tag found.
///
/// # Errors
///
/// Rejects, as typed [`CodecError`]s: widths past [`MAX_ROW_ELEMS`], unknown
/// tags, truncation, and exception lists that are over-long, out of range,
/// or not strictly increasing.
pub fn get_f64_row(
    bytes: &[u8],
    offset: &mut usize,
    expected: usize,
    row: &mut Vec<f64>,
) -> Result<u8, CodecError> {
    if expected > MAX_ROW_ELEMS {
        return Err(CodecError::Malformed {
            what: "f64 row",
            detail: format!("declared width of {expected} values exceeds {MAX_ROW_ELEMS}"),
        });
    }
    let Some(&tag) = bytes.get(*offset) else {
        return Err(CodecError::Truncated { needed: 1, available: 0 });
    };
    *offset += 1;
    match tag {
        F64_ROW_DENSE => {
            row.clear();
            for _ in 0..expected {
                row.push(get_f64_packed(bytes, offset)?);
            }
        }
        F64_ROW_BASED => {
            let base = get_f64_packed(bytes, offset)?;
            row.clear();
            row.resize(expected, base);
            let count = get_varu(bytes, offset)?;
            if count > expected as u64 {
                return Err(CodecError::Malformed {
                    what: "f64 row",
                    detail: format!("{count} exceptions in a {expected}-value row"),
                });
            }
            let mut prev: Option<u64> = None;
            for _ in 0..count {
                let index = get_varu(bytes, offset)?;
                if index >= expected as u64 {
                    return Err(CodecError::Malformed {
                        what: "f64 row",
                        detail: format!(
                            "exception index {index} out of range (row has {expected} values)"
                        ),
                    });
                }
                if prev.is_some_and(|p| index <= p) {
                    return Err(CodecError::Malformed {
                        what: "f64 row",
                        detail: "exception indices not strictly increasing".to_owned(),
                    });
                }
                row[index as usize] = get_f64_packed(bytes, offset)?;
                prev = Some(index);
            }
        }
        other => {
            return Err(CodecError::Malformed {
                what: "f64 row",
                detail: format!("unknown encoding tag {other}"),
            });
        }
    }
    Ok(tag)
}

/// The largest frame [`read_frame`] will accept from a byte stream. Frames
/// on pipes are control messages and event batches, never bulk data; a
/// declared length past this is a corrupted or hostile header, and rejecting
/// it up front keeps a bad peer from driving a gigabyte allocation.
pub const MAX_STREAM_FRAME: u64 = 256 * 1024 * 1024;

/// A typed failure while reading a frame from a byte *stream* (a pipe or
/// socket, where the reader cannot see the whole input at once).
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameIoError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The stream carried bytes that cannot open as a frame: wrong magic, a
    /// truncated header/body, or a declared length past [`MAX_STREAM_FRAME`].
    Codec(CodecError),
}

impl fmt::Display for FrameIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameIoError::Io(error) => write!(f, "frame stream i/o failure: {error}"),
            FrameIoError::Codec(error) => write!(f, "unreadable stream frame: {error}"),
        }
    }
}

impl Error for FrameIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameIoError::Io(error) => Some(error),
            FrameIoError::Codec(error) => Some(error),
        }
    }
}

impl From<std::io::Error> for FrameIoError {
    fn from(error: std::io::Error) -> Self {
        FrameIoError::Io(error)
    }
}

impl From<CodecError> for FrameIoError {
    fn from(error: CodecError) -> Self {
        FrameIoError::Codec(error)
    }
}

/// Writes one sealed frame (the output of [`Encoder::finish`]) to a byte
/// stream and flushes it, so a peer blocked on [`read_frame`] sees the
/// message immediately.
///
/// # Errors
///
/// Returns [`FrameIoError::Io`] if the write or flush fails (e.g. the peer
/// closed its end of the pipe).
pub fn write_frame(writer: &mut impl std::io::Write, frame: &[u8]) -> Result<(), FrameIoError> {
    writer.write_all(frame)?;
    writer.flush()?;
    Ok(())
}

/// Reads exactly one frame from a byte stream, using the declared payload
/// length in the header to find the frame boundary. Returns `Ok(None)` on a
/// clean end-of-stream **at** a frame boundary (the peer closed after its
/// last complete message); EOF *inside* a frame is a typed truncation error.
///
/// The returned bytes are the whole frame, ready for [`Decoder::new`] —
/// which still performs the full validation (kind, version, checksum); this
/// function only checks what it must to delimit the stream (magic and a sane
/// declared length).
///
/// # Errors
///
/// Returns [`FrameIoError::Io`] for read failures and [`FrameIoError::Codec`]
/// for a stream that is not speaking this codec (bad magic, truncation
/// mid-frame, a declared length past [`MAX_STREAM_FRAME`]).
pub fn read_frame(reader: &mut impl std::io::Read) -> Result<Option<Vec<u8>>, FrameIoError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        let n = reader.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(CodecError::Truncated { needed: HEADER_LEN, available: filled }.into());
        }
        filled += n;
    }
    if header[..4] != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&header[..4]);
        return Err(CodecError::BadMagic { expected: MAGIC, found }.into());
    }
    let payload_len = u64::from_le_bytes(header[12..HEADER_LEN].try_into().expect("8 bytes"));
    if payload_len > MAX_STREAM_FRAME {
        return Err(CodecError::Malformed {
            what: "stream frame length",
            detail: format!("declared payload of {payload_len} bytes exceeds {MAX_STREAM_FRAME}"),
        }
        .into());
    }
    let rest = payload_len as usize + CHECKSUM_LEN;
    let mut frame = Vec::with_capacity(HEADER_LEN + rest);
    frame.extend_from_slice(&header);
    frame.resize(HEADER_LEN + rest, 0);
    let mut filled = HEADER_LEN;
    while filled < frame.len() {
        let n = reader.read(&mut frame[filled..])?;
        if n == 0 {
            return Err(CodecError::Truncated { needed: frame.len(), available: filled }.into());
        }
        filled += n;
    }
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIND: [u8; 4] = *b"TEST";

    fn sample_frame() -> Vec<u8> {
        let mut encoder = Encoder::new(KIND, 3);
        encoder.u8(7);
        encoder.bool(true);
        encoder.u32(123_456);
        encoder.u64(u64::MAX - 1);
        encoder.f64(0.75);
        encoder.str("snapshot");
        encoder.u64_slice(&[1, 2, 3]);
        encoder.finish()
    }

    #[test]
    fn nested_frames_equal_sealed_blobs() {
        let inner = sample_frame();
        let mut outer = Encoder::new(*b"OUTR", 1);
        outer.u64(9);
        outer.bytes(&inner);
        outer.u8(1);
        let copied = outer.finish();

        let mut reused = vec![0xAA; 64];
        reused.clear();
        let mut outer = Encoder::reusing(reused, *b"OUTR", 1);
        outer.u64(9);
        outer.nested(KIND, 3, |encoder| {
            encoder.u8(7);
            encoder.bool(true);
            encoder.u32(123_456);
            encoder.u64(u64::MAX - 1);
            encoder.f64(0.75);
            encoder.str("snapshot");
            encoder.u64_slice(&[1, 2, 3]);
        });
        outer.u8(1);
        assert_eq!(outer.finish(), copied);
    }

    #[test]
    fn round_trips_every_primitive() {
        let bytes = sample_frame();
        let mut decoder = Decoder::new(&bytes, KIND, 3).unwrap();
        assert_eq!(decoder.u8().unwrap(), 7);
        assert!(decoder.bool().unwrap());
        assert_eq!(decoder.u32().unwrap(), 123_456);
        assert_eq!(decoder.u64().unwrap(), u64::MAX - 1);
        assert_eq!(decoder.f64().unwrap(), 0.75);
        assert_eq!(decoder.string().unwrap(), "snapshot");
        assert_eq!(decoder.u64_slice().unwrap(), vec![1, 2, 3]);
        decoder.finish().unwrap();
    }

    #[test]
    fn rejects_wrong_magic_kind_and_version() {
        let bytes = sample_frame();
        assert!(matches!(
            Decoder::new(b"not a frame at all", KIND, 3),
            Err(CodecError::BadMagic { .. })
        ));
        assert!(matches!(
            Decoder::new(&bytes, *b"ELSE", 3),
            Err(CodecError::BadMagic { expected: [b'E', b'L', b'S', b'E'], .. })
        ));
        assert!(matches!(
            Decoder::new(&bytes, KIND, 4),
            Err(CodecError::UnsupportedVersion { found: 3, supported: 4 })
        ));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample_frame();
        for len in 0..bytes.len() {
            let error = Decoder::new(&bytes[..len], KIND, 3)
                .map(|_| ())
                .expect_err("truncated frame must not open");
            assert!(
                matches!(error, CodecError::Truncated { .. } | CodecError::BadMagic { .. }),
                "prefix of {len} bytes produced {error:?}"
            );
        }
    }

    #[test]
    fn rejects_any_single_bit_flip() {
        let bytes = sample_frame();
        for position in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[position] ^= 1 << bit;
                assert!(
                    Decoder::new(&flipped, KIND, 3).is_err(),
                    "flipping bit {bit} of byte {position} went undetected"
                );
            }
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = sample_frame();
        bytes.push(0);
        assert!(matches!(
            Decoder::new(&bytes, KIND, 3),
            Err(CodecError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn finish_rejects_unread_payload() {
        let bytes = sample_frame();
        let decoder = Decoder::new(&bytes, KIND, 3).unwrap();
        assert!(matches!(decoder.finish(), Err(CodecError::TrailingBytes { .. })));
    }

    #[test]
    fn malformed_values_are_typed_not_panics() {
        let mut encoder = Encoder::new(KIND, 1);
        encoder.u8(9); // neither 0 nor 1
        let bytes = encoder.finish();
        let mut decoder = Decoder::new(&bytes, KIND, 1).unwrap();
        assert!(matches!(decoder.bool(), Err(CodecError::Malformed { what: "bool", .. })));

        let mut encoder = Encoder::new(KIND, 1);
        encoder.u32(3);
        encoder.u8(0xFF); // invalid UTF-8 start, declared length 3 but 1 byte
        let bytes = encoder.finish();
        let mut decoder = Decoder::new(&bytes, KIND, 1).unwrap();
        assert!(matches!(decoder.string(), Err(CodecError::Truncated { .. })));

        // A corrupted element count larger than the remaining payload is
        // rejected before allocating.
        let mut encoder = Encoder::new(KIND, 1);
        encoder.u32(u32::MAX);
        let bytes = encoder.finish();
        let mut decoder = Decoder::new(&bytes, KIND, 1).unwrap();
        assert!(matches!(decoder.u64_slice(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn empty_payload_frames_round_trip() {
        let bytes = Encoder::new(KIND, 1).finish();
        let decoder = Decoder::new(&bytes, KIND, 1).unwrap();
        decoder.finish().unwrap();
    }

    #[test]
    fn byte_blobs_round_trip_and_nest_whole_frames() {
        let inner = sample_frame();
        let mut encoder = Encoder::new(KIND, 2);
        encoder.bytes(&inner);
        encoder.bytes(&[]);
        let bytes = encoder.finish();

        let mut decoder = Decoder::new(&bytes, KIND, 2).unwrap();
        let carried = decoder.bytes().unwrap();
        assert_eq!(carried, inner);
        assert_eq!(decoder.bytes().unwrap(), Vec::<u8>::new());
        decoder.finish().unwrap();

        // The carried blob opens as the original frame.
        let mut nested = Decoder::new(&carried, KIND, 3).unwrap();
        assert_eq!(nested.u8().unwrap(), 7);
    }

    #[test]
    fn truncated_byte_blob_is_typed() {
        let mut encoder = Encoder::new(KIND, 1);
        encoder.u32(50); // declares 50 blob bytes, provides none
        let bytes = encoder.finish();
        let mut decoder = Decoder::new(&bytes, KIND, 1).unwrap();
        assert!(matches!(decoder.bytes(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn varints_round_trip_and_reject_overlong_forms() {
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::from(u32::MAX), u64::MAX];
        for &value in &values {
            let mut out = Vec::new();
            put_varu(&mut out, value);
            assert_eq!(out.len(), varu_len(value), "length formula for {value}");
            let mut offset = 0;
            assert_eq!(get_varu(&out, &mut offset).unwrap(), value);
            assert_eq!(offset, out.len());
        }
        // Overlong: 0x80 0x00 also "encodes" 0, but only 0x00 is canonical.
        let mut offset = 0;
        assert!(matches!(
            get_varu(&[0x80, 0x00], &mut offset),
            Err(CodecError::Malformed { what: "varint", .. })
        ));
        // 11 continuation bytes: more than 64 bits of payload.
        let mut offset = 0;
        assert!(matches!(
            get_varu(&[0xFF; 11], &mut offset),
            Err(CodecError::Malformed { what: "varint", .. })
        ));
        // Truncated mid-varint.
        let mut offset = 0;
        assert!(matches!(get_varu(&[0x80], &mut offset), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn packed_floats_round_trip_bit_exact_and_round_values_pack_small() {
        for value in
            [0.0, -0.0, 0.25, 0.5, 0.75, 1.0, -1.0, f64::NAN, f64::INFINITY, 1.0e300, 0.123_456_789]
        {
            let mut out = Vec::new();
            put_f64_packed(&mut out, value);
            let mut offset = 0;
            let back = get_f64_packed(&out, &mut offset).unwrap();
            assert_eq!(back.to_bits(), value.to_bits(), "packed f64 {value} not bit-exact");
        }
        assert_eq!(f64_packed_len(0.0), 1);
        assert!(f64_packed_len(0.25) <= 3, "quarter grades must stay small");
        assert!(f64_packed_len(1.0) <= 3);
    }

    fn u64_row_round_trip(words: &[u64], expect_tag: u8) {
        let mut out = Vec::new();
        let tag = put_u64_row(&mut out, words);
        assert_eq!(tag, expect_tag, "encoding choice for {words:?}");
        assert_eq!(out[0], expect_tag);
        let mut offset = 0;
        let mut row = Vec::new();
        assert_eq!(get_u64_row(&out, &mut offset, words.len(), &mut row).unwrap(), expect_tag);
        assert_eq!(offset, out.len(), "row decode must consume the row exactly");
        assert_eq!(row, words);
    }

    #[test]
    fn u64_rows_pick_the_smallest_encoding_and_round_trip() {
        // Scattered random-ish bits everywhere: dense wins.
        u64_row_round_trip(
            &[0x9E37_79B9_7F4A_7C15, 0xDEAD_BEEF_CAFE_F00D, 0x0123_4567_89AB_CDEF],
            U64_ROW_DENSE,
        );
        // Few nonzero words with scattered bits in a wide row: indexed wins.
        let mut scattered = vec![0u64; 64];
        scattered[17] = 0xAAAA_AAAA_AAAA_AAAA;
        u64_row_round_trip(&scattered, U64_ROW_INDEXED);
        // Empty row: 2 bytes either sparse way; the tie breaks to indexed.
        u64_row_round_trip(&[0u64; 64], U64_ROW_INDEXED);
        u64_row_round_trip(&[], U64_ROW_DENSE);
        // Clustered bits, including a run spanning word boundaries: runs win.
        let mut clustered = vec![0u64; 64];
        clustered[3] = u64::MAX;
        clustered[4] = u64::MAX;
        clustered[5] = 0b111;
        u64_row_round_trip(&clustered, U64_ROW_RUNS);
        // All ones is a single run.
        u64_row_round_trip(&[u64::MAX; 64], U64_ROW_RUNS);
        // Single low bit.
        u64_row_round_trip(&[1], U64_ROW_RUNS);
    }

    #[test]
    fn bit_runs_are_the_maximal_runs_bit_by_bit() {
        let naive = |words: &[u64]| {
            let mut runs: Vec<(u64, u64)> = Vec::new();
            for bit in 0..words.len() as u64 * 64 {
                if (words[(bit / 64) as usize] >> (bit % 64)) & 1 == 0 {
                    continue;
                }
                match runs.last_mut() {
                    Some((start, len)) if *start + *len == bit => *len += 1,
                    _ => runs.push((bit, 1)),
                }
            }
            runs
        };
        let patterns = [
            vec![],
            vec![0],
            vec![1],
            vec![u64::MAX],
            vec![1 << 63, 1],
            vec![u64::MAX, u64::MAX, 0b1011],
            vec![0, u64::MAX << 60, u64::MAX, 0, 0x8000_0000_0000_0001],
            vec![0x9E37_79B9_7F4A_7C15, 0xDEAD_BEEF_CAFE_F00D, 0x0123_4567_89AB_CDEF],
            vec![0, 0, 1 << 63],
        ];
        for words in &patterns {
            assert_eq!(BitRuns::new(words).collect::<Vec<_>>(), naive(words), "{words:x?}");
        }
    }

    #[test]
    fn u64_row_decoder_rejects_non_canonical_and_hostile_rows() {
        let decode = |bytes: &[u8], expected: usize| {
            let mut offset = 0;
            let mut row = Vec::new();
            get_u64_row(bytes, &mut offset, expected, &mut row)
        };
        // Unknown tag.
        assert!(matches!(decode(&[9], 1), Err(CodecError::Malformed { what: "u64 row", .. })));
        // Truncated dense row.
        assert!(matches!(decode(&[U64_ROW_DENSE, 1, 2], 1), Err(CodecError::Truncated { .. })));
        // Indexed: count past the row width (rejected before any allocation).
        let mut bytes = vec![U64_ROW_INDEXED];
        put_varu(&mut bytes, 2);
        assert!(matches!(decode(&bytes, 1), Err(CodecError::Malformed { .. })));
        // Indexed: a zero word is not canonical.
        let mut bytes = vec![U64_ROW_INDEXED];
        put_varu(&mut bytes, 1);
        put_varu(&mut bytes, 0);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(decode(&bytes, 4), Err(CodecError::Malformed { .. })));
        // Indexed: indices must strictly increase.
        let mut bytes = vec![U64_ROW_INDEXED];
        put_varu(&mut bytes, 2);
        for _ in 0..2 {
            put_varu(&mut bytes, 1);
            bytes.extend_from_slice(&7u64.to_le_bytes());
        }
        assert!(matches!(decode(&bytes, 4), Err(CodecError::Malformed { .. })));
        // Runs: a run past the row end.
        let mut bytes = vec![U64_ROW_RUNS];
        put_varu(&mut bytes, 1);
        put_varu(&mut bytes, 0);
        put_varu(&mut bytes, 65);
        assert!(matches!(decode(&bytes, 1), Err(CodecError::Malformed { .. })));
        // Runs: empty and unmerged runs are not canonical.
        let mut bytes = vec![U64_ROW_RUNS];
        put_varu(&mut bytes, 1);
        put_varu(&mut bytes, 0);
        put_varu(&mut bytes, 0);
        assert!(matches!(decode(&bytes, 1), Err(CodecError::Malformed { .. })));
        let mut bytes = vec![U64_ROW_RUNS];
        put_varu(&mut bytes, 2);
        for _ in 0..2 {
            put_varu(&mut bytes, 0);
            put_varu(&mut bytes, 1);
        }
        assert!(matches!(decode(&bytes, 1), Err(CodecError::Malformed { .. })));
        // A width past MAX_ROW_ELEMS is rejected before any allocation.
        assert!(matches!(
            decode(&[U64_ROW_INDEXED, 0], MAX_ROW_ELEMS + 1),
            Err(CodecError::Malformed { .. })
        ));
    }

    fn f64_row_round_trip(values: &[f64], expect_tag: u8) {
        let mut out = Vec::new();
        let tag = put_f64_row(&mut out, values);
        assert_eq!(tag, expect_tag, "encoding choice for {values:?}");
        let mut offset = 0;
        let mut row = Vec::new();
        assert_eq!(get_f64_row(&out, &mut offset, values.len(), &mut row).unwrap(), expect_tag);
        assert_eq!(offset, out.len());
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let back: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
        assert_eq!(back, bits, "f64 row not bit-exact");
    }

    #[test]
    fn f64_rows_pick_the_smaller_encoding_and_round_trip() {
        f64_row_round_trip(&[], F64_ROW_DENSE);
        f64_row_round_trip(&[0.25], F64_ROW_DENSE);
        f64_row_round_trip(&[0.0; 8], F64_ROW_BASED);
        f64_row_round_trip(&[0.0, 0.0, 0.75, 0.0, 0.0, 0.25, 0.0, 0.0], F64_ROW_BASED);
        f64_row_round_trip(&[0.1, 0.2, 0.3, 0.4], F64_ROW_DENSE);
    }

    #[test]
    fn f64_row_decoder_rejects_malformed_exception_lists() {
        let decode = |bytes: &[u8], expected: usize| {
            let mut offset = 0;
            let mut row = Vec::new();
            get_f64_row(bytes, &mut offset, expected, &mut row)
        };
        assert!(matches!(decode(&[7], 1), Err(CodecError::Malformed { what: "f64 row", .. })));
        // More exceptions than values.
        let mut bytes = vec![F64_ROW_BASED];
        put_f64_packed(&mut bytes, 0.0);
        put_varu(&mut bytes, 3);
        assert!(matches!(decode(&bytes, 2), Err(CodecError::Malformed { .. })));
        // Exception index out of range.
        let mut bytes = vec![F64_ROW_BASED];
        put_f64_packed(&mut bytes, 0.0);
        put_varu(&mut bytes, 1);
        put_varu(&mut bytes, 5);
        put_f64_packed(&mut bytes, 1.0);
        assert!(matches!(decode(&bytes, 2), Err(CodecError::Malformed { .. })));
        // Non-increasing exception indices.
        let mut bytes = vec![F64_ROW_BASED];
        put_f64_packed(&mut bytes, 0.0);
        put_varu(&mut bytes, 2);
        for _ in 0..2 {
            put_varu(&mut bytes, 0);
            put_f64_packed(&mut bytes, 1.0);
        }
        assert!(matches!(decode(&bytes, 3), Err(CodecError::Malformed { .. })));
        // Truncated mid-row.
        assert!(matches!(decode(&[F64_ROW_DENSE], 2), Err(CodecError::Truncated { .. })));
    }

    /// A frame exercising all three `u64` row encodings plus both `f64` row
    /// encodings, for the envelope-integrity sweeps below.
    fn row_frame() -> Vec<u8> {
        let mut encoder = Encoder::new(KIND, 5);
        encoder.varu(3);
        encoder.str_var("u123");
        let mut rows = Vec::new();
        assert_eq!(
            put_u64_row(&mut rows, &[0xDEAD_BEEF_0BAD_F00D, 0x0123_4567_89AB_CDEF]),
            U64_ROW_DENSE
        );
        let mut scattered = vec![0u64; 32];
        scattered[9] = 0x5555_5555_5555_5555;
        assert_eq!(put_u64_row(&mut rows, &scattered), U64_ROW_INDEXED);
        assert_eq!(put_u64_row(&mut rows, &[0b1111_0000]), U64_ROW_RUNS);
        assert_eq!(put_f64_row(&mut rows, &[0.5, 0.25, 0.125]), F64_ROW_DENSE);
        assert_eq!(put_f64_row(&mut rows, &[0.0; 6]), F64_ROW_BASED);
        encoder.raw(&rows);
        encoder.finish()
    }

    fn decode_row_frame(bytes: &[u8]) -> Result<(), CodecError> {
        let mut decoder = Decoder::new(bytes, KIND, 5)?;
        assert_eq!(decoder.varu()?, 3);
        assert_eq!(decoder.string_var()?, "u123");
        let rows = decoder.remaining();
        let mut offset = 0;
        let mut words = Vec::new();
        get_u64_row(rows, &mut offset, 2, &mut words)?;
        assert_eq!(words, vec![0xDEAD_BEEF_0BAD_F00D, 0x0123_4567_89AB_CDEF]);
        get_u64_row(rows, &mut offset, 32, &mut words)?;
        assert_eq!(words[9], 0x5555_5555_5555_5555);
        get_u64_row(rows, &mut offset, 1, &mut words)?;
        assert_eq!(words, vec![0b1111_0000]);
        let mut values = Vec::new();
        get_f64_row(rows, &mut offset, 3, &mut values)?;
        assert_eq!(values, vec![0.5, 0.25, 0.125]);
        get_f64_row(rows, &mut offset, 6, &mut values)?;
        assert_eq!(values, vec![0.0; 6]);
        decoder.raw(offset)?;
        decoder.finish()
    }

    #[test]
    fn row_frames_round_trip_and_reject_every_bit_flip_and_truncation() {
        let bytes = row_frame();
        decode_row_frame(&bytes).expect("intact row frame decodes");
        for len in 0..bytes.len() {
            assert!(decode_row_frame(&bytes[..len]).is_err(), "prefix of {len} bytes accepted");
        }
        for position in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[position] ^= 1 << bit;
                assert!(
                    decode_row_frame(&flipped).is_err(),
                    "flipping bit {bit} of byte {position} went undetected"
                );
            }
        }
    }

    #[test]
    fn stream_frames_round_trip_back_to_back() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &sample_frame()).unwrap();
        write_frame(&mut stream, &Encoder::new(KIND, 9).finish()).unwrap();

        let mut reader = &stream[..];
        let first = read_frame(&mut reader).unwrap().expect("first frame");
        assert_eq!(first, sample_frame());
        let second = read_frame(&mut reader).unwrap().expect("second frame");
        Decoder::new(&second, KIND, 9).unwrap().finish().unwrap();
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF at a boundary");
    }

    #[test]
    fn stream_eof_mid_frame_is_truncation_not_none() {
        let frame = sample_frame();
        for len in 1..frame.len() {
            let mut reader = &frame[..len];
            let error = read_frame(&mut reader).map(|_| ()).expect_err("partial frame");
            assert!(
                matches!(error, FrameIoError::Codec(CodecError::Truncated { .. })),
                "prefix of {len} bytes produced {error:?}"
            );
        }
    }

    #[test]
    fn frame_len_walks_frames_written_back_to_back() {
        let mut first = Encoder::new(KIND, 1);
        first.str("first");
        let mut second = Encoder::new(KIND, 1);
        second.u64(7);
        let (first, second) = (first.finish(), second.finish());
        let log = [first.as_slice(), second.as_slice()].concat();
        assert_eq!(frame_len(&log), Ok(first.len()));
        assert_eq!(frame_len(&log[first.len()..]), Ok(second.len()));
        for len in 0..HEADER_LEN {
            assert!(matches!(frame_len(&log[..len]), Err(CodecError::Truncated { .. })));
        }
        assert!(matches!(frame_len(b"not a frame at all"), Err(CodecError::BadMagic { .. })));
    }

    #[test]
    fn stream_rejects_foreign_bytes_and_absurd_lengths() {
        let mut reader = &b"this is not a frame and never will be"[..];
        assert!(matches!(
            read_frame(&mut reader),
            Err(FrameIoError::Codec(CodecError::BadMagic { .. }))
        ));

        let mut header = Vec::new();
        header.extend_from_slice(b"PMBF");
        header.extend_from_slice(KIND.as_slice());
        header.extend_from_slice(&1u32.to_le_bytes());
        header.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut reader = &header[..];
        assert!(matches!(
            read_frame(&mut reader),
            Err(FrameIoError::Codec(CodecError::Malformed { what: "stream frame length", .. }))
        ));
    }
}
