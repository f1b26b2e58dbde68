//! The binary model-snapshot format: a versioned, little-endian container of
//! checksummed, length-prefixed sections, plus the per-format tensor codec
//! that lets every [`CompressedLinear`] operator persist its *compressed*
//! representation (never a densified one).
//!
//! # On-disk layout (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"PDNNSNAP"
//! 8       2     u16    container version (currently 1)
//! 10      2     u16    container kind (see below)
//! 12      4     u32    section count
//! 16      ...   sections, back to back
//! ```
//!
//! Each section is
//!
//! ```text
//! u16    name length (≤ 255)
//! bytes  name (UTF-8)
//! u64    payload length
//! bytes  payload
//! u32    CRC-32 (IEEE) of the payload
//! ```
//!
//! All integers and floats are little-endian. Trailing bytes after the last
//! section are a parse error: a snapshot is exactly its header plus its
//! sections.
//!
//! # Container kinds
//!
//! * 0 [`KIND_TENSOR`]: one operator, a `"tensor"` record.
//! * 1 [`KIND_MLP`], 2 [`KIND_CONV`], 3 [`KIND_SEQ2SEQ`]: frozen models, a
//!   `"graph"` section plus their weight records and biases.
//! * 6 [`KIND_BLOCKED`]: a block-streamed model, an [`INNER_KIND_SECTION`]
//!   holding the wrapped kind, then the wrapped model's sections byte for
//!   byte. Its section framing is its block index.
//! * 4 and 5 are retired layouts; every loader rejects them.
//!
//! # Tensor encoding
//!
//! A *tensor record* is a `u16` format code followed by a format-specific
//! payload. Formats opt in by overriding
//! [`CompressedLinear::write_snapshot`]; decoding goes through a
//! [`SnapshotCodec`] — a registry mapping format codes to decode functions,
//! so downstream crates (circulant, prune, quant) register their formats
//! without `permdnn-core` depending on them. [`SnapshotCodec::new`] knows the
//! codecs implemented in this crate: dense, permuted-diagonal, the quantized
//! wrapper and the lowered PD convolution operator.
//!
//! # Versioning rules
//!
//! * The container version covers the header + section framing. Readers
//!   reject versions they do not know ([`SnapshotError::UnsupportedVersion`])
//!   rather than guessing.
//! * Format codes are append-only: a code is never reused for a different
//!   payload layout. A new layout for an existing format gets a new code.
//! * Section names are the model loaders' contract; loaders must tolerate
//!   unknown *extra* sections (forward compatibility) but never missing ones.
//!
//! # Corruption safety
//!
//! [`Snapshot::parse`] and every decoder return a typed [`SnapshotError`] on
//! malformed input — truncation, bit flips (checksum mismatch), bad magic,
//! unknown versions or format codes, and oversized length fields. Declared
//! lengths are validated against the bytes actually present *before* any
//! allocation, so a hostile header cannot make `load` over-allocate.

use std::collections::BTreeMap;
use std::sync::Arc;

use pd_tensor::Matrix;

use crate::format::CompressedLinear;
use crate::lowering::PdConvMatrix;
use crate::qlinear::QuantizedLinear;
use crate::BlockPermDiagMatrix;

/// The 8-byte container magic.
pub const MAGIC: [u8; 8] = *b"PDNNSNAP";
/// The container version this build writes and reads.
pub const VERSION: u16 = 1;

/// Model kind: a bare tensor record (one section named `"tensor"`).
pub const KIND_TENSOR: u16 = 0;
/// Model kind: a frozen MLP classifier.
pub const KIND_MLP: u16 = 1;
/// Model kind: a frozen convolutional classifier.
pub const KIND_CONV: u16 = 2;
/// Model kind: a frozen sequence-to-sequence model.
pub const KIND_SEQ2SEQ: u16 = 3;
// Kinds 4 and 5 are retired: 4 was a row-sharded tensor container (replaced
// by the per-host snapshots `split_tensor_rows` returns), 5 a block-streamed
// container whose leading `"block_index"` section copied the framing. Kinds
// are append-only like format codes, so neither is reused; every loader
// rejects both.
/// Model kind: a block-streamed container — an [`INNER_KIND_SECTION`] (the
/// wrapped model kind, a `u16`) followed by the original model's sections
/// byte for byte. Each weight section ([`is_weight_block_section`]) is an
/// independently CRC-checked *block*, and its section frame is its index
/// entry: nothing else records where a block lies. Written by
/// [`block_stream_snapshot`]; [`read_block_index`] locates every block from
/// the framing without checking any block payload, [`load_block`] decodes one
/// block after checking only that block's CRC, and [`extract_block`]
/// re-frames one block as a standalone [`KIND_TENSOR`] snapshot — the
/// layer-granular paging form of the Kun-peng ordered-block database design.
pub const KIND_BLOCKED: u16 = 6;

/// Tensor format code: dense `pd_tensor::Matrix`.
pub const FORMAT_DENSE: u16 = 1;
/// Tensor format code: [`BlockPermDiagMatrix`].
pub const FORMAT_PERMUTED_DIAGONAL: u16 = 2;
/// Tensor format code: `permdnn_circulant::BlockCirculantMatrix`.
pub const FORMAT_CIRCULANT: u16 = 3;
/// Tensor format code: `permdnn_prune::CscMatrix`.
pub const FORMAT_CSC: u16 = 4;
/// Tensor format code: `permdnn_prune::eie_format::EieEncodedMatrix`.
pub const FORMAT_EIE: u16 = 5;
/// Tensor format code: `permdnn_quant::SharedWeightPdMatrix`.
pub const FORMAT_SHARED_PD: u16 = 6;
/// Tensor format code: [`QuantizedLinear`] (QScheme + raw `i16` weights, or a
/// nested tensor record for the dequantize-fallback execution).
pub const FORMAT_QUANTIZED: u16 = 7;
/// Tensor format code: [`PdConvMatrix`] (lowered permuted-diagonal conv).
pub const FORMAT_PD_CONV: u16 = 8;

/// Largest accepted section-name length.
const MAX_NAME_LEN: usize = 255;
/// Largest accepted logical dimension (rows, cols, channels...). Generous —
/// a 2^24 × 2^24 dense matrix could never fit in a real snapshot anyway —
/// while keeping every `rows * cols`-style product far from overflow.
const MAX_DIM: u64 = 1 << 24;

/// Everything that can go wrong reading (or writing) a snapshot. `load` paths
/// return this — never panic — for arbitrarily corrupted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The 8 bytes actually found (zero-padded if fewer were present).
        got: [u8; 8],
    },
    /// The container version is not one this build reads.
    UnsupportedVersion {
        /// Version found in the header.
        got: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The input ended before a declared field — truncation, or a length
    /// field larger than the bytes present (the over-allocation guard).
    Truncated {
        /// What was being read.
        context: &'static str,
        /// Bytes (or elements) the field declared.
        needed: u64,
        /// Bytes actually available.
        got: u64,
    },
    /// A section's stored CRC-32 does not match its payload (bit corruption).
    ChecksumMismatch {
        /// Name of the damaged section.
        section: String,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A tensor record carries a format code no registered codec decodes.
    UnknownFormat {
        /// The unrecognised format code.
        code: u16,
    },
    /// A model loader did not find a section it requires.
    MissingSection {
        /// The absent section's name.
        name: String,
    },
    /// The operator has no snapshot codec (it cannot be saved).
    UnsupportedOperator {
        /// The operator's label.
        label: String,
    },
    /// Any other structural violation (inconsistent counts, out-of-range
    /// values, trailing garbage, invalid UTF-8...).
    Malformed {
        /// Where the violation was detected.
        context: &'static str,
        /// Human-readable description.
        reason: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic { got } => {
                write!(f, "bad snapshot magic {got:02x?} (expected {MAGIC:02x?})")
            }
            SnapshotError::UnsupportedVersion { got, supported } => {
                write!(f, "unsupported snapshot version {got} (supported: {supported})")
            }
            SnapshotError::Truncated {
                context,
                needed,
                got,
            } => write!(
                f,
                "truncated snapshot in {context}: needed {needed} bytes, {got} available"
            ),
            SnapshotError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in section {section:?}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            SnapshotError::UnknownFormat { code } => {
                write!(f, "unknown tensor format code {code}")
            }
            SnapshotError::MissingSection { name } => {
                write!(f, "required section {name:?} is missing")
            }
            SnapshotError::UnsupportedOperator { label } => {
                write!(f, "operator {label:?} has no snapshot codec")
            }
            SnapshotError::Malformed { context, reason } => {
                write!(f, "malformed snapshot in {context}: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The reflected CRC-32 polynomial (IEEE 802.3).
const CRC_POLY: u32 = 0xedb8_8320;

/// The slicing-by-8 lookup tables behind every [`crc32`] lane, computed at
/// compile time. `CRC_TABLES[0][b]` is the CRC register after shifting byte
/// `b` through the polynomial; `CRC_TABLES[k][b]` is the same byte followed
/// by `k` zero bytes, so eight lookups advance a register by eight input
/// bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// `X2N_TABLE[k]` is x^(2^k) mod P in the reflected bit order of a CRC
/// register (bit 31 is x^0), computed at compile time by repeated squaring.
/// [`x8n_mod_p`] builds x^(8·len) mod P from it in one multiplication per
/// set bit of `len`.
const X2N_TABLE: [u32; 32] = x2n_table();

const fn x2n_table() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mult_mod_p(p, p);
        k += 1;
    }
    table
}

/// The product `a · b` mod P of two polynomials held as reflected CRC
/// registers: one conditional XOR of `b · x^i` per coefficient of `a`.
const fn mult_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            product ^= b;
        }
        b = (b >> 1) ^ (CRC_POLY & (b & 1).wrapping_neg());
        bit += 1;
    }
    product
}

/// x^(8·len) mod P: what a CRC register is multiplied by when `len` bytes
/// follow it. This is zlib's `crc32_combine` rule: given the CRCs of `a`
/// and `b`, the CRC of `a ‖ b` is `crc_a · x^(8·len_b) ⊕ crc_b` mod P. The
/// rule is linear, so it joins raw lane registers the same way.
fn x8n_mod_p(len: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut n = len;
    let mut k = 3; // 8·len = len · x^(2^3)
    while n != 0 {
        if n & 1 != 0 {
            p = mult_mod_p(X2N_TABLE[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// One slicing-by-8 step: the register `crc` advanced over one
/// little-endian 8-byte word.
#[inline]
fn crc_step(t: &[[u32; 256]; 8], crc: u32, word: &[u8; 8]) -> u32 {
    let w = u64::from_le_bytes(*word) ^ u64::from(crc);
    t[7][(w & 0xff) as usize]
        ^ t[6][((w >> 8) & 0xff) as usize]
        ^ t[5][((w >> 16) & 0xff) as usize]
        ^ t[4][((w >> 24) & 0xff) as usize]
        ^ t[3][((w >> 32) & 0xff) as usize]
        ^ t[2][((w >> 40) & 0xff) as usize]
        ^ t[1][((w >> 48) & 0xff) as usize]
        ^ t[0][(w >> 56) as usize]
}

/// The raw register `crc` advanced over `bytes` in one lane: slicing-by-8
/// through [`CRC_TABLES`], then byte-at-a-time for the remainder.
fn crc_update(mut crc: u32, bytes: &[u8]) -> u32 {
    // A reference to the const is promoted to a static: no per-call copy.
    let t: &'static [[u32; 256]; 8] = &CRC_TABLES;
    let (words, rest) = bytes.as_chunks::<8>();
    for word in words {
        crc = crc_step(t, crc, word);
    }
    for &b in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// Inputs shorter than this run in one lane: below it, joining four lanes
/// costs more than their overlap saves.
const CRC_LANE_CUTOFF: usize = 1024;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the per-section
/// payload checksum.
///
/// An input of at least 1 KiB is split into four contiguous quarters of
/// whole 8-byte words, and one slicing-by-8 register per quarter runs in a
/// single loop, so the four table-lookup chains overlap instead of waiting
/// on each other. The registers are joined by zlib's `crc32_combine` rule
/// (multiply the left register by x^(8·quarter) mod P, XOR the right one),
/// and the tail of at most 31 bytes, like any shorter input, runs through
/// the single-lane loop of [`crc32_single_lane`]. The output is the
/// standard CRC-32 of the input, identical to the textbook bit-at-a-time
/// loop for every input, so every checksum already on disk still verifies.
pub fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() < CRC_LANE_CUTOFF {
        return crc32_single_lane(bytes);
    }
    let (words, _) = bytes.as_chunks::<8>();
    let quarter = words.len() / 4;
    let (ab, cd) = words[..4 * quarter].split_at(2 * quarter);
    let ((a, b), (c, d)) = (ab.split_at(quarter), cd.split_at(quarter));
    let t: &'static [[u32; 256]; 8] = &CRC_TABLES;
    // Lane 0 carries the standard preset; the others start from zero, so
    // each holds the raw CRC of its quarter alone.
    let mut reg = [0xffff_ffffu32, 0, 0, 0];
    for (((wa, wb), wc), wd) in a.iter().zip(b).zip(c).zip(d) {
        reg[0] = crc_step(t, reg[0], wa);
        reg[1] = crc_step(t, reg[1], wb);
        reg[2] = crc_step(t, reg[2], wc);
        reg[3] = crc_step(t, reg[3], wd);
    }
    let shift = x8n_mod_p(8 * quarter);
    let joined = reg[1..]
        .iter()
        .fold(reg[0], |crc, &lane| mult_mod_p(shift, crc) ^ lane);
    !crc_update(joined, &bytes[32 * quarter..])
}

/// CRC-32 in one slicing-by-8 lane: the loop [`crc32`] runs on short inputs
/// and on its tail, kept public as the baseline `wall_sweep` times the four
/// lanes against. Same output as [`crc32`] for every input.
pub fn crc32_single_lane(bytes: &[u8]) -> u32 {
    !crc_update(0xffff_ffff, bytes)
}

/// Little-endian byte sink used by every encoder.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds [`MAX_DIM`] — the same bound
    /// [`ByteReader::dim`] enforces, so anything written is always readable
    /// back. No in-memory operator in this workspace has a dimension
    /// anywhere near 2²⁴.
    pub fn dim(&mut self, v: usize) {
        assert!(
            v as u64 <= MAX_DIM,
            "dimension {v} exceeds the snapshot encoding's maximum {MAX_DIM}"
        );
        self.u32(v as u32);
    }

    /// Appends a little-endian `i16`.
    pub fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u16` length prefix.
    ///
    /// # Panics
    ///
    /// Panics if the string is longer than 65535 bytes.
    pub fn str(&mut self, s: &str) {
        self.u16(u16::try_from(s.len()).expect("string fits in a u16 length"));
        self.bytes(s.as_bytes());
    }

    /// Appends each `f32` of a slice (no length prefix).
    pub fn f32_slice(&mut self, vs: &[f32]) {
        for &v in vs {
            self.f32(v);
        }
    }
}

/// Bounds-checked little-endian reader over a snapshot (or section) payload.
/// Every read returns [`SnapshotError::Truncated`] instead of panicking when
/// the input runs out.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether everything has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated {
                context,
                needed: n as u64,
                got: self.remaining() as u64,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, SnapshotError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a dimension written by [`ByteWriter::dim`], bounded by
    /// [`MAX_DIM`] so downstream size products cannot overflow.
    pub fn dim(&mut self, context: &'static str) -> Result<usize, SnapshotError> {
        let v = self.u32(context)?;
        if u64::from(v) > MAX_DIM {
            return Err(SnapshotError::Malformed {
                context,
                reason: format!("dimension {v} exceeds the supported maximum {MAX_DIM}"),
            });
        }
        Ok(v as usize)
    }

    /// Reads a little-endian `i16`.
    pub fn i16(&mut self, context: &'static str) -> Result<i16, SnapshotError> {
        let b = self.take(2, context)?;
        Ok(i16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self, context: &'static str) -> Result<i32, SnapshotError> {
        let b = self.take(4, context)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self, context: &'static str) -> Result<f32, SnapshotError> {
        let b = self.take(4, context)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<String, SnapshotError> {
        let len = self.u16(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed {
            context,
            reason: "string is not valid UTF-8".to_string(),
        })
    }

    /// Reads exactly `count` `f32`s. The byte requirement is checked against
    /// the remaining input *before* allocating.
    pub fn f32_vec(
        &mut self,
        count: usize,
        context: &'static str,
    ) -> Result<Vec<f32>, SnapshotError> {
        let bytes = self.take(
            count.checked_mul(4).ok_or(SnapshotError::Malformed {
                context,
                reason: "element count overflows".to_string(),
            })?,
            context,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Reads exactly `count` `i16`s, bounds-checked before allocation.
    pub fn i16_vec(
        &mut self,
        count: usize,
        context: &'static str,
    ) -> Result<Vec<i16>, SnapshotError> {
        let bytes = self.take(
            count.checked_mul(2).ok_or(SnapshotError::Malformed {
                context,
                reason: "element count overflows".to_string(),
            })?,
            context,
        )?;
        Ok(bytes
            .chunks_exact(2)
            .map(|b| i16::from_le_bytes([b[0], b[1]]))
            .collect())
    }

    /// Reads exactly `count` `u16`s as `usize`s, bounds-checked before
    /// allocation.
    pub fn u16_vec(
        &mut self,
        count: usize,
        context: &'static str,
    ) -> Result<Vec<usize>, SnapshotError> {
        let bytes = self.take(
            count.checked_mul(2).ok_or(SnapshotError::Malformed {
                context,
                reason: "element count overflows".to_string(),
            })?,
            context,
        )?;
        Ok(bytes
            .chunks_exact(2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]) as usize)
            .collect())
    }

    /// Reads exactly `count` `u32`s as `usize`s, bounds-checked before
    /// allocation.
    pub fn u32_vec(
        &mut self,
        count: usize,
        context: &'static str,
    ) -> Result<Vec<usize>, SnapshotError> {
        let bytes = self.take(
            count.checked_mul(4).ok_or(SnapshotError::Malformed {
                context,
                reason: "element count overflows".to_string(),
            })?,
            context,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
            .collect())
    }

    /// Splits off the next `len` bytes as a nested reader (used for embedded
    /// tensor records).
    pub fn sub_reader(
        &mut self,
        len: usize,
        context: &'static str,
    ) -> Result<ByteReader<'a>, SnapshotError> {
        Ok(ByteReader::new(self.take(len, context)?))
    }

    /// Fails unless the reader is fully consumed — decoders call this so
    /// trailing garbage inside a section is a hard error, not silence.
    pub fn expect_end(&self, context: &'static str) -> Result<(), SnapshotError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed {
                context,
                reason: format!("{} trailing bytes after the payload", self.remaining()),
            })
        }
    }
}

/// Builds a snapshot: a model kind plus named, checksummed sections in
/// insertion order.
#[derive(Debug, Clone)]
pub struct SnapshotBuilder {
    kind: u16,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// An empty snapshot of the given model kind.
    pub fn new(kind: u16) -> Self {
        SnapshotBuilder {
            kind,
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty or longer than 255 bytes (writer bug, not
    /// data corruption).
    pub fn section(&mut self, name: &str, payload: Vec<u8>) -> &mut Self {
        assert!(
            !name.is_empty() && name.len() <= MAX_NAME_LEN,
            "section name must be 1..=255 bytes"
        );
        self.sections.push((name.to_string(), payload));
        self
    }

    /// Serialises the container.
    pub fn finish(self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u16(VERSION);
        w.u16(self.kind);
        w.u32(self.sections.len() as u32);
        for (name, payload) in &self.sections {
            w.u16(name.len() as u16);
            w.bytes(name.as_bytes());
            w.u64(payload.len() as u64);
            w.bytes(payload);
            w.u32(crc32(payload));
        }
        w.into_vec()
    }
}

/// A parsed snapshot: the model kind and the validated sections, each name
/// and payload borrowed in place from the parsed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot<'a> {
    kind: u16,
    sections: Vec<(&'a str, &'a [u8])>,
}

impl<'a> Snapshot<'a> {
    /// Parses and fully validates a snapshot container: magic, version,
    /// section framing and every per-section checksum. Corrupted input of any
    /// shape produces a typed [`SnapshotError`]; nothing panics, and declared
    /// lengths are checked against the available bytes before allocation. No
    /// payload is copied.
    pub fn parse(bytes: &'a [u8]) -> Result<Snapshot<'a>, SnapshotError> {
        let mut sections = Vec::new();
        let kind = walk_frames(bytes, true, |f| {
            sections.push((f.name, &bytes[f.offset..][..f.len]));
        })?;
        Ok(Snapshot { kind, sections })
    }

    /// The model kind from the header.
    pub fn kind(&self) -> u16 {
        self.kind
    }

    /// The sections, in file order.
    pub fn sections(&self) -> &[(&'a str, &'a [u8])] {
        &self.sections
    }

    /// The payload of the named section.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::MissingSection`] if no section has that name.
    pub fn section(&self, name: &str) -> Result<&'a [u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, p)| p)
            .ok_or_else(|| SnapshotError::MissingSection {
                name: name.to_string(),
            })
    }
}

/// A decode function: consumes one tensor payload (the bytes after the format
/// code) and rebuilds the operator. The codec is passed back in so wrapper
/// formats ([`QuantizedLinear`]'s fallback execution) can decode nested
/// records.
pub type DecodeFn =
    fn(&mut ByteReader<'_>, &SnapshotCodec) -> Result<Arc<dyn CompressedLinear>, SnapshotError>;

/// The tensor-format registry: format code → decoder. [`SnapshotCodec::new`]
/// registers the formats implemented in `permdnn-core`; downstream crates add
/// theirs with [`SnapshotCodec::register`] (see `permdnn_nn::snapshot::codec`
/// for the full workspace registry).
#[derive(Clone, Default)]
pub struct SnapshotCodec {
    decoders: BTreeMap<u16, DecodeFn>,
}

impl std::fmt::Debug for SnapshotCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCodec")
            .field("formats", &self.decoders.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl SnapshotCodec {
    /// A codec knowing the formats owned by `permdnn-core`: dense,
    /// permuted-diagonal, the quantized wrapper and the lowered PD conv.
    pub fn new() -> Self {
        let mut codec = SnapshotCodec {
            decoders: BTreeMap::new(),
        };
        codec.register(FORMAT_DENSE, decode_dense);
        codec.register(FORMAT_PERMUTED_DIAGONAL, decode_permuted_diagonal);
        codec.register(FORMAT_QUANTIZED, decode_quantized);
        codec.register(FORMAT_PD_CONV, decode_pd_conv);
        codec
    }

    /// Registers (or replaces) the decoder for a format code.
    pub fn register(&mut self, code: u16, decode: DecodeFn) -> &mut Self {
        self.decoders.insert(code, decode);
        self
    }

    /// The registered format codes, ascending.
    pub fn formats(&self) -> Vec<u16> {
        self.decoders.keys().copied().collect()
    }

    /// Decodes one tensor record (format code + payload) from the reader.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::UnknownFormat`] for unregistered codes and
    /// the decoder's error for malformed payloads.
    pub fn decode_tensor(
        &self,
        r: &mut ByteReader<'_>,
    ) -> Result<Arc<dyn CompressedLinear>, SnapshotError> {
        let code = r.u16("tensor format code")?;
        let decode = self
            .decoders
            .get(&code)
            .ok_or(SnapshotError::UnknownFormat { code })?;
        decode(r, self)
    }
}

/// Encodes one operator as a tensor record (`u16` format code + payload).
///
/// # Errors
///
/// Returns [`SnapshotError::UnsupportedOperator`] if the operator does not
/// implement [`CompressedLinear::write_snapshot`].
pub fn encode_tensor(op: &dyn CompressedLinear) -> Result<Vec<u8>, SnapshotError> {
    let mut payload = ByteWriter::new();
    match op.write_snapshot(&mut payload) {
        Some(code) => {
            let mut w = ByteWriter::new();
            w.u16(code);
            w.bytes(payload.as_slice());
            Ok(w.into_vec())
        }
        None => Err(SnapshotError::UnsupportedOperator { label: op.label() }),
    }
}

/// Saves one bare operator as a standalone snapshot ([`KIND_TENSOR`], a
/// single `"tensor"` section) — the golden-fixture form.
///
/// # Errors
///
/// Returns [`SnapshotError::UnsupportedOperator`] if the operator has no
/// codec.
pub fn save_tensor(op: &dyn CompressedLinear) -> Result<Vec<u8>, SnapshotError> {
    let mut b = SnapshotBuilder::new(KIND_TENSOR);
    b.section("tensor", encode_tensor(op)?);
    Ok(b.finish())
}

/// Loads a standalone operator snapshot written by [`save_tensor`].
///
/// # Errors
///
/// Returns a [`SnapshotError`] for any corruption, wrong kind, or
/// unregistered format.
pub fn load_tensor(
    bytes: &[u8],
    codec: &SnapshotCodec,
) -> Result<Arc<dyn CompressedLinear>, SnapshotError> {
    let snap = Snapshot::parse(bytes)?;
    if snap.kind() != KIND_TENSOR {
        return Err(SnapshotError::Malformed {
            context: "tensor snapshot",
            reason: format!("kind {} is not a bare tensor", snap.kind()),
        });
    }
    decode_record(snap.section("tensor")?, codec)
}

/// Decodes one complete tensor record (format code + payload) in place,
/// rejecting trailing bytes — the one decoder behind every tensor section:
/// [`load_tensor`], [`load_block`] and the model loaders' weight sections.
///
/// # Errors
///
/// Returns [`SnapshotError::UnknownFormat`] for a format code `codec` does
/// not register, and the decoder's error for a malformed record or one with
/// trailing bytes.
pub fn decode_record(
    record: &[u8],
    codec: &SnapshotCodec,
) -> Result<Arc<dyn CompressedLinear>, SnapshotError> {
    let mut r = ByteReader::new(record);
    let op = codec.decode_tensor(&mut r)?;
    r.expect_end("tensor section")?;
    Ok(op)
}

// ---------------------------------------------------------------------------
// Row-split tensor snapshots (tensor parallelism).
// ---------------------------------------------------------------------------

/// Splits a bare-tensor snapshot ([`KIND_TENSOR`]) into `shards` contiguous
/// row slices and returns each as a standalone tensor snapshot: element `k`
/// is [`save_tensor`] of slice `k`, which [`load_tensor`] (and therefore any
/// `ModelRegistry` loader) decodes without any other slice's bytes. The split
/// is block-row granular ([`crate::format::block_row_ranges`]): dense tensors
/// split at any row, permuted-diagonal tensors only at `p`-row block
/// boundaries — a fractional block would break the one-nonzero-per-column-
/// per-block invariant (the phantom-row MAC bug class).
///
/// Concatenating the decoded slices row-wise reproduces the whole tensor
/// bit-for-bit (`tests/cluster.rs` locks this in), which is what makes
/// row-sharded cluster serving bit-identical to single-host serving.
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] if the input is corrupt, is not a bare
/// tensor, holds a format with no row-slicing support (only dense and
/// permuted-diagonal tensors split), or has fewer splittable block rows than
/// `shards`.
pub fn split_tensor_rows(bytes: &[u8], shards: usize) -> Result<Vec<Vec<u8>>, SnapshotError> {
    if shards == 0 {
        return Err(SnapshotError::Malformed {
            context: "shard count",
            reason: "cannot split a tensor into 0 shards".to_string(),
        });
    }
    let snap = Snapshot::parse(bytes)?;
    if snap.kind() != KIND_TENSOR {
        return Err(SnapshotError::Malformed {
            context: "shard source",
            reason: format!("kind {} is not a bare tensor", snap.kind()),
        });
    }
    let mut r = ByteReader::new(snap.section("tensor")?);
    match r.u16("tensor format code")? {
        FORMAT_DENSE => {
            let rows = r.dim("dense rows")?;
            let cols = r.dim("dense cols")?;
            let data = r.f32_vec(rows * cols, "dense values")?;
            r.expect_end("dense tensor")?;
            slice_check(rows, 1, shards)?;
            crate::format::block_row_ranges(rows, 1, shards)
                .into_iter()
                .map(|range| {
                    let m = Matrix::from_vec(
                        range.len(),
                        cols,
                        data[range.start * cols..range.end * cols].to_vec(),
                    )
                    .expect("slice length matches its shape");
                    save_tensor(&m)
                })
                .collect()
        }
        FORMAT_PERMUTED_DIAGONAL => {
            let m = read_pd_matrix(&mut r)?;
            r.expect_end("pd tensor")?;
            let (p, cols) = (m.p(), m.cols());
            let block_cols = cols.div_ceil(p);
            slice_check(m.rows(), p, shards)?;
            // Perms and values are block-row major (block l = br·block_cols +
            // bc, value l·p + c), so a block-row slice is two contiguous
            // subslices — no per-entry reindexing.
            crate::format::block_row_ranges(m.rows(), p, shards)
                .into_iter()
                .map(|range| {
                    let (br0, br1) = (range.start / p, range.end.div_ceil(p));
                    let slice = BlockPermDiagMatrix::new(
                        range.len(),
                        cols,
                        p,
                        m.perms()[br0 * block_cols..br1 * block_cols]
                            .iter()
                            .map(|&k| usize::from(k))
                            .collect(),
                        m.values()[br0 * block_cols * p..br1 * block_cols * p].to_vec(),
                    )
                    .expect("block-row slices preserve every PD invariant");
                    save_tensor(&slice)
                })
                .collect()
        }
        other => Err(SnapshotError::UnsupportedOperator {
            label: format!("row sharding of tensor format code {other}"),
        }),
    }
}

/// Rejects splits finer than the tensor's block-row count.
fn slice_check(rows: usize, p: usize, shards: usize) -> Result<(), SnapshotError> {
    let block_rows = rows.div_ceil(p.max(1));
    if shards > block_rows {
        return Err(SnapshotError::Malformed {
            context: "shard count",
            reason: format!("{shards} shards exceed the tensor's {block_rows} block rows"),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Block-streamed snapshots (layer-granular paging, Kun-peng ordered blocks).
// ---------------------------------------------------------------------------

/// Name of the first section of a [`KIND_BLOCKED`] container. Its payload is
/// the wrapped model kind, one `u16`.
pub const INNER_KIND_SECTION: &str = "inner_kind";

/// One entry of a [`BlockIndex`]: a weight tensor record addressable (and
/// CRC-checkable) without parsing the rest of the container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEntry {
    /// Section name of the block (e.g. `"layer0.weights"` or `"tensor"`).
    pub name: String,
    /// Tensor format code of the record (`FORMAT_*`) — the record's own
    /// leading `u16`, surfaced here so tooling can dispatch or report without
    /// decoding the block. It is read before the block's CRC is checked, so
    /// a corrupt block may show any code here; loading or extracting that
    /// block still fails its checksum.
    pub kind: u16,
    /// Absolute file offset of the record payload, from its section frame.
    pub offset: u64,
    /// Record payload length in bytes, from its section frame — the block's
    /// cost against a paging registry's residency budget.
    pub len: u64,
}

/// The blocks of a [`KIND_BLOCKED`] container and the model kind it wraps,
/// as [`read_block_index`] reads them from the container's section framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockIndex {
    /// The model kind the container wraps ([`KIND_MLP`], [`KIND_TENSOR`],
    /// ...), so loaders can dispatch without decoding anything.
    pub inner_kind: u16,
    /// The blocks, in file order.
    pub blocks: Vec<BlockEntry>,
}

impl BlockIndex {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the container holds no blocks (never true for an index written
    /// by [`block_stream_snapshot`]).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Position of the block whose section is named `name`.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.blocks.iter().position(|b| b.name == name)
    }

    /// Total block payload bytes — what full residency costs a paging cache.
    pub fn total_block_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.len).sum()
    }

    /// The largest single block payload, in bytes. The paging registry's
    /// peak-residency bound is `budget + max_block_bytes`.
    pub fn max_block_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.len).max().unwrap_or(0)
    }
}

/// One section frame located by [`walk_frames`]: its name, borrowed from the
/// file, plus the payload's position inside it.
struct Frame<'a> {
    name: &'a str,
    offset: usize,
    len: usize,
}

/// Walks a container's header and section framing — the one framing parser
/// every reader shares — hands every frame to `visit` in file order, and
/// returns the header's model kind. Magic, version, counts, names, declared
/// lengths and trailing bytes are all validated. A frame can be visited
/// before a later one fails to frame, so callers use what `visit` kept only
/// when the walk returns `Ok`.
///
/// With `check_crcs` off no payload is read — O(section count) work, never
/// O(file). This is what lets one block load while some *other* block's
/// payload is corrupt: only the bytes actually consumed are validated.
/// [`Snapshot::parse`] turns it on, and each payload is then checked against
/// its CRC as soon as it is framed, before the next frame is read: a damaged
/// length field reports the checksum mismatch it causes, not the misframing
/// that follows.
fn walk_frames<'a>(
    bytes: &'a [u8],
    check_crcs: bool,
    mut visit: impl FnMut(Frame<'a>),
) -> Result<u16, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(MAGIC.len(), "magic").map_err(|_| {
        let mut got = [0u8; 8];
        got[..bytes.len().min(8)].copy_from_slice(&bytes[..bytes.len().min(8)]);
        SnapshotError::BadMagic { got }
    })?;
    if magic != MAGIC {
        let mut got = [0u8; 8];
        got.copy_from_slice(magic);
        return Err(SnapshotError::BadMagic { got });
    }
    let version = r.u16("header version")?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            got: version,
            supported: VERSION,
        });
    }
    let kind = r.u16("header kind")?;
    let count = r.u32("header section count")? as usize;
    // Each section needs at least name-len + payload-len + crc = 14 bytes;
    // reject impossible counts before reserving anything.
    if count > r.remaining() / 14 {
        return Err(SnapshotError::Truncated {
            context: "section table",
            needed: (count as u64) * 14,
            got: r.remaining() as u64,
        });
    }
    for _ in 0..count {
        let name_len = r.u16("section name length")? as usize;
        if name_len == 0 || name_len > MAX_NAME_LEN {
            return Err(SnapshotError::Malformed {
                context: "section name length",
                reason: format!("length {name_len} outside 1..=255"),
            });
        }
        let name = std::str::from_utf8(r.take(name_len, "section name")?).map_err(|_| {
            SnapshotError::Malformed {
                context: "section name",
                reason: "not valid UTF-8".to_string(),
            }
        })?;
        let payload_len = r.u64("section payload length")?;
        // The over-allocation guard: the declared length must fit in the
        // bytes that are actually present (leaving room for the CRC).
        if payload_len.saturating_add(4) > r.remaining() as u64 {
            return Err(SnapshotError::Truncated {
                context: "section payload",
                needed: payload_len.saturating_add(4),
                got: r.remaining() as u64,
            });
        }
        let offset = bytes.len() - r.remaining();
        r.take(payload_len as usize, "section payload")?;
        r.take(4, "section checksum")?;
        let frame = Frame {
            name,
            offset,
            len: payload_len as usize,
        };
        if check_crcs {
            verified_payload(bytes, &frame)?;
        }
        visit(frame);
    }
    r.expect_end("container")?;
    Ok(kind)
}

/// [`walk_frames`] for the block readers: no payload is read, and the
/// container must be [`KIND_BLOCKED`].
fn walk_blocked_frames<'a>(
    bytes: &'a [u8],
    visit: impl FnMut(Frame<'a>),
) -> Result<(), SnapshotError> {
    let kind = walk_frames(bytes, false, visit)?;
    if kind != KIND_BLOCKED {
        return Err(SnapshotError::Malformed {
            context: "blocked container",
            reason: format!("kind {kind} is not a block-streamed snapshot"),
        });
    }
    Ok(())
}

/// CRC-checks one walked frame's payload against the stored checksum that
/// follows it (whose presence [`walk_frames`] already bounds-checked) and
/// returns the payload, borrowed in place.
fn verified_payload<'a>(bytes: &'a [u8], frame: &Frame) -> Result<&'a [u8], SnapshotError> {
    let payload = &bytes[frame.offset..frame.offset + frame.len];
    let crc = &bytes[frame.offset + frame.len..frame.offset + frame.len + 4];
    let stored = u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]);
    let computed = crc32(payload);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch {
            section: frame.name.to_string(),
            stored,
            computed,
        });
    }
    Ok(payload)
}

/// The container kind of a snapshot, read from the header alone — no
/// section is CRC-checked or even framed. `None` if the bytes are too short
/// or do not carry the magic/version, in which case full parsing would fail
/// with a typed error anyway. This is the cheap dispatch a registry needs to
/// decide *how* to load bytes before validating them.
pub fn peek_kind(bytes: &[u8]) -> Option<u16> {
    if bytes.len() < 16 || bytes[..MAGIC.len()] != MAGIC {
        return None;
    }
    if u16::from_le_bytes([bytes[8], bytes[9]]) != VERSION {
        return None;
    }
    Some(u16::from_le_bytes([bytes[10], bytes[11]]))
}

/// The default rule for which sections of a model snapshot become pageable
/// blocks: the bare-tensor `"tensor"` section and every `"*.weights"`
/// layer/gate record. Everything else (layer graphs, bias vectors, quant
/// schemes) is small metadata that stays inline and loads eagerly.
pub fn is_weight_block_section(name: &str) -> bool {
    name == "tensor" || name.ends_with(".weights")
}

/// Converts a model snapshot ([`KIND_TENSOR`], [`KIND_MLP`], [`KIND_CONV`]
/// or [`KIND_SEQ2SEQ`]) into a [`KIND_BLOCKED`] container using the
/// [`is_weight_block_section`] convention: an [`INNER_KIND_SECTION`] holding
/// the source's kind, then every original section unchanged, in order. The
/// section framing is the block index, so nothing else is written.
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] if the input is corrupt, already
/// blocked, of a kind no reader serves (a retired or unknown one), has no
/// weight sections, or holds a weight section too short to carry a format
/// code.
pub fn block_stream_snapshot(bytes: &[u8]) -> Result<Vec<u8>, SnapshotError> {
    let snap = Snapshot::parse(bytes)?;
    if !(KIND_TENSOR..=KIND_SEQ2SEQ).contains(&snap.kind()) {
        return Err(SnapshotError::Malformed {
            context: "block stream source",
            reason: match snap.kind() {
                KIND_BLOCKED => "snapshot is already block-streamed".to_string(),
                other => format!("kind {other} is not a model kind a reader serves"),
            },
        });
    }
    let mut b = SnapshotBuilder::new(KIND_BLOCKED);
    b.section(INNER_KIND_SECTION, snap.kind().to_le_bytes().to_vec());
    for (name, payload) in snap.sections() {
        b.section(name, payload.to_vec());
    }
    let blocked = b.finish();
    // Walking the blocks back rejects a weight section too short to carry a
    // format code.
    let mut blocks = 0;
    walk_blocks(&blocked, |_, _| blocks += 1)?;
    if blocks == 0 {
        return Err(SnapshotError::Malformed {
            context: "block stream source",
            reason: "snapshot has no weight sections to block".to_string(),
        });
    }
    Ok(blocked)
}

/// Reads the block index of a [`KIND_BLOCKED`] container from its section
/// framing, *checking no block payload*: the framing is walked (O(section
/// count)), the [`INNER_KIND_SECTION`] is CRC-checked and read, and each
/// weight section's frame becomes a [`BlockEntry`] whose format code is the
/// record's leading `u16`. A block's CRC is checked when [`load_block`] or
/// [`extract_block`] reads it.
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] for corruption in the header or
/// framing, a container of any other kind (the retired kind 5 included), an
/// inner-kind section that is missing, not first, corrupt or not exactly two
/// bytes, and a weight section shorter than a format code.
pub fn read_block_index(bytes: &[u8]) -> Result<BlockIndex, SnapshotError> {
    let mut blocks = Vec::new();
    let inner_kind = walk_blocks(bytes, |f, kind| {
        blocks.push(BlockEntry {
            name: f.name.to_string(),
            kind,
            offset: f.offset as u64,
            len: f.len as u64,
        });
    })?;
    Ok(BlockIndex { inner_kind, blocks })
}

/// The walk behind [`read_block_index`] and every block read: the framing of
/// a [`KIND_BLOCKED`] container, then its CRC-checked inner kind, then the
/// format code each weight section's record leads with. Each weight
/// section's frame goes to `visit` with its code, in file order, and the
/// inner kind is returned; what `visit` saw counts only if that is `Ok`. No
/// block payload is checked.
fn walk_blocks<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(Frame<'a>, u16),
) -> Result<u16, SnapshotError> {
    let (mut inner, mut short_record) = (None, None);
    walk_blocked_frames(bytes, |f| {
        if inner.is_none() {
            inner = Some(f);
        } else if is_weight_block_section(f.name) && short_record.is_none() {
            let record = &bytes[f.offset..f.offset + f.len];
            match ByteReader::new(record).u16("block format code") {
                Ok(code) => visit(f, code),
                Err(e) => short_record = Some(e),
            }
        }
    })?;
    let inner = match inner {
        Some(f) if f.name == INNER_KIND_SECTION => f,
        _ => {
            return Err(SnapshotError::MissingSection {
                name: INNER_KIND_SECTION.to_string(),
            })
        }
    };
    let mut r = ByteReader::new(verified_payload(bytes, &inner)?);
    let inner_kind = r.u16("block container inner kind")?;
    r.expect_end("block container inner kind")?;
    match short_record {
        Some(e) => Err(e),
        None => Ok(inner_kind),
    }
}

/// Locates block `k` of a [`KIND_BLOCKED`] container by the walk
/// [`read_block_index`] runs, keeping only that block's frame, and checks
/// *only that block's* payload against its stored CRC, returning the payload
/// borrowed in place — the shared first step of [`extract_block`] and
/// [`load_block`].
fn verified_block(bytes: &[u8], k: usize) -> Result<&[u8], SnapshotError> {
    let (mut seen, mut block) = (0, None);
    walk_blocks(bytes, |frame, _| {
        if seen == k {
            block = Some(frame);
        }
        seen += 1;
    })?;
    match block {
        Some(frame) => verified_payload(bytes, &frame),
        None => Err(SnapshotError::MissingSection {
            name: format!("block {k}"),
        }),
    }
}

/// Extracts block `k` of a [`KIND_BLOCKED`] container as a standalone
/// [`KIND_TENSOR`] snapshot — directly decodable by [`load_tensor`] — after
/// CRC-checking *only that block's* payload, for tooling that wants one
/// layer as a file of its own. To decode a block, [`load_block`] does the
/// same validation without the re-framing.
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] for anything [`read_block_index`]
/// rejects or corruption in the requested block itself, and
/// [`SnapshotError::MissingSection`] for a block number the index does not
/// list.
pub fn extract_block(bytes: &[u8], k: usize) -> Result<Vec<u8>, SnapshotError> {
    let mut b = SnapshotBuilder::new(KIND_TENSOR);
    b.section("tensor", verified_block(bytes, k)?.to_vec());
    Ok(b.finish())
}

/// Decodes block `k` of a [`KIND_BLOCKED`] container — the paging registry's
/// fault path. The block's payload is checked once against its stored CRC
/// and decoded in place from `bytes`: no payload copy, no re-framing, and no
/// second checksum. The result is the operator `load_tensor(&extract_block(bytes,
/// k)?, codec)` returns, with the same errors.
///
/// # Errors
///
/// As [`extract_block`], plus the decoder's error for a record that is
/// malformed or has trailing bytes, and [`SnapshotError::UnknownFormat`] for
/// a format code `codec` does not register.
pub fn load_block(
    bytes: &[u8],
    k: usize,
    codec: &SnapshotCodec,
) -> Result<Arc<dyn CompressedLinear>, SnapshotError> {
    decode_record(verified_block(bytes, k)?, codec)
}

/// Reads one *metadata* section (an MLP's `"graph"`, a bias vector, ...) of a
/// [`KIND_BLOCKED`] container, CRC-checking only that section — the eager
/// half of a paged load, which must not pay for (or depend on the integrity
/// of) any block payload.
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] for corruption in the header, framing or
/// the requested section, and [`SnapshotError::MissingSection`] if no section
/// has that name.
pub fn read_blocked_section(bytes: &[u8], name: &str) -> Result<Vec<u8>, SnapshotError> {
    let mut found = None;
    walk_blocked_frames(bytes, |f| {
        if found.is_none() && f.name == name {
            found = Some(f);
        }
    })?;
    let frame = found.ok_or_else(|| SnapshotError::MissingSection {
        name: name.to_string(),
    })?;
    Ok(verified_payload(bytes, &frame)?.to_vec())
}

// ---------------------------------------------------------------------------
// Core-owned format codecs.
// ---------------------------------------------------------------------------

/// Encodes a dense matrix: rows, cols, row-major `f32` values.
pub(crate) fn write_dense(m: &Matrix, w: &mut ByteWriter) {
    w.dim(m.rows());
    w.dim(m.cols());
    w.f32_slice(m.as_slice());
}

fn decode_dense(
    r: &mut ByteReader<'_>,
    _codec: &SnapshotCodec,
) -> Result<Arc<dyn CompressedLinear>, SnapshotError> {
    let rows = r.dim("dense rows")?;
    let cols = r.dim("dense cols")?;
    let data = r.f32_vec(rows * cols, "dense values")?;
    let m = Matrix::from_vec(rows, cols, data).map_err(|e| SnapshotError::Malformed {
        context: "dense tensor",
        reason: e.to_string(),
    })?;
    Ok(Arc::new(m))
}

/// Encodes a permuted-diagonal matrix: rows, cols, p, per-block permutation
/// parameters (`u16` each — one per `p × p` block, the near-zero index
/// overhead the format is prized for), stored values — exactly the
/// compressed representation, no densification.
pub(crate) fn write_permuted_diagonal(m: &BlockPermDiagMatrix, w: &mut ByteWriter) {
    w.dim(m.rows());
    w.dim(m.cols());
    w.dim(m.p());
    for &k in m.perms() {
        w.u16(k);
    }
    w.f32_slice(m.values());
}

/// Whether a PD block size fits the snapshot encoding's `u16` permutation
/// parameters (`k < p ≤ 65536`). Block sizes are compression ratios — single
/// to double digits in practice — so this never bites outside fuzzers;
/// writers return `None` (no codec) for larger `p` rather than corrupting.
/// [`BlockPermDiagMatrix::new`] already rejects such block sizes, so only the
/// lowered convolution (`PdConvMatrix`) still needs the check.
pub fn pd_perms_encodable(p: usize) -> bool {
    p <= BlockPermDiagMatrix::MAX_BLOCK_SIZE
}

fn decode_permuted_diagonal(
    r: &mut ByteReader<'_>,
    _codec: &SnapshotCodec,
) -> Result<Arc<dyn CompressedLinear>, SnapshotError> {
    let m = read_pd_matrix(r)?;
    Ok(Arc::new(m))
}

/// Decodes the permuted-diagonal payload into the concrete matrix type
/// (shared with the shared-codebook format in `permdnn-quant`).
pub fn read_pd_matrix(r: &mut ByteReader<'_>) -> Result<BlockPermDiagMatrix, SnapshotError> {
    let rows = r.dim("pd rows")?;
    let cols = r.dim("pd cols")?;
    let p = r.dim("pd block size")?;
    if p == 0 {
        return Err(SnapshotError::Malformed {
            context: "pd block size",
            reason: "p must be non-zero".to_string(),
        });
    }
    let nblocks = rows.div_ceil(p) * cols.div_ceil(p);
    let perms = r.u16_vec(nblocks, "pd permutations")?;
    let values = r.f32_vec(nblocks * p, "pd values")?;
    BlockPermDiagMatrix::new(rows, cols, p, perms, values).map_err(|e| SnapshotError::Malformed {
        context: "pd tensor",
        reason: e.to_string(),
    })
}

/// Encodes the permuted-diagonal matrix fields without constructing a trait
/// object (helper for the shared-codebook format).
pub fn write_pd_matrix(m: &BlockPermDiagMatrix, w: &mut ByteWriter) {
    write_permuted_diagonal(m, w);
}

fn decode_quantized(
    r: &mut ByteReader<'_>,
    codec: &SnapshotCodec,
) -> Result<Arc<dyn CompressedLinear>, SnapshotError> {
    Ok(Arc::new(QuantizedLinear::snapshot_read(r, codec)?))
}

/// Encodes a lowered permuted-diagonal convolution operator: channel
/// geometry, kernel window, block size, per-block permutations and the stored
/// kernels.
pub(crate) fn write_pd_conv(m: &PdConvMatrix, w: &mut ByteWriter) {
    let t = m.tensor();
    w.dim(t.c_out());
    w.dim(t.c_in());
    w.dim(t.kh());
    w.dim(t.kw());
    w.dim(t.p());
    for &k in t.perms() {
        w.u16(k as u16);
    }
    w.f32_slice(t.kernels());
}

fn decode_pd_conv(
    r: &mut ByteReader<'_>,
    _codec: &SnapshotCodec,
) -> Result<Arc<dyn CompressedLinear>, SnapshotError> {
    let c_out = r.dim("pd-conv c_out")?;
    let c_in = r.dim("pd-conv c_in")?;
    let kh = r.dim("pd-conv kh")?;
    let kw = r.dim("pd-conv kw")?;
    let p = r.dim("pd-conv block size")?;
    if p == 0 || kh == 0 || kw == 0 {
        return Err(SnapshotError::Malformed {
            context: "pd-conv geometry",
            reason: "block size and kernel window must be non-zero".to_string(),
        });
    }
    let nblocks = c_out.div_ceil(p) * c_in.div_ceil(p);
    let perms = r.u16_vec(nblocks, "pd-conv permutations")?;
    if let Some(&bad) = perms.iter().find(|&&k| k >= p) {
        return Err(SnapshotError::Malformed {
            context: "pd-conv permutations",
            reason: format!("permutation {bad} out of range for p = {p}"),
        });
    }
    // 4-factor product of attacker-controlled dims: MAX_DIM bounds each
    // factor but not the product, so multiply checked (2^24 × 2^24 × 2^24
    // would wrap usize before f32_vec's own byte guard could see it).
    let kernel_count = nblocks
        .checked_mul(p)
        .and_then(|n| n.checked_mul(kh))
        .and_then(|n| n.checked_mul(kw))
        .ok_or(SnapshotError::Malformed {
            context: "pd-conv kernels",
            reason: "kernel element count overflows".to_string(),
        })?;
    let kernels = r.f32_vec(kernel_count, "pd-conv kernels")?;
    let mut tensor = crate::BlockPermDiagTensor4::zeros(
        c_out,
        c_in,
        kh,
        kw,
        p,
        crate::PermutationIndexing::Natural,
    )
    .map_err(|e| SnapshotError::Malformed {
        context: "pd-conv tensor",
        reason: e.to_string(),
    })?;
    tensor.set_perms(&perms);
    tensor.kernels_mut().copy_from_slice(&kernels);
    Ok(Arc::new(PdConvMatrix::new(tensor)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::{seeded_rng, xavier_uniform};
    use proptest::prelude::*;

    #[test]
    fn container_round_trips() {
        let mut b = SnapshotBuilder::new(KIND_MLP);
        b.section("graph", vec![1, 2, 3]);
        b.section("layer0.weights", vec![9; 100]);
        let bytes = b.finish();
        let snap = Snapshot::parse(&bytes).unwrap();
        assert_eq!(snap.kind(), KIND_MLP);
        assert_eq!(snap.section("graph").unwrap(), &[1, 2, 3]);
        assert_eq!(snap.section("layer0.weights").unwrap().len(), 100);
        assert!(matches!(
            snap.section("absent"),
            Err(SnapshotError::MissingSection { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        assert!(matches!(
            Snapshot::parse(b"NOTASNAP\x01\x00\x00\x00\x00\x00\x00\x00"),
            Err(SnapshotError::BadMagic { .. })
        ));
        assert!(matches!(
            Snapshot::parse(b"PD"),
            Err(SnapshotError::BadMagic { .. })
        ));
        let mut bytes = SnapshotBuilder::new(0).finish();
        bytes[8] = 0xff; // version low byte
        assert!(matches!(
            Snapshot::parse(&bytes),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut b = SnapshotBuilder::new(0);
        b.section("tensor", vec![0xaa; 64]);
        let mut bytes = b.finish();
        let flip = bytes.len() - 20; // inside the payload
        bytes[flip] ^= 0x01;
        assert!(matches!(
            Snapshot::parse(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn oversized_section_length_is_rejected_before_allocation() {
        let mut b = SnapshotBuilder::new(0);
        b.section("tensor", vec![1, 2, 3, 4]);
        let mut bytes = b.finish();
        // Overwrite the payload-length field (after name-len + name) with u64::MAX.
        let len_off = 16 + 2 + "tensor".len();
        bytes[len_off..len_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        match Snapshot::parse(&bytes) {
            Err(SnapshotError::Truncated { needed, .. }) => assert!(needed > 1 << 40),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let mut b = SnapshotBuilder::new(KIND_TENSOR);
        b.section("tensor", encode_tensor(&Matrix::identity(4)).unwrap());
        let bytes = b.finish();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::parse(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
        assert!(Snapshot::parse(&bytes).is_ok());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = SnapshotBuilder::new(0).finish();
        bytes.push(0);
        assert!(matches!(
            Snapshot::parse(&bytes),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn dense_tensor_round_trips_bit_exactly() {
        let m = xavier_uniform(&mut seeded_rng(1), 6, 9);
        let bytes = save_tensor(&m).unwrap();
        let codec = SnapshotCodec::new();
        let back = load_tensor(&bytes, &codec).unwrap();
        assert_eq!(back.to_dense(), m);
        assert_eq!(back.label(), "dense");
        // Canonical encoding: re-saving is byte-identical.
        assert_eq!(save_tensor(back.as_ref()).unwrap(), bytes);
    }

    #[test]
    fn pd_tensor_round_trips_without_densifying() {
        let m = BlockPermDiagMatrix::random(12, 16, 4, &mut seeded_rng(2));
        let bytes = save_tensor(&m).unwrap();
        // Stored payload is ~stored_weights * 4 bytes, far below dense size.
        assert!(bytes.len() < 12 * 16 * 4 / 2);
        let back = load_tensor(&bytes, &SnapshotCodec::new()).unwrap();
        assert_eq!(back.stored_weights(), m.stored_weights());
        assert_eq!(back.to_dense(), m.to_dense());
        assert_eq!(save_tensor(back.as_ref()).unwrap(), bytes);
    }

    #[test]
    fn unknown_format_code_is_reported() {
        let mut w = ByteWriter::new();
        w.u16(0x7777);
        let mut b = SnapshotBuilder::new(KIND_TENSOR);
        b.section("tensor", w.into_vec());
        let bytes = b.finish();
        assert!(matches!(
            load_tensor(&bytes, &SnapshotCodec::new()),
            Err(SnapshotError::UnknownFormat { code: 0x7777 })
        ));
    }

    #[test]
    fn quantized_tensor_round_trips_bit_exactly() {
        use crate::format::CompressedLinear as _;
        use crate::qlinear::QScheme;
        let op: Arc<dyn CompressedLinear> =
            Arc::new(BlockPermDiagMatrix::random(8, 12, 4, &mut seeded_rng(3)));
        let q = QuantizedLinear::from_op(Arc::clone(&op), QScheme::new(12, 12, 11))
            .with_bias(&[0.25; 8]);
        let bytes = save_tensor(&q).unwrap();
        let back = load_tensor(&bytes, &SnapshotCodec::new()).unwrap();
        let x: Vec<f32> = (0..12).map(|i| (i as f32 * 0.37).sin()).collect();
        assert_eq!(back.matvec(&x).unwrap(), q.matvec(&x).unwrap());
        assert_eq!(back.label(), q.label());
        assert_eq!(save_tensor(back.as_ref()).unwrap(), bytes);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time CRC-32 that the table-driven [`crc32`] replaced:
    /// the reference it must match on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Every prefix length 0..=64: the empty input, the remainder-only
        // path (< 8 bytes), and every remainder after 1..=8 whole chunks.
        #[test]
        fn crc32_matches_bitwise_reference_at_every_short_length(
            bytes in proptest::collection::vec(0u8..=255, 64)
        ) {
            for len in 0..=bytes.len() {
                prop_assert_eq!(crc32(&bytes[..len]), crc32_bitwise(&bytes[..len]));
            }
        }

        // Lengths up to 8 KiB, then a sub-slice starting and ending at an
        // arbitrary offset, so chunks straddle every alignment.
        #[test]
        fn crc32_matches_bitwise_reference_on_long_unaligned_slices(
            bytes in proptest::collection::vec(0u8..=255, 0..=8192),
            (start, trim) in (0usize..64, 0usize..64)
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
            let start = start.min(bytes.len());
            let end = bytes.len().saturating_sub(trim).max(start);
            let sub = &bytes[start..end];
            prop_assert_eq!(crc32(sub), crc32_bitwise(sub));
        }
    }

    /// zlib's `crc32_combine`: the rule [`crc32`] joins its lanes with.
    fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
        mult_mod_p(x8n_mod_p(len_b), crc_a) ^ crc_b
    }

    #[test]
    fn x2n_table_repeats_with_period_32() {
        // `x8n_mod_p` indexes the table cyclically for lengths of 2^29
        // bytes or more: x^(2^32) = x mod P.
        assert_eq!(mult_mod_p(X2N_TABLE[31], X2N_TABLE[31]), X2N_TABLE[0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Every length 0..=2048: one lane below the cutoff, four above it,
        // and every tail of 0..=31 bytes after the four quarters.
        #[test]
        fn crc32_matches_bitwise_reference_at_every_length_to_2048(
            bytes in proptest::collection::vec(0u8..=255, 2048)
        ) {
            for len in 0..=bytes.len() {
                prop_assert_eq!(crc32(&bytes[..len]), crc32_bitwise(&bytes[..len]));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        // A block-sized input read at every start offset 0..8, so every
        // lane's words straddle each alignment.
        #[test]
        fn crc32_matches_bitwise_reference_at_every_start_offset_of_a_block(
            bytes in proptest::collection::vec(0u8..=255, 300_000)
        ) {
            for start in 0..8 {
                prop_assert_eq!(crc32(&bytes[start..]), crc32_bitwise(&bytes[start..]));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The lane join: any split, either half empty included.
        #[test]
        fn combine_joins_the_crcs_of_two_halves(
            bytes in proptest::collection::vec(0u8..=255, 0..=4096),
            split_frac in 0.0f64..=1.0
        ) {
            let mid = (bytes.len() as f64 * split_frac) as usize;
            for split in [0, mid.min(bytes.len()), bytes.len()] {
                let (a, b) = bytes.split_at(split);
                prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), crc32(&bytes));
            }
        }
    }

    #[test]
    fn sharded_pd_tensor_concatenates_back_bit_exactly() {
        let m = BlockPermDiagMatrix::random(24, 16, 4, &mut seeded_rng(7));
        let pieces = split_tensor_rows(&save_tensor(&m).unwrap(), 3).unwrap();
        assert_eq!(pieces.len(), 3);
        let codec = SnapshotCodec::new();
        let mut dense_rows: Vec<f32> = Vec::new();
        for piece in &pieces {
            let op = load_tensor(piece, &codec).unwrap();
            assert_eq!(op.label(), "permuted-diagonal (p=4)");
            assert_eq!(op.out_dim(), 8);
            assert_eq!(op.in_dim(), 16);
            dense_rows.extend_from_slice(op.to_dense().as_slice());
        }
        assert_eq!(dense_rows, m.to_dense().as_slice());
    }

    #[test]
    fn sharded_dense_tensor_concatenates_back_bit_exactly() {
        let m = xavier_uniform(&mut seeded_rng(8), 10, 6);
        let pieces = split_tensor_rows(&save_tensor(&m).unwrap(), 4).unwrap();
        assert_eq!(pieces.len(), 4);
        let codec = SnapshotCodec::new();
        let mut dense_rows: Vec<f32> = Vec::new();
        for piece in &pieces {
            dense_rows.extend_from_slice(load_tensor(piece, &codec).unwrap().to_dense().as_slice());
        }
        assert_eq!(dense_rows, m.as_slice());
    }

    #[test]
    fn split_pieces_are_the_saved_slices_byte_for_byte() {
        // PD: 22 rows at p=4 is 6 block rows, the last one ragged.
        let m = BlockPermDiagMatrix::random(22, 12, 4, &mut seeded_rng(12));
        let pieces = split_tensor_rows(&save_tensor(&m).unwrap(), 4).unwrap();
        let block_cols = 3;
        let ranges = crate::format::block_row_ranges(22, 4, 4);
        assert_eq!(pieces.len(), ranges.len());
        for (piece, range) in pieces.iter().zip(ranges) {
            let (b0, b1) = (
                range.start / 4 * block_cols,
                range.end.div_ceil(4) * block_cols,
            );
            let slice = BlockPermDiagMatrix::new(
                range.len(),
                12,
                4,
                m.perms()[b0..b1].iter().map(|&k| usize::from(k)).collect(),
                m.values()[b0 * 4..b1 * 4].to_vec(),
            )
            .unwrap();
            assert_eq!(piece, &save_tensor(&slice).unwrap(), "rows {range:?}");
        }
        // Dense: any row boundary.
        let d = xavier_uniform(&mut seeded_rng(13), 7, 5);
        let pieces = split_tensor_rows(&save_tensor(&d).unwrap(), 3).unwrap();
        for (piece, range) in pieces.iter().zip(crate::format::block_row_ranges(7, 1, 3)) {
            let rows = d.as_slice()[range.start * 5..range.end * 5].to_vec();
            let slice = Matrix::from_vec(range.len(), 5, rows).unwrap();
            assert_eq!(piece, &save_tensor(&slice).unwrap(), "rows {range:?}");
        }
    }

    #[test]
    fn shard_split_rejects_bad_inputs() {
        let m = BlockPermDiagMatrix::random(8, 8, 4, &mut seeded_rng(9));
        let whole = save_tensor(&m).unwrap();
        // 0 shards and more shards than block rows (8 rows / p=4 → 2) fail.
        assert!(matches!(
            split_tensor_rows(&whole, 0),
            Err(SnapshotError::Malformed { .. })
        ));
        assert!(matches!(
            split_tensor_rows(&whole, 3),
            Err(SnapshotError::Malformed { .. })
        ));
        // A non-tensor container is not shardable.
        let mlp = SnapshotBuilder::new(KIND_MLP).finish();
        assert!(matches!(
            split_tensor_rows(&mlp, 2),
            Err(SnapshotError::Malformed { .. })
        ));
        // Formats without a row-slicing path report UnsupportedOperator.
        use crate::qlinear::QScheme;
        let op: Arc<dyn CompressedLinear> =
            Arc::new(BlockPermDiagMatrix::random(8, 8, 4, &mut seeded_rng(9)));
        let q = QuantizedLinear::from_op(op, QScheme::new(12, 12, 11));
        let qbytes = save_tensor(&q).unwrap();
        assert!(matches!(
            split_tensor_rows(&qbytes, 2),
            Err(SnapshotError::UnsupportedOperator { .. })
        ));
    }

    #[test]
    fn retired_kind_4_is_rejected() {
        // A well-framed kind-4 container holding a valid tensor record.
        let m = BlockPermDiagMatrix::random(8, 8, 4, &mut seeded_rng(14));
        let mut b = SnapshotBuilder::new(4);
        b.section("tensor", encode_tensor(&m).unwrap());
        let bytes = b.finish();
        assert!(matches!(
            load_tensor(&bytes, &SnapshotCodec::new()),
            Err(SnapshotError::Malformed { .. })
        ));
        assert!(matches!(
            split_tensor_rows(&bytes, 2),
            Err(SnapshotError::Malformed { .. })
        ));
        assert!(matches!(
            read_block_index(&bytes),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn misframed_payload_length_reports_the_checksum_it_breaks() {
        // A payload length one short leaves the frame in bounds but reads the
        // stored CRC one byte early: the payload fails its checksum before
        // the stray trailing byte is ever looked at.
        let mut b = SnapshotBuilder::new(KIND_TENSOR);
        b.section("tensor", encode_tensor(&Matrix::identity(3)).unwrap());
        let mut bytes = b.finish();
        let len_off = 16 + 2 + "tensor".len();
        bytes[len_off] -= 1;
        assert!(matches!(
            Snapshot::parse(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    /// A synthetic multi-section model container: metadata + two weight
    /// records, the shape `block_stream_snapshot` sees from an MLP save.
    fn model_like_snapshot() -> (Vec<u8>, BlockPermDiagMatrix, BlockPermDiagMatrix) {
        let w0 = BlockPermDiagMatrix::random(16, 8, 4, &mut seeded_rng(21));
        let w1 = BlockPermDiagMatrix::random(8, 16, 4, &mut seeded_rng(22));
        let mut b = SnapshotBuilder::new(KIND_MLP);
        b.section("graph", vec![1, 2, 3, 4]);
        b.section("layer0.weights", encode_tensor(&w0).unwrap());
        b.section("layer0.bias", vec![0; 12]);
        b.section("layer1.weights", encode_tensor(&w1).unwrap());
        b.section("layer1.bias", vec![0; 8]);
        (b.finish(), w0, w1)
    }

    #[test]
    fn block_index_round_trips_and_matches_real_framing() {
        let (bytes, w0, w1) = model_like_snapshot();
        let blocked = block_stream_snapshot(&bytes).unwrap();
        let index = read_block_index(&blocked).unwrap();
        assert_eq!(index.inner_kind, KIND_MLP);
        assert_eq!(index.len(), 2);
        assert_eq!(index.blocks[0].name, "layer0.weights");
        assert_eq!(index.blocks[1].name, "layer1.weights");
        assert!(index
            .blocks
            .iter()
            .all(|e| e.kind == FORMAT_PERMUTED_DIAGONAL));
        assert_eq!(index.position("layer1.weights"), Some(1));
        assert_eq!(
            index.max_block_bytes(),
            index.blocks[0].len.max(index.blocks[1].len)
        );
        // The blocked container is still a fully valid v1 snapshot: every
        // original section survives with its payload intact.
        let snap = Snapshot::parse(&blocked).unwrap();
        assert_eq!(snap.kind(), KIND_BLOCKED);
        assert_eq!(snap.section("graph").unwrap(), &[1, 2, 3, 4]);
        assert_eq!(
            read_blocked_section(&blocked, "layer1.bias").unwrap(),
            vec![0; 8]
        );
        // Each block decodes standalone and matvecs like the original.
        let codec = SnapshotCodec::new();
        for (k, w) in [(0usize, &w0), (1, &w1)] {
            let x: Vec<f32> = (0..w.cols()).map(|i| (i as f32 * 0.3).cos()).collect();
            let op = load_tensor(&extract_block(&blocked, k).unwrap(), &codec).unwrap();
            assert_eq!(op.matvec(&x).unwrap(), w.matvec(&x));
            let op = load_block(&blocked, k, &codec).unwrap();
            assert_eq!(op.matvec(&x).unwrap(), w.matvec(&x));
        }
        assert!(matches!(
            load_block(&blocked, 2, &codec),
            Err(SnapshotError::MissingSection { .. })
        ));
    }

    #[test]
    fn bare_tensor_blocks_into_a_single_block() {
        let m = BlockPermDiagMatrix::random(16, 16, 4, &mut seeded_rng(23));
        let blocked = block_stream_snapshot(&save_tensor(&m).unwrap()).unwrap();
        let index = read_block_index(&blocked).unwrap();
        assert_eq!((index.inner_kind, index.len()), (KIND_TENSOR, 1));
        assert_eq!(index.blocks[0].name, "tensor");
        assert_eq!(index.total_block_bytes(), index.blocks[0].len);
        let op = load_tensor(&extract_block(&blocked, 0).unwrap(), &SnapshotCodec::new()).unwrap();
        let x: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
        assert_eq!(op.matvec(&x).unwrap(), m.matvec(&x));
    }

    #[test]
    fn block_stream_rejects_bad_sources() {
        // No weight sections.
        let mut b = SnapshotBuilder::new(KIND_MLP);
        b.section("graph", vec![1]);
        assert!(matches!(
            block_stream_snapshot(&b.finish()),
            Err(SnapshotError::Malformed { .. })
        ));
        // Already blocked.
        let m = BlockPermDiagMatrix::random(8, 8, 4, &mut seeded_rng(24));
        let blocked = block_stream_snapshot(&save_tensor(&m).unwrap()).unwrap();
        assert!(matches!(
            block_stream_snapshot(&blocked),
            Err(SnapshotError::Malformed { .. })
        ));
        // Garbage in, typed error out.
        assert!(matches!(
            block_stream_snapshot(b"junk"),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn corrupt_block_payload_is_isolated_to_that_block() {
        let (bytes, _, _) = model_like_snapshot();
        let mut blocked = block_stream_snapshot(&bytes).unwrap();
        let index = read_block_index(&blocked).unwrap();
        // Flip a byte inside block 1's payload: the index and block 0 stay
        // readable, only block 1 fails its checksum.
        let hit = index.blocks[1].offset as usize + 3;
        blocked[hit] ^= 0xFF;
        assert_eq!(read_block_index(&blocked).unwrap(), index);
        assert!(extract_block(&blocked, 0).is_ok());
        assert!(matches!(
            extract_block(&blocked, 1),
            Err(SnapshotError::ChecksumMismatch { ref section, .. }) if section == "layer1.weights"
        ));
        let codec = SnapshotCodec::new();
        assert!(load_block(&blocked, 0, &codec).is_ok());
        assert!(matches!(
            load_block(&blocked, 1, &codec),
            Err(SnapshotError::ChecksumMismatch { ref section, .. }) if section == "layer1.weights"
        ));
        // The eager whole-container parse still catches it, of course.
        assert!(Snapshot::parse(&blocked).is_err());
    }

    #[test]
    fn blocked_sections_are_the_sources_and_entries_locate_them() {
        let (bytes, _, _) = model_like_snapshot();
        let source = Snapshot::parse(&bytes).unwrap();
        let blocked = block_stream_snapshot(&bytes).unwrap();
        let snap = Snapshot::parse(&blocked).unwrap();
        // The inner-kind section, then every source section byte for byte.
        let (first, rest) = snap.sections().split_first().unwrap();
        assert_eq!(first.0, INNER_KIND_SECTION);
        assert_eq!(first.1, KIND_MLP.to_le_bytes());
        assert_eq!(rest, source.sections());
        // One entry per weight section, in file order, locating exactly the
        // source's record bytes.
        let index = read_block_index(&blocked).unwrap();
        let weights: Vec<&(&str, &[u8])> = source
            .sections()
            .iter()
            .filter(|(name, _)| is_weight_block_section(name))
            .collect();
        assert_eq!(index.len(), weights.len());
        for (entry, (name, payload)) in index.blocks.iter().zip(weights) {
            assert_eq!(&entry.name, name);
            let at = entry.offset as usize..(entry.offset + entry.len) as usize;
            assert_eq!(&blocked[at], *payload, "{name}");
            assert_eq!(entry.kind, u16::from_le_bytes([payload[0], payload[1]]));
        }
    }

    #[test]
    fn malformed_blocked_containers_are_typed_errors() {
        let w = encode_tensor(&BlockPermDiagMatrix::random(8, 8, 4, &mut seeded_rng(25))).unwrap();
        let container = |sections: &[(&str, &[u8])]| {
            let mut b = SnapshotBuilder::new(KIND_BLOCKED);
            for (name, payload) in sections {
                b.section(name, payload.to_vec());
            }
            b.finish()
        };
        let kind = KIND_TENSOR.to_le_bytes();
        let good = container(&[(INNER_KIND_SECTION, &kind), ("tensor", &w)]);
        assert_eq!(read_block_index(&good).unwrap().inner_kind, KIND_TENSOR);

        // Missing, or not the first section.
        for bytes in [
            container(&[("tensor", &w)]),
            container(&[("tensor", &w), (INNER_KIND_SECTION, &kind)]),
        ] {
            assert!(matches!(
                read_block_index(&bytes),
                Err(SnapshotError::MissingSection { ref name }) if name == INNER_KIND_SECTION
            ));
        }
        // Shorter or longer than one u16.
        assert!(matches!(
            read_block_index(&container(&[(INNER_KIND_SECTION, &[0]), ("tensor", &w)])),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            read_block_index(&container(&[
                (INNER_KIND_SECTION, &[0, 0, 0]),
                ("tensor", &w)
            ])),
            Err(SnapshotError::Malformed { .. })
        ));
        // A flipped byte of the inner kind fails its checksum, in the index
        // reader and in every block reader that goes through it.
        let mut corrupt = good.clone();
        corrupt[16 + 2 + INNER_KIND_SECTION.len() + 8] ^= 0x55;
        let codec = SnapshotCodec::new();
        for err in [
            read_block_index(&corrupt).map(drop),
            load_block(&corrupt, 0, &codec).map(drop),
            extract_block(&corrupt, 0).map(drop),
        ] {
            assert!(
                matches!(err, Err(SnapshotError::ChecksumMismatch { ref section, .. })
                if section == INNER_KIND_SECTION)
            );
        }
        // A weight section shorter than a format code, written by hand or
        // offered to the writer.
        assert!(matches!(
            read_block_index(&container(&[(INNER_KIND_SECTION, &kind), ("tensor", &[2])])),
            Err(SnapshotError::Truncated { .. })
        ));
        let mut b = SnapshotBuilder::new(KIND_TENSOR);
        b.section("tensor", vec![2]);
        assert!(matches!(
            block_stream_snapshot(&b.finish()),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn truncated_blocked_container_never_panics() {
        let (bytes, _, _) = model_like_snapshot();
        let blocked = block_stream_snapshot(&bytes).unwrap();
        for len in 0..blocked.len() {
            let truncated = &blocked[..len];
            assert!(
                read_block_index(truncated).is_err(),
                "index read of {len}-byte prefix must fail"
            );
            assert!(
                extract_block(truncated, 0).is_err(),
                "block extract of {len}-byte prefix must fail"
            );
            assert!(
                load_block(truncated, 0, &SnapshotCodec::new()).is_err(),
                "block load of {len}-byte prefix must fail"
            );
        }
    }
}
