//! The on-disk archive format: header layout, model tags and checksums.
//!
//! An archive is one fixed-size little-endian header followed by a sequence
//! of trace chunks.  The writer emits only **version 4**; versions 1–3 are
//! read-only (archives captured before version 4 existed still decode
//! bit-exactly, see `tests/legacy_fixtures.rs`).
//!
//! ```text
//! version 4 (88 bytes)
//! offset  size  field
//!      0     8  magic  "DPLTRCv4"
//!      8     4  format version (4)
//!     12     4  samples per trace
//!     16     4  traces per full chunk
//!     20     4  leakage-model tag
//!     24     8  RNG seed of the campaign
//!     32     8  total trace count
//!     40     4  distinct input count
//!     44     4  campaign kind
//!     48     8  energy-table digest
//!     56     4  sample-encoding tag   (crate::SampleEncoding)
//!     60     4  chunk-compression tag (crate::Compression)
//!     64     8  quantization scale (f64 bits; 0 unless the i16 encoding)
//!     72     8  i16 saturated-sample count (0 unless the i16 encoding)
//!     80     8  checksum64 of bytes 0..80
//! ```
//!
//! The legacy headers are prefixes of the same field layout:
//!
//! ```text
//! version  magic       length  fields                               checksum
//!       1  "DPLTRCv1"      56  bytes 0..44, campaign kind at 44      FNV-1a 64 of 0..48 at 48
//!       2  "DPLTRCv2"      64  + energy-table digest at 48           FNV-1a 64 of 0..56 at 56
//!       3  "DPLTRCv3"      80  + encoding, compression, scale 56..72 FNV-1a 64 of 0..72 at 72
//! ```
//!
//! Version 2 added the **energy-table digest**
//! (`dpl_crypto::GateEnergyTable::digest`, `0` = unrecorded) and widened the
//! model-tag code space to the characterisation-derived models.  Version 3
//! added the **compact sample encodings** and the built-in chunk compressor
//! (see [`crate::encode`]).  Version 4 replaces the byte-serial FNV-1a
//! checksum with the word-parallel [`checksum64`], frames every chunk
//! alike, and records how many `i16` samples hit the integer range bounds.
//! A model tag out of range for its header version is rejected with the
//! typed [`StoreError::UnknownModelTag`].
//!
//! The distinct-input count lets the out-of-core attacks pick the matching
//! accumulator bookkeeping up front (class aggregation vs. the
//! diverse-input fallback) instead of paying for both.
//!
//! Every chunk holds up to `chunk_traces` traces (the final chunk may be
//! shorter) and is self-checking.  Version 4 (like version 3) frames every
//! chunk as
//!
//! ```text
//! [k: u32] [body_len: u32] [body: encoded inputs + samples] [checksum64 of all previous chunk bytes]
//! ```
//!
//! where the body is produced by `encode::encode_body` under the
//! header-recorded encoding and compression.  An uncompressed `f64` body is
//! `[inputs: k x u64] [samples: k x S x f64, sample-major]` — byte for byte
//! the version-1/2 chunk payload, whose framing is
//! `[k: u32] [body] [FNV-1a 64]` with no length field.  The sample block is
//! **sample-major** (column `s` occupies `k` consecutive values), mirroring
//! the columnar `TraceSet` layout, so a chunk loads with zero
//! transposition.
//!
//! Uncompressed bodies have a length fixed by `k`, so the reader computes
//! chunk offsets arithmetically and checks each `body_len` at read time.
//! Compressed chunks vary in length; the reader locates them with one
//! open-time walk of the chunk heads, validating every `body_len` against
//! `encode::max_body_len` before any allocation, so a forged length cannot
//! cause an unbounded read.  The writer emits a zeroed placeholder header
//! first and only writes the real header in
//! [`crate::ArchiveWriter::finish`]: an interrupted capture leaves a file
//! that fails to open with [`crate::StoreError::BadMagic`] instead of
//! parsing as a shorter, silently valid archive.
//!
//! ## The checksum
//!
//! [`checksum64`] splits its input into little-endian 8-byte words (the
//! tail zero-padded into one last word) and deals them round-robin to four
//! independent 64-bit lanes, each seeded from the FNV offset basis and
//! advanced by the FNV step `h = (h ^ w) * FNV_PRIME mod 2^64`.  The four
//! lanes and the byte length are then folded through the same step.  Since
//! the prime is odd, every step is a bijection of `h` for a fixed `w` and
//! of `w` for a fixed `h`, so **any change confined to one aligned word —
//! in particular every single-byte flip and every single-bit flip — always
//! changes the checksum**, and the folded length separates inputs that
//! differ only in trailing zero padding.  The lanes are independent
//! multiply chains, so the function runs near memory bandwidth instead of
//! at one multiply latency per byte.  [`fnv1a64`] remains the checksum of
//! versions 1–3 and of the digests whose values are pinned elsewhere
//! (campaign manifests, `DPLCERT` certificates).
//!
//! ## On-disk recovery invariants
//!
//! The format is crash-consistent by construction; `crate::recover` and the
//! salvage reads rely only on the following invariants, which every writer
//! path maintains:
//!
//! 1. **Header-last commit.**  The header is zeroed until `finish`, and
//!    `finish` makes the chunk data durable (`SyncWrite::sync_contents`)
//!    *before* writing the header, then makes the header durable.  A valid
//!    header therefore promises bytes that are already on stable storage: a
//!    crash at any operation leaves either an unfinished (placeholder or
//!    torn-header) file or a complete one — never a valid header over
//!    missing chunks.
//! 2. **Chunks are self-describing and self-checking.**  Each chunk's
//!    leading `k` and `body_len` determine its exact byte length, and its
//!    trailing [`checksum64`] covers every preceding chunk byte.  A scan
//!    can therefore walk chunks forward from the header boundary with no
//!    index structure, and any torn or bit-flipped chunk fails its
//!    checksum.
//! 3. **Append-only body, fixed chunking.**  Chunk `i` starts immediately
//!    after chunk `i - 1` (for uncompressed bodies that is
//!    `header_len + i * full_chunk_len`).  Only the last chunk may hold
//!    fewer than `chunk_traces` traces (`0 < k < chunk_traces`), and only
//!    `finish` writes it.  Hence in an unfinished file every *valid prefix*
//!    of full chunks is exactly the data acknowledged before the crash, a
//!    trailing valid partial chunk can only mean the crash hit the finish
//!    path (its traces are re-buffered, not lost), and the first invalid
//!    byte marks where torn data begins — truncating there is always safe.
//!
//! Together these give the recovery guarantee: `resume` over the valid
//! prefix followed by re-appending the remaining traces reproduces, byte
//! for byte, the archive an uninterrupted capture would have written.

use crate::encode::{Compression, SampleEncoding};
use crate::error::{Result, StoreError};

/// The 8 magic bytes of a version-1 archive.
pub const MAGIC: [u8; 8] = *b"DPLTRCv1";

/// The 8 magic bytes of a version-2 archive.
pub const MAGIC_V2: [u8; 8] = *b"DPLTRCv2";

/// The 8 magic bytes of a version-3 archive.
pub const MAGIC_V3: [u8; 8] = *b"DPLTRCv3";

/// The 8 magic bytes of a version-4 archive.
pub const MAGIC_V4: [u8; 8] = *b"DPLTRCv4";

/// The format version this crate writes (versions 1–3 remain readable).
pub const CURRENT_VERSION: u32 = 4;

/// Size of the version-1 header in bytes.
pub const HEADER_LEN: usize = 56;

/// Size of the version-2 header in bytes.
pub const HEADER_LEN_V2: usize = 64;

/// Size of the version-3 header in bytes.
pub const HEADER_LEN_V3: usize = 80;

/// Size of the version-4 header in bytes.
pub const HEADER_LEN_V4: usize = 88;

/// Size of a chunk's trace-count prefix in bytes.
pub const CHUNK_PREFIX_LEN: usize = 4;

/// Size of a version-3/4 chunk's body-length field in bytes (it follows
/// the trace-count prefix).
pub const CHUNK_BODY_LEN_LEN: usize = 4;

/// Size of a chunk's trailing checksum in bytes.
pub const CHUNK_CHECKSUM_LEN: usize = 8;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64-bit checksum — dependency-free and guaranteed to detect any
/// single flipped byte (every step is injective modulo 2^64).  The chunk and
/// header checksum of format versions 1–3.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[inline(always)]
fn fnv_step(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// The four-lane word checksum of format version 4 (defined in the
/// module docs): detects every change confined to one
/// aligned 8-byte word, hence every single-byte flip, at close to memory
/// bandwidth.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = [
        FNV_OFFSET,
        FNV_OFFSET.wrapping_add(1),
        FNV_OFFSET.wrapping_add(2),
        FNV_OFFSET.wrapping_add(3),
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fnv_step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = fnv_step(*lane, u64::from_le_bytes(padded));
    }
    let folded = lanes
        .iter()
        .fold(FNV_OFFSET, |hash, &lane| fnv_step(hash, lane));
    fnv_step(folded, bytes.len() as u64)
}

/// The chunk and header checksum of a given format version.
pub(crate) fn checksum_of_version(version: u32) -> fn(&[u8]) -> u64 {
    if version >= 4 {
        checksum64
    } else {
        fnv1a64
    }
}

/// The energy model a capture campaign simulated, recorded so a later
/// attack run can pick the right hypothesis (e.g. a profiled CPA table).
///
/// This mirrors `dpl_crypto::EnergyModel` without depending on it: the
/// store sits below the crypto layer so generators can stream into it.
/// Codes 0..=4 are the version-1 tags; the `Characterized*` tags (codes
/// 5..=8, header version 2) mark campaigns whose energies came from
/// transient characterisation of the SABL cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ModelTag {
    /// The campaign did not record a model (or was not simulated).
    #[default]
    Unspecified,
    /// SABL gates on genuine DPDNs (the paper's insecure baseline).
    GenuineSabl,
    /// SABL gates on fully connected DPDNs (§4).
    FullyConnectedSabl,
    /// SABL gates on enhanced fully connected DPDNs (§5).
    EnhancedSabl,
    /// Static-CMOS Hamming-weight leakage.
    HammingWeight,
    /// Transient-characterized SABL gates on genuine DPDNs.
    CharacterizedGenuineSabl,
    /// Transient-characterized SABL gates on fully connected DPDNs.
    CharacterizedFullyConnectedSabl,
    /// Transient-characterized SABL gates on enhanced DPDNs.
    CharacterizedEnhancedSabl,
    /// The Hamming-weight model under the characterized source (which
    /// falls back to the built-in constants — recorded distinctly so the
    /// campaign's model identity round-trips).
    CharacterizedHammingWeight,
}

impl ModelTag {
    /// The on-disk encoding of the tag.
    pub fn code(self) -> u32 {
        match self {
            ModelTag::Unspecified => 0,
            ModelTag::GenuineSabl => 1,
            ModelTag::FullyConnectedSabl => 2,
            ModelTag::EnhancedSabl => 3,
            ModelTag::HammingWeight => 4,
            ModelTag::CharacterizedGenuineSabl => 5,
            ModelTag::CharacterizedFullyConnectedSabl => 6,
            ModelTag::CharacterizedEnhancedSabl => 7,
            ModelTag::CharacterizedHammingWeight => 8,
        }
    }

    /// Decodes an on-disk tag written by a header of the given format
    /// version.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownModelTag`] for a code outside the
    /// version's range — version 1 headers can only carry codes 0..=4.
    pub fn from_code(code: u32, version: u32) -> Result<Self> {
        let tag = match code {
            0 => ModelTag::Unspecified,
            1 => ModelTag::GenuineSabl,
            2 => ModelTag::FullyConnectedSabl,
            3 => ModelTag::EnhancedSabl,
            4 => ModelTag::HammingWeight,
            5 => ModelTag::CharacterizedGenuineSabl,
            6 => ModelTag::CharacterizedFullyConnectedSabl,
            7 => ModelTag::CharacterizedEnhancedSabl,
            8 => ModelTag::CharacterizedHammingWeight,
            _ => return Err(StoreError::UnknownModelTag { code, version }),
        };
        if version < 2 && tag.is_characterized() {
            return Err(StoreError::UnknownModelTag { code, version });
        }
        Ok(tag)
    }

    /// `true` for the transient-characterized model tags (codes 5..=8).
    pub fn is_characterized(self) -> bool {
        self.code() > 4
    }

    /// The built-in (version-1) tag of the same logic style.
    pub fn base_style(self) -> ModelTag {
        match self {
            ModelTag::CharacterizedGenuineSabl => ModelTag::GenuineSabl,
            ModelTag::CharacterizedFullyConnectedSabl => ModelTag::FullyConnectedSabl,
            ModelTag::CharacterizedEnhancedSabl => ModelTag::EnhancedSabl,
            ModelTag::CharacterizedHammingWeight => ModelTag::HammingWeight,
            other => other,
        }
    }

    /// The characterized tag of the same logic style ([`ModelTag::Unspecified`]
    /// has none).
    pub fn characterized(self) -> Option<ModelTag> {
        match self.base_style() {
            ModelTag::GenuineSabl => Some(ModelTag::CharacterizedGenuineSabl),
            ModelTag::FullyConnectedSabl => Some(ModelTag::CharacterizedFullyConnectedSabl),
            ModelTag::EnhancedSabl => Some(ModelTag::CharacterizedEnhancedSabl),
            ModelTag::HammingWeight => Some(ModelTag::CharacterizedHammingWeight),
            _ => None,
        }
    }

    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ModelTag::Unspecified => "unspecified",
            ModelTag::GenuineSabl => "SABL (genuine DPDN)",
            ModelTag::FullyConnectedSabl => "SABL (fully connected DPDN)",
            ModelTag::EnhancedSabl => "SABL (enhanced DPDN)",
            ModelTag::HammingWeight => "static CMOS (Hamming weight)",
            ModelTag::CharacterizedGenuineSabl => "SABL (genuine DPDN), transient-characterized",
            ModelTag::CharacterizedFullyConnectedSabl => {
                "SABL (fully connected DPDN), transient-characterized"
            }
            ModelTag::CharacterizedEnhancedSabl => "SABL (enhanced DPDN), transient-characterized",
            ModelTag::CharacterizedHammingWeight => {
                "static CMOS (Hamming weight), transient-characterized"
            }
        }
    }
}

/// What kind of measurement campaign an archive holds — the discipline a
/// later analysis needs in order to interpret the traces.
///
/// The kind is recorded in header bytes 44..48 (zero before this field
/// existed, which is exactly [`CampaignKind::Attack`], so pre-TVLA archives
/// decode unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CampaignKind {
    /// A key-recovery campaign: every trace processed a uniformly random
    /// plaintext under the secret key.  DPA/CPA run directly over it.
    #[default]
    Attack,
    /// An interleaved fixed-vs-random TVLA campaign: traces at **even**
    /// global indices processed one fixed plaintext, traces at odd indices a
    /// random one.  The Welch t-test partitions by trace-index parity;
    /// key-recovery attacks over such an archive are statistically
    /// meaningless (half the traces share one plaintext).
    TvlaInterleaved,
}

impl CampaignKind {
    /// The on-disk encoding of the kind.
    pub fn code(self) -> u32 {
        match self {
            CampaignKind::Attack => 0,
            CampaignKind::TvlaInterleaved => 1,
        }
    }

    /// Decodes an on-disk campaign kind.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptHeader`] for an unknown code.
    pub fn from_code(code: u32) -> Result<Self> {
        Ok(match code {
            0 => CampaignKind::Attack,
            1 => CampaignKind::TvlaInterleaved,
            other => {
                return Err(StoreError::CorruptHeader {
                    message: format!("unknown campaign kind {other}"),
                })
            }
        })
    }

    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CampaignKind::Attack => "key-recovery attack",
            CampaignKind::TvlaInterleaved => "TVLA (interleaved fixed-vs-random)",
        }
    }
}

/// The campaign metadata fixed when an archive is created.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchiveMeta {
    /// Samples recorded per trace (>= 1).
    pub samples_per_trace: usize,
    /// Traces per full chunk (>= 1); also the reader's natural in-memory
    /// budget.
    pub chunk_traces: usize,
    /// The leakage model the traces were simulated under.
    pub model: ModelTag,
    /// The RNG seed of the capture campaign, for reproducibility.
    pub seed: u64,
    /// The measurement discipline of the campaign (attack vs TVLA).
    pub campaign: CampaignKind,
    /// Digest of the simulated hypothesis as recorded by the capture tool
    /// — e.g. `dpl_crypto::GateEnergyTable::digest` combined with the
    /// attack-circuit name, as the `repro` CLI records it; `0` =
    /// unrecorded.  The store carries the value opaquely.
    pub table_digest: u64,
    /// How sample values are stored on disk (the default
    /// [`SampleEncoding::F64`] is lossless).
    pub encoding: SampleEncoding,
    /// Whether chunk bodies run through the built-in compressor.
    pub compression: Compression,
}

impl ArchiveMeta {
    /// Metadata for a single-sample key-recovery campaign with the given
    /// chunk size.
    pub fn scalar(chunk_traces: usize, model: ModelTag, seed: u64) -> Self {
        ArchiveMeta {
            samples_per_trace: 1,
            chunk_traces,
            model,
            seed,
            campaign: CampaignKind::Attack,
            table_digest: 0,
            encoding: SampleEncoding::F64,
            compression: Compression::None,
        }
    }

    /// Metadata for a single-sample interleaved fixed-vs-random TVLA
    /// campaign with the given chunk size.
    pub fn scalar_tvla(chunk_traces: usize, model: ModelTag, seed: u64) -> Self {
        ArchiveMeta {
            campaign: CampaignKind::TvlaInterleaved,
            ..ArchiveMeta::scalar(chunk_traces, model, seed)
        }
    }

    /// The same metadata with the energy-table digest recorded.
    pub fn with_table_digest(self, digest: u64) -> Self {
        ArchiveMeta {
            table_digest: digest,
            ..self
        }
    }

    /// The same metadata with the given sample encoding.
    pub fn with_encoding(self, encoding: SampleEncoding) -> Self {
        ArchiveMeta { encoding, ..self }
    }

    /// The same metadata with the given chunk compression.
    pub fn with_compression(self, compression: Compression) -> Self {
        ArchiveMeta {
            compression,
            ..self
        }
    }

    /// The header length of the archives this crate writes (format
    /// version [`CURRENT_VERSION`]).
    pub fn header_len(&self) -> usize {
        HEADER_LEN_V4
    }

    /// Validates the field ranges the format can represent.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.samples_per_trace == 0 {
            return Err(StoreError::FormatViolation {
                message: "samples_per_trace must be at least 1".into(),
            });
        }
        if self.chunk_traces == 0 {
            return Err(StoreError::FormatViolation {
                message: "chunk_traces must be at least 1".into(),
            });
        }
        if self.samples_per_trace > u32::MAX as usize || self.chunk_traces > u32::MAX as usize {
            return Err(StoreError::FormatViolation {
                message: "samples_per_trace and chunk_traces must fit in 32 bits".into(),
            });
        }
        Ok(())
    }
}

/// Serialized bytes of a chunk framed as `[k][body_len][body][checksum]`
/// (versions 3–4) with the given body length.
pub(crate) fn framed_chunk_len(body_len: u64) -> u64 {
    (CHUNK_PREFIX_LEN + CHUNK_BODY_LEN_LEN + CHUNK_CHECKSUM_LEN) as u64 + body_len
}

/// A decoded, validated archive header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Header {
    /// The campaign metadata.
    pub meta: ArchiveMeta,
    /// The format version announced by the magic (1–4).
    pub version: u32,
    /// Total traces in the archive.
    pub trace_count: u64,
    /// Distinct input count (0 = too many to track).
    pub distinct_inputs: u32,
    /// `i16` samples encoded at the integer range bounds; `None` before
    /// version 4 recorded it.
    pub saturated_samples: Option<u64>,
}

/// Encodes the version-4 header for the given metadata, trace count,
/// distinct input count (0 = too many to track) and saturated-sample count.
pub(crate) fn encode_header(
    meta: &ArchiveMeta,
    trace_count: u64,
    distinct_inputs: u32,
    saturated_samples: u64,
) -> Vec<u8> {
    let mut header = vec![0u8; HEADER_LEN_V4];
    header[0..8].copy_from_slice(&MAGIC_V4);
    header[8..12].copy_from_slice(&CURRENT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&(meta.samples_per_trace as u32).to_le_bytes());
    header[16..20].copy_from_slice(&(meta.chunk_traces as u32).to_le_bytes());
    header[20..24].copy_from_slice(&meta.model.code().to_le_bytes());
    header[24..32].copy_from_slice(&meta.seed.to_le_bytes());
    header[32..40].copy_from_slice(&trace_count.to_le_bytes());
    header[40..44].copy_from_slice(&distinct_inputs.to_le_bytes());
    header[44..48].copy_from_slice(&meta.campaign.code().to_le_bytes());
    header[48..56].copy_from_slice(&meta.table_digest.to_le_bytes());
    header[56..60].copy_from_slice(&meta.encoding.code().to_le_bytes());
    header[60..64].copy_from_slice(&meta.compression.code().to_le_bytes());
    header[64..72].copy_from_slice(&meta.encoding.scale_bits().to_le_bytes());
    header[72..80].copy_from_slice(&saturated_samples.to_le_bytes());
    let checksum = checksum64(&header[0..80]);
    header[80..88].copy_from_slice(&checksum.to_le_bytes());
    header
}

fn u32_at(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

/// The header version a file's leading magic bytes announce (1–4), or
/// `None` for anything else (not an archive).  The reader uses this to know
/// how many header bytes to fetch before [`decode_header`].
pub(crate) fn version_of_magic(magic: &[u8; 8]) -> Option<u32> {
    [MAGIC, MAGIC_V2, MAGIC_V3, MAGIC_V4]
        .iter()
        .position(|m| m == magic)
        .map(|index| index as u32 + 1)
}

/// The header length of a given format version (the number of bytes the
/// reader fetches once the magic announces the version).
pub(crate) fn header_len_of_version(version: u32) -> usize {
    match version {
        1 => HEADER_LEN,
        2 => HEADER_LEN_V2,
        3 => HEADER_LEN_V3,
        _ => HEADER_LEN_V4,
    }
}

/// Decodes and validates a complete header of any readable version (its
/// length is [`header_len_of_version`] of the version its magic announces).
pub(crate) fn decode_header(header: &[u8]) -> Result<Header> {
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&header[0..8]);
    let Some(version) = version_of_magic(&magic) else {
        return Err(StoreError::BadMagic { found: magic });
    };
    let recorded_version = u32_at(header, 8);
    if recorded_version != version {
        return Err(StoreError::UnsupportedVersion {
            found: recorded_version,
        });
    }
    debug_assert_eq!(header.len(), header_len_of_version(version));
    let payload_end = header.len() - CHUNK_CHECKSUM_LEN;
    let stored = u64_at(header, payload_end);
    let computed = checksum_of_version(version)(&header[0..payload_end]);
    if stored != computed {
        return Err(StoreError::CorruptHeader {
            message: format!("header checksum {stored:#018X} != computed {computed:#018X}"),
        });
    }
    let meta = ArchiveMeta {
        samples_per_trace: u32_at(header, 12) as usize,
        chunk_traces: u32_at(header, 16) as usize,
        model: ModelTag::from_code(u32_at(header, 20), version)?,
        seed: u64_at(header, 24),
        campaign: CampaignKind::from_code(u32_at(header, 44))?,
        table_digest: if version >= 2 { u64_at(header, 48) } else { 0 },
        encoding: if version >= 3 {
            SampleEncoding::from_code(u32_at(header, 56), u64_at(header, 64))?
        } else {
            SampleEncoding::F64
        },
        compression: if version >= 3 {
            Compression::from_code(u32_at(header, 60))?
        } else {
            Compression::None
        },
    };
    if meta.samples_per_trace == 0 || meta.chunk_traces == 0 {
        return Err(StoreError::CorruptHeader {
            message: "zero samples_per_trace or chunk_traces".into(),
        });
    }
    let trace_count = u64_at(header, 32);
    // Bound the implied file size up front (in u128, which cannot overflow
    // for 32/64-bit fields) so all later u64 offset arithmetic is safe: a
    // forged header must surface as CorruptHeader, never as an integer
    // overflow.  The bound uses the compressor's worst case, which only
    // widens the tolerance.
    let chunk_bytes = CHUNK_PREFIX_LEN as u128
        + CHUNK_BODY_LEN_LEN as u128
        + (meta.chunk_traces as u128) * 10
        + (meta.chunk_traces as u128) * (meta.samples_per_trace as u128) * 8
        + 256
        + CHUNK_CHECKSUM_LEN as u128;
    let chunk_count = (trace_count as u128).div_ceil(meta.chunk_traces as u128);
    let implied_len = header.len() as u128 + chunk_count * chunk_bytes;
    if implied_len > u64::MAX as u128 {
        return Err(StoreError::CorruptHeader {
            message: format!("header implies an impossible file size ({implied_len} bytes)"),
        });
    }
    let distinct_inputs = u32_at(header, 40);
    if distinct_inputs as usize > dpl_power::MAX_INPUT_CLASSES {
        return Err(StoreError::CorruptHeader {
            message: format!(
                "distinct input count {distinct_inputs} exceeds the class-aggregation limit {}",
                dpl_power::MAX_INPUT_CLASSES
            ),
        });
    }
    let saturated_samples = if version >= 4 {
        let saturated = u64_at(header, 72);
        let total_samples = u128::from(trace_count) * meta.samples_per_trace as u128;
        if meta.encoding.quantization().is_none() && saturated != 0
            || u128::from(saturated) > total_samples
        {
            return Err(StoreError::CorruptHeader {
                message: format!(
                    "saturated-sample count {saturated} is impossible for a {} archive of \
                     {total_samples} samples",
                    meta.encoding.label()
                ),
            });
        }
        Some(saturated)
    } else {
        None
    };
    Ok(Header {
        meta,
        version,
        trace_count,
        distinct_inputs,
        saturated_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Re-seals a forged header with a self-consistent checksum.
    fn reseal(header: &mut [u8]) {
        let version = version_of_magic(&header[0..8].try_into().unwrap()).unwrap();
        let end = header.len() - 8;
        let checksum = checksum_of_version(version)(&header[0..end]);
        header[end..].copy_from_slice(&checksum.to_le_bytes());
    }

    /// Test-only encoder of the read-only legacy headers: each is a prefix
    /// of the version-4 field layout under its own magic and FNV checksum.
    fn legacy_header(version: u32, meta: &ArchiveMeta, trace_count: u64, distinct: u32) -> Vec<u8> {
        let mut header = encode_header(meta, trace_count, distinct, 0);
        header.truncate(header_len_of_version(version));
        header[0..8].copy_from_slice(&[MAGIC, MAGIC_V2, MAGIC_V3][version as usize - 1]);
        header[8..12].copy_from_slice(&version.to_le_bytes());
        reseal(&mut header);
        header
    }

    fn decoded(
        meta: ArchiveMeta,
        version: u32,
        trace_count: u64,
        saturated: Option<u64>,
    ) -> Header {
        Header {
            meta,
            version,
            trace_count,
            distinct_inputs: 16,
            saturated_samples: saturated,
        }
    }

    #[test]
    fn v4_headers_round_trip_every_field() {
        let q = crate::Quantization::new(0.0625).unwrap();
        for meta in [
            ArchiveMeta::scalar(512, ModelTag::GenuineSabl, 0xDEAD_BEEF_2005),
            ArchiveMeta::scalar(64, ModelTag::CharacterizedGenuineSabl, 9),
            ArchiveMeta::scalar(64, ModelTag::HammingWeight, 9).with_table_digest(0xABCD_EF01),
            ArchiveMeta::scalar(64, ModelTag::HammingWeight, 9).with_encoding(SampleEncoding::F32),
            ArchiveMeta::scalar(64, ModelTag::GenuineSabl, 9)
                .with_encoding(SampleEncoding::I16(q))
                .with_compression(Compression::Shuffle),
            ArchiveMeta::scalar_tvla(8, ModelTag::CharacterizedEnhancedSabl, 3)
                .with_table_digest(42)
                .with_compression(Compression::Shuffle),
        ] {
            assert_eq!(meta.header_len(), HEADER_LEN_V4);
            let saturated = if meta.encoding.quantization().is_some() {
                5
            } else {
                0
            };
            let header = encode_header(&meta, 777, 16, saturated);
            assert_eq!(header.len(), HEADER_LEN_V4);
            assert_eq!(&header[0..8], &MAGIC_V4);
            assert_eq!(
                decode_header(&header).unwrap(),
                decoded(meta, 4, 777, Some(saturated))
            );
        }
    }

    #[test]
    fn v1_headers_round_trip() {
        let meta = ArchiveMeta {
            samples_per_trace: 3,
            chunk_traces: 512,
            model: ModelTag::GenuineSabl,
            seed: 0xDEAD_BEEF_2005,
            campaign: CampaignKind::TvlaInterleaved,
            table_digest: 0,
            encoding: SampleEncoding::F64,
            compression: Compression::None,
        };
        let header = legacy_header(1, &meta, 12345, 16);
        assert_eq!(header.len(), HEADER_LEN);
        assert_eq!(
            decode_header(&header).unwrap(),
            decoded(meta, 1, 12345, None)
        );
    }

    #[test]
    fn v2_headers_round_trip_digest_and_characterized_tags() {
        for meta in [
            ArchiveMeta::scalar(64, ModelTag::CharacterizedGenuineSabl, 9),
            ArchiveMeta::scalar(64, ModelTag::HammingWeight, 9).with_table_digest(0xABCD_EF01),
            ArchiveMeta::scalar_tvla(8, ModelTag::CharacterizedFullyConnectedSabl, 3)
                .with_table_digest(42),
        ] {
            let header = legacy_header(2, &meta, 777, 16);
            assert_eq!(header.len(), HEADER_LEN_V2);
            assert_eq!(decode_header(&header).unwrap(), decoded(meta, 2, 777, None));
        }
    }

    #[test]
    fn v3_headers_round_trip_encodings_and_compression() {
        let q = crate::Quantization::new(0.0625).unwrap();
        for meta in [
            ArchiveMeta::scalar(64, ModelTag::HammingWeight, 9).with_encoding(SampleEncoding::F32),
            ArchiveMeta::scalar(64, ModelTag::GenuineSabl, 9)
                .with_encoding(SampleEncoding::I16(q))
                .with_compression(Compression::Shuffle),
            ArchiveMeta::scalar_tvla(8, ModelTag::CharacterizedEnhancedSabl, 3)
                .with_table_digest(42)
                .with_compression(Compression::Shuffle),
        ] {
            let header = legacy_header(3, &meta, 777, 16);
            assert_eq!(header.len(), HEADER_LEN_V3);
            assert_eq!(decode_header(&header).unwrap(), decoded(meta, 3, 777, None));
        }

        // Every flipped v3 payload byte fails the FNV checksum.
        let meta = ArchiveMeta::scalar(64, ModelTag::HammingWeight, 9)
            .with_encoding(SampleEncoding::I16(q));
        let good = legacy_header(3, &meta, 100, 16);
        for offset in 12..72 {
            let mut bad = good.clone();
            bad[offset] ^= 0x10;
            assert!(
                matches!(decode_header(&bad), Err(StoreError::CorruptHeader { .. })),
                "offset {offset}"
            );
        }
    }

    #[test]
    fn every_v4_header_bit_flip_is_detected() {
        let q = crate::Quantization::new(0.0625).unwrap();
        let meta = ArchiveMeta::scalar(64, ModelTag::HammingWeight, 9)
            .with_encoding(SampleEncoding::I16(q))
            .with_table_digest(7);
        let good = encode_header(&meta, 100, 16, 3);
        for offset in 0..HEADER_LEN_V4 {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[offset] ^= 1 << bit;
                assert!(decode_header(&bad).is_err(), "offset {offset} bit {bit}");
            }
        }
    }

    #[test]
    fn forged_v4_fields_fail_typed() {
        let q = crate::Quantization::new(0.0625).unwrap();
        let meta = ArchiveMeta::scalar(64, ModelTag::HammingWeight, 9)
            .with_encoding(SampleEncoding::I16(q));
        let good = encode_header(&meta, 100, 16, 0);
        // Unknown encoding/compression tags and a saturation count beyond
        // the sample count — all resealed — are typed corruption, not
        // panics.
        for (offset, value) in [(56usize, 9u64), (60, 7), (72, 101)] {
            let mut forged = good.clone();
            if offset == 72 {
                forged[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
            } else {
                forged[offset..offset + 4].copy_from_slice(&(value as u32).to_le_bytes());
            }
            reseal(&mut forged);
            assert!(
                matches!(
                    decode_header(&forged),
                    Err(StoreError::CorruptHeader { .. })
                ),
                "offset {offset}"
            );
        }
        // So are saturations recorded for a float encoding.
        let f64_meta = ArchiveMeta::scalar(64, ModelTag::HammingWeight, 9);
        let mut forged = encode_header(&f64_meta, 100, 16, 0);
        forged[72] = 1;
        reseal(&mut forged);
        assert!(matches!(
            decode_header(&forged),
            Err(StoreError::CorruptHeader { .. })
        ));
    }

    #[test]
    fn characterized_tags_are_out_of_range_for_v1_headers() {
        // A forged v1 header carrying a characterized (or unknown) tag code
        // with a self-consistent checksum must fail with the *typed* error,
        // not a generic corruption message.
        let meta = ArchiveMeta::scalar(8, ModelTag::HammingWeight, 5);
        for code in [5u32, 99] {
            let mut forged = legacy_header(1, &meta, 40, 16);
            forged[20..24].copy_from_slice(&code.to_le_bytes());
            reseal(&mut forged);
            assert_eq!(
                decode_header(&forged),
                Err(StoreError::UnknownModelTag { code, version: 1 })
            );
        }
        // And an unknown code is equally typed in v2 and v4 headers.
        let meta = ArchiveMeta::scalar(8, ModelTag::CharacterizedGenuineSabl, 5);
        for (version, mut forged) in [
            (2, legacy_header(2, &meta, 40, 16)),
            (4, encode_header(&meta, 40, 16, 0)),
        ] {
            forged[20..24].copy_from_slice(&77u32.to_le_bytes());
            reseal(&mut forged);
            assert_eq!(
                decode_header(&forged),
                Err(StoreError::UnknownModelTag { code: 77, version })
            );
        }
    }

    #[test]
    fn header_corruption_is_detected() {
        let meta = ArchiveMeta::scalar(64, ModelTag::HammingWeight, 7);
        let good = encode_header(&meta, 100, 16, 0);

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_header(&bad_magic),
            Err(StoreError::BadMagic { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[8] = 99;
        // The version is checked before the checksum so future formats get a
        // clean error, not "corrupt".
        assert!(matches!(
            decode_header(&bad_version),
            Err(StoreError::UnsupportedVersion { found: 99 })
        ));

        // Any flipped payload byte of a legacy header fails its checksum.
        let v1 = legacy_header(1, &meta, 100, 16);
        let v2 = legacy_header(
            2,
            &ArchiveMeta::scalar(64, ModelTag::CharacterizedEnhancedSabl, 7),
            100,
            16,
        );
        for (header, end) in [(v1, 48), (v2, 56)] {
            for offset in 12..end {
                let mut bad = header.clone();
                bad[offset] ^= 0x10;
                assert!(
                    matches!(decode_header(&bad), Err(StoreError::CorruptHeader { .. })),
                    "offset {offset}"
                );
            }
        }
    }

    #[test]
    fn forged_header_sizes_are_rejected_not_overflowed() {
        // Maxed-out fields with a valid checksum must surface as
        // CorruptHeader, not as integer overflow in the offset arithmetic.
        let huge = ArchiveMeta {
            samples_per_trace: u32::MAX as usize,
            chunk_traces: u32::MAX as usize,
            ..ArchiveMeta::scalar(1, ModelTag::Unspecified, 0)
        };
        let header = encode_header(&huge, u64::MAX, 0, 0);
        assert!(matches!(
            decode_header(&header),
            Err(StoreError::CorruptHeader { .. })
        ));

        // A distinct-input count over the class-aggregation limit is
        // equally corrupt (the writer never records one).
        let meta = ArchiveMeta::scalar(8, ModelTag::Unspecified, 0);
        let header = encode_header(&meta, 100, 65, 0);
        assert!(matches!(
            decode_header(&header),
            Err(StoreError::CorruptHeader { .. })
        ));
        let header = encode_header(&meta, 100, 64, 0);
        assert!(decode_header(&header).is_ok());
    }

    #[test]
    fn campaign_kinds_round_trip_and_legacy_zero_is_attack() {
        for kind in [CampaignKind::Attack, CampaignKind::TvlaInterleaved] {
            assert_eq!(CampaignKind::from_code(kind.code()).unwrap(), kind);
            assert!(!kind.label().is_empty());
        }
        assert!(CampaignKind::from_code(9).is_err());

        // The field occupies the formerly-reserved (always zero) bytes
        // 44..48: a pre-TVLA header decodes as an Attack campaign.
        let meta = ArchiveMeta::scalar(8, ModelTag::HammingWeight, 5);
        let header = legacy_header(1, &meta, 40, 16);
        assert_eq!(header[44..48], [0, 0, 0, 0]);
        assert_eq!(
            decode_header(&header).unwrap().meta.campaign,
            CampaignKind::Attack
        );

        // A TVLA campaign round-trips through the same bytes.
        let tvla = ArchiveMeta::scalar_tvla(8, ModelTag::HammingWeight, 5);
        let header = encode_header(&tvla, 40, 16, 0);
        assert_eq!(
            decode_header(&header).unwrap().meta.campaign,
            CampaignKind::TvlaInterleaved
        );

        // An unknown kind with a self-consistent checksum is corrupt.
        let mut forged = header;
        forged[44] = 7;
        reseal(&mut forged);
        assert!(matches!(
            decode_header(&forged),
            Err(StoreError::CorruptHeader { .. })
        ));
    }

    #[test]
    fn model_tags_round_trip() {
        for tag in [
            ModelTag::Unspecified,
            ModelTag::GenuineSabl,
            ModelTag::FullyConnectedSabl,
            ModelTag::EnhancedSabl,
            ModelTag::HammingWeight,
            ModelTag::CharacterizedGenuineSabl,
            ModelTag::CharacterizedFullyConnectedSabl,
            ModelTag::CharacterizedEnhancedSabl,
            ModelTag::CharacterizedHammingWeight,
        ] {
            assert_eq!(
                ModelTag::from_code(tag.code(), CURRENT_VERSION).unwrap(),
                tag
            );
            assert!(!tag.label().is_empty());
            assert_eq!(tag.is_characterized(), tag.code() > 4);
            assert!(!tag.base_style().is_characterized());
            if tag != ModelTag::Unspecified {
                let charac = tag.characterized().unwrap();
                assert!(charac.is_characterized());
                assert_eq!(charac.base_style(), tag.base_style());
            } else {
                assert_eq!(tag.characterized(), None);
            }
        }
        assert!(matches!(
            ModelTag::from_code(77, CURRENT_VERSION),
            Err(StoreError::UnknownModelTag {
                code: 77,
                version: CURRENT_VERSION
            })
        ));
    }

    #[test]
    fn fnv_detects_single_byte_flips() {
        let data: Vec<u8> = (0..=255u8).collect();
        let baseline = fnv1a64(&data);
        for i in 0..data.len() {
            let mut flipped = data.clone();
            flipped[i] ^= 0x01;
            assert_ne!(fnv1a64(&flipped), baseline, "byte {i}");
        }
    }

    #[test]
    fn checksum64_detects_every_bit_flip_at_every_length() {
        let mut data: Vec<u8> = (0..=256u32)
            .map(|i| (i.wrapping_mul(0x9E) ^ (i >> 3)) as u8)
            .collect();
        for len in 0..=256usize {
            let baseline = checksum64(&data[..len]);
            for byte in 0..len {
                for bit in 0..8 {
                    data[byte] ^= 1 << bit;
                    assert_ne!(
                        checksum64(&data[..len]),
                        baseline,
                        "length {len} byte {byte} bit {bit}"
                    );
                    data[byte] ^= 1 << bit;
                }
            }
        }
        // Trailing zero padding is separated by the folded length.
        assert_ne!(checksum64(&[]), checksum64(&[0]));
        assert_ne!(checksum64(&[1, 2, 3]), checksum64(&[1, 2, 3, 0]));
    }

    #[test]
    fn checksum64_is_pinned() {
        // The function defines the version-4 on-disk format: its digests
        // must never change.
        assert_eq!(checksum64(b""), GOLDEN_EMPTY);
        assert_eq!(checksum64(b"DPLTRCv4"), GOLDEN_MAGIC);
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(checksum64(&data[..77]), GOLDEN_77);
    }

    const GOLDEN_EMPTY: u64 = 14_138_403_683_228_729_791;
    const GOLDEN_MAGIC: u64 = 11_207_159_004_153_672_681;
    const GOLDEN_77: u64 = 10_706_012_636_246_702_290;

    #[test]
    fn meta_validation() {
        assert!(ArchiveMeta::scalar(0, ModelTag::Unspecified, 0)
            .validate()
            .is_err());
        let mut meta = ArchiveMeta::scalar(8, ModelTag::Unspecified, 0);
        meta.samples_per_trace = 0;
        assert!(meta.validate().is_err());
        assert!(ArchiveMeta::scalar(8, ModelTag::Unspecified, 0)
            .validate()
            .is_ok());
    }
}
