//! Chunk-iterating, corruption-detecting archive reader.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use dpl_obs::{names, Obs};
use dpl_power::TraceSet;

use crate::encode::{self, max_body_len, Compression};
use crate::error::{ReadSite, Result, StoreError};
use crate::format::{
    checksum_of_version, decode_header, framed_chunk_len, header_len_of_version, version_of_magic,
    ArchiveMeta, CHUNK_BODY_LEN_LEN, CHUNK_CHECKSUM_LEN, CHUNK_PREFIX_LEN,
};
use crate::salvage::ReadPolicy;

/// Bytes of a framed chunk head: `[k: u32][body_len: u32]`.
const FRAMED_HEAD_LEN: usize = CHUNK_PREFIX_LEN + CHUNK_BODY_LEN_LEN;

/// Reads a chunked trace archive without ever materializing more than one
/// chunk.
///
/// The reader validates the header (magic, version, checksum, field sanity)
/// and the exact file length on open, verifies every chunk's checksum on
/// read, and enforces a configurable **in-memory chunk budget**: attacks
/// folded over [`ArchiveReader::read_chunk`] never hold more than
/// `min(chunk_traces, budget)`-trace [`TraceSet`]s, regardless of how large
/// the archive is.  Every format version is readable; the version is the
/// one the file's magic announces.
#[derive(Debug)]
pub struct ArchiveReader<R: Read + Seek> {
    stream: R,
    meta: ArchiveMeta,
    version: u32,
    trace_count: u64,
    distinct_inputs: u32,
    saturated_samples: Option<u64>,
    chunk_budget: usize,
    policy: ReadPolicy,
    obs: Option<Obs>,
    /// The chunk and header checksum of the file's format version.
    checksum: fn(&[u8]) -> u64,
    /// The stream length observed on open: no chunk read allocates or
    /// reads past it.
    file_len: u64,
    /// Compressed archives have variable-length chunks: `(offset,
    /// body_len)` per chunk, built by an open-time walk of the
    /// self-describing chunk heads.  `None` for uncompressed archives,
    /// whose offsets are arithmetic.
    offsets: Option<Vec<(u64, u32)>>,
    /// Where the chunk walk stopped (== end of the last walkable chunk;
    /// under [`ReadPolicy::Salvage`] chunks beyond it are damage).
    data_end: u64,
    /// Reusable chunk buffer (head, body and checksum) — steady-state
    /// folds allocate no payload bytes per chunk.
    payload: Vec<u8>,
    /// Reusable decompression scratch for compressed chunk bodies.
    decode_scratch: Vec<u8>,
}

impl ArchiveReader<BufReader<File>> {
    /// Opens an archive file with the strict policy.
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or a malformed/corrupt header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::open_with_policy(path, ReadPolicy::Strict)
    }

    /// Opens an archive file under the given [`ReadPolicy`].
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or a malformed/corrupt header.
    pub fn open_with_policy<P: AsRef<Path>>(path: P, policy: ReadPolicy) -> Result<Self> {
        let file = File::open(path)?;
        ArchiveReader::with_policy(BufReader::new(file), policy)
    }
}

impl<R: Read + Seek> ArchiveReader<R> {
    /// Wraps a stream holding a complete archive (strict policy).
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures, a malformed/corrupt header, or a
    /// stream whose length does not match the header's promise.
    pub fn new(stream: R) -> Result<Self> {
        Self::with_policy(stream, ReadPolicy::Strict)
    }

    /// Wraps a stream under the given [`ReadPolicy`].
    ///
    /// Under [`ReadPolicy::Salvage`] the exact-file-length check is skipped
    /// so that a truncated archive still opens; the missing tail then
    /// surfaces per chunk — as hard errors from [`ArchiveReader::read_chunk`]
    /// or as damage entries from the salvage reads.  The header itself must
    /// always be valid: it is the only description of the chunk geometry.
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or a malformed/corrupt header.
    pub fn with_policy(mut stream: R, policy: ReadPolicy) -> Result<Self> {
        stream.seek(SeekFrom::Start(0))?;
        // The magic bytes announce the header version — and with it the
        // header length to fetch before decoding.
        let mut magic = [0u8; 8];
        read_exact_or(&mut stream, &mut magic, ReadSite::Header)?;
        let Some(version) = version_of_magic(&magic) else {
            return Err(StoreError::BadMagic { found: magic });
        };
        let mut header = vec![0u8; header_len_of_version(version)];
        header[0..8].copy_from_slice(&magic);
        read_exact_or(&mut stream, &mut header[8..], ReadSite::Header)?;
        let decoded = decode_header(&header)?;
        let file_len = stream.seek(SeekFrom::End(0))?;
        let mut reader = ArchiveReader {
            chunk_budget: decoded.meta.chunk_traces,
            stream,
            meta: decoded.meta,
            version: decoded.version,
            trace_count: decoded.trace_count,
            distinct_inputs: decoded.distinct_inputs,
            saturated_samples: decoded.saturated_samples,
            policy,
            obs: None,
            checksum: checksum_of_version(decoded.version),
            file_len,
            offsets: None,
            data_end: 0,
            payload: Vec::new(),
            decode_scratch: Vec::new(),
        };
        if reader.meta.compression == Compression::Shuffle {
            // Variable-length chunks: locate them all up front (the walk
            // doubles as the strict exact-length check).
            reader.walk_chunks()?;
        } else if policy == ReadPolicy::Strict {
            reader.validate_length()?;
        }
        Ok(reader)
    }

    /// The header length of the file's format version.
    fn header_len(&self) -> u64 {
        header_len_of_version(self.version) as u64
    }

    /// Bytes before a chunk body: `[k]` in the read-only versions 1–2,
    /// `[k][body_len]` from version 3 on.
    fn head_len(&self) -> usize {
        if self.version >= 3 {
            FRAMED_HEAD_LEN
        } else {
            CHUNK_PREFIX_LEN
        }
    }

    /// The largest body a `k`-trace chunk may declare.
    fn body_bound(&self, k: usize) -> u64 {
        max_body_len(
            k,
            self.meta.samples_per_trace,
            self.meta.encoding,
            self.meta.compression,
        )
    }

    /// Validates chunk `index`'s head at byte `at`, returning its body
    /// length.
    fn scan_chunk_head(&mut self, at: u64, index: usize, expected_traces: usize) -> Result<u32> {
        self.stream.seek(SeekFrom::Start(at))?;
        let mut head = [0u8; FRAMED_HEAD_LEN];
        read_exact_or(&mut self.stream, &mut head, ReadSite::Chunk(index))?;
        let k = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
        if k != expected_traces {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "chunk {index} declares {k} traces, header implies {expected_traces}"
                ),
            });
        }
        let body_len = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        let bound = self.body_bound(k);
        if u64::from(body_len) > bound {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "chunk {index} declares a {body_len}-byte body, encoding bounds it at {bound}"
                ),
            });
        }
        Ok(body_len)
    }

    /// Walks the chunk heads of a compressed archive once, recording every
    /// chunk's offset and body length.  Under [`ReadPolicy::Strict`] the
    /// walk must land exactly on the end of the file.  Under
    /// [`ReadPolicy::Salvage`] every chunk is checksum-verified as it is
    /// walked, and a damaged chunk is stepped over by locating the next
    /// chunk that verifies, so damage stays confined to the chunks it hit;
    /// the walk stops only when no successor can be found.
    fn walk_chunks(&mut self) -> Result<()> {
        let chunks = self.chunk_count();
        // Every chunk occupies at least its framing, so the file length
        // bounds the table whatever the header claims.
        let most = self.file_len / framed_chunk_len(0);
        let mut offsets = Vec::with_capacity(chunks.min(usize::try_from(most).unwrap_or(0)));
        let mut at = self.header_len();
        for index in 0..chunks {
            let expected = self.traces_in_chunk(index);
            if self.policy == ReadPolicy::Strict {
                let body_len = self.scan_chunk_head(at, index, expected)?;
                offsets.push((at, body_len));
                at += framed_chunk_len(u64::from(body_len));
            } else if let Some(body_len) = self.verified_chunk_at(at, index) {
                offsets.push((at, body_len));
                at += framed_chunk_len(u64::from(body_len));
            } else if let Some(next) = self.successor_of_damaged(at, index) {
                // The damaged chunk spans everything up to its successor;
                // reading it fails its checksum.
                let span = next - at - framed_chunk_len(0);
                offsets.push((at, u32::try_from(span).expect("span within the body bound")));
                at = next;
            } else {
                break;
            }
        }
        if self.policy == ReadPolicy::Strict && self.file_len != at {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "archive holds {} bytes, chunk walk implies exactly {at}",
                    self.file_len
                ),
            });
        }
        self.offsets = Some(offsets);
        self.data_end = at;
        Ok(())
    }

    /// The body length of chunk `index` at byte `at` if the chunk is intact
    /// there (head consistent with the header, checksum verified).
    fn verified_chunk_at(&mut self, at: u64, index: usize) -> Option<u32> {
        let body_len = self
            .scan_chunk_head(at, index, self.traces_in_chunk(index))
            .ok()?;
        let len = framed_chunk_len(u64::from(body_len));
        if at + len > self.file_len {
            return None;
        }
        self.stream.seek(SeekFrom::Start(at)).ok()?;
        self.payload.clear();
        self.payload.resize(len as usize, 0);
        self.stream.read_exact(&mut self.payload).ok()?;
        chunk_verifies(&self.payload, self.checksum).then_some(body_len)
    }

    /// Where the chunk after damaged chunk `index` (at byte `at`) starts:
    /// the declared successor if it verifies, else the first position in
    /// the damaged chunk's possible extent where the next chunk verifies.
    /// For the last chunk, the end of the file if the chunk can span it.
    fn successor_of_damaged(&mut self, at: u64, index: usize) -> Option<u64> {
        let first = at + framed_chunk_len(0);
        let last = (first + self.body_bound(self.traces_in_chunk(index))).min(self.file_len);
        if first > last {
            return None;
        }
        let next = index + 1;
        if next == self.chunk_count() {
            return (self.file_len == last).then_some(last);
        }
        let next_traces = self.traces_in_chunk(next);
        let next_bound = self.body_bound(next_traces);
        // One read covers every candidate start plus the longest chunk that
        // can begin at the last one — two chunk bounds, never past the file.
        let window_end = (last + framed_chunk_len(next_bound)).min(self.file_len);
        let mut window = vec![0u8; (window_end - first) as usize];
        self.stream.seek(SeekFrom::Start(first)).ok()?;
        self.stream.read_exact(&mut window).ok()?;
        let checksum = self.checksum;
        let starts_chunk = |rel: usize| {
            let Some(head) = window.get(rel..rel + FRAMED_HEAD_LEN) else {
                return false;
            };
            let k = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
            let body_len = u64::from(u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")));
            if k != next_traces || body_len > next_bound {
                return false;
            }
            let end = rel + framed_chunk_len(body_len) as usize;
            window
                .get(rel..end)
                .is_some_and(|chunk| chunk_verifies(chunk, checksum))
        };
        // The damaged head's own length field is the likeliest answer.
        let declared = self
            .stream
            .seek(SeekFrom::Start(at + CHUNK_PREFIX_LEN as u64))
            .ok()
            .and_then(|_| {
                let mut raw = [0u8; CHUNK_BODY_LEN_LEN];
                self.stream.read_exact(&mut raw).ok()?;
                Some(u64::from(u32::from_le_bytes(raw)))
            })
            .filter(|&body_len| first + body_len <= last)
            .map(|body_len| body_len as usize);
        declared
            .into_iter()
            .chain(0..=(last - first) as usize)
            .find(|&rel| starts_chunk(rel))
            .map(|rel| first + rel as u64)
    }

    /// Restricts the largest chunk this reader will materialize to `traces`
    /// traces — the out-of-core attacks' memory ceiling.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ChunkBudgetExceeded`] when the archive's chunks
    /// are larger than the budget.
    pub fn with_chunk_budget(mut self, traces: usize) -> Result<Self> {
        if self.meta.chunk_traces > traces {
            return Err(StoreError::ChunkBudgetExceeded {
                chunk_traces: self.meta.chunk_traces,
                budget: traces,
            });
        }
        self.chunk_budget = traces;
        Ok(self)
    }

    fn validate_length(&mut self) -> Result<()> {
        let expected = self.expected_file_len();
        if self.file_len != expected {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "archive holds {} bytes, header promises exactly {expected}",
                    self.file_len
                ),
            });
        }
        Ok(())
    }

    /// The archive's campaign metadata.
    pub fn meta(&self) -> &ArchiveMeta {
        &self.meta
    }

    /// Total number of traces in the archive.
    pub fn trace_count(&self) -> u64 {
        self.trace_count
    }

    /// Samples per trace.
    pub fn samples_per_trace(&self) -> usize {
        self.meta.samples_per_trace
    }

    /// The reader's in-memory chunk budget, in traces.
    pub fn chunk_budget(&self) -> usize {
        self.chunk_budget
    }

    /// The policy this reader was opened under.
    pub fn policy(&self) -> ReadPolicy {
        self.policy
    }

    /// Attaches a telemetry context. Chunk reads, bytes and checksum
    /// failures are counted into it, each read is attributed to I/O,
    /// checksum and decode phase spans — validate instead of decode for an
    /// fsck [`ArchiveReader::scan`] — with matching `store.*_ns`
    /// histograms, and the streaming folds in this crate and `dpl-eval`
    /// pick it up via [`ArchiveReader::obs`].
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = Some(obs.clone());
    }

    /// The attached telemetry context, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// The measurement discipline recorded for this campaign (attack vs
    /// TVLA) — shorthand for `meta().campaign`.
    pub fn campaign(&self) -> crate::format::CampaignKind {
        self.meta.campaign
    }

    /// The file's format version, as its magic announces it (1 = legacy,
    /// 2 = extensible model tag + energy-table digest, 3 = compact
    /// encodings + compression, 4 = word checksum + saturation count).
    pub fn format_version(&self) -> u32 {
        self.version
    }

    /// The number of samples the `i16` encoding stored at its integer range
    /// bounds, as the writer recorded it (0 for the float encodings), or
    /// `None` for archives older than format version 4, which did not
    /// record it.
    pub fn saturated_samples(&self) -> Option<u64> {
        self.saturated_samples
    }

    /// The energy-table digest recorded by the capture campaign, or `None`
    /// for legacy archives / campaigns that did not record one.
    pub fn table_digest(&self) -> Option<u64> {
        match self.meta.table_digest {
            0 => None,
            digest => Some(digest),
        }
    }

    /// The campaign's distinct input count as recorded by the writer, or
    /// `None` when it exceeded the class-aggregation limit — the signal the
    /// out-of-core attacks use to pick their accumulator bookkeeping.
    pub fn distinct_inputs(&self) -> Option<usize> {
        match self.distinct_inputs {
            0 => None,
            n => Some(n as usize),
        }
    }

    /// Number of chunks (the last one may be partial).
    pub fn chunk_count(&self) -> usize {
        self.trace_count.div_ceil(self.meta.chunk_traces as u64) as usize
    }

    /// Traces in chunk `index`.
    pub(crate) fn traces_in_chunk(&self, index: usize) -> usize {
        let chunk_traces = self.meta.chunk_traces as u64;
        let start = index as u64 * chunk_traces;
        ((self.trace_count - start).min(chunk_traces)) as usize
    }

    /// Serialized bytes of an uncompressed `k`-trace chunk, whose body
    /// length is fixed by `k`.
    fn fixed_chunk_len(&self, k: usize) -> u64 {
        (self.head_len() + CHUNK_CHECKSUM_LEN) as u64 + self.body_bound(k)
    }

    /// Byte offset of chunk `index` of an uncompressed archive (every chunk
    /// before it is full).
    fn chunk_offset(&self, index: usize) -> u64 {
        self.header_len() + index as u64 * self.fixed_chunk_len(self.meta.chunk_traces)
    }

    /// The exact file size the header implies for an uncompressed archive
    /// (only the last chunk may be partial).
    fn expected_file_len(&self) -> u64 {
        match self.chunk_count() {
            0 => self.header_len(),
            chunks => {
                self.chunk_offset(chunks - 1)
                    + self.fixed_chunk_len(self.traces_in_chunk(chunks - 1))
            }
        }
    }

    /// Reads and verifies chunk `index` into a columnar [`TraceSet`].
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range index, I/O failure, truncation,
    /// a checksum mismatch, or a structural violation.
    pub fn read_chunk(&mut self, index: usize) -> Result<TraceSet> {
        let mut set = TraceSet::new();
        self.read_chunk_into(index, &mut set)?;
        Ok(set)
    }

    /// Reads and verifies chunk `index` into `set` **in place**, reusing the
    /// set's buffers — the steady-state fold path performs no per-chunk
    /// allocation.  On error the set's contents are unspecified (stale or
    /// empty); never a half-written chunk presented as valid.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range index, I/O failure, truncation,
    /// a checksum mismatch, or a structural violation.
    pub fn read_chunk_into(&mut self, index: usize, set: &mut TraceSet) -> Result<()> {
        let decode = ("store.chunk_decode", names::STORE_DECODE_NS);
        self.read_verified(index, decode, |meta, k, body, scratch| {
            set.refill_columns(meta.samples_per_trace, k, |inputs, data| {
                encode::decode_body(
                    meta.encoding,
                    meta.compression,
                    k,
                    body,
                    inputs,
                    data,
                    scratch,
                )
            })
        })
    }

    /// Verifies chunk `index` exactly as [`ArchiveReader::read_chunk_into`]
    /// does — the same bounds, I/O, checksum, counters and structural
    /// checks of the body — without building a sample: the fsck path.
    /// The body is walked by the decoder's own parser, so a chunk verifies
    /// here exactly when it decodes, with the same error when it does not.
    ///
    /// # Errors
    ///
    /// Those of [`ArchiveReader::read_chunk_into`].
    pub(crate) fn verify_chunk(&mut self, index: usize) -> Result<()> {
        let validate = ("store.chunk_validate", names::STORE_VALIDATE_NS);
        self.read_verified(index, validate, |meta, k, body, _| {
            encode::validate_body(
                meta.encoding,
                meta.compression,
                k,
                k * meta.samples_per_trace,
                body,
            )
        })
    }

    /// Reads chunk `index` into the payload buffer, verifies its checksum
    /// and frame, and hands the campaign metadata, the chunk's trace count,
    /// its body and the decode scratch to `consume` inside the `phase` span
    /// (`(span name, histogram)`) — the path under both
    /// [`ArchiveReader::read_chunk_into`] and [`ArchiveReader::verify_chunk`].
    fn read_verified<T>(
        &mut self,
        index: usize,
        phase: (&'static str, &'static str),
        consume: impl FnOnce(ArchiveMeta, usize, &[u8], &mut Vec<u8>) -> Result<T>,
    ) -> Result<T> {
        if index >= self.chunk_count() {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "chunk {index} out of range (archive has {} chunks)",
                    self.chunk_count()
                ),
            });
        }
        let expected_traces = self.traces_in_chunk(index);
        debug_assert!(expected_traces <= self.chunk_budget);
        let head_len = self.head_len();
        let (offset, body_len) = match &self.offsets {
            None => (self.chunk_offset(index), self.body_bound(expected_traces)),
            Some(walked) => match walked.get(index) {
                Some(&(offset, body_len)) => (offset, u64::from(body_len)),
                None => {
                    // The open-time walk stopped before this chunk.  The
                    // first unwalkable head can be re-validated for a
                    // precise error; anything beyond it has no locatable
                    // offset at all.
                    if index == walked.len() {
                        let at = self.data_end;
                        self.scan_chunk_head(at, index, expected_traces)?;
                    }
                    return Err(StoreError::Truncated {
                        at: ReadSite::Chunk(index),
                    });
                }
            },
        };
        let chunk_len = head_len as u64 + body_len + CHUNK_CHECKSUM_LEN as u64;
        if offset + chunk_len > self.file_len {
            return Err(StoreError::Truncated {
                at: ReadSite::Chunk(index),
            });
        }
        let chunk_len = chunk_len as usize;

        let io_phase = self
            .obs
            .as_ref()
            .map(|o| o.phase("store.chunk_io", names::STORE_READ_IO_NS));
        self.stream.seek(SeekFrom::Start(offset))?;
        self.payload.clear();
        self.payload.resize(chunk_len, 0);
        read_exact_or(&mut self.stream, &mut self.payload, ReadSite::Chunk(index))?;
        drop(io_phase);

        let checksum_phase = self
            .obs
            .as_ref()
            .map(|o| o.phase("store.chunk_checksum", names::STORE_CHECKSUM_NS));
        let checksum_ok = chunk_verifies(&self.payload, self.checksum);
        drop(checksum_phase);
        if !checksum_ok {
            if let Some(obs) = &self.obs {
                obs.counter_add(names::STORE_CHECKSUM_FAILURES, 1);
            }
            return Err(StoreError::ChecksumMismatch { chunk: index });
        }
        if let Some(obs) = &self.obs {
            obs.counter_add(names::STORE_CHUNK_READS, 1);
            obs.counter_add(names::STORE_BYTES_READ, chunk_len as u64);
        }

        let consume_phase = self.obs.as_ref().map(|o| o.phase(phase.0, phase.1));
        let k = u32::from_le_bytes(self.payload[0..4].try_into().expect("4 bytes")) as usize;
        if k != expected_traces {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "chunk {index} declares {k} traces, header implies {expected_traces}"
                ),
            });
        }
        if head_len == FRAMED_HEAD_LEN {
            let declared = u32::from_le_bytes(self.payload[4..8].try_into().expect("4 bytes"));
            if u64::from(declared) != body_len {
                return Err(StoreError::FormatViolation {
                    message: format!(
                        "chunk {index} declares a {declared}-byte body, its frame holds {body_len}"
                    ),
                });
            }
        }
        let body = &self.payload[head_len..chunk_len - CHUNK_CHECKSUM_LEN];
        let consumed = consume(self.meta, k, body, &mut self.decode_scratch)?;
        drop(consume_phase);
        Ok(consumed)
    }

    /// Iterates over every chunk in order.
    pub fn chunks(&mut self) -> Chunks<'_, R> {
        Chunks {
            reader: self,
            next: 0,
        }
    }

    /// Reads the whole archive into one in-memory [`TraceSet`] — the
    /// equivalence oracle for the out-of-core attacks, **not** the intended
    /// access path for large archives.
    ///
    /// # Errors
    ///
    /// Returns an error on any chunk failure.
    pub fn read_all(&mut self) -> Result<TraceSet> {
        let samples = self.meta.samples_per_trace;
        let total = self.trace_count as usize;
        let mut inputs = Vec::with_capacity(total);
        let mut data = vec![0.0f64; samples * total];
        let mut offset = 0usize;
        for index in 0..self.chunk_count() {
            let chunk = self.read_chunk(index)?;
            let k = chunk.len();
            inputs.extend_from_slice(chunk.inputs());
            for s in 0..samples {
                data[s * total + offset..s * total + offset + k]
                    .copy_from_slice(chunk.sample_column(s));
            }
            offset += k;
        }
        Ok(TraceSet::from_columns(inputs, samples, data))
    }
}

/// A storage backend that presents a capture campaign as one ordered
/// stream of verified trace chunks.
///
/// This is the seam between the storage layer and the attack layer: the
/// out-of-core folds in this crate and in `dpl-eval` are written against
/// `ChunkSource`, so a single [`ArchiveReader`] file and a multi-archive
/// [`crate::ShardedReader`] campaign fold through the exact same code —
/// format evolution stays out of attack logic.  Implementations must yield
/// chunks in **global trace order** with every chunk full except possibly
/// the last; the mergeable accumulators then produce bit-identical scores
/// regardless of how the campaign is stored.
pub trait ChunkSource {
    /// The campaign metadata (shared by every chunk).
    fn meta(&self) -> &ArchiveMeta;

    /// Total number of traces in the campaign.
    fn trace_count(&self) -> u64;

    /// Number of chunks (the last one may be partial).
    fn chunk_count(&self) -> usize;

    /// The campaign's recorded distinct input count, or `None` when it
    /// exceeded the class-aggregation limit.
    fn distinct_inputs(&self) -> Option<usize>;

    /// Reads and verifies chunk `index` into a columnar [`TraceSet`].
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range index, I/O failure,
    /// truncation, a checksum mismatch, or a structural violation.
    fn read_chunk(&mut self, index: usize) -> Result<TraceSet>;

    /// Reads chunk `index` into `set` in place, reusing its buffers where
    /// the implementation supports it — the steady-state fold path.  The
    /// default delegates to [`ChunkSource::read_chunk`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChunkSource::read_chunk`]; on error the set's
    /// contents are unspecified.
    fn read_chunk_into(&mut self, index: usize, set: &mut TraceSet) -> Result<()> {
        *set = self.read_chunk(index)?;
        Ok(())
    }

    /// The attached telemetry context, if any.
    fn obs(&self) -> Option<&Obs>;

    /// Samples per trace — shorthand for `meta().samples_per_trace`.
    fn samples_per_trace(&self) -> usize {
        self.meta().samples_per_trace
    }
}

impl<R: Read + Seek> ChunkSource for ArchiveReader<R> {
    fn meta(&self) -> &ArchiveMeta {
        ArchiveReader::meta(self)
    }

    fn trace_count(&self) -> u64 {
        ArchiveReader::trace_count(self)
    }

    fn chunk_count(&self) -> usize {
        ArchiveReader::chunk_count(self)
    }

    fn distinct_inputs(&self) -> Option<usize> {
        ArchiveReader::distinct_inputs(self)
    }

    fn read_chunk(&mut self, index: usize) -> Result<TraceSet> {
        ArchiveReader::read_chunk(self, index)
    }

    fn read_chunk_into(&mut self, index: usize, set: &mut TraceSet) -> Result<()> {
        ArchiveReader::read_chunk_into(self, index, set)
    }

    fn obs(&self) -> Option<&Obs> {
        ArchiveReader::obs(self)
    }
}

/// Iterator over the chunks of an [`ArchiveReader`], yielding one columnar
/// [`TraceSet`] per chunk.
#[derive(Debug)]
pub struct Chunks<'a, R: Read + Seek> {
    reader: &'a mut ArchiveReader<R>,
    next: usize,
}

impl<R: Read + Seek> Iterator for Chunks<'_, R> {
    type Item = Result<TraceSet>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.reader.chunk_count() {
            return None;
        }
        let chunk = self.reader.read_chunk(self.next);
        self.next += 1;
        Some(chunk)
    }
}

/// Whether a whole chunk (head, body, trailing checksum) matches its
/// checksum.
fn chunk_verifies(chunk: &[u8], checksum: fn(&[u8]) -> u64) -> bool {
    let (covered, stored) = chunk.split_at(chunk.len() - CHUNK_CHECKSUM_LEN);
    u64::from_le_bytes(stored.try_into().expect("8 bytes")) == checksum(covered)
}

fn read_exact_or<R: Read>(stream: &mut R, buf: &mut [u8], at: ReadSite) -> Result<()> {
    stream.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated { at }
        } else {
            StoreError::from(e)
        }
    })
}
