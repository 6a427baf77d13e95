//! Crash recovery for interrupted captures.
//!
//! An unfinished archive starts with a zeroed placeholder header, so its
//! chunks — each self-describing as `[k][body_len][body][checksum]` — are
//! the only source of truth.  [`recover`] scans them against the campaign
//! metadata the capture knows anyway (chunk bytes alone cannot disambiguate
//! the sample width), accepts the longest valid prefix of full chunks,
//! absorbs a trailing valid *partial* chunk (the signature of a crash
//! during [`ArchiveWriter::finish`]) back into the write buffer, and stops
//! at the first byte that fails validation.  [`ArchiveWriter::resume`]
//! truncates everything after that prefix and continues appending — a
//! capture resumed with the same trace stream produces a file bit-identical
//! to one that was never interrupted.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use dpl_power::InputClasses;

use crate::encode;
use crate::error::{Result, StoreError};
use crate::format::{
    checksum64, decode_header, framed_chunk_len, version_of_magic, ArchiveMeta, CHUNK_BODY_LEN_LEN,
    CHUNK_CHECKSUM_LEN, CHUNK_PREFIX_LEN, CURRENT_VERSION,
};
use crate::writer::{ArchiveWriter, SyncWrite, Truncate};

/// What the recovery scan found where the header belongs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderState {
    /// The zeroed placeholder of an unfinished capture.
    Placeholder,
    /// Garbage — a header write torn by a crash (or a file shorter than a
    /// header).  The chunk scan still recovers the valid prefix.
    Corrupt,
    /// A valid header matching the expected metadata: the capture finished;
    /// resuming re-opens it for further appends.
    Finished,
}

/// The valid prefix of an interrupted capture, as reconstructed by
/// [`recover`].
#[derive(Debug, Clone)]
pub struct Recovery {
    /// What stood where the header belongs.
    pub header: HeaderState,
    /// Full chunks whose checksums verified.
    pub full_chunks: usize,
    /// Traces inside those full chunks.
    pub full_traces: u64,
    /// Traces of a trailing valid partial chunk, re-absorbed into the write
    /// buffer (a partial chunk is only ever written by `finish`, so its
    /// presence means the crash hit the finish path).
    pub buffered_traces: usize,
    /// Byte offset where the valid full-chunk prefix ends; everything after
    /// it is dropped on resume.
    pub data_end: u64,
    /// Bytes past `data_end` that failed validation and are dropped.
    pub dropped_bytes: u64,
    /// `i16` samples at the integer range bounds inside the kept full
    /// chunks — the resumed writer's starting saturation count.
    pub(crate) saturated_samples: u64,
    /// On-disk bytes of the re-buffered partial chunk.
    pub(crate) pending_disk_bytes: u64,
    pub(crate) pending_inputs: Vec<u64>,
    pub(crate) pending_samples: Vec<f64>,
    pub(crate) distinct_inputs: InputClasses,
}

impl Recovery {
    /// Total traces the resume continues from (full chunks + re-buffered
    /// partial chunk).
    pub fn recovered_traces(&self) -> u64 {
        self.full_traces + self.buffered_traces as u64
    }

    /// Records the recovery outcome into a telemetry context
    /// (`store.recovered_*` counters).
    pub fn observe(&self, obs: &dpl_obs::Obs) {
        use dpl_obs::names;
        obs.counter_add(names::STORE_RECOVERED_CHUNKS, self.full_chunks as u64);
        obs.counter_add(names::STORE_RECOVERED_TRACES, self.recovered_traces());
        obs.counter_add(names::STORE_RECOVERY_DROPPED_BYTES, self.dropped_bytes);
    }
}

/// Scans an interrupted capture file and reports its recoverable prefix
/// without modifying it.
///
/// # Errors
///
/// Returns an error for invalid metadata, I/O failures, or a file whose
/// valid header belongs to a different campaign
/// ([`StoreError::ResumeMismatch`]).
pub fn recover<P: AsRef<Path>>(path: P, meta: ArchiveMeta) -> Result<Recovery> {
    let mut file = File::open(path)?;
    scan_stream(&mut file, meta)
}

/// [`recover`] over any readable stream.
pub(crate) fn scan_stream<R: Read + Seek>(stream: &mut R, meta: ArchiveMeta) -> Result<Recovery> {
    meta.validate()?;
    let header_len = meta.header_len() as u64;
    let file_len = stream.seek(SeekFrom::End(0))?;
    stream.seek(SeekFrom::Start(0))?;

    let header = if file_len < header_len {
        HeaderState::Corrupt
    } else {
        let mut bytes = vec![0u8; meta.header_len()];
        stream.read_exact(&mut bytes)?;
        classify_header(&bytes, &meta)?
    };

    let samples = meta.samples_per_trace;
    let chunk_traces = meta.chunk_traces;
    let mut recovery = Recovery {
        header,
        full_chunks: 0,
        full_traces: 0,
        buffered_traces: 0,
        data_end: header_len,
        dropped_bytes: 0,
        saturated_samples: 0,
        pending_disk_bytes: 0,
        pending_inputs: Vec::new(),
        pending_samples: Vec::new(),
        distinct_inputs: InputClasses::new(),
    };
    let mut decode_scratch = Vec::new();

    let mut offset = header_len;
    while offset < file_len {
        let remaining = file_len - offset;
        if remaining < framed_chunk_len(0) {
            break;
        }
        stream.seek(SeekFrom::Start(offset))?;
        let mut head = [0u8; CHUNK_PREFIX_LEN + CHUNK_BODY_LEN_LEN];
        stream.read_exact(&mut head)?;
        let k = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        if k == 0 || k > chunk_traces {
            break;
        }
        let body_len = u64::from(u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")));
        if body_len > encode::max_body_len(k, samples, meta.encoding, meta.compression) {
            break;
        }
        let total = framed_chunk_len(body_len);
        if remaining < total {
            break;
        }
        // Re-read head + body as one buffer: the checksum covers both.
        let covered_len = (total - CHUNK_CHECKSUM_LEN as u64) as usize;
        let mut body = vec![0u8; covered_len];
        body[..head.len()].copy_from_slice(&head);
        stream.read_exact(&mut body[head.len()..])?;
        let mut checksum = [0u8; CHUNK_CHECKSUM_LEN];
        stream.read_exact(&mut checksum)?;
        if u64::from_le_bytes(checksum) != checksum64(&body) {
            break;
        }

        // Decode the whole body — a checksum that verifies over an
        // undecodable body still ends the prefix.
        let mut inputs = Vec::with_capacity(k);
        let mut values = vec![0.0f64; k * samples];
        if encode::decode_body(
            meta.encoding,
            meta.compression,
            k,
            &body[head.len()..],
            &mut inputs,
            &mut values,
            &mut decode_scratch,
        )
        .is_err()
        {
            break;
        }
        // Replay the writer's distinct-input bookkeeping so a resumed
        // capture records the same header field as an uninterrupted one.
        for &input in &inputs {
            recovery.distinct_inputs.insert(input);
        }

        if k == chunk_traces {
            // Likewise the saturation count of every kept chunk.
            recovery.saturated_samples += meta.encoding.saturated_in(&values);
            recovery.full_chunks += 1;
            recovery.full_traces += k as u64;
            offset += total;
            recovery.data_end = offset;
        } else {
            // A valid partial chunk: written only by `finish`, and only as
            // the last chunk.  Re-buffer its traces (trace-major, the write
            // buffer's layout) so the resumed writer re-flushes them.
            // Quantized encodings round-trip exactly through re-encoding
            // (`round((q·scale)/scale) = q`), so the re-flushed chunk is
            // byte-identical to the one the crash interrupted.
            let mut pending = Vec::with_capacity(k * samples);
            for t in 0..k {
                for s in 0..samples {
                    pending.push(values[s * k + t]);
                }
            }
            recovery.buffered_traces = k;
            recovery.pending_disk_bytes = total;
            recovery.pending_inputs = inputs;
            recovery.pending_samples = pending;
            break;
        }
    }

    recovery.dropped_bytes =
        file_len.saturating_sub(recovery.data_end) - recovery.pending_disk_bytes;
    Ok(recovery)
}

fn classify_header(bytes: &[u8], meta: &ArchiveMeta) -> Result<HeaderState> {
    if bytes.iter().all(|&b| b == 0) {
        return Ok(HeaderState::Placeholder);
    }
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&bytes[0..8]);
    match version_of_magic(&magic) {
        Some(CURRENT_VERSION) => match decode_header(bytes) {
            Ok(found) => {
                if found.meta == *meta {
                    Ok(HeaderState::Finished)
                } else {
                    Err(StoreError::ResumeMismatch {
                        message: "the file's header records a different campaign \
                                  (model, seed, chunking or sample width differ)"
                            .into(),
                    })
                }
            }
            Err(_) => Ok(HeaderState::Corrupt),
        },
        Some(_) => Err(StoreError::ResumeMismatch {
            message: "the file is an archive of an older format version, which is read-only".into(),
        }),
        None => Ok(HeaderState::Corrupt),
    }
}

impl<W: SyncWrite + Read + Truncate> ArchiveWriter<W> {
    /// Re-opens an interrupted capture on `stream`: scans the valid prefix,
    /// truncates everything after it, re-zeroes the header (the file stays
    /// "unfinished" until [`ArchiveWriter::finish`]) and returns a writer
    /// positioned to append trace `recovery.recovered_traces()`.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid metadata, I/O failures, or a stream
    /// holding a different campaign's archive.
    pub fn resume_stream(mut stream: W, meta: ArchiveMeta) -> Result<(Self, Recovery)> {
        let recovery = scan_stream(&mut stream, meta)?;
        let header_len = meta.header_len() as u64;
        stream.truncate_to(recovery.data_end)?;
        stream.seek(SeekFrom::Start(0))?;
        stream.write_all(&vec![0u8; header_len as usize])?;
        stream.seek(SeekFrom::Start(recovery.data_end.max(header_len)))?;
        stream.sync_contents()?;
        let mut writer = ArchiveWriter::fresh(stream, meta);
        writer
            .pending_inputs
            .extend_from_slice(&recovery.pending_inputs);
        writer
            .pending_samples
            .extend_from_slice(&recovery.pending_samples);
        writer.distinct_inputs = recovery.distinct_inputs.clone();
        writer.traces_written = recovery.full_traces;
        writer.chunks_written = recovery.full_chunks;
        writer.saturated_samples = recovery.saturated_samples;
        Ok((writer, recovery))
    }
}

impl ArchiveWriter<File> {
    /// Re-opens an interrupted capture file for appending — the
    /// `repro capture --resume` entry point.  The file handle is unbuffered
    /// on purpose: the writer already issues exactly one write per chunk.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid metadata, I/O failures, or a file
    /// holding a different campaign's archive.
    pub fn resume<P: AsRef<Path>>(path: P, meta: ArchiveMeta) -> Result<(Self, Recovery)> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Self::resume_stream(file, meta)
    }
}
