//! Buffered, chunking archive writer.

use std::fs::File;
use std::io::{BufWriter, Cursor, Seek, SeekFrom, Write};
use std::path::Path;

use dpl_obs::{names, Obs};
use dpl_power::{InputClasses, TraceSet, TraceSink};

use crate::encode::{self, EncodeScratch};
use crate::error::{Result, StoreError};
use crate::format::{checksum64, encode_header, ArchiveMeta};

/// A writable, seekable stream whose contents can be made durable.
///
/// [`ArchiveWriter::finish`] calls [`SyncWrite::sync_contents`] twice — once
/// after the last chunk, once after the header — so that a crash after
/// `finish` returns can never leave a file that opens but carries different
/// bytes than were acknowledged.  File-backed streams map this to
/// `fsync(2)`; in-memory streams have nothing weaker than memory to sync to,
/// so the default is a plain flush.
pub trait SyncWrite: Write + Seek {
    /// Flushes buffered bytes and, where the stream is file-backed, forces
    /// them to stable storage.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    fn sync_contents(&mut self) -> std::io::Result<()> {
        self.flush()
    }
}

impl SyncWrite for File {
    fn sync_contents(&mut self) -> std::io::Result<()> {
        self.flush()?;
        self.sync_all()
    }
}

impl SyncWrite for BufWriter<File> {
    fn sync_contents(&mut self) -> std::io::Result<()> {
        self.flush()?;
        self.get_ref().sync_all()
    }
}

impl<T> SyncWrite for Cursor<T> where Cursor<T>: Write + Seek {}

/// A stream that can be shortened in place — what a resumed capture needs to
/// drop the torn bytes after the last valid chunk.
pub trait Truncate {
    /// Shrinks the stream to `len` bytes (extending is allowed but the
    /// resume path never relies on it).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    fn truncate_to(&mut self, len: u64) -> std::io::Result<()>;
}

impl Truncate for File {
    fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        self.set_len(len)
    }
}

impl Truncate for Cursor<Vec<u8>> {
    fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let buf = self.get_mut();
        if len < buf.len() {
            buf.truncate(len);
        }
        Ok(())
    }
}

impl Truncate for Cursor<&mut Vec<u8>> {
    fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let buf = self.get_mut();
        if len < buf.len() {
            buf.truncate(len);
        }
        Ok(())
    }
}

/// Streams traces into the chunked on-disk archive format.
///
/// Traces are buffered per chunk; each full chunk is serialized with its own
/// checksum and flushed to the underlying stream.  The real header (with the
/// final trace count) is written only by [`ArchiveWriter::finish`] — until
/// then the file starts with a zeroed placeholder, so a crashed capture is
/// rejected on open instead of silently truncated.
///
/// The writer is generic over any [`SyncWrite`] stream; [`ArchiveWriter::create`]
/// is the buffered-file convenience constructor, and implementing
/// [`TraceSink`] lets trace generators stream into an archive directly.
/// An interrupted capture can be continued with [`ArchiveWriter::resume`].
#[derive(Debug)]
pub struct ArchiveWriter<W: SyncWrite> {
    pub(crate) stream: W,
    pub(crate) meta: ArchiveMeta,
    /// Buffered inputs of the chunk in progress.
    pub(crate) pending_inputs: Vec<u64>,
    /// Buffered samples of the chunk in progress, trace-major.  The flush
    /// encodes them from here, in tiles, straight into `chunk_bytes` (or
    /// the compressor's planes) at their sample-major position.
    pub(crate) pending_samples: Vec<f64>,
    /// Distinct input values seen, tracked up to the attacks'
    /// class-aggregation limit and recorded in the header so readers can
    /// pick the matching accumulator bookkeeping without a scan.
    pub(crate) distinct_inputs: InputClasses,
    pub(crate) traces_written: u64,
    pub(crate) chunks_written: usize,
    /// `i16` samples flushed at the integer range bounds, recorded in the
    /// header by `finish`.
    pub(crate) saturated_samples: u64,
    pub(crate) finished: bool,
    pub(crate) obs: Option<Obs>,
    /// The framed chunk being serialized (`[k][body_len][body][checksum]`),
    /// reused so steady-state captures allocate nothing per chunk.
    pub(crate) chunk_bytes: Vec<u8>,
    /// The shuffle compressor's byte planes and delta buffer, reused
    /// likewise; untouched by uncompressed archives.
    pub(crate) encode_scratch: EncodeScratch,
}

impl ArchiveWriter<BufWriter<File>> {
    /// Creates (truncating) an archive file with the given metadata.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid metadata or a failing file creation.
    pub fn create<P: AsRef<Path>>(path: P, meta: ArchiveMeta) -> Result<Self> {
        let file = File::create(path)?;
        ArchiveWriter::new(BufWriter::new(file), meta)
    }
}

impl<W: SyncWrite> ArchiveWriter<W> {
    /// Wraps a stream positioned at the start of an empty archive and writes
    /// the placeholder header.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid metadata or a failing write.
    pub fn new(mut stream: W, meta: ArchiveMeta) -> Result<Self> {
        meta.validate()?;
        // The placeholder matches the length of the real header.
        stream.write_all(&vec![0u8; meta.header_len()])?;
        Ok(ArchiveWriter::fresh(stream, meta))
    }

    /// A writer with nothing written or buffered on `stream` — the one place
    /// the writer's fields and buffers are declared; a resumed writer starts
    /// here too and then takes over the recovered state.
    pub(crate) fn fresh(stream: W, meta: ArchiveMeta) -> Self {
        ArchiveWriter {
            stream,
            meta,
            pending_inputs: Vec::with_capacity(meta.chunk_traces),
            pending_samples: Vec::with_capacity(meta.chunk_traces * meta.samples_per_trace),
            distinct_inputs: InputClasses::new(),
            traces_written: 0,
            chunks_written: 0,
            saturated_samples: 0,
            finished: false,
            obs: None,
            chunk_bytes: Vec::new(),
            encode_scratch: EncodeScratch::default(),
        }
    }

    /// Attaches a telemetry context: chunk flushes, bytes written and fsyncs
    /// are counted into it, each flush is attributed to serialize and write
    /// phase spans (with matching `store.*_ns` histograms), and flushed
    /// traces advance the context's progress plane when one is enabled.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = Some(obs.clone());
    }

    /// The attached telemetry context, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// The metadata the archive was created with.
    pub fn meta(&self) -> &ArchiveMeta {
        &self.meta
    }

    /// Traces appended so far (buffered or flushed).
    pub fn traces_written(&self) -> u64 {
        self.traces_written + self.pending_inputs.len() as u64
    }

    /// Full chunks flushed to the stream so far.
    pub fn chunks_written(&self) -> usize {
        self.chunks_written
    }

    /// Samples of the flushed chunks that the `i16` encoding stored at its
    /// range bounds (always 0 for the float encodings).  `finish` records
    /// the final count in the header.
    pub fn saturated_samples(&self) -> u64 {
        self.saturated_samples
    }

    /// The distinct inputs appended so far, in order of first appearance;
    /// its count is `None` once more than [`dpl_power::MAX_INPUT_CLASSES`]
    /// values occurred.  `finish` records the count in the header (0 for
    /// `None`).
    pub fn input_classes(&self) -> &InputClasses {
        &self.distinct_inputs
    }

    /// Appends one trace.
    ///
    /// # Errors
    ///
    /// Returns an error if the sample count differs from the archive's
    /// declared width, the archive is already finished, or a flush fails.
    pub fn append(&mut self, input: u64, samples: &[f64]) -> Result<()> {
        if self.finished {
            return Err(StoreError::FormatViolation {
                message: "cannot append to a finished archive".into(),
            });
        }
        if samples.len() != self.meta.samples_per_trace {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "trace has {} samples, archive stores {} per trace",
                    samples.len(),
                    self.meta.samples_per_trace
                ),
            });
        }
        self.distinct_inputs.insert(input);
        self.pending_inputs.push(input);
        self.pending_samples.extend_from_slice(samples);
        if self.pending_inputs.len() == self.meta.chunk_traces {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends every trace of a set.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed set or a failing append.
    pub fn append_trace_set(&mut self, traces: &TraceSet) -> Result<()> {
        if traces.is_empty() {
            return Ok(());
        }
        traces.sample_count().map_err(StoreError::Power)?;
        for (index, &input) in traces.inputs().iter().enumerate() {
            self.append(input, &traces.trace_samples(index))?;
        }
        Ok(())
    }

    /// Serializes the buffered traces as one chunk:
    /// `[k][body_len][encoded body][checksum64]`.
    fn flush_chunk(&mut self) -> Result<()> {
        let k = self.pending_inputs.len();
        if k == 0 {
            return Ok(());
        }
        let serialize_phase = self
            .obs
            .as_ref()
            .map(|o| o.phase("store.chunk_serialize", names::STORE_SERIALIZE_NS));
        self.chunk_bytes.clear();
        self.chunk_bytes
            .extend_from_slice(&(k as u32).to_le_bytes());
        self.chunk_bytes.extend_from_slice(&[0u8; 4]);
        let saturated = encode::encode_body(
            self.meta.encoding,
            self.meta.compression,
            &self.pending_inputs,
            &self.pending_samples,
            &mut self.encode_scratch,
            &mut self.chunk_bytes,
        );
        let body_len = self.chunk_bytes.len() - 8;
        let body_len = u32::try_from(body_len).map_err(|_| StoreError::FormatViolation {
            message: format!("chunk body of {body_len} bytes exceeds the length field"),
        })?;
        self.chunk_bytes[4..8].copy_from_slice(&body_len.to_le_bytes());
        let checksum = checksum64(&self.chunk_bytes);
        self.chunk_bytes.extend_from_slice(&checksum.to_le_bytes());
        drop(serialize_phase);
        let write_phase = self
            .obs
            .as_ref()
            .map(|o| o.phase("store.chunk_write", names::STORE_WRITE_IO_NS));
        self.stream.write_all(&self.chunk_bytes)?;
        drop(write_phase);
        if let Some(obs) = &self.obs {
            obs.counter_add(names::STORE_CHUNK_WRITES, 1);
            obs.counter_add(names::STORE_BYTES_WRITTEN, self.chunk_bytes.len() as u64);
            if self.meta.encoding.quantization().is_some() {
                obs.counter_add(names::STORE_I16_SATURATIONS, saturated);
            }
            obs.progress_advance(k as u64);
        }
        self.saturated_samples += saturated;
        self.traces_written += k as u64;
        self.chunks_written += 1;
        self.pending_inputs.clear();
        self.pending_samples.clear();
        Ok(())
    }

    /// Flushes the final (possibly partial) chunk, makes the chunk data
    /// durable, then writes the real header and makes it durable too —
    /// the data-before-commit ordering that lets a crash at any point
    /// leave either a recoverable unfinished file or a complete one,
    /// never a header that promises chunks the disk does not hold.
    ///
    /// When instrumented, the whole commit runs under one `store.finish`
    /// span, so the final chunk's serialize/write and both fsyncs nest
    /// there instead of landing as separate report roots.
    ///
    /// Returns the total trace count.
    ///
    /// # Errors
    ///
    /// Returns an error if the archive is already finished or a write fails.
    pub fn finish(&mut self) -> Result<u64> {
        if self.finished {
            return Err(StoreError::FormatViolation {
                message: "archive is already finished".into(),
            });
        }
        let _span = self.obs.as_ref().map(|o| o.span("store.finish"));
        self.flush_chunk()?;
        self.sync()?;
        let distinct = self.distinct_inputs.distinct().map_or(0, |n| n as u32);
        let header = encode_header(
            &self.meta,
            self.traces_written,
            distinct,
            self.saturated_samples,
        );
        self.stream.seek(SeekFrom::Start(0))?;
        self.stream.write_all(&header)?;
        self.stream.seek(SeekFrom::End(0))?;
        self.sync()?;
        self.finished = true;
        Ok(self.traces_written)
    }

    /// One durable-commit `sync_contents`, timed as a `store.fsync` phase.
    fn sync(&mut self) -> Result<()> {
        let phase = self
            .obs
            .as_ref()
            .map(|o| o.phase("store.fsync", names::STORE_FSYNC_NS));
        self.stream.sync_contents()?;
        drop(phase);
        if let Some(obs) = &self.obs {
            obs.counter_add(names::STORE_FSYNCS, 1);
        }
        Ok(())
    }

    /// Consumes the writer and returns the underlying stream (useful for
    /// in-memory archives).
    pub fn into_inner(self) -> W {
        self.stream
    }
}

impl<W: SyncWrite> TraceSink for ArchiveWriter<W> {
    type Error = StoreError;

    fn record(&mut self, input: u64, samples: &[f64]) -> Result<()> {
        self.append(input, samples)
    }
}
