//! The public seams the traced run times from outside the program.
//!
//! Each wrapper forwards to the wrapped value unchanged and, while tracing
//! is on, runs the forwarded call inside a [`ledger`](crate::ledger) frame:
//!
//! * [`TimedSink`] — the `TraceSink` a generator writes into (the archive
//!   writer's own work),
//! * [`TimedWrite`] — the `SyncWrite` stream under an archive writer (I/O
//!   and fsync),
//! * [`TimedRead`] — the `Read + Seek` stream handed to an `ArchiveReader`,
//! * [`TimedSource`] — a `ChunkSource` (chunk reads), also returned by the
//!   openers handed to the `*_parallel_with` folds, where it spans the
//!   worker's whole lifetime.

use std::io::{Read, Result as IoResult, Seek, SeekFrom, Write};

use dpl_obs::Obs;
use dpl_power::{TraceSet, TraceSink};
use dpl_store::{ArchiveMeta, ChunkSource, Result as StoreResult, SyncWrite};

use crate::ledger::{add_bytes, add_parent_bytes, frame, Frame, Layer};

/// A trace sink whose `record` calls count as the archive writer's time.
pub struct TimedSink<'a, S>(pub &'a mut S);

impl<S: TraceSink> TraceSink for TimedSink<'_, S> {
    type Error = S::Error;

    fn record(&mut self, input: u64, samples: &[f64]) -> Result<(), S::Error> {
        let _f = frame(Layer::StoreSerialize);
        self.0.record(input, samples)
    }
}

/// The archive writer's output stream.
pub struct TimedWrite<W>(pub W);

impl<W: Write> Write for TimedWrite<W> {
    fn write(&mut self, buf: &[u8]) -> IoResult<usize> {
        let _f = frame(Layer::StoreWriteIo);
        let n = self.0.write(buf)?;
        add_bytes(Layer::StoreWriteIo, n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> IoResult<()> {
        let _f = frame(Layer::StoreWriteIo);
        self.0.flush()
    }
}

impl<W: Seek> Seek for TimedWrite<W> {
    fn seek(&mut self, pos: SeekFrom) -> IoResult<u64> {
        let _f = frame(Layer::StoreWriteIo);
        self.0.seek(pos)
    }
}

impl<W: SyncWrite> SyncWrite for TimedWrite<W> {
    fn sync_contents(&mut self) -> IoResult<()> {
        let _f = frame(Layer::StoreFsync);
        self.0.sync_contents()
    }
}

/// An archive reader's input stream; bytes read are credited to the read,
/// scan or open they serve.
pub struct TimedRead<R>(pub R);

impl<R: Read> Read for TimedRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> IoResult<usize> {
        let _f = frame(Layer::StoreReadIo);
        let n = self.0.read(buf)?;
        add_parent_bytes(n as u64);
        Ok(n)
    }
}

impl<R: Seek> Seek for TimedRead<R> {
    fn seek(&mut self, pos: SeekFrom) -> IoResult<u64> {
        let _f = frame(Layer::StoreReadIo);
        self.0.seek(pos)
    }
}

/// A chunk source whose chunk reads count as `store.read`.
///
/// `chunk_bytes` credits each chunk read with that many bytes — the
/// campaign's mean on-disk chunk size — for sources whose streams cannot be
/// wrapped (a `ShardedReader` opens its own files); without it the bytes
/// come from a [`TimedRead`] underneath.
pub struct TimedSource<S> {
    inner: S,
    chunk_bytes: Option<u64>,
    /// Spans the source's lifetime when it was opened on a worker thread.
    /// Declared after `inner` so it closes last.
    _lifetime: Option<Frame>,
}

impl<S: ChunkSource> TimedSource<S> {
    /// Wraps an open source.
    pub fn new(inner: S, chunk_bytes: Option<u64>) -> Self {
        TimedSource {
            inner,
            chunk_bytes,
            _lifetime: None,
        }
    }

    /// Opens a source for a parallel fold: the time from the call until the
    /// source is dropped is attributed to `layer` (the fold's own work),
    /// the open itself to `store.open`, and chunk reads to `store.read`.
    ///
    /// # Errors
    ///
    /// Whatever `open` returns.
    pub fn open_with(
        layer: Layer,
        chunk_bytes: Option<u64>,
        open: impl FnOnce() -> StoreResult<S>,
    ) -> StoreResult<Self> {
        let lifetime = frame(layer);
        let inner = {
            let _f = frame(Layer::StoreOpen);
            open()?
        };
        Ok(TimedSource {
            inner,
            chunk_bytes,
            _lifetime: Some(lifetime),
        })
    }

    fn credit(&self) {
        if let Some(bytes) = self.chunk_bytes {
            add_bytes(Layer::StoreRead, bytes);
        }
    }
}

impl<S: ChunkSource> ChunkSource for TimedSource<S> {
    fn meta(&self) -> &ArchiveMeta {
        self.inner.meta()
    }

    fn trace_count(&self) -> u64 {
        self.inner.trace_count()
    }

    fn chunk_count(&self) -> usize {
        self.inner.chunk_count()
    }

    fn distinct_inputs(&self) -> Option<usize> {
        self.inner.distinct_inputs()
    }

    fn read_chunk(&mut self, index: usize) -> StoreResult<TraceSet> {
        let _f = frame(Layer::StoreRead);
        self.credit();
        self.inner.read_chunk(index)
    }

    fn read_chunk_into(&mut self, index: usize, set: &mut TraceSet) -> StoreResult<()> {
        let _f = frame(Layer::StoreRead);
        self.credit();
        self.inner.read_chunk_into(index, set)
    }

    fn obs(&self) -> Option<&Obs> {
        self.inner.obs()
    }
}
