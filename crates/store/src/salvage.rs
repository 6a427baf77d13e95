//! Salvage reads: typed graceful degradation over damaged archives.
//!
//! A strict read aborts on the first bad chunk; a salvage read skips it,
//! records *what* was lost in a [`DamageReport`], and feeds every surviving
//! chunk to the statistic — [`crate::fold()`] under
//! [`crate::Reading::Salvage`], over a single archive or a sharded campaign
//! alike; the salvage contracts are stated in
//! [`crate::fold`](mod@crate::fold).  A chunk either verifies its checksum
//! and is used in full, or is excluded in full.  Transient I/O errors are
//! retried under the caller's [`RetryPolicy`] before a chunk is declared
//! damaged; corruption is never retried.

use std::io::{Read, Seek};
use std::path::Path;

use dpl_obs::names;
use dpl_power::TraceSet;

use crate::error::{ReadSite, Result, StoreError};
use crate::fault::RetryPolicy;
use crate::reader::{ArchiveReader, ChunkSource};
use crate::writer::ArchiveWriter;

/// How an [`ArchiveReader`] treats damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// Any corruption anywhere is a hard error (the default).
    #[default]
    Strict,
    /// The header must be valid, but chunk damage and a wrong file length
    /// degrade gracefully through the salvage APIs.
    Salvage,
}

/// Why a chunk was excluded from a salvage read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DamageCause {
    /// An I/O error that survived the retry policy.
    Io {
        /// The kind of the underlying error.
        kind: std::io::ErrorKind,
    },
    /// The chunk's payload does not match its recorded checksum.
    ChecksumMismatch,
    /// The file ends before the chunk's promised bytes.
    Truncated,
    /// The chunk violates a structural invariant (e.g. declares a trace
    /// count the header contradicts).
    Structural,
}

impl std::fmt::Display for DamageCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DamageCause::Io { kind } => write!(f, "i/o error ({kind:?})"),
            DamageCause::ChecksumMismatch => write!(f, "checksum mismatch"),
            DamageCause::Truncated => write!(f, "truncated"),
            DamageCause::Structural => write!(f, "structural violation"),
        }
    }
}

/// One excluded chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DamagedChunk {
    /// Index of the damaged chunk.
    pub chunk: usize,
    /// Why it was excluded.
    pub cause: DamageCause,
    /// Traces the chunk held per the header — all lost with it.
    pub traces_lost: usize,
}

/// Everything a salvage pass excluded, plus the totals it kept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DamageReport {
    /// The excluded chunks, in index order.
    pub damaged: Vec<DamagedChunk>,
    /// Chunks examined (the archive's full chunk count).
    pub chunks_scanned: usize,
    /// Traces successfully read and used.
    pub traces_read: u64,
    /// Traces the header promises.
    pub traces_total: u64,
}

impl DamageReport {
    /// Whether every chunk verified.
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty()
    }

    /// Traces lost to damage.
    pub fn traces_lost(&self) -> u64 {
        self.damaged.iter().map(|d| d.traces_lost as u64).sum()
    }

    /// Multi-line human-readable summary (fsck / CLI output).
    pub fn render(&self) -> String {
        if self.is_clean() {
            return format!(
                "archive is clean: {} chunk(s), {} trace(s) verified",
                self.chunks_scanned, self.traces_read
            );
        }
        let mut out = format!(
            "archive is damaged: {} of {} chunk(s) lost ({} of {} trace(s))\n",
            self.damaged.len(),
            self.chunks_scanned,
            self.traces_lost(),
            self.traces_total,
        );
        for d in &self.damaged {
            out.push_str(&format!(
                "  chunk {}: {} ({} trace(s) lost)\n",
                d.chunk, d.cause, d.traces_lost
            ));
        }
        out.push_str(&format!("  traces salvageable: {}", self.traces_read));
        out
    }
}

/// The outcome of reading one chunk under salvage rules.
#[derive(Debug)]
pub enum SalvageOutcome {
    /// The chunk verified; here are its traces.
    Intact(TraceSet),
    /// The chunk is excluded for the recorded cause.
    Damaged(DamagedChunk),
}

/// Classifies a chunk-read error as damage; anything that is not localized
/// chunk damage (misuse, budget, header problems) stays a hard error.
fn classify(error: StoreError, chunk: usize, traces_lost: usize) -> Result<DamagedChunk> {
    let cause = match &error {
        StoreError::ChecksumMismatch { .. } => DamageCause::ChecksumMismatch,
        StoreError::Truncated {
            at: ReadSite::Chunk(_),
        } => DamageCause::Truncated,
        StoreError::Io { kind, .. } => DamageCause::Io { kind: *kind },
        StoreError::FormatViolation { .. } => DamageCause::Structural,
        _ => return Err(error),
    };
    Ok(DamagedChunk {
        chunk,
        cause,
        traces_lost,
    })
}

impl<R: Read + Seek> ArchiveReader<R> {
    /// Reads chunk `index`, degrading damage to a typed
    /// [`SalvageOutcome::Damaged`] instead of an error.  Transient I/O
    /// errors are retried under `retry` first.
    ///
    /// # Errors
    ///
    /// Hard-errors only on misuse (out-of-range index) or non-chunk-local
    /// failures; all chunk damage is returned as data.
    pub fn read_chunk_salvage(
        &mut self,
        index: usize,
        retry: &RetryPolicy,
    ) -> Result<SalvageOutcome> {
        let mut set = TraceSet::new();
        Ok(match read_salvage_into(self, index, retry, &mut set)? {
            None => SalvageOutcome::Intact(set),
            Some(damaged) => SalvageOutcome::Damaged(damaged),
        })
    }

    /// Verifies every chunk without keeping any trace data — the fsck
    /// scan.  Each chunk goes through the reader's full strict path (bounds,
    /// I/O, checksum, frame and every structural check of the body, under
    /// the same retry and damage rules as a salvage fold), but its body is
    /// only walked by the decoder's parser, never decoded into samples: the
    /// report is the one a salvage read of every chunk would give, and a
    /// chunk's traces count as read from the chunk geometry.
    ///
    /// # Errors
    ///
    /// Hard-errors only on non-chunk-local failures.
    pub fn scan(&mut self, retry: &RetryPolicy) -> Result<DamageReport> {
        let mut report = DamageReport {
            chunks_scanned: self.chunk_count(),
            traces_total: self.trace_count(),
            ..DamageReport::default()
        };
        for index in 0..self.chunk_count() {
            match salvage_read(self, index, retry, |reader| reader.verify_chunk(index))? {
                None => report.traces_read += self.traces_in_chunk(index) as u64,
                Some(d) => report.damaged.push(d),
            }
        }
        Ok(report)
    }
}

/// Reads chunk `index` of any [`ChunkSource`] into a reused set under
/// salvage rules: `None` when the chunk verified and now fills `set`, else
/// the damage record (the set's contents are then unspecified).  Transient
/// I/O errors are retried under `retry` first.
pub(crate) fn read_salvage_into<S: ChunkSource + ?Sized>(
    source: &mut S,
    index: usize,
    retry: &RetryPolicy,
    set: &mut TraceSet,
) -> Result<Option<DamagedChunk>> {
    salvage_read(source, index, retry, |source| {
        source.read_chunk_into(index, set)
    })
}

/// Runs `read` on chunk `index` of `source` under salvage rules: transient
/// I/O errors are retried under `retry`, and the final error is classified
/// as damage (`Some`) or returned as a hard error.  `None` when the read
/// succeeded.
fn salvage_read<S: ChunkSource + ?Sized>(
    source: &mut S,
    index: usize,
    retry: &RetryPolicy,
    mut read: impl FnMut(&mut S) -> Result<()>,
) -> Result<Option<DamagedChunk>> {
    let chunks = source.chunk_count();
    if index >= chunks {
        return Err(StoreError::FormatViolation {
            message: format!("chunk {index} out of range (campaign has {chunks} chunks)"),
        });
    }
    let chunk_traces = source.meta().chunk_traces as u64;
    let traces = (source.trace_count() - index as u64 * chunk_traces).min(chunk_traces) as usize;
    let obs = source.obs().cloned();
    let mut attempts = 0u64;
    let outcome = retry.run(|| {
        attempts += 1;
        read(source)
    });
    if let Some(obs) = &obs {
        // Only the retries beyond the first attempt are "retry attempts".
        obs.counter_add(names::STORE_RETRY_ATTEMPTS, attempts.saturating_sub(1));
    }
    match outcome {
        Ok(()) => Ok(None),
        Err(e) => {
            let damaged = classify(e, index, traces)?;
            if let Some(obs) = &obs {
                obs.counter_add(names::STORE_SALVAGE_DROPPED_CHUNKS, 1);
                obs.counter_add(
                    names::STORE_SALVAGE_DROPPED_TRACES,
                    damaged.traces_lost as u64,
                );
            }
            Ok(Some(damaged))
        }
    }
}

/// Rewrites the salvageable traces of `src` into a fresh, clean archive at
/// `dst` (`repro fsck --repair`).  Sample bytes are preserved bit-exactly;
/// surviving traces are re-chunked densely, so trace indices compact across
/// the gaps.
///
/// # Errors
///
/// Returns an error when `src` cannot be opened at all, or `dst` cannot be
/// written.
pub fn repair_archive<P: AsRef<Path>, Q: AsRef<Path>>(
    src: P,
    dst: Q,
    retry: &RetryPolicy,
) -> Result<(DamageReport, u64)> {
    let mut reader = ArchiveReader::open_with_policy(src, ReadPolicy::Salvage)?;
    let meta = *reader.meta();
    let mut writer = ArchiveWriter::create(dst, meta)?;
    let mut report = DamageReport {
        chunks_scanned: reader.chunk_count(),
        traces_total: reader.trace_count(),
        ..DamageReport::default()
    };
    let mut chunk = TraceSet::new();
    for index in 0..reader.chunk_count() {
        match read_salvage_into(&mut reader, index, retry, &mut chunk)? {
            None => {
                report.traces_read += chunk.len() as u64;
                writer.append_trace_set(&chunk)?;
            }
            Some(d) => report.damaged.push(d),
        }
    }
    let kept = writer.finish()?;
    Ok((report, kept))
}
