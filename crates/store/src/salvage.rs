//! Salvage reads: typed graceful degradation over damaged archives.
//!
//! A strict read aborts on the first bad chunk; a salvage read skips it,
//! records *what* was lost in a [`DamageReport`], and feeds every surviving
//! chunk to the mergeable attack accumulators.  The guarantees:
//!
//! * **Fail closed per chunk.**  A chunk either verifies its checksum and is
//!   used in full, or is excluded in full — partial chunk data never reaches
//!   an accumulator.
//! * **Bit-identical when clean.**  On an undamaged archive, salvage reads
//!   perform the exact same reads and floating-point folds as strict reads.
//! * **Compacted indexing when damaged.**  Surviving traces are folded in
//!   archive order with the lost traces simply absent, so a salvage attack
//!   over a damaged archive equals a strict attack over an archive that was
//!   written without the lost chunk's traces.
//!
//! Transient I/O errors are retried under the caller's [`RetryPolicy`]
//! before a chunk is declared damaged; corruption is never retried.

use std::io::{Read, Seek};
use std::path::Path;

use dpl_obs::names;
use dpl_power::{AttackResult, CpaAccumulator, DpaAccumulator, TraceSet};

use crate::attack::{profile_of, FoldObs};
use crate::error::{ReadSite, Result, StoreError};
use crate::fault::RetryPolicy;
use crate::reader::ArchiveReader;
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
        Ok(
            match self.read_chunk_salvage_into(index, retry, &mut set)? {
                None => SalvageOutcome::Intact(set),
                Some(damaged) => SalvageOutcome::Damaged(damaged),
            },
        )
    }

    /// [`ArchiveReader::read_chunk_salvage`] into a reused set: `None` when
    /// the chunk verified and now fills `set`, else the damage record (the
    /// set's contents are then unspecified).
    fn read_chunk_salvage_into(
        &mut self,
        index: usize,
        retry: &RetryPolicy,
        set: &mut TraceSet,
    ) -> Result<Option<DamagedChunk>> {
        if index >= self.chunk_count() {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "chunk {index} out of range (archive has {} chunks)",
                    self.chunk_count()
                ),
            });
        }
        let traces = self.traces_in_chunk(index);
        let obs = self.obs().cloned();
        let mut attempts = 0u64;
        let outcome = retry.run(|| {
            attempts += 1;
            self.read_chunk_into(index, set)
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

    /// Verifies every chunk (checksums included) without keeping any trace
    /// data — the fsck scan.  One trace set is reused for every chunk.
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
        let mut set = TraceSet::new();
        for index in 0..self.chunk_count() {
            match self.read_chunk_salvage_into(index, retry, &mut set)? {
                None => report.traces_read += set.len() as u64,
                Some(d) => report.damaged.push(d),
            }
        }
        Ok(report)
    }
}

/// Difference-of-means DPA over the surviving chunks of an archive.
///
/// Bit-identical to [`crate::dpa_attack_streaming`] on a clean archive; on a
/// damaged one, equals the strict attack over an archive written without the
/// lost chunks' traces.
///
/// # Errors
///
/// Returns an error for zero guesses, or when damage leaves no usable
/// traces.
pub fn dpa_attack_salvage<R, F>(
    reader: &mut ArchiveReader<R>,
    key_guesses: u64,
    selection: F,
    retry: &RetryPolicy,
) -> Result<(AttackResult, DamageReport)>
where
    R: Read + Seek,
    F: Fn(u64, u64) -> bool,
{
    let mut accumulator = DpaAccumulator::with_profile(key_guesses, selection, profile_of(reader))?;
    let samples = reader.samples_per_trace();
    let mut fold = FoldObs::start(reader.obs(), "store.dpa_attack_salvage");
    let mut report = DamageReport {
        chunks_scanned: reader.chunk_count(),
        traces_total: reader.trace_count(),
        ..DamageReport::default()
    };
    for index in 0..reader.chunk_count() {
        match reader.read_chunk_salvage(index, retry)? {
            SalvageOutcome::Intact(chunk) => {
                report.traces_read += chunk.len() as u64;
                fold.update(&chunk, samples);
                accumulator.update(&chunk)?;
            }
            SalvageOutcome::Damaged(d) => report.damaged.push(d),
        }
    }
    fold.finish();
    Ok((accumulator.finalize()?, report))
}

/// Correlation power analysis over the surviving chunks of an archive.
///
/// A few-class archive is read once, like [`crate::cpa_attack_streaming`].
/// A diverse-input archive takes a second pass that re-reads only the
/// chunks that survived the first.
///
/// Bit-identical to [`crate::cpa_attack_streaming`] on a clean archive; on a
/// damaged one, equals the strict attack over an archive written without the
/// lost chunks' traces.
///
/// # Errors
///
/// Returns an error for zero guesses, damage that leaves no usable traces,
/// or (on a diverse-input archive) a chunk that verified in pass 1 but
/// failed in pass 2 — the two passes must fold the same traces, so that
/// inconsistency fails closed.
pub fn cpa_attack_salvage<R, F>(
    reader: &mut ArchiveReader<R>,
    key_guesses: u64,
    model: F,
    retry: &RetryPolicy,
) -> Result<(AttackResult, DamageReport)>
where
    R: Read + Seek,
    F: Fn(u64, u64) -> f64,
{
    let mut accumulator = CpaAccumulator::with_profile(key_guesses, model, profile_of(reader))?;
    let samples = reader.samples_per_trace();
    let mut fold = FoldObs::start(reader.obs(), "store.cpa_attack_salvage");
    let mut report = DamageReport {
        chunks_scanned: reader.chunk_count(),
        traces_total: reader.trace_count(),
        ..DamageReport::default()
    };
    let mut damaged = vec![false; reader.chunk_count()];
    for (index, flag) in damaged.iter_mut().enumerate() {
        match reader.read_chunk_salvage(index, retry)? {
            SalvageOutcome::Intact(chunk) => {
                report.traces_read += chunk.len() as u64;
                fold.update(&chunk, samples);
                accumulator.update(&chunk)?;
            }
            SalvageOutcome::Damaged(d) => {
                *flag = true;
                report.damaged.push(d);
            }
        }
    }
    if accumulator.begin_second_pass()? {
        for (index, flag) in damaged.iter().enumerate() {
            if *flag {
                continue;
            }
            match reader.read_chunk_salvage(index, retry)? {
                SalvageOutcome::Intact(chunk) => {
                    fold.update(&chunk, samples);
                    accumulator.update(&chunk)?;
                }
                SalvageOutcome::Damaged(d) => {
                    return Err(StoreError::FormatViolation {
                        message: format!(
                            "chunk {} verified in pass 1 but failed in pass 2 ({}); \
                             refusing to finalize inconsistent passes",
                            d.chunk, d.cause
                        ),
                    });
                }
            }
        }
    }
    fold.finish();
    Ok((accumulator.finalize()?, report))
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
    for index in 0..reader.chunk_count() {
        match reader.read_chunk_salvage(index, retry)? {
            SalvageOutcome::Intact(chunk) => {
                report.traces_read += chunk.len() as u64;
                writer.append_trace_set(&chunk)?;
            }
            SalvageOutcome::Damaged(d) => report.damaged.push(d),
        }
    }
    let kept = writer.finish()?;
    Ok((report, kept))
}
