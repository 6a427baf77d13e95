use dpl_power::PowerError;

/// Where in an archive a truncated read was detected.
///
/// Distinguishing the fixed-size header from chunk data matters for
/// diagnostics: a file that ends inside the header is not "damage in
/// chunk 0", it is most likely a capture that crashed before anything was
/// flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSite {
    /// The fixed-size header at the start of the file.
    Header,
    /// The chunk with the given index.
    Chunk(usize),
}

impl std::fmt::Display for ReadSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadSite::Header => write!(f, "the header"),
            ReadSite::Chunk(index) => write!(f, "chunk {index}"),
        }
    }
}

/// Errors produced by the trace-archive layer.
///
/// Corruption is always reported as a typed error — a flipped byte anywhere
/// in a chunk surfaces as [`StoreError::ChecksumMismatch`] (or a structural
/// error), never as silently wrong attack scores.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// An I/O operation failed.
    Io {
        /// The kind of the underlying [`std::io::Error`].
        kind: std::io::ErrorKind,
        /// The rendered underlying error.
        message: String,
    },
    /// The file does not start with the archive magic (also the signature of
    /// a writer that crashed before [`crate::ArchiveWriter::finish`]).
    BadMagic {
        /// The bytes found where the magic was expected.
        found: [u8; 8],
    },
    /// The archive was written by an unknown format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The header carries a leakage-model tag outside the code range of
    /// its format version (e.g. a characterized tag in a version-1
    /// header, or a code this crate does not know at all).
    UnknownModelTag {
        /// The tag code found in the header.
        code: u32,
        /// The header's format version.
        version: u32,
    },
    /// The fixed-size header fails its own checksum or carries nonsensical
    /// fields.
    CorruptHeader {
        /// Description of the corruption.
        message: String,
    },
    /// A chunk's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// Index of the corrupt chunk.
        chunk: usize,
    },
    /// The file ends before the data the header promises.
    Truncated {
        /// The header or chunk that could not be read in full.
        at: ReadSite,
    },
    /// An archive being resumed was written with different campaign
    /// metadata than the capture expects (or is a foreign file).
    ResumeMismatch {
        /// Description of the mismatch.
        message: String,
    },
    /// The archive violates a structural invariant (wrong per-chunk trace
    /// count, trailing bytes, an append of the wrong sample width, ...).
    FormatViolation {
        /// Description of the violation.
        message: String,
    },
    /// A campaign manifest names a shard path that could resolve outside
    /// the manifest's directory (absolute, empty, or with a `..`
    /// component).
    UnsafeShardPath {
        /// Index of the offending shard entry.
        index: usize,
        /// The path as recorded in the manifest.
        path: String,
    },
    /// The archive's chunks are larger than the reader's configured
    /// in-memory chunk budget.
    ChunkBudgetExceeded {
        /// Traces per chunk recorded in the header.
        chunk_traces: usize,
        /// The reader's configured budget, in traces.
        budget: usize,
    },
    /// An error bubbled up from the power-analysis layer.
    Power(PowerError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { kind, message } => write!(f, "i/o error ({kind:?}): {message}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a trace archive (magic bytes {found:02X?})")
            }
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported archive version {found}")
            }
            StoreError::UnknownModelTag { code, version } => write!(
                f,
                "leakage-model tag {code} is out of range for a version-{version} archive header"
            ),
            StoreError::CorruptHeader { message } => write!(f, "corrupt header: {message}"),
            StoreError::ChecksumMismatch { chunk } => {
                write!(f, "checksum mismatch in chunk {chunk}")
            }
            StoreError::Truncated { at } => {
                write!(f, "archive truncated inside {at}")
            }
            StoreError::ResumeMismatch { message } => {
                write!(f, "cannot resume capture: {message}")
            }
            StoreError::FormatViolation { message } => write!(f, "format violation: {message}"),
            StoreError::UnsafeShardPath { index, path } => write!(
                f,
                "shard {index} path {path:?} is not a relative path inside the manifest's \
                 directory"
            ),
            StoreError::ChunkBudgetExceeded {
                chunk_traces,
                budget,
            } => write!(
                f,
                "archive chunks hold {chunk_traces} traces, over the reader budget of {budget}"
            ),
            StoreError::Power(e) => write!(f, "power analysis error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Power(e) => Some(e),
            _ => None,
        }
    }
}

impl StoreError {
    /// Whether the error is plausibly transient — an interrupted or timed-out
    /// I/O operation that a bounded [`crate::RetryPolicy`] may retry.
    /// Corruption (checksums, truncation, format violations) is never
    /// transient: retrying would re-read the same bad bytes.
    pub fn is_transient(&self) -> bool {
        use std::io::ErrorKind;
        matches!(
            self,
            StoreError::Io {
                kind: ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut,
                ..
            }
        )
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl From<PowerError> for StoreError {
    fn from(e: PowerError) -> Self {
        StoreError::Power(e)
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;
