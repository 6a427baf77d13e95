//! Canonical metric names.
//!
//! Every instrumented crate records under these constants, so exporter
//! output, the CI metrics smoke and downstream consumers (the future
//! `dpl-serve` job progress stream) agree on keys without string literals
//! scattered across the workspace.

/// Chunks read and checksum-verified by the archive reader.
pub const STORE_CHUNK_READS: &str = "store.chunk_reads";
/// Payload + checksum bytes read by the archive reader.
pub const STORE_BYTES_READ: &str = "store.bytes_read";
/// Chunk checksum verification failures.
pub const STORE_CHECKSUM_FAILURES: &str = "store.checksum_failures";
/// Chunks flushed by the archive writer.
pub const STORE_CHUNK_WRITES: &str = "store.chunk_writes";
/// Chunk bytes written by the archive writer.
pub const STORE_BYTES_WRITTEN: &str = "store.bytes_written";
/// `fsync` calls issued by the writer's durable commit protocol.
pub const STORE_FSYNCS: &str = "store.fsyncs";
/// Extra read attempts spent in the salvage retry loop (beyond the first).
pub const STORE_RETRY_ATTEMPTS: &str = "store.retry_attempts";
/// Chunks dropped as damaged by salvage reads.
pub const STORE_SALVAGE_DROPPED_CHUNKS: &str = "store.salvage_dropped_chunks";
/// Traces lost inside dropped chunks.
pub const STORE_SALVAGE_DROPPED_TRACES: &str = "store.salvage_dropped_traces";
/// Shard archives opened by sharded-campaign readers.
pub const STORE_SHARDS_OPENED: &str = "store.shards_opened";
/// Intact full chunks reclaimed by crash recovery.
pub const STORE_RECOVERED_CHUNKS: &str = "store.recovered_chunks";
/// Traces reclaimed by crash recovery (full chunks + re-buffered tail).
pub const STORE_RECOVERED_TRACES: &str = "store.recovered_traces";
/// Torn tail bytes discarded by crash recovery.
pub const STORE_RECOVERY_DROPPED_BYTES: &str = "store.recovery_dropped_bytes";
/// Samples the `i16` encoding stored at its integer range bounds (clamped
/// samples, counted by the writer and recorded in the archive header).
pub const STORE_I16_SATURATIONS: &str = "store.i16_saturations";
/// Per-chunk read I/O phase (seek + payload + checksum bytes), nanoseconds.
pub const STORE_READ_IO_NS: &str = "store.read_io_ns";
/// Per-chunk checksum verification phase, nanoseconds.
pub const STORE_CHECKSUM_NS: &str = "store.checksum_ns";
/// Per-chunk payload decode phase (bytes to columnar traces), nanoseconds.
pub const STORE_DECODE_NS: &str = "store.decode_ns";
/// Per-chunk structural validation phase of an fsck scan (the decoder's
/// parser, walking the payload without building traces), nanoseconds.
pub const STORE_VALIDATE_NS: &str = "store.validate_ns";
/// Per-chunk serialization phase (transpose + checksum), nanoseconds.
pub const STORE_SERIALIZE_NS: &str = "store.serialize_ns";
/// Per-chunk write I/O phase (`write_all` of the serialized chunk),
/// nanoseconds.
pub const STORE_WRITE_IO_NS: &str = "store.write_io_ns";
/// Per-call durable-commit phase (`sync_contents`, i.e. `fsync(2)` for
/// files) of the archive writer's `finish`, nanoseconds.
pub const STORE_FSYNC_NS: &str = "store.fsync_ns";

/// Traces folded into attack/assessment accumulators.
pub const FOLD_TRACES: &str = "fold.traces";
/// Accumulator `update` calls (one per chunk).
pub const FOLD_UPDATES: &str = "fold.updates";
/// Peak fold throughput in traces per second.
pub const FOLD_TRACES_PER_SEC: &str = "fold.traces_per_sec";
/// Peak fold throughput in payload bytes per second.
pub const FOLD_BYTES_PER_SEC: &str = "fold.bytes_per_sec";
/// Per-chunk accumulator `update` phase, nanoseconds.
pub const FOLD_UPDATE_NS: &str = "fold.update_ns";

/// Traces produced by the simulated measurement campaigns.
pub const CRYPTO_TRACES_GENERATED: &str = "crypto.traces_generated";
/// Peak trace generation throughput in traces per second.
pub const CRYPTO_TRACES_PER_SEC: &str = "crypto.traces_per_sec";

/// Grid points evaluated by an MTD campaign.
pub const MTD_GRID_POINTS: &str = "mtd.grid_points";
/// Repetitions per grid point.
pub const MTD_REPETITIONS: &str = "mtd.repetitions";
/// Total traces simulated across the MTD campaign.
pub const MTD_TRACES_SIMULATED: &str = "mtd.traces_simulated";

/// Equivalence proofs completed.
pub const VERIFY_PROOFS: &str = "verify.proofs";
/// Certificates emitted.
pub const VERIFY_CERTIFICATES: &str = "verify.certificates";
/// Certificates replayed/checked.
pub const VERIFY_REPLAYS: &str = "verify.replays";
/// Peak live BDD node count across proofs.
pub const VERIFY_BDD_NODE_PEAK: &str = "verify.bdd_node_peak";
/// Proof wall time distribution, nanoseconds.
pub const VERIFY_PROOF_NS: &str = "verify.proof_ns";
/// BDD construction phase of a proof (netlist + oracle apply work),
/// nanoseconds.
pub const VERIFY_BDD_BUILD_NS: &str = "verify.bdd_build_ns";
/// Signature/model-count phase of a proof (structural digests + SAT
/// counts over the finished BDD), nanoseconds.
pub const VERIFY_BDD_SIGNATURE_NS: &str = "verify.bdd_signature_ns";
/// Recursive `apply`/`ite` calls spent building proof BDDs.
pub const VERIFY_BDD_APPLY_CALLS: &str = "verify.bdd_apply_calls";
/// `apply`/`ite` calls answered from the memo tables.
pub const VERIFY_BDD_APPLY_MEMO_HITS: &str = "verify.bdd_apply_memo_hits";
/// Unique-table lookups issued by BDD node construction.
pub const VERIFY_BDD_UNIQUE_LOOKUPS: &str = "verify.bdd_unique_lookups";
/// Unique-table lookups that found an existing node (hash-consing hits).
pub const VERIFY_BDD_UNIQUE_HITS: &str = "verify.bdd_unique_hits";
