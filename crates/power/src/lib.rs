//! # dpl-power
//!
//! Power-trace statistics, constant-power metrics and the differential power
//! analysis attacks that motivate the paper.
//!
//! The paper's premise is that "logic operations have power characteristics
//! that depend on the input data" and that a statistical attack (DPA,
//! Kocher et al.) can extract a secret key from that dependence.  This crate
//! provides the measurement side of the reproduction:
//!
//! * [`TraceSet`] — a collection of power traces with their associated
//!   plaintext inputs,
//! * [`stats`] — mean/variance/correlation primitives,
//! * [`metrics`] — normalised energy deviation (NED) and normalised standard
//!   deviation (NSD), the figures of merit used to quantify how constant a
//!   gate's power consumption is,
//! * [`dpa_attack`] / [`cpa_attack`] — difference-of-means DPA and
//!   correlation power analysis used by the end-to-end S-box experiment.
//!
//! [`TraceSet`] stores its traces **columnar** (sample-major, one contiguous
//! buffer) and the attacks are streaming accumulators over those columns;
//! the pre-columnar implementations are retained in [`mod@reference`] as the
//! correctness oracle.
//!
//! The accumulators behind the attacks are public ([`DpaAccumulator`],
//! [`CpaAccumulator`]): they can be fed a trace set in arbitrary chunks —
//! e.g. streamed off the on-disk archives of `dpl-store` — and produce
//! bit-identical scores to the in-memory attacks, and partial accumulators
//! over disjoint trace ranges can be merged ([`CpaAccumulator::merge`]
//! backs the chunk-parallel out-of-core CPA).  [`InputClasses`] is the
//! bounded distinct-input table behind their class aggregation, also used
//! by `dpl-store` to record an archive's distinct-input count.  [`fold_cross_moments`] is the blocked
//! cross-moment kernel behind CPA's diverse-input pass, also used by the
//! prefix CPA of `dpl-eval`.  [`TraceSink`] is the write-side
//! counterpart: trace generators stream measurements into any sink
//! ([`TraceSet`] or an archive writer) without materializing the full set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulate;
mod attack;
mod classes;
mod cross;
pub mod metrics;
pub mod stats;
mod trace;

pub use accumulate::{cpa_passes, input_profile, CpaAccumulator, DpaAccumulator, InputProfile};
pub use attack::{best_result, cpa_attack, dpa_attack, reference, AttackResult};
pub use classes::{InputClasses, MAX_INPUT_CLASSES};
pub use cross::{fold_cross_moments, Centers, CrossSums};
pub use trace::{Trace, TraceSet, TraceSink};

/// Errors produced by the power-analysis layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PowerError {
    /// The trace set is empty or traces have inconsistent lengths.
    MalformedTraces {
        /// Description of the inconsistency.
        message: String,
    },
    /// An attack was configured with zero key guesses.
    NoKeyGuesses,
    /// A streaming accumulator was driven out of protocol (mismatched
    /// merges, an incomplete second pass, ...).
    AccumulatorMisuse {
        /// Description of the misuse.
        message: String,
    },
}

impl std::fmt::Display for PowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerError::MalformedTraces { message } => write!(f, "malformed traces: {message}"),
            PowerError::NoKeyGuesses => write!(f, "attack needs at least one key guess"),
            PowerError::AccumulatorMisuse { message } => {
                write!(f, "accumulator misuse: {message}")
            }
        }
    }
}

impl std::error::Error for PowerError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PowerError>;
