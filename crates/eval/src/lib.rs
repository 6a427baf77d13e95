//! # dpl-eval
//!
//! Leakage **assessment** — the measurement side of the paper's headline
//! claim.  The repo could already *run* single DPA/CPA attacks (`dpl-power`)
//! in memory or out of core (`dpl-store`); this crate measures *resistance*:
//!
//! * [`mod@tvla`] — streaming Welch t-test leakage detection (Test Vector
//!   Leakage Assessment): per-sample accumulators over fixed-vs-random
//!   (or fixed-vs-fixed) partitions, first-order and second-order
//!   (centered-product preprocessing, whose first pass is the first-order
//!   test, so one fold yields both orders).  A single update over a whole
//!   [`TraceSet`](dpl_power::TraceSet) defines the in-memory statistic.
//!   The accumulators are `dpl_store::Fold`s, so `dpl_store::fold` runs
//!   them out of core (strict or salvage, single archive or sharded
//!   campaign), and [`streaming::tvla_parallel_with`] runs the same fold
//!   on threads that each decode their chunks and fold them in turn; the
//!   numeric contracts are stated in `dpl_store::fold`.
//! * [`mtd`] — attack-efficiency estimation: a campaign runner replaying
//!   DPA/CPA over a grid of trace counts × resampled repetitions
//!   (deterministic per-repetition seeds) to produce success-rate and
//!   guessing-entropy curves and a **measurements-to-disclosure** (MTD)
//!   estimate — the quantity the paper uses to compare logic styles
//!   ("orders of magnitude more measurements against SABL than against
//!   standard CMOS").  Grid points are scored by *prefix evaluation* of
//!   streaming accumulators ([`mtd::PrefixAttack`]), not by re-running each
//!   attack from scratch.
//!
//! Both assessments are **energy-model agnostic**: they consume traces (in
//! memory or from any `dpl-store` archive version), so campaigns simulated
//! from characterisation-derived tables (`dpl_crypto::EnergyModel` with
//! the `Characterized` source) and over any library-cell circuit run
//! through the exact same TVLA and MTD machinery as the built-in models —
//! the `repro tvla` / `repro mtd --model <name> --circuit <name>`
//! subcommands are thin wrappers over this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mtd;
pub mod streaming;
pub mod tvla;

pub use mtd::{mtd_campaign, rep_seed, MtdConfig, MtdCurve, PrefixAttack, PrefixCpa, PrefixDpa};
pub use streaming::{tvla_parallel_with, TvlaOrder};
pub use tvla::{
    fixed_vs_fixed, interleaved_partition, tvla, tvla_second_order, SecondOrderWelchAccumulator,
    TvlaGroup, TvlaResult, WelchAccumulator, TVLA_THRESHOLD,
};

/// Errors produced by the leakage-assessment layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EvalError {
    /// An error bubbled up from the power-analysis layer.
    Power(dpl_power::PowerError),
    /// An error bubbled up from the trace-archive layer.
    Store(dpl_store::StoreError),
    /// An accumulator or campaign runner was driven out of protocol
    /// (non-contiguous merges, an incomplete second pass, an empty grid,
    /// ...).
    Misuse {
        /// Description of the misuse.
        message: String,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Power(e) => write!(f, "power analysis error: {e}"),
            EvalError::Store(e) => write!(f, "trace archive error: {e}"),
            EvalError::Misuse { message } => write!(f, "evaluation misuse: {message}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Power(e) => Some(e),
            EvalError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dpl_power::PowerError> for EvalError {
    fn from(e: dpl_power::PowerError) -> Self {
        EvalError::Power(e)
    }
}

impl From<dpl_store::StoreError> for EvalError {
    fn from(e: dpl_store::StoreError) -> Self {
        EvalError::Store(e)
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, EvalError>;
