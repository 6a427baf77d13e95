//! # dpl-crypto
//!
//! A small cryptographic workload for the end-to-end side-channel
//! experiment that motivates the paper: smart-card style hardware leaks its
//! key through data-dependent power consumption unless the underlying gates
//! consume a constant amount of energy.
//!
//! The crate provides:
//!
//! * the PRESENT 4-bit S-box ([`present_sbox`]) as the attack target,
//! * a naive two-level synthesiser ([`synthesize_sbox_with_key`]) that maps
//!   the key-mixing XOR and the S-box onto a [`GateNetlist`] of 1/2-input
//!   gates,
//! * a per-gate leakage simulator ([`simulate_traces`]) that assigns every
//!   gate evaluation the energy of its SABL implementation (genuine, fully
//!   connected or enhanced DPDN) or a Hamming-weight model, and produces
//!   [`dpl_power::TraceSet`]s ready for DPA/CPA.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod leakage;
mod netlist;
mod present;
mod synth;

pub use leakage::{
    characterize_kind_energies, circuit_energies, predicted_energies, predicted_energy,
    simulate_trace_range_into, simulate_traces, simulate_traces_into,
    simulate_traces_into_observed, simulate_traces_parallel, simulate_traces_with_table,
    simulate_tvla_trace_range_into, simulate_tvla_traces, simulate_tvla_traces_into,
    simulate_tvla_traces_into_observed, EnergyCache, EnergyModel, EnergySource, GateEnergyTable,
    LeakageModel, LeakageOptions, MIN_PARALLEL_TRACES,
};
pub use netlist::{BitslicedEval, Gate, GateNetlist, GateOp, SignalId};
pub use present::{
    add_round_key, p_layer, p_layer_inverse, present_sbox, present_sbox_inverse, sbox_layer,
    sbox_layer_inverse, Present80, PRESENT_ROUNDS, PRESENT_SBOX, PRESENT_SBOX_INV,
};
pub use synth::{
    library_circuit_windows, mini_p_layer_position, mini_present, mini_round_key,
    synthesize_function, synthesize_library_circuit, synthesize_present_rounds,
    synthesize_sbox_with_key, MINI_PRESENT_BITS,
};

/// Errors produced by the crypto workload layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CryptoError {
    /// An error bubbled up from the cell layer while building gate energies.
    Cell(dpl_cells::CellError),
    /// An error bubbled up from the logic layer during synthesis.
    Logic(dpl_logic::LogicError),
    /// A netlist referenced a signal that does not exist.
    MalformedNetlist {
        /// Description of the problem.
        message: String,
    },
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::Cell(e) => write!(f, "cell error: {e}"),
            CryptoError::Logic(e) => write!(f, "logic error: {e}"),
            CryptoError::MalformedNetlist { message } => write!(f, "malformed netlist: {message}"),
        }
    }
}

impl std::error::Error for CryptoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CryptoError::Cell(e) => Some(e),
            CryptoError::Logic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dpl_cells::CellError> for CryptoError {
    fn from(e: dpl_cells::CellError) -> Self {
        CryptoError::Cell(e)
    }
}

impl From<dpl_logic::LogicError> for CryptoError {
    fn from(e: dpl_logic::LogicError) -> Self {
        CryptoError::Logic(e)
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CryptoError>;
