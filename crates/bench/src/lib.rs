//! # dpl-bench
//!
//! Experiment harness that regenerates every figure of Tiri & Verbauwhede,
//! *"Design Method for Constant Power Consumption of Differential Logic
//! Circuits"* (DATE 2005), plus the comparison experiments the paper refers
//! to in its text.  Each experiment is a function returning a plain-text
//! report; the `repro` binary prints them, `EXPERIMENTS.md` records them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assess;
pub mod experiments;
pub mod telemetry;

pub use assess::{
    charac_table_report, info_json, info_report, mtd_curves, mtd_experiment, mtd_experiment_for,
    tvla_report, CircuitChoice, MtdAttack, MTD_GRID, TVLA_FIXED_PLAINTEXT,
};
pub use experiments::{
    cpa_experiment_seeded, cvsl_comparison, dpa_experiment, dpa_experiment_seeded,
    fig2_memory_effect, fig3_transient, fig4_capacitance, fig5_oai22, fig6_enhanced, library_sweep,
    run_all, DEFAULT_EXPERIMENT_SEED,
};
pub use telemetry::{ReportFormat, TelemetrySession};
