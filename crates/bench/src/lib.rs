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
pub mod compare;
pub mod experiments;
pub mod perf;
pub mod telemetry;

pub use assess::{
    charac_table_report, info_json, info_report, mtd_curves, mtd_curves_observed, mtd_experiment,
    mtd_experiment_for, mtd_experiment_for_observed, mtd_experiment_observed, tvla_report,
    tvla_report_observed, CircuitChoice, MtdAttack, MTD_GRID, TVLA_FIXED_PLAINTEXT,
};
pub use compare::{
    append_history, history_line, Baseline, BaselineRow, BenchComparison, RowComparison,
};
pub use experiments::{
    cpa_experiment_seeded, cvsl_comparison, dpa_experiment, dpa_experiment_seeded,
    fig2_memory_effect, fig3_transient, fig4_capacitance, fig5_oai22, fig6_enhanced, library_sweep,
    run_all, DEFAULT_EXPERIMENT_SEED,
};
pub use perf::{git_revision, PerfConfig, PerfReport, PerfRow, BENCH_SCHEMA_VERSION};
pub use telemetry::{ReportFormat, TelemetrySession};
