//! Smoke test of the repro harness: runs every experiment through
//! [`dpl_bench::run_all`] with a tiny trace budget, exercising the exact
//! code path of `cargo run -p dpl-bench --bin repro` in CI without the cost
//! of the full 2000-trace DPA run.

#[test]
fn run_all_emits_every_report_section() {
    let report = dpl_bench::run_all(40);
    for needle in [
        "Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "CVSL", "DPA", "library",
    ] {
        assert!(
            report.contains(needle),
            "run_all report is missing the {needle} section:\n{report}"
        );
    }
}

#[test]
fn fig3_transient_reports_matching_waveforms() {
    let report = dpl_bench::fig3_transient();
    assert!(report.contains("supply current"), "report:\n{report}");
    assert!(
        report.contains("relative RMS difference"),
        "report:\n{report}"
    );
}
