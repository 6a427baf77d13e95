//! End-to-end crash recovery through the `repro` binary: a capture that
//! fails at an injected I/O fault and is then finished with
//! `capture --resume` must record the same distinct-input count in its
//! header as an uninterrupted capture — and be the same file byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn capture(path: &Path, extra: &[&str]) -> Output {
    let path = path.to_str().expect("utf-8 path");
    let mut args = vec!["capture", path, "2000", "--seed", "99", "--chunk", "256"];
    args.extend_from_slice(extra);
    repro(&args)
}

/// The `distinct inputs:` line of `repro info`.
fn distinct_line(path: &Path) -> String {
    let info = repro(&["info", path.to_str().expect("utf-8 path")]);
    assert!(info.status.success(), "info failed: {info:?}");
    String::from_utf8(info.stdout)
        .expect("utf-8 output")
        .lines()
        .find(|line| line.trim_start().starts_with("distinct inputs:"))
        .expect("info prints the distinct-input count")
        .trim()
        .to_string()
}

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn resumed_capture_records_the_uninterrupted_distinct_count() {
    let dir =
        TempDir(std::env::temp_dir().join(format!("dpl_capture_resume_{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("temp dir");
    let clean = dir.0.join("clean.dpltrc");
    let crash = dir.0.join("crash.dpltrc");

    assert!(capture(&clean, &[]).status.success());
    let expected = distinct_line(&clean);
    assert_eq!(expected, "distinct inputs:      16");
    let clean_bytes = std::fs::read(&clean).expect("read clean archive");

    // Fail every I/O operation of the capture in turn, until the fault
    // site lies past the last operation and the capture succeeds.
    let mut failed_sites = 0;
    for op in 0..64 {
        let _ = std::fs::remove_file(&crash);
        let op = op.to_string();
        let outcome = capture(&crash, &["--fault-at", &op]);
        if outcome.status.success() {
            break;
        }
        failed_sites += 1;
        let stderr = String::from_utf8_lossy(&outcome.stderr);
        assert!(stderr.contains("injected fault"), "op {op}: {stderr}");
        let resumed = capture(&crash, &["--resume"]);
        assert!(
            resumed.status.success(),
            "op {op}: resume failed: {resumed:?}"
        );
        assert_eq!(distinct_line(&crash), expected, "op {op}");
        assert_eq!(
            std::fs::read(&crash).expect("read resumed archive"),
            clean_bytes,
            "op {op}: the resumed archive differs from the uninterrupted one"
        );
    }
    assert!(failed_sites >= 8, "only {failed_sites} fault sites failed");
}
