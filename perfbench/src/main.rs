//! Campaign benchmark of the DPL workspace: end-to-end metrics from
//! untraced passes, per-layer metrics from traced ones.
//!
//! ```text
//! perfbench --workload <sbox_f64|present80_i16|cell_signoff> --seed <n> \
//!           --seconds <n> --trace <0|1>
//! perfbench --self-check
//! ```
//!
//! A run repeats closed-loop passes — each stage starts when the previous
//! one returns — until `--seconds` would be exceeded, and reports medians
//! over passes.  Every pass is preceded by a few set-ups; their median is
//! `setup_s`.  With `--trace 1` it alternates untraced and traced passes,
//! so the tracing overhead is measured in the same process, and adds the
//! reference rows.  The last line of standard output is the result JSON;
//! the lines before it are a human-readable report.  Scratch archives live
//! under `.bench_tmp/` in the working directory and are deleted on every
//! exit path the process controls.

mod cells;
mod ledger;
mod pass;
mod present;
mod refs;
mod sbox;
mod seams;
mod util;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ledger::Layer;
use pass::Pass;
use util::median;

const WORKLOADS: [&str; 3] = ["sbox_f64", "present80_i16", "cell_signoff"];
/// Set-up samples before each pass; their median over the run is
/// `setup_s`.
const SETUPS_PER_PASS: usize = 2;
/// Minimum duration of one set-up sample: long enough to average over the
/// ~100 ms episodes in which a shared host runs this process at half speed.
const SETUP_SAMPLE_S: f64 = 0.04;
/// Where scratch archives are written, relative to the working directory.
const SCRATCH_ROOT: &str = ".bench_tmp";

/// Workload sizes: `Full` is what the benchmark measures, `Tiny` what the
/// self-check runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Size {
    Full,
    Tiny,
}

enum Workload {
    Sbox(sbox::SboxF64),
    Present(present::Present80I16),
    Cells(cells::CellSignoff),
}

impl Workload {
    fn build(name: &str, seed: u64, size: Size, dir: &Path, corrupt: bool) -> Option<Self> {
        let full = size == Size::Full;
        Some(match name {
            // 28M traces: 448 MB of archive, past 4x the 105 MiB L3 of the
            // reference machine.
            "sbox_f64" => Workload::Sbox(sbox::SboxF64::new(
                seed,
                if full { 28_000_000 } else { 200_000 },
                dir,
                corrupt,
            )),
            "present80_i16" => Workload::Present(present::Present80I16::new(
                seed,
                if full { 1_000_000 } else { 32_768 },
                dir,
            )),
            "cell_signoff" => Workload::Cells(if full {
                cells::CellSignoff::new(seed, 18, 20, 40)
            } else {
                cells::CellSignoff::new(seed, 2, 3, 1)
            }),
            _ => return None,
        })
    }

    fn setup(&mut self) -> Result<(), String> {
        match self {
            Workload::Sbox(w) => w.setup(),
            Workload::Present(w) => w.setup(),
            Workload::Cells(w) => w.setup(),
        }
    }

    /// Whether the workload runs the trace plane (capture, scan, folds)
    /// rather than the cell sign-off flow; the two report different
    /// metrics.
    fn traces(&self) -> bool {
        !matches!(self, Workload::Cells(_))
    }

    /// Threads a pass runs on at most.
    fn threads(&self) -> usize {
        match self {
            Workload::Present(_) => 2,
            Workload::Sbox(_) | Workload::Cells(_) => 1,
        }
    }

    fn pass(&self, pass: &mut Pass) {
        match self {
            Workload::Sbox(w) => w.pass(pass),
            Workload::Present(w) => w.pass(pass),
            Workload::Cells(w) => w.pass(pass),
        }
    }
}

/// The scratch directory of one run, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create(name: &str) -> std::io::Result<Self> {
        let dir = Path::new(SCRATCH_ROOT).join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run uses the root.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// Everything one run measured.
struct Run {
    setups: Vec<f64>,
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    refs: Option<refs::Refs>,
}

impl Run {
    fn attempted(&self) -> u64 {
        self.passes().map(|p| p.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.passes().map(|p| p.failed).sum()
    }

    fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.untraced.iter().chain(&self.traced)
    }
}

fn run(workload: &mut Workload, seconds: f64, trace: bool) -> Result<Run, String> {
    let start = Instant::now();
    let refs = trace.then(|| refs::measure(4 * refs::l3_bytes() as usize));
    let mut run = Run {
        setups: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
        refs,
    };
    loop {
        // Set-up is repeated before every pass, so its median samples the
        // machine across the whole run as the passes do.
        for _ in 0..SETUPS_PER_PASS {
            run.setups.push(time_setup(workload)?);
        }
        let traced_turn = trace && run.traced.len() < run.untraced.len();
        reset_peak_rss();
        ledger::set_tracing(traced_turn);
        let before = ledger::snapshot();
        let mut pass = Pass::default();
        let pass_start = Instant::now();
        workload.pass(&mut pass);
        pass.wall_s = pass_start.elapsed().as_secs_f64();
        ledger::set_tracing(false);
        pass.peak_rss_mib = peak_rss_mib();
        if traced_turn {
            pass.busy = ledger::snapshot().since(&before);
            run.traced.push(pass);
        } else {
            run.untraced.push(pass);
        }
        let complete = !run.untraced.is_empty() && (!trace || !run.traced.is_empty());
        // The next pass is expected to take as long as the typical pass of
        // its kind, or the last one when the machine has just slowed down.
        let walls = |passes: &[Pass]| {
            let typical = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
            passes.last().map_or(0.0, |p| p.wall_s.max(typical))
        };
        let next = walls(&run.untraced).max(walls(&run.traced));
        if complete && start.elapsed().as_secs_f64() + next > seconds {
            return Ok(run);
        }
    }
}

/// One set-up sample: set-ups repeated back to back until `SETUP_SAMPLE_S`
/// has passed, and the time each took on average.
fn time_setup(workload: &mut Workload) -> Result<f64, String> {
    let start = Instant::now();
    let mut count = 0u32;
    loop {
        workload.setup()?;
        count += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= SETUP_SAMPLE_S {
            return Ok(elapsed / f64::from(count));
        }
    }
}

/// Resets the peak resident set size, so each pass reports its own.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where `/proc` has none.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metric = (&'static str, f64, &'static str);

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics, from the untraced passes.
fn end_to_end(run: &Run, traces: bool) -> Vec<Metric> {
    let passes = &run.untraced;
    let rate = |f: fn(&Pass) -> f64| median_of(passes, f);
    let mut metrics = vec![
        ("total_s", median_of(passes, |p| p.wall_s), "s"),
        ("setup_s", median(&run.setups), "s"),
    ];
    if traces {
        metrics.extend([
            ("capture_traces_per_s", rate(|p| p.produce.per_s()), "1/s"),
            ("scan_traces_per_s", rate(|p| p.check.per_s()), "1/s"),
            ("fold_traces_per_s", rate(|p| p.analyze.per_s()), "1/s"),
            ("bytes_per_trace", rate(|p| p.bytes_per_trace), "B"),
        ]);
    } else {
        metrics.extend([
            ("cells_per_s", rate(|p| p.produce.per_s()), "1/s"),
            ("certificates_per_s", rate(|p| p.check.per_s()), "1/s"),
        ]);
    }
    metrics.push(("peak_rss_mib", rate(|p| p.peak_rss_mib), "MiB"));
    metrics
}

/// The per-layer metrics of one traced pass.
fn layer_metrics(pass: &Pass, traces: bool) -> Vec<Metric> {
    let t = &pass.busy;
    let unattributed = pass.unattributed_s();
    let mut metrics = if traces {
        trace_layer_metrics(pass)
    } else {
        vec![
            ("core.dpdn_s", t.self_s(Layer::CoreDpdn), "s"),
            ("cells.assemble_s", t.self_s(Layer::CellsAssemble), "s"),
            ("sim.characterize_s", t.self_s(Layer::SimCharacterize), "s"),
            ("sim.events", pass.events as f64, "count"),
            ("verify.emit_s", t.self_s(Layer::VerifyEmit), "s"),
            ("verify.check_s", t.self_s(Layer::VerifyCheck), "s"),
            ("logic.bdd_nodes", pass.bdd_nodes as f64, "count"),
        ]
    };
    metrics.extend([
        ("traced_wall_s", pass.wall_s, "s"),
        ("unattributed_s", unattributed, "s"),
        (
            "coverage_pct",
            100.0 * (1.0 - unattributed / pass.wall_s),
            "%",
        ),
    ]);
    metrics
}

/// The trace plane's layers: generation, the archive writer and reader,
/// and the folds.
fn trace_layer_metrics(pass: &Pass) -> Vec<Metric> {
    let t = &pass.busy;
    let read_bytes = t.bytes(Layer::StoreRead);
    let read_s = t.incl_s(Layer::StoreRead);
    let gbps = if read_s > 0.0 {
        read_bytes as f64 / read_s / 1e9
    } else {
        0.0
    };
    vec![
        ("crypto.simulate_s", t.self_s(Layer::Crypto), "s"),
        (
            "store.write.serialize_s",
            t.self_s(Layer::StoreSerialize),
            "s",
        ),
        ("store.write.io_s", t.self_s(Layer::StoreWriteIo), "s"),
        ("store.write.fsync_s", t.self_s(Layer::StoreFsync), "s"),
        (
            "store.write.bytes",
            t.bytes(Layer::StoreWriteIo) as f64,
            "B",
        ),
        ("store.open_s", t.incl_s(Layer::StoreOpen), "s"),
        ("store.read_s", read_s, "s"),
        ("store.read.io_s", t.self_s(Layer::StoreReadIo), "s"),
        (
            "store.read.bytes",
            (read_bytes + t.bytes(Layer::StoreScan) + t.bytes(Layer::StoreOpen)) as f64,
            "B",
        ),
        ("store.read_gbps", gbps, "GB/s"),
        ("store.scan_s", t.incl_s(Layer::StoreScan), "s"),
        ("power.fold_s", t.self_s(Layer::PowerFold), "s"),
        ("power.fold.wall_s", pass.fold_wall_s, "s"),
        ("eval.tvla_s", t.self_s(Layer::EvalTvla), "s"),
        ("eval.tvla.wall_s", pass.tvla_wall_s, "s"),
    ]
}

/// The per-layer metrics: medians over the traced passes, plus the
/// tracing overhead and the reference rows.
fn per_layer(run: &Run, traces: bool) -> Vec<Metric> {
    let per_pass: Vec<Vec<Metric>> = run
        .traced
        .iter()
        .map(|pass| layer_metrics(pass, traces))
        .collect();
    let mut metrics: Vec<Metric> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let values: Vec<f64> = per_pass.iter().map(|m| m[i].1).collect();
            (name, median(&values), unit)
        })
        .collect();
    let traced = median_of(&run.traced, |p| p.wall_s);
    let untraced = median_of(&run.untraced, |p| p.wall_s);
    metrics.push(("trace_overhead_pct", 100.0 * (traced / untraced - 1.0), "%"));
    if let Some(refs) = &run.refs {
        metrics.push(("ref.memcpy_gbps", refs.memcpy_gbps, "GB/s"));
        metrics.push(("ref.fnv1a64_gbps", refs.fnv1a64_gbps, "GB/s"));
    }
    metrics
}

/// The layer table of one traced pass: busy time summed over threads, the
/// wall time attributed to each layer, and its share of the pass.
fn layer_table(pass: &Pass) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<24}{:>12}{:>12}{:>9}",
        "layer", "busy_s", "wall_s", "share"
    );
    for (layer, wall) in Layer::ALL.iter().zip(pass.wall_by_layer) {
        let busy = pass.busy.self_s(*layer);
        if *layer == Layer::Bench || busy == 0.0 {
            continue;
        }
        let share = 100.0 * wall / pass.wall_s;
        let _ = writeln!(
            out,
            "  {:<24}{busy:>12.4}{wall:>12.4}{share:>8.1}%",
            layer.name()
        );
    }
    let unattributed = pass.unattributed_s();
    let share = 100.0 * unattributed / pass.wall_s;
    let _ = writeln!(
        out,
        "  {:<24}{:>12}{unattributed:>12.4}{share:>8.1}%",
        "unattributed", ""
    );
    let _ = writeln!(
        out,
        "  {:<24}{:>12}{:>12.4}{:>8.1}%",
        "traced wall", "", pass.wall_s, 100.0
    );
    out
}

fn render_metrics(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (name, value, unit) in metrics {
        let _ = writeln!(out, "  {name:<26}{value:>18.6} {unit}");
    }
    out
}

/// Each untraced pass's wall time and stage rates: the spread the medians
/// are taken over.
fn render_passes(passes: &[Pass]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:>4}{:>12}{:>16}{:>16}{:>16}",
        "pass", "wall_s", "produce/s", "check/s", "analyze/s"
    );
    for (i, p) in passes.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {i:>4}{:>12.4}{:>16.1}{:>16.1}{:>16.1}",
            p.wall_s,
            p.produce.per_s(),
            p.check.per_s(),
            p.analyze.per_s()
        );
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(run: &Run, metrics: &[Metric]) -> String {
    let attempted = run.attempted();
    let failed = run.failed();
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn report(name: &str, seed: u64, trace: bool, traces: bool, run: &Run) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {name}: seed {seed}, {} untraced + {} traced passes",
        run.untraced.len(),
        run.traced.len(),
    );
    let mut setups = run.setups.clone();
    setups.sort_by(f64::total_cmp);
    let _ = writeln!(
        out,
        "setup: median {:.6} s over {} (min {:.6}, max {:.6})",
        median(&setups),
        setups.len(),
        setups[0],
        setups[setups.len() - 1]
    );
    if let Some(archive) = run.passes().map(|p| p.archive_bytes).find(|&b| b > 0) {
        let l3 = refs::l3_bytes();
        let _ = writeln!(
            out,
            "archive per pass: {:.1} MB on disk, {:.2}x the {:.1} MB last-level cache",
            archive as f64 / 1e6,
            archive as f64 / l3 as f64,
            l3 as f64 / 1e6
        );
    }
    let _ = writeln!(out, "failed_ops: {}/{}", run.failed(), run.attempted());
    if trace {
        if let Some(pass) = median_pass(&run.traced) {
            let _ = writeln!(out, "layer table (median traced pass):");
            out.push_str(&layer_table(pass));
        }
        let metrics = per_layer(run, traces);
        if let Some(refs) = &run.refs {
            let read = metrics.iter().find(|m| m.0 == "store.read_gbps");
            let _ = writeln!(
                out,
                "roofline over {:.0} MB: memcpy {:.2} GB/s, fnv1a64 {:.3} GB/s{}",
                refs.buffer_bytes as f64 / 1e6,
                refs.memcpy_gbps,
                refs.fnv1a64_gbps,
                read.map_or(String::new(), |m| format!("; store.read {:.3} GB/s", m.1))
            );
        }
        let _ = writeln!(out, "per-layer metrics (median over traced passes):");
        out.push_str(&render_metrics(&metrics));
    } else {
        out.push_str(&render_passes(&run.untraced));
        let _ = writeln!(out, "end-to-end metrics (median over untraced passes):");
        out.push_str(&render_metrics(&end_to_end(run, traces)));
    }
    out
}

fn median_pass(passes: &[Pass]) -> Option<&Pass> {
    let mut sorted: Vec<&Pass> = passes.iter().collect();
    sorted.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    sorted.get(sorted.len().saturating_sub(1) / 2).copied()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value}; one of {WORKLOADS:?}"));
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => match value.parse::<u32>() {
                Ok(s) if s > 0 => seconds = Some(f64::from(s)),
                _ => return Err("--seconds needs a positive integer".into()),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace needs 0 or 1".into()),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err(
            "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> \
                  | perfbench --self-check"
                .into(),
        ),
    }
}

fn measure(args: &Args) -> Result<(), String> {
    let scratch = Scratch::create(&args.workload).map_err(|e| format!("scratch directory: {e}"))?;
    let mut workload = Workload::build(&args.workload, args.seed, Size::Full, &scratch.0, false)
        .ok_or("unknown workload")?;
    let run = run(&mut workload, args.seconds, args.trace)?;
    drop(scratch);
    let traces = workload.traces();
    print!(
        "{}",
        report(&args.workload, args.seed, args.trace, traces, &run)
    );
    let metrics = if args.trace {
        per_layer(&run, traces)
    } else {
        end_to_end(&run, traces)
    };
    println!("{}", result_json(&run, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    ledger::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args == ["--self-check"] {
        self_check()
    } else {
        parse_args(&args).and_then(|args| measure(&args))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload at tiny size and checks the benchmark itself: in
/// every traced pass the layers account for no more busy time than the
/// pass's threads had and for no more wall time than the pass took (its
/// layer walls plus `unattributed_s` make up the wall time), at least 95%
/// of the wall time is attributed, no operation fails, and a flipped
/// archive byte is counted as failed operations without stopping the run.
fn self_check() -> Result<(), String> {
    let mut problems = Vec::new();
    for name in WORKLOADS {
        let scratch = Scratch::create(name).map_err(|e| format!("scratch directory: {e}"))?;
        let mut workload =
            Workload::build(name, 1, Size::Tiny, &scratch.0, false).ok_or("unknown workload")?;
        let run = run(&mut workload, 0.5, true)?;
        print!("{}", report(name, 1, true, workload.traces(), &run));
        if run.failed() > 0 {
            problems.push(format!("{name}: {} operation(s) failed", run.failed()));
        }
        for pass in &run.traced {
            // Frames that double-count show up as more busy time than the
            // pass's threads had.
            let busy: f64 = Layer::ALL.iter().map(|&l| pass.busy.self_s(l)).sum();
            let capacity = workload.threads() as f64 * pass.wall_s;
            if busy > capacity * 1.001 {
                problems.push(format!(
                    "{name}: {busy:.4} s busy in {capacity:.4} thread-seconds"
                ));
            }
            let unattributed = pass.unattributed_s();
            if unattributed < -1e-6 {
                problems.push(format!(
                    "{name}: layers over-attributed by {}",
                    -unattributed
                ));
            }
            let coverage = 1.0 - unattributed / pass.wall_s;
            if coverage < 0.95 {
                problems.push(format!("{name}: coverage {:.1}% < 95%", 100.0 * coverage));
            }
        }
    }
    let scratch = Scratch::create("corrupt").map_err(|e| format!("scratch directory: {e}"))?;
    let mut workload =
        Workload::build("sbox_f64", 1, Size::Tiny, &scratch.0, true).ok_or("unknown workload")?;
    let run = run(&mut workload, 0.0, false)?;
    println!(
        "corrupted archive: {}/{} operations failed",
        run.failed(),
        run.attempted()
    );
    if run.failed() == 0 {
        problems.push("a flipped archive byte went unnoticed".into());
    }
    if run.attempted() != 4 * run.untraced.len() as u64 {
        problems.push("the corrupted run skipped operations".into());
    }
    if problems.is_empty() {
        println!("self-check passed");
        Ok(())
    } else {
        Err(format!("self-check failed:\n  {}", problems.join("\n  ")))
    }
}
