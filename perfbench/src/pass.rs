//! One measured pass of a workload: stage throughputs, checked operations
//! and, when traced, where the pass's wall time went.

use std::time::Instant;

use crate::ledger::{self, Layer, Tally, LAYERS};

/// Items processed over the wall time of the stages that processed them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rate {
    items: f64,
    seconds: f64,
}

impl Rate {
    /// Adds `items` processed in `seconds`.
    pub fn add(&mut self, items: f64, seconds: f64) {
        self.items += items;
        self.seconds += seconds;
    }

    /// Items per second (0 when nothing ran).
    pub fn per_s(&self) -> f64 {
        if self.seconds > 0.0 {
            self.items / self.seconds
        } else {
            0.0
        }
    }
}

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// The producing stage: trace capture, or cell characterization.
    pub produce: Rate,
    /// The verifying stage: fsck scans, or certificates emitted and
    /// replayed.
    pub check: Rate,
    /// Attack and TVLA trace-passes.
    pub analyze: Rate,
    /// Archive bytes per trace.
    pub bytes_per_trace: f64,
    /// On-disk bytes of the pass's trace archive (0 without one).
    pub archive_bytes: u64,
    /// Checked operations attempted.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Transient-simulated input events.
    pub events: u64,
    /// BDD nodes re-established by one round of certificate replays.
    pub bdd_nodes: u64,
    /// Wall time of the calls into `dpl-store`'s DPA/CPA folds.
    pub fold_wall_s: f64,
    /// Wall time of the calls into `dpl-eval`'s TVLA folds.
    pub tvla_wall_s: f64,
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Peak resident set size during the pass, in MiB.
    pub peak_rss_mib: f64,
    /// Traced passes: busy time per layer, summed over threads.
    pub busy: Tally,
    /// Traced passes: the pass's wall seconds attributed to each layer.
    pub wall_by_layer: [f64; LAYERS],
}

impl Pass {
    /// Runs one stage of the pass and returns its value and wall seconds.
    ///
    /// When tracing, the stage's wall time is attributed to the layers in
    /// proportion to the busy time each accrued during it (across all
    /// threads).  A single-threaded stage's busy time never exceeds its
    /// wall time and is taken as is; a stage whose workers overlap is
    /// scaled down to its wall time.  Whatever the stage spent outside any
    /// layer stays unattributed.
    pub fn stage<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = ledger::tracing().then(ledger::snapshot);
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed().as_secs_f64();
        if let Some(before) = before {
            let delta = ledger::snapshot().since(&before);
            let busy = Layer::ALL.map(|layer| delta.self_s(layer));
            let total: f64 = busy.iter().sum();
            let scale = if total > wall { wall / total } else { 1.0 };
            for (slot, b) in self.wall_by_layer.iter_mut().zip(busy) {
                *slot += b * scale;
            }
        }
        (out, wall)
    }

    /// Counts one checked operation; a failure is reported and counted,
    /// never fatal.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            eprintln!("check failed: {what}: {message}");
        }
    }

    /// Wall time no product layer accounts for: the benchmark's own code.
    pub fn unattributed_s(&self) -> f64 {
        let attributed: f64 = Layer::ALL
            .iter()
            .zip(&self.wall_by_layer)
            .filter(|(layer, _)| **layer != Layer::Bench)
            .map(|(_, s)| s)
            .sum();
        self.wall_s - attributed
    }
}
