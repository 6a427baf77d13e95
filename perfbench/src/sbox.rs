//! `sbox_f64`: the CLI's default key-recovery campaign at a size past the
//! last-level cache.
//!
//! PRESENT S-box datapath under the Hamming-weight model, 1 f64 sample per
//! trace, captured into one version-1 archive through the durable
//! file-backed writer (`finish` fsyncs twice), then a strict fsck scan,
//! `dpa_attack_streaming` and `cpa_attack_streaming` (two passes).  Raw
//! bytes dominate: checksums, serialization and fsync.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

use dpl_cells::CapacitanceModel;
use dpl_crypto::{
    present_sbox, simulate_traces_into, synthesize_sbox_with_key, EnergyCache, GateEnergyTable,
    GateNetlist, LeakageModel, LeakageOptions,
};
use dpl_store::{
    cpa_attack_streaming, dpa_attack_streaming, ArchiveMeta, ArchiveReader, DamageReport, ModelTag,
    ReadPolicy, RetryPolicy,
};

use crate::ledger::{frame, Layer};
use crate::pass::Pass;
use crate::seams::{TimedRead, TimedSink, TimedSource, TimedWrite};
use crate::util::{expect_eq, file_len, flip_byte, mix, remove_stale};

/// The secret key nibble of the CLI's campaigns.
const KEY: u8 = 0xA;
/// The CLI's default chunk size.
const CHUNK_TRACES: usize = 1024;
/// The CLI's capture noise, relative to the mean trace energy.
const RELATIVE_NOISE: f64 = 0.02;

type Reader = ArchiveReader<TimedRead<BufReader<File>>>;

struct Inputs {
    netlist: GateNetlist,
    table: GateEnergyTable,
    cache: EnergyCache,
}

/// The workload.
pub struct SboxF64 {
    seed: u64,
    traces: usize,
    archive: PathBuf,
    corrupt: bool,
    inputs: Option<Box<Inputs>>,
}

impl SboxF64 {
    /// A campaign of `traces` traces captured to `dir`; with `corrupt`,
    /// one archive byte is flipped after every capture.
    pub fn new(seed: u64, traces: usize, dir: &Path, corrupt: bool) -> Self {
        SboxF64 {
            seed,
            traces,
            archive: dir.join("sbox.dpltrc"),
            corrupt,
            inputs: None,
        }
    }

    /// Netlist synthesis, the Hamming-weight energy table and the CPA
    /// hypothesis cache.
    pub fn setup(&mut self) -> Result<(), String> {
        let netlist = synthesize_sbox_with_key().map_err(|e| format!("synthesis: {e}"))?;
        let table = GateEnergyTable::for_circuit(
            LeakageModel::HammingWeight,
            &CapacitanceModel::default(),
            &netlist,
        )
        .map_err(|e| format!("energy table: {e}"))?;
        let cache = EnergyCache::new(&netlist, &table);
        self.inputs = Some(Box::new(Inputs {
            netlist,
            table,
            cache,
        }));
        Ok(())
    }

    /// One campaign: capture, fsck, DPA, CPA.  The archive stays until the
    /// next pass or the end of the run.
    pub fn pass(&self, pass: &mut Pass) {
        let inputs = self.inputs.as_ref().expect("setup runs before any pass");
        let n = self.traces;
        let seed = mix(self.seed, 0);
        let path = &self.archive;
        // The previous campaign is deleted here, not at the end of its pass,
        // so the page freeing that follows a deletion never lands in the
        // set-ups timed between passes.
        remove_stale(path);

        let (captured, wall) = pass.stage(|| capture(path, inputs, seed, n));
        pass.produce.add(n as f64, wall);
        pass.check(
            "capture",
            captured.and_then(|count| expect_eq("traces captured", count, n as u64)),
        );
        pass.archive_bytes = file_len(path);
        pass.bytes_per_trace = pass.archive_bytes as f64 / n as f64;
        if self.corrupt {
            if let Err(e) = flip_byte(path, file_len(path) / 2) {
                eprintln!("cannot corrupt {}: {e}", path.display());
            }
        }

        let (scanned, wall) = pass.stage(|| fsck(path));
        pass.check.add(n as f64, wall);
        pass.check(
            "fsck",
            scanned.and_then(|report| {
                if report.is_clean() {
                    expect_eq("traces verified", report.traces_read, n as u64)
                } else {
                    Err(report.render())
                }
            }),
        );

        let selection =
            |plaintext: u64, guess: u64| present_sbox((plaintext ^ guess) as u8).count_ones() >= 2;
        let (dpa, wall) = pass.stage(|| {
            let mut source = open(path)?;
            let _f = frame(Layer::PowerFold);
            dpa_attack_streaming(&mut source, 16, selection).map_err(|e| e.to_string())
        });
        pass.analyze.add(n as f64, wall);
        pass.fold_wall_s += wall;
        pass.check(
            "DPA key recovery",
            dpa.and_then(|r| expect_eq("DPA best guess", r.best_guess, u64::from(KEY))),
        );

        let model = |plaintext: u64, guess: u64| inputs.cache.energy(plaintext, guess as u8);
        let (cpa, wall) = pass.stage(|| {
            let mut source = open(path)?;
            let _f = frame(Layer::PowerFold);
            cpa_attack_streaming(&mut source, 16, model).map_err(|e| e.to_string())
        });
        pass.analyze.add(2.0 * n as f64, wall);
        pass.fold_wall_s += wall;
        pass.check(
            "CPA key recovery",
            cpa.and_then(|r| expect_eq("CPA best guess", r.best_guess, u64::from(KEY))),
        );
    }
}

fn capture(path: &Path, inputs: &Inputs, seed: u64, n: usize) -> Result<u64, String> {
    let meta = ArchiveMeta::scalar(CHUNK_TRACES, ModelTag::HammingWeight, seed);
    let file = {
        let _f = frame(Layer::StoreWriteIo);
        File::create(path)
    }
    .map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut writer = {
        let _f = frame(Layer::StoreSerialize);
        dpl_store::ArchiveWriter::new(TimedWrite(BufWriter::new(file)), meta)
    }
    .map_err(|e| e.to_string())?;
    let options = LeakageOptions {
        relative_noise: RELATIVE_NOISE,
        seed,
    };
    {
        let _f = frame(Layer::Crypto);
        simulate_traces_into(
            &inputs.netlist,
            &inputs.table,
            KEY,
            n,
            &options,
            &mut TimedSink(&mut writer),
        )
    }
    .map_err(|e| e.to_string())?;
    let finished = {
        let _f = frame(Layer::StoreSerialize);
        writer.finish()
    }
    .map_err(|e| e.to_string());
    let _f = frame(Layer::StoreWriteIo);
    drop(writer);
    finished
}

fn open_reader(path: &Path) -> Result<Reader, String> {
    let _f = frame(Layer::StoreOpen);
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    ArchiveReader::with_policy(TimedRead(BufReader::new(file)), ReadPolicy::Strict)
        .map_err(|e| e.to_string())
}

fn open(path: &Path) -> Result<TimedSource<Reader>, String> {
    Ok(TimedSource::new(open_reader(path)?, None))
}

fn fsck(path: &Path) -> Result<DamageReport, String> {
    let mut reader = open_reader(path)?;
    let _f = frame(Layer::StoreScan);
    reader.scan(&RetryPolicy::new(2)).map_err(|e| e.to_string())
}
