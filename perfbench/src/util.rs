//! Small helpers shared by the workloads.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// SplitMix64 finalizer: derives independent 64-bit values from a seed and
/// a stream index.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
pub struct SplitMix(u64);

impl SplitMix {
    /// Starts the stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// An approximately standard normal draw: the Irwin-Hall sum of the
    /// four 16-bit uniforms in one 64-bit draw, centred and scaled to unit
    /// variance.
    pub fn near_normal(&mut self) -> f64 {
        let bits = self.next_u64();
        let sum: u64 = (0..4).map(|k| (bits >> (16 * k)) & 0xFFFF).sum();
        (sum as f64 / 65536.0 - 2.0) * 3f64.sqrt()
    }
}

/// Shuffles `items` in place, deterministically in `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix::new(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The median of `values` (the mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Flips one bit of the byte at `offset` — the self-check's simulated
/// corruption.
pub fn flip_byte(path: &Path, offset: u64) -> std::io::Result<()> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(&mut byte)?;
    byte[0] ^= 0x40;
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(&byte)
}

/// Deletes `path` if it exists; a failure is reported, not fatal.
pub fn remove_stale(path: &Path) {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            eprintln!("cannot delete {}: {e}", path.display());
        }
        _ => {}
    }
}

/// Size of `path` in bytes (0 when it cannot be read).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// `Ok` when a checked count or value matches its expectation.
pub fn expect_eq(what: &str, actual: u64, expected: u64) -> Result<(), String> {
    if actual == expected {
        Ok(())
    } else {
        Err(format!("{what}: got {actual:#x}, expected {expected:#x}"))
    }
}
