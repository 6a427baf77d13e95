//! Roofline reference rows: what the machine does with a buffer larger
//! than its last-level cache, with no archive code around it — the ceiling
//! `store.read_gbps` is read against.

use std::hint::black_box;
use std::time::Instant;

use dpl_store::format::fnv1a64;

use crate::util::median;

/// Measured reference throughputs.
pub struct Refs {
    /// `copy_from_slice` between two buffers, GB/s.
    pub memcpy_gbps: f64,
    /// `dpl_store::format::fnv1a64` — the chunk checksum — GB/s.
    pub fnv1a64_gbps: f64,
    /// Size of each buffer.
    pub buffer_bytes: usize,
}

const REPEATS: usize = 3;

/// Times `REPEATS` copies and checksums of a `buffer_bytes` buffer and
/// reports the medians.
pub fn measure(buffer_bytes: usize) -> Refs {
    let mut src = vec![0u8; buffer_bytes];
    let mut state = 0x243F_6A88_85A3_08D3u64;
    for word in src.chunks_exact_mut(8) {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        word.copy_from_slice(&state.to_le_bytes());
    }
    // Written once up front, so the timed copies fault in no pages.
    let mut dst = vec![1u8; buffer_bytes];
    let gb = buffer_bytes as f64 / 1e9;
    let memcpy: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&dst);
            gb / start.elapsed().as_secs_f64()
        })
        .collect();
    let fnv: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            black_box(fnv1a64(black_box(&src)));
            gb / start.elapsed().as_secs_f64()
        })
        .collect();
    Refs {
        memcpy_gbps: median(&memcpy),
        fnv1a64_gbps: median(&fnv),
        buffer_bytes,
    }
}

/// The last-level cache size `/proc/cpuinfo` reports (`cache size`), in
/// bytes; 32 MiB when it reports none.
pub fn l3_bytes() -> u64 {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("cache size"))
                .and_then(|line| line.split(':').nth(1))
                .and_then(|value| value.trim().strip_suffix("KB"))
                .and_then(|kb| kb.trim().parse::<u64>().ok())
        })
        .map_or(32 << 20, |kb| kb * 1024)
}
