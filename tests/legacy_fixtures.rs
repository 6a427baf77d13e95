//! Reader fixtures for the read-only legacy formats.
//!
//! `tests/fixtures/` holds four small archives written by the last writer
//! that emitted versions 1–3: `v1` (plain f64), `v2` (characterized model
//! tag + energy-table digest, TVLA campaign), `v3-f32` and
//! `v3-i16-shuffle` (compact encodings, the latter compressed).  Each holds
//! the same 10 traces of 2 samples in chunks of 4 (two full chunks and a
//! partial one).  The writer now emits only version 4, so these files are
//! the only way to keep the legacy read paths honest: each must decode
//! bit-exactly to its pinned traces, fsck clean, and fail closed under
//! every single-bit flip.

use std::path::PathBuf;

use dpl_store::{
    ArchiveMeta, ArchiveReader, CampaignKind, Compression, ModelTag, Quantization, ReadPolicy,
    RetryPolicy, SampleEncoding,
};

/// One committed fixture: file stem, the version its magic announces, and
/// the FNV-1a 64 digest of its decoded traces (inputs and sample bits).
struct Fixture {
    name: &'static str,
    version: u32,
    decoded_digest: u64,
}

const FIXTURES: [Fixture; 4] = [
    Fixture {
        name: "v1",
        version: 1,
        decoded_digest: 8_699_255_902_173_232_208,
    },
    Fixture {
        name: "v2",
        version: 2,
        decoded_digest: 8_699_255_902_173_232_208,
    },
    Fixture {
        name: "v3-f32",
        version: 3,
        decoded_digest: 2_288_621_421_458_754_484,
    },
    Fixture {
        name: "v3-i16-shuffle",
        version: 3,
        decoded_digest: 2_768_884_880_757_028_162,
    },
];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.dpltrc"))
}

/// The traces the fixtures were captured from: nibble inputs, values in
/// [-4, 4] with fractional parts the f32 and i16 encodings do not keep.
fn fixture_traces() -> Vec<(u64, [f64; 2])> {
    (0..10u64)
        .map(|t| {
            let input = (t * 7 + 3) % 16;
            let a = (t as f64 * 0.731).sin() * 3.5 + 0.123_456_789;
            let b = -(t as f64) * 0.377 + 1.0 / 3.0;
            (input, [a, b])
        })
        .collect()
}

fn fixture_meta(name: &str) -> ArchiveMeta {
    let base = ArchiveMeta {
        samples_per_trace: 2,
        chunk_traces: 4,
        model: ModelTag::HammingWeight,
        seed: 11,
        campaign: CampaignKind::Attack,
        table_digest: 0,
        encoding: SampleEncoding::F64,
        compression: Compression::None,
    };
    match name {
        "v1" => base,
        "v2" => ArchiveMeta {
            model: ModelTag::CharacterizedGenuineSabl,
            campaign: CampaignKind::TvlaInterleaved,
            ..base
        }
        .with_table_digest(0x1234_5678_9ABC_DEF0),
        "v3-f32" => base.with_encoding(SampleEncoding::F32),
        _ => base
            .with_encoding(SampleEncoding::I16(
                Quantization::for_max_magnitude(4.0).expect("scale"),
            ))
            .with_compression(Compression::Shuffle),
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[test]
fn legacy_fixtures_decode_bit_exactly_to_pinned_traces() {
    for fixture in &FIXTURES {
        let name = fixture.name;
        let meta = fixture_meta(name);
        let mut reader = ArchiveReader::open(fixture_path(name)).expect(name);
        assert_eq!(reader.format_version(), fixture.version, "{name}");
        assert_eq!(*reader.meta(), meta, "{name}");
        assert_eq!(reader.trace_count(), 10, "{name}");
        assert_eq!(reader.chunk_count(), 3, "{name}");
        assert_eq!(
            reader.saturated_samples(),
            None,
            "{name}: predates the count"
        );
        let decoded = reader.read_all().expect(name);

        let mut bytes = Vec::new();
        for (t, (input, values)) in fixture_traces().iter().enumerate() {
            assert_eq!(decoded.inputs()[t], *input, "{name} trace {t}");
            bytes.extend_from_slice(&input.to_le_bytes());
            for (got, want) in decoded.trace_samples(t).iter().zip(values) {
                // Within the encoding's contract of the source value (the
                // slack only absorbs a last-ulp difference in `sin`).
                let bound = match meta.encoding {
                    SampleEncoding::F64 => 0.0,
                    SampleEncoding::F32 => want.abs() * f64::from(f32::EPSILON),
                    SampleEncoding::I16(q) => q.max_error(),
                } + 1e-12;
                assert!(
                    (got - want).abs() <= bound,
                    "{name} trace {t}: {got} vs {want}"
                );
                bytes.extend_from_slice(&got.to_bits().to_le_bytes());
            }
        }
        assert_eq!(
            fnv1a64(&bytes),
            fixture.decoded_digest,
            "{name}: decoded traces changed"
        );
    }
}

#[test]
fn legacy_fixtures_fsck_clean() {
    for fixture in &FIXTURES {
        let name = fixture.name;
        let mut reader =
            ArchiveReader::open_with_policy(fixture_path(name), ReadPolicy::Salvage).expect(name);
        let report = reader.scan(&RetryPolicy::none()).expect(name);
        assert!(report.is_clean(), "{name}: {report:?}");
        assert_eq!(report.traces_read, 10, "{name}");
    }
}

#[test]
fn legacy_fixtures_fail_closed_under_every_bit_flip() {
    for fixture in &FIXTURES {
        let name = fixture.name;
        let bytes = std::fs::read(fixture_path(name)).expect(name);
        for offset in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[offset] ^= 1 << bit;
                let result = ArchiveReader::new(std::io::Cursor::new(corrupt))
                    .and_then(|mut reader| reader.read_all());
                assert!(
                    result.is_err(),
                    "{name}: flip of bit {bit} at byte {offset} decoded silently"
                );
            }
        }
    }
}
