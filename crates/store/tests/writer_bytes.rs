//! Pins the exact bytes the archive writer produces.
//!
//! Every encoding × compression is written at two chunk sizes and three
//! trace widths, each campaign ending in a partial chunk, over sample
//! values chosen to stress the encoders: values at and beyond the `i16`
//! range bounds, exact scaled ties and their neighbours, NaN, ±∞, −0.0 and
//! subnormals.  The digest of every file and its saturation count are
//! pinned, so any change to the encoders, the tile layout or the chunk
//! framing that moves a single byte fails here.  Each campaign is also
//! re-written through `ArchiveWriter::resume_stream` after a torn chunk
//! and after a crash inside `finish`, and must come out byte-identical.

use std::io::Cursor;

use dpl_store::format::checksum64;
use dpl_store::{
    ArchiveMeta, ArchiveReader, ArchiveWriter, CampaignKind, Compression, ModelTag, Quantization,
    SampleEncoding,
};

const TRACES: usize = 50;
const CHUNKS: [usize; 2] = [7, 23];
const WIDTHS: [usize; 3] = [1, 5, 19];

/// A power-of-two step, so `(k + ½) · scale` is an exact tie.
const POW2_SCALE: f64 = 0.0625;

fn encodings() -> [(&'static str, SampleEncoding); 4] {
    [
        ("f64", SampleEncoding::F64),
        ("f32", SampleEncoding::F32),
        (
            "i16p2",
            SampleEncoding::I16(Quantization::new(POW2_SCALE).unwrap()),
        ),
        (
            "i16mag",
            SampleEncoding::I16(Quantization::for_max_magnitude(3.0).unwrap()),
        ),
    ]
}

/// Values every encoder must handle, for a quantization step `scale`.
fn specials(scale: f64) -> Vec<f64> {
    let mut values = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 3.0,
        -f64::MIN_POSITIVE * 0.75,
        1e300,
        -1e300,
    ];
    // At, just inside and beyond the i16 range bounds.
    for k in [
        32767.0, -32768.0, 32767.5, -32768.5, 32768.0, -32769.0, 40000.0,
    ] {
        values.push(k * scale);
    }
    // Exact ties and their immediate neighbours.
    for k in [
        0.0, 1.0, 2.0, -1.0, -2.0, -3.0, 100.0, -101.0, 32766.0, -32768.0,
    ] {
        let tie: f64 = (k + 0.5) * scale;
        values.push(tie);
        values.push(f64::from_bits(tie.to_bits() + 1));
        values.push(f64::from_bits(tie.to_bits().wrapping_sub(1)));
    }
    values
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Deterministic traces: smooth noise with specials sprinkled in, over
/// inputs mixing nibbles with full-width values.
fn traces(width: usize, scale: f64) -> Vec<(u64, Vec<f64>)> {
    let specials = specials(scale);
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15 ^ width as u64);
    (0..TRACES)
        .map(|t| {
            let input = match t % 4 {
                0 | 1 => rng.next() % 16,
                2 => rng.next(),
                _ => u64::MAX - (t as u64),
            };
            let values = (0..width)
                .map(|s| {
                    let r = rng.next();
                    if r.is_multiple_of(3) {
                        specials[(r >> 8) as usize % specials.len()]
                    } else {
                        let noise = (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                        (((t + s) as f64) * 0.3).sin() * 2.5 + noise * 0.1
                    }
                })
                .collect();
            (input, values)
        })
        .collect()
}

fn meta(
    encoding: SampleEncoding,
    compression: Compression,
    chunk: usize,
    width: usize,
) -> ArchiveMeta {
    ArchiveMeta {
        samples_per_trace: width,
        chunk_traces: chunk,
        model: ModelTag::Unspecified,
        seed: 2005,
        campaign: CampaignKind::Attack,
        table_digest: 0,
        encoding,
        compression,
    }
}

fn write(meta: ArchiveMeta, traces: &[(u64, Vec<f64>)]) -> (Vec<u8>, u64) {
    let mut writer = ArchiveWriter::new(Cursor::new(Vec::new()), meta).unwrap();
    for (input, samples) in traces {
        writer.append(*input, samples).unwrap();
    }
    writer.finish().unwrap();
    let saturated = writer.saturated_samples();
    (writer.into_inner().into_inner(), saturated)
}

/// Resumes the capture on `crashed` and appends the traces it lost.
fn resume(meta: ArchiveMeta, crashed: Vec<u8>, traces: &[(u64, Vec<f64>)]) -> Vec<u8> {
    let (mut writer, recovery) = ArchiveWriter::resume_stream(Cursor::new(crashed), meta).unwrap();
    for (input, samples) in &traces[recovery.recovered_traces() as usize..] {
        writer.append(*input, samples).unwrap();
    }
    writer.finish().unwrap();
    writer.into_inner().into_inner()
}

/// `(case, checksum64 of the file, saturated samples)`, written by the
/// format-version-4 writer.
const PINNED: &[(&str, u64, u64)] = &[
    ("f64/None/c7/s1", 0x2e759a0ed1991634, 0),
    ("f64/None/c7/s5", 0x1f408ef3fed679f0, 0),
    ("f64/None/c7/s19", 0x10b18b2f882ed3c2, 0),
    ("f64/None/c23/s1", 0x9985b6fb4acf847d, 0),
    ("f64/None/c23/s5", 0x61b647580e7570ef, 0),
    ("f64/None/c23/s19", 0x01e4f58411ec62a3, 0),
    ("f64/Shuffle/c7/s1", 0x69c35e4e9f6cc59c, 0),
    ("f64/Shuffle/c7/s5", 0xb028a22b5611348d, 0),
    ("f64/Shuffle/c7/s19", 0x167985d864d6f715, 0),
    ("f64/Shuffle/c23/s1", 0x56c8f15c44bc21de, 0),
    ("f64/Shuffle/c23/s5", 0xb67b4ceafd5994a4, 0),
    ("f64/Shuffle/c23/s19", 0xc692f06e484aaa29, 0),
    ("f32/None/c7/s1", 0xc2e7fc7e1abe1057, 0),
    ("f32/None/c7/s5", 0x79090c68e7288756, 0),
    ("f32/None/c7/s19", 0x18f540991626a3e5, 0),
    ("f32/None/c23/s1", 0xd9db6cbbe99571f4, 0),
    ("f32/None/c23/s5", 0xe887b535fc235086, 0),
    ("f32/None/c23/s19", 0x2a6a26c13f3eae30, 0),
    ("f32/Shuffle/c7/s1", 0x37fd72470d1504b8, 0),
    ("f32/Shuffle/c7/s5", 0x840eb1c80efb853b, 0),
    ("f32/Shuffle/c7/s19", 0x167a2abc1d488423, 0),
    ("f32/Shuffle/c23/s1", 0xffcbb4c3358d2417, 0),
    ("f32/Shuffle/c23/s5", 0x646866cb9e83a8bc, 0),
    ("f32/Shuffle/c23/s19", 0xaa64e8ecf656f012, 0),
    ("i16p2/None/c7/s1", 0x7dc032e9e08c7c3e, 5),
    ("i16p2/None/c7/s5", 0xbb1619443c420863, 25),
    ("i16p2/None/c7/s19", 0xf51ad5cae70e63be, 101),
    ("i16p2/None/c23/s1", 0x77a267b9b59b8407, 5),
    ("i16p2/None/c23/s5", 0x89debc0cd0e57875, 25),
    ("i16p2/None/c23/s19", 0x7f9b61796a312008, 101),
    ("i16p2/Shuffle/c7/s1", 0x8c6c88dc6c6463d3, 5),
    ("i16p2/Shuffle/c7/s5", 0xdceea76e4eec2969, 25),
    ("i16p2/Shuffle/c7/s19", 0x99b17932d1de73bb, 101),
    ("i16p2/Shuffle/c23/s1", 0x76e39797f9f9e2d5, 5),
    ("i16p2/Shuffle/c23/s5", 0xc7a3014ade24e8e0, 25),
    ("i16p2/Shuffle/c23/s19", 0xfb61b7966dd18b46, 101),
    ("i16mag/None/c7/s1", 0x077c12896efe53e0, 5),
    ("i16mag/None/c7/s5", 0xd007e940b7509cd7, 25),
    ("i16mag/None/c7/s19", 0x7597ffed6f97e807, 101),
    ("i16mag/None/c23/s1", 0xd4e2e49a8a958d4c, 5),
    ("i16mag/None/c23/s5", 0x8ae3fb3a13c61ed6, 25),
    ("i16mag/None/c23/s19", 0xc62140799cf3f672, 101),
    ("i16mag/Shuffle/c7/s1", 0x8d32473bdd4eeec2, 5),
    ("i16mag/Shuffle/c7/s5", 0xd59f4de3cbb93846, 25),
    ("i16mag/Shuffle/c7/s19", 0x153c023d53c57657, 101),
    ("i16mag/Shuffle/c23/s1", 0xc271ccc05012bd36, 5),
    ("i16mag/Shuffle/c23/s5", 0x92611f82cb460d3a, 25),
    ("i16mag/Shuffle/c23/s19", 0x3c75df9a04e684f1, 101),
];

#[test]
fn writer_bytes_are_pinned_for_every_encoding_and_compression() {
    let mut actual = Vec::new();
    for (name, encoding) in encodings() {
        let scale = encoding.quantization().map_or(POW2_SCALE, |q| q.scale);
        for compression in [Compression::None, Compression::Shuffle] {
            for chunk in CHUNKS {
                for width in WIDTHS {
                    let case = format!("{name}/{compression:?}/c{chunk}/s{width}");
                    let meta = meta(encoding, compression, chunk, width);
                    let traces = traces(width, scale);
                    let (bytes, saturated) = write(meta, &traces);

                    let reader = ArchiveReader::new(Cursor::new(bytes.clone())).unwrap();
                    assert_eq!(reader.trace_count(), TRACES as u64, "{case}");
                    assert_eq!(reader.saturated_samples(), Some(saturated), "{case}");
                    if encoding.quantization().is_some() {
                        assert!(saturated > 0, "{case}: no sample reached a bound");
                    }

                    // A chunk torn two thirds of the way into the data: the
                    // resume drops it and re-appends the traces it lost.
                    let cut = bytes.len() - (bytes.len() - meta.header_len()) / 3;
                    let torn = bytes[..cut].to_vec();
                    assert_eq!(resume(meta, torn, &traces), bytes, "{case}: torn resume");
                    // A crash inside `finish`, after the partial last chunk
                    // and before the header: the resume re-buffers it.
                    let mut unfinished = bytes.clone();
                    unfinished[..meta.header_len()].fill(0);
                    assert_eq!(
                        resume(meta, unfinished, &traces),
                        bytes,
                        "{case}: unfinished resume"
                    );
                    actual.push((case, checksum64(&bytes), saturated));
                }
            }
        }
    }
    let listing: String = actual
        .iter()
        .map(|(case, digest, saturated)| {
            format!("    (\"{case}\", {digest:#018x}, {saturated}),\n")
        })
        .collect();
    let pinned: Vec<(String, u64, u64)> = PINNED
        .iter()
        .map(|&(case, digest, saturated)| (case.to_string(), digest, saturated))
        .collect();
    assert!(pinned == actual, "writer bytes moved; now:\n{listing}");
}
