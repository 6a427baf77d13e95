//! Compact sample encodings and the zero-dependency chunk compressor.
//!
//! Archives (format version 3 and later) can store sample values in three
//! encodings:
//!
//! | Code | Encoding | Bytes/sample | Error bound |
//! | --- | --- | --- | --- |
//! | 0 | `f64` | 8 | exact (bit-identical to v1/v2) |
//! | 1 | `f32` | 4 | relative, ≤ `f32::EPSILON` per value |
//! | 2 | `i16` fixed-point | 2 | absolute, ≤ `scale / 2` (see below) |
//!
//! The `i16` encoding divides every sample by a campaign-wide **scale**
//! (recorded in the header, so the contract survives the round trip) and
//! rounds to the nearest integer: the worst-case absolute error is
//! `scale / 2`, and magnitudes beyond `scale * 32767` saturate at the
//! integer range bounds.  Saturation never fails a capture: the writer
//! counts every sample encoded at a bound and records the total in the
//! version-4 header (`ArchiveReader::saturated_samples`), so the
//! `max_error` claim comes with the number of samples it does not cover.
//! [`Quantization::for_max_magnitude`] picks the scale that makes a known
//! campaign amplitude saturation-free.
//!
//! **Exactness contract of the quantizer.**  Every `i16` sample is, bit for
//! bit, `(value / scale).round() as i16` — round half away from zero,
//! saturating, NaN to 0 — but computed without the libm `round` call and the
//! cast's branches, so the encode loop vectorizes.  After the division the
//! quantizer maps NaN to 0 and clamps to `[−32768, 32767]` (clamping to
//! integer bounds commutes with rounding, so saturation is unchanged), adds
//! `1.5 · 2⁵²` (the addition rounds to nearest, ties to even, and leaves
//! the integer in the low mantissa bits), and turns ties away from zero:
//! `d = c − (t − 1.5 · 2⁵²)` is exactly ±0.5 on a tie.  The unit tests
//! check it against the expression on every tie `k + ½` and its neighbours
//! for `|k| < 40000` and on arbitrary bit patterns, at several scales.  The
//! writer's saturation count and crash recovery's recount go through the
//! same function, so they cannot diverge.
//!
//! **Tiled layout.**  The writer buffers a chunk trace-major, and the body
//! stores it sample-major.  The encoder reads the buffer in tiles of 8
//! columns × all traces, 64 traces at a time, and writes every encoded word
//! straight to its sample-major position — whole words in an uncompressed
//! body, byte `p` of each word to plane `p` for the shuffle compressor — so
//! no transposed copy of the chunk is ever made.  Each compressed plane is
//! then delta-coded into a second buffer (not in place, so the loop
//! vectorizes) and zero-run coded, skipping literal stretches 8 bytes at a
//! time with the SWAR zero-byte test.
//!
//! Independently of the encoding, a chunk body can be run through the
//! built-in **shuffle compressor** ([`Compression::Shuffle`]): inputs are
//! delta + zigzag + varint coded (nibble plaintexts take one byte instead
//! of eight), and the fixed-width sample words are byte-shuffled into
//! per-byte planes, delta-coded along each plane and zero-run-length
//! encoded — near-constant planes (signs, exponents, high mantissa bytes
//! of similar measurements) collapse to a few bytes while incompressible
//! noise planes are stored as bounded literal runs, so a compressed chunk
//! is never more than a few dozen bytes larger than a raw one
//! (`max_body_len` gives the reader a hard bound for validating chunk
//! headers before allocating).
//!
//! Every decoder here is **total**: corrupt bytes surface as a typed
//! [`StoreError::FormatViolation`], never as a panic, an unbounded
//! allocation, or silently wrong values.
//!
//! **One parser, two consumers.**  A chunk body is parsed by one function,
//! `parse_body`, which checks every length, the input varint stream, each
//! plane's zero-run groups and the trailing bytes, and hands what it reads
//! to a sink.  `decode_body` passes a sink that fills the inputs, the
//! planes and the samples; `validate_body`, the fsck scan's check, passes
//! one that discards everything, so it writes no input, plane byte or
//! sample.  Since the validator is the decoder's parser, it is exactly as
//! total as the decoder: a body validates iff it decodes, and a rejected
//! body carries the decoder's message.  No structural check exists twice.

use crate::error::{Result, StoreError};

/// `1.5 · 2⁵²`: adding it to a value of magnitude at most 2⁵¹ rounds the
/// value to an integer (to nearest, ties to even, the default FP mode) and
/// leaves that integer, two's complement, in the low mantissa bits.
const ROUNDING_BIAS: f64 = 6_755_399_441_055_744.0;

/// The fixed-point quantization contract of the [`SampleEncoding::I16`]
/// encoding: `encoded = round(value / scale)`, clamped to the `i16` range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantization {
    /// Physical value of one integer step (finite and positive).
    pub scale: f64,
}

impl Quantization {
    /// A quantization with the given scale.
    ///
    /// # Errors
    ///
    /// Returns an error unless the scale is finite and positive.
    pub fn new(scale: f64) -> Result<Self> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(StoreError::FormatViolation {
                message: format!("quantization scale must be finite and positive, got {scale}"),
            });
        }
        Ok(Quantization { scale })
    }

    /// The scale under which values up to `max_abs` in magnitude encode
    /// without saturating (the campaign-planning constructor).
    ///
    /// # Errors
    ///
    /// Returns an error for a non-finite or negative magnitude.
    pub fn for_max_magnitude(max_abs: f64) -> Result<Self> {
        if !max_abs.is_finite() || max_abs < 0.0 {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "quantization magnitude must be finite and non-negative, got {max_abs}"
                ),
            });
        }
        // A zero-amplitude campaign still needs a positive scale.
        Quantization::new((max_abs / i16::MAX as f64).max(f64::MIN_POSITIVE))
    }

    /// Worst-case absolute error of one encoded sample inside the
    /// saturation-free range: half an integer step.
    pub fn max_error(&self) -> f64 {
        self.scale * 0.5
    }

    /// Largest magnitude that encodes without saturating.
    pub fn max_magnitude(&self) -> f64 {
        self.scale * i16::MAX as f64
    }

    /// `round(value / scale)`, clamped to the `i16` range, NaN to 0:
    /// bit for bit what `(value / scale).round() as i16` returns, without
    /// the libm `round` call or the saturating cast's branches, so loops
    /// over it vectorize (see the module docs for why it is exact).
    #[inline]
    fn quantize(&self, value: f64) -> i16 {
        let x = value / self.scale;
        // Clamping to integer bounds commutes with rounding, so this keeps
        // the cast's saturation; NaN encodes as 0 like the cast does.
        let c = if x.is_nan() {
            0.0
        } else {
            x.clamp(f64::from(i16::MIN), f64::from(i16::MAX))
        };
        // Round to nearest, ties to even; the integer lands in the low
        // mantissa bits of `t`.
        let t = c + ROUNDING_BIAS;
        let even = t.to_bits() as i16;
        // `d` is exactly ±0.5 on a tie; `round` breaks ties away from zero.
        let d = c - (t - ROUNDING_BIAS);
        even + i16::from((d == 0.5) & (c > 0.0)) - i16::from((d == -0.5) & (c < 0.0))
    }

    #[inline]
    fn dequantize(&self, q: i16) -> f64 {
        f64::from(q) * self.scale
    }

    /// Whether an encoded value sits at an `i16` range bound.  Every
    /// clamped sample lands there (so does a value that rounds exactly onto
    /// a bound, which makes the count an upper bound), and the test needs
    /// only the stored integer, so a count taken from the stored bytes
    /// equals the one the writer took.
    #[inline]
    fn at_bound(q: i16) -> bool {
        q == i16::MIN || q == i16::MAX
    }
}

/// How an archive stores its sample values on disk.  `F64` is the default
/// and keeps the byte-exact v1/v2 representation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SampleEncoding {
    /// Full-precision IEEE-754 doubles — lossless, 8 bytes per sample.
    #[default]
    F64,
    /// IEEE-754 single precision — 4 bytes per sample, relative error
    /// bounded by `f32::EPSILON`.
    F32,
    /// Fixed-point 16-bit integers under the recorded [`Quantization`] —
    /// 2 bytes per sample, absolute error bounded by
    /// [`Quantization::max_error`].
    I16(Quantization),
}

impl SampleEncoding {
    /// The on-disk encoding tag.
    pub fn code(self) -> u32 {
        match self {
            SampleEncoding::F64 => 0,
            SampleEncoding::F32 => 1,
            SampleEncoding::I16(_) => 2,
        }
    }

    /// Bytes one encoded sample occupies.
    pub fn width(self) -> usize {
        match self {
            SampleEncoding::F64 => 8,
            SampleEncoding::F32 => 4,
            SampleEncoding::I16(_) => 2,
        }
    }

    /// The quantization contract, for the fixed-point encoding.
    pub fn quantization(self) -> Option<Quantization> {
        match self {
            SampleEncoding::I16(q) => Some(q),
            _ => None,
        }
    }

    /// Worst-case absolute error of one encoded sample of magnitude up to
    /// `magnitude` (assuming the fixed-point encoding does not saturate).
    pub fn max_abs_error(self, magnitude: f64) -> f64 {
        match self {
            SampleEncoding::F64 => 0.0,
            SampleEncoding::F32 => magnitude.abs() * f64::from(f32::EPSILON),
            SampleEncoding::I16(q) => q.max_error(),
        }
    }

    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            SampleEncoding::F64 => "f64",
            SampleEncoding::F32 => "f32",
            SampleEncoding::I16(_) => "i16 fixed-point",
        }
    }

    /// Decodes the header's encoding tag and scale field.
    ///
    /// # Errors
    ///
    /// Returns a typed error for an unknown tag, a scale recorded for a
    /// non-quantized encoding, or an invalid scale.
    pub(crate) fn from_code(code: u32, scale_bits: u64) -> Result<Self> {
        match code {
            0 | 1 => {
                if scale_bits != 0 {
                    return Err(StoreError::CorruptHeader {
                        message: format!(
                            "non-quantized encoding {code} carries a quantization scale"
                        ),
                    });
                }
                Ok(if code == 0 {
                    SampleEncoding::F64
                } else {
                    SampleEncoding::F32
                })
            }
            2 => {
                let scale = f64::from_bits(scale_bits);
                let q = Quantization::new(scale).map_err(|_| StoreError::CorruptHeader {
                    message: format!("invalid quantization scale {scale}"),
                })?;
                Ok(SampleEncoding::I16(q))
            }
            other => Err(StoreError::CorruptHeader {
                message: format!("unknown sample encoding {other}"),
            }),
        }
    }

    /// The header's scale field for this encoding.
    pub(crate) fn scale_bits(self) -> u64 {
        match self {
            SampleEncoding::I16(q) => q.scale.to_bits(),
            _ => 0,
        }
    }

    /// Encodes the trace-major `samples` of `k` traces as fixed-width
    /// little-endian words, each written straight to its sample-major
    /// position in `layout` (see [`scatter_tiles`]).  Returns how many
    /// values the `i16` encoding stored at its range bounds (always 0 for
    /// the float encodings).
    fn encode_tiles(self, samples: &[f64], k: usize, layout: Layout, out: &mut [u8]) -> u64 {
        match self {
            SampleEncoding::F64 => scatter_tiles(samples, k, layout, out, |values, words| {
                for (word, &v) in words.iter_mut().zip(values) {
                    *word = v.to_le_bytes();
                }
                0
            }),
            SampleEncoding::F32 => scatter_tiles(samples, k, layout, out, |values, words| {
                for (word, &v) in words.iter_mut().zip(values) {
                    *word = (v as f32).to_le_bytes();
                }
                0
            }),
            SampleEncoding::I16(q) => scatter_tiles(samples, k, layout, out, |values, words| {
                // A narrow count keeps the loop's vector lanes narrow; a
                // block column holds far fewer than 2³² values.
                let mut saturated = 0u32;
                for (word, &v) in words.iter_mut().zip(values) {
                    let encoded = q.quantize(v);
                    saturated += u32::from(Quantization::at_bound(encoded));
                    *word = encoded.to_le_bytes();
                }
                u64::from(saturated)
            }),
        }
    }

    /// How many already-encoded-and-decoded `values` sit at the `i16`
    /// range bounds — the count [`encode_body`] returned when they were
    /// written (decoding and re-quantizing is exact).
    pub(crate) fn saturated_in(self, values: &[f64]) -> u64 {
        match self {
            SampleEncoding::I16(q) => values
                .iter()
                .map(|&v| u64::from(Quantization::at_bound(q.quantize(v))))
                .sum(),
            _ => 0,
        }
    }

    /// Decodes `out.len()` fixed-width values from `bytes`, which
    /// [`parse_body`] has checked to hold exactly `out.len() * width`.
    fn decode_samples(self, bytes: &[u8], out: &mut [f64]) {
        debug_assert_eq!(bytes.len(), out.len() * self.width());
        match self {
            SampleEncoding::F64 => {
                for (value, raw) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                    *value = f64::from_le_bytes(raw.try_into().expect("8 bytes"));
                }
            }
            SampleEncoding::F32 => {
                for (value, raw) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                    *value = f64::from(f32::from_le_bytes(raw.try_into().expect("4 bytes")));
                }
            }
            SampleEncoding::I16(q) => {
                for (value, raw) in out.iter_mut().zip(bytes.chunks_exact(2)) {
                    *value = q.dequantize(i16::from_le_bytes(raw.try_into().expect("2 bytes")));
                }
            }
        }
    }
}

/// Whether a chunk body is run through the shuffle compressor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Raw fixed-width body (the v1/v2 layout generalized to the encoding
    /// width).
    #[default]
    None,
    /// Delta/varint inputs + byte-shuffled, delta + zero-RLE sample planes.
    Shuffle,
}

impl Compression {
    /// The on-disk compression tag.
    pub fn code(self) -> u32 {
        match self {
            Compression::None => 0,
            Compression::Shuffle => 1,
        }
    }

    /// Decodes the header's compression tag.
    ///
    /// # Errors
    ///
    /// Returns a typed error for an unknown tag.
    pub(crate) fn from_code(code: u32) -> Result<Self> {
        match code {
            0 => Ok(Compression::None),
            1 => Ok(Compression::Shuffle),
            other => Err(StoreError::CorruptHeader {
                message: format!("unknown chunk compression {other}"),
            }),
        }
    }

    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Compression::None => "none",
            Compression::Shuffle => "shuffle+delta/varint",
        }
    }
}

/// Hard upper bound on an encoded chunk body for `k` traces: raw size plus
/// the compressor's bounded worst-case overhead.  The reader rejects any
/// chunk header announcing more before allocating.
pub(crate) fn max_body_len(
    k: usize,
    samples_per_trace: usize,
    encoding: SampleEncoding,
    compression: Compression,
) -> u64 {
    let raw = (k as u64) * 8 + (k as u64) * (samples_per_trace as u64) * (encoding.width() as u64);
    match compression {
        Compression::None => raw,
        // Worst case: varint inputs expand 8 → 10 bytes each, every sample
        // plane is one all-literal run (two varints ≤ 10 bytes each), plus
        // the 4-byte inputs-length prefix.
        Compression::Shuffle => raw + (k as u64) * 2 + 20 * encoding.width() as u64 + 4,
    }
}

/// Reusable scratch buffers of the chunk body encoder — one per writer, so
/// steady-state captures allocate nothing per chunk.
#[derive(Debug, Default)]
pub(crate) struct EncodeScratch {
    /// The shuffled byte planes of a compressed chunk: plane `p` holds
    /// byte `p` of every sample word, sample-major.
    planes: Vec<u8>,
    /// One plane's delta, the input of its zero-run coder.
    delta: Vec<u8>,
}

/// Encodes one chunk body (inputs + sample values) under the given
/// encoding and compression, appending to `out`.  `samples` holds the
/// `inputs.len()` traces trace-major, as the writer buffers them; the body
/// stores them sample-major.  Returns how many samples the `i16` encoding
/// stored at its range bounds.
pub(crate) fn encode_body(
    encoding: SampleEncoding,
    compression: Compression,
    inputs: &[u64],
    samples: &[f64],
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) -> u64 {
    let k = inputs.len();
    let values = samples.len();
    let width = encoding.width();
    match compression {
        Compression::None => {
            out.reserve(k * 8 + values * width);
            for &input in inputs {
                out.extend_from_slice(&input.to_le_bytes());
            }
            let start = out.len();
            out.resize(start + values * width, 0);
            encoding.encode_tiles(samples, k, Layout::Words, &mut out[start..])
        }
        Compression::Shuffle => {
            // [inputs_len: u32][delta/varint inputs][per-plane streams]
            let len_at = out.len();
            out.extend_from_slice(&[0u8; 4]);
            let mut prev = 0u64;
            for &input in inputs {
                put_varint(out, zigzag(input.wrapping_sub(prev) as i64));
                prev = input;
            }
            let inputs_len = (out.len() - len_at - 4) as u32;
            out[len_at..len_at + 4].copy_from_slice(&inputs_len.to_le_bytes());

            // Every byte is overwritten, so only a longer chunk than the
            // last one pays for zeroing.
            scratch.planes.resize(values * width, 0);
            scratch.delta.resize(values, 0);
            let saturated = encoding.encode_tiles(samples, k, Layout::Planes, &mut scratch.planes);
            for plane in 0..width {
                delta(
                    &scratch.planes[plane * values..(plane + 1) * values],
                    &mut scratch.delta,
                );
                encode_rle0(&scratch.delta, out);
            }
            saturated
        }
    }
}

/// Where [`scatter_tiles`] puts the encoded words of a chunk.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Whole words, sample-major: the uncompressed body.
    Words,
    /// Byte `p` of every word in plane `p`, each plane sample-major: the
    /// shuffle compressor's input.
    Planes,
}

/// Columns of the trace-major buffer [`scatter_tiles`] encodes per tile.
const TILE: usize = 8;
/// Traces per block of a tile: a block's values and encoded words (at most
/// 8 KiB) stay in L1 from being read to being stored.
const BLOCK: usize = 64;

/// Encodes `samples` (`k` traces, trace-major) in one pass over tiles of
/// [`TILE`] columns × all traces.  Each tile is walked [`BLOCK`] traces at
/// a time: the block's values are gathered column by column, `encode` turns
/// each column into `W`-byte words (a contiguous run, so its loop
/// vectorizes), and the words are stored at their sample-major position in
/// `layout` — whole words, or byte `p` of each word to plane `p`.  The
/// stores of a block are `TILE × W` sequential streams, none of which
/// aliases the others in L1 the way a row-order pass over columns `k`
/// values apart does.  Returns the sum of `encode`'s counts.
fn scatter_tiles<const W: usize>(
    samples: &[f64],
    k: usize,
    layout: Layout,
    out: &mut [u8],
    encode: impl Fn(&[f64], &mut [[u8; W]]) -> u64,
) -> u64 {
    if k == 0 {
        return 0;
    }
    let values = samples.len();
    let columns = values / k;
    debug_assert_eq!(columns * k, values);
    debug_assert_eq!(out.len(), values * W);
    let mut saturated = 0;
    let mut gathered = [[0.0; BLOCK]; TILE];
    let mut words = [[0u8; W]; BLOCK];
    for first in (0..columns).step_by(TILE) {
        let tile = TILE.min(columns - first);
        for start in (0..k).step_by(BLOCK) {
            let rows = BLOCK.min(k - start);
            let traces = samples[start * columns..(start + rows) * columns].chunks_exact(columns);
            for (r, trace) in traces.enumerate() {
                for (column, &v) in gathered.iter_mut().zip(&trace[first..first + tile]) {
                    column[r] = v;
                }
            }
            for (s, column) in (first..).zip(&gathered[..tile]) {
                let words = &mut words[..rows];
                saturated += encode(&column[..rows], words);
                // The block's first value in the sample-major order.
                let i = s * k + start;
                match layout {
                    Layout::Words => {
                        out[i * W..(i + rows) * W].copy_from_slice(words.as_flattened());
                    }
                    Layout::Planes => {
                        for (p, plane) in out.chunks_exact_mut(values).enumerate() {
                            for (byte, word) in plane[i..i + rows].iter_mut().zip(&*words) {
                                *byte = word[p];
                            }
                        }
                    }
                }
            }
        }
    }
    saturated
}

/// Decodes one chunk body into `inputs` (cleared and refilled) and the
/// exactly-sized sample-major `samples` buffer.
///
/// # Errors
///
/// Returns a typed [`StoreError::FormatViolation`] for any malformed body:
/// wrong length, truncated or oversized varint streams, or trailing bytes.
pub(crate) fn decode_body(
    encoding: SampleEncoding,
    compression: Compression,
    k: usize,
    body: &[u8],
    inputs: &mut Vec<u64>,
    samples: &mut [f64],
    scratch: &mut Vec<u8>,
) -> Result<()> {
    inputs.clear();
    inputs.reserve(k);
    let values = samples.len();
    let mut sink = Decode {
        encoding,
        inputs,
        samples,
        planes: scratch,
    };
    parse_body(encoding.width(), compression, k, values, body, &mut sink)
}

/// Checks one chunk body of `k` traces and `values` samples exactly as
/// [`decode_body`] does — it runs the same parser — but keeps nothing: no
/// input, no plane byte and no sample is written.  `Ok` here is `Ok` from
/// the decoder, and an error carries the decoder's message.
///
/// # Errors
///
/// The [`StoreError::FormatViolation`] [`decode_body`] returns for `body`.
pub(crate) fn validate_body(
    encoding: SampleEncoding,
    compression: Compression,
    k: usize,
    values: usize,
    body: &[u8],
) -> Result<()> {
    parse_body(encoding.width(), compression, k, values, body, &mut Discard)
}

/// Where [`parse_body`] puts what it reads.  The decoder ([`Decode`]) keeps
/// every input and plane byte; the validator ([`Discard`]) keeps none.
/// Both run the one parser, so every structural check exists once.
trait BodySink {
    /// The next input, in trace order.
    fn input(&mut self, input: u64);
    /// The sample words of an uncompressed body, their length checked.
    fn words(&mut self, words: &[u8]);
    /// A compressed body's planes begin; they hold `len` bytes in all.
    fn begin_planes(&mut self, len: usize);
    /// One zero-run group: `zeros` zero bytes, then `literals`, from byte
    /// `at` of the concatenated planes (the group fits its plane).
    fn run(&mut self, at: usize, zeros: usize, literals: &[u8]);
    /// Every plane is complete and the stream has no trailing bytes.
    fn end_planes(&mut self);
}

/// The decoding [`BodySink`]: inputs into `inputs`, planes into the
/// `planes` scratch, values into `samples`.
struct Decode<'a> {
    encoding: SampleEncoding,
    inputs: &'a mut Vec<u64>,
    samples: &'a mut [f64],
    planes: &'a mut Vec<u8>,
}

impl BodySink for Decode<'_> {
    #[inline]
    fn input(&mut self, input: u64) {
        self.inputs.push(input);
    }

    fn words(&mut self, words: &[u8]) {
        self.encoding.decode_samples(words, self.samples);
    }

    fn begin_planes(&mut self, len: usize) {
        self.planes.clear();
        self.planes.resize(len, 0);
    }

    #[inline]
    fn run(&mut self, at: usize, zeros: usize, literals: &[u8]) {
        self.planes[at..at + zeros].fill(0);
        self.planes[at + zeros..at + zeros + literals.len()].copy_from_slice(literals);
    }

    fn end_planes(&mut self) {
        let (planes, samples) = (&*self.planes, &mut *self.samples);
        match self.encoding {
            SampleEncoding::F64 => unshuffle::<8>(planes, samples, f64::from_le_bytes),
            SampleEncoding::F32 => unshuffle::<4>(planes, samples, |bytes| {
                f64::from(f32::from_le_bytes(bytes))
            }),
            SampleEncoding::I16(q) => unshuffle::<2>(planes, samples, |bytes| {
                q.dequantize(i16::from_le_bytes(bytes))
            }),
        }
    }
}

/// The validating [`BodySink`]: discards everything.
struct Discard;

impl BodySink for Discard {
    #[inline]
    fn input(&mut self, _: u64) {}
    fn words(&mut self, _: &[u8]) {}
    fn begin_planes(&mut self, _: usize) {}
    #[inline]
    fn run(&mut self, _: usize, _: usize, _: &[u8]) {}
    fn end_planes(&mut self) {}
}

/// Parses one chunk body of `k` traces and `values` samples of `width`
/// bytes, checking every length, varint and run group and handing what it
/// reads to `sink`.  The one structural parser of a chunk body.
fn parse_body<S: BodySink>(
    width: usize,
    compression: Compression,
    k: usize,
    values: usize,
    body: &[u8],
    sink: &mut S,
) -> Result<()> {
    match compression {
        Compression::None => {
            let input_bytes = k * 8;
            if body.len() < input_bytes {
                return Err(violation("chunk body ends inside the input block"));
            }
            let (inputs, words) = body.split_at(input_bytes);
            if words.len() != values * width {
                return Err(StoreError::FormatViolation {
                    message: format!(
                        "sample block holds {} bytes, expected {} ({values} values × {width} bytes)",
                        words.len(),
                        values * width,
                    ),
                });
            }
            for raw in inputs.chunks_exact(8) {
                sink.input(u64::from_le_bytes(raw.try_into().expect("8 bytes")));
            }
            sink.words(words);
        }
        Compression::Shuffle => {
            if body.len() < 4 {
                return Err(violation("compressed chunk body shorter than its prefix"));
            }
            let inputs_len = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
            let Some(planes) = body.len().checked_sub(4 + inputs_len) else {
                return Err(violation("compressed input block overruns the chunk body"));
            };
            let input_stream = &body[4..4 + inputs_len];
            let mut pos = 0usize;
            let mut prev = 0u64;
            for _ in 0..k {
                let delta = unzigzag(get_varint(input_stream, &mut pos)?);
                prev = prev.wrapping_add(delta as u64);
                sink.input(prev);
            }
            if pos != input_stream.len() {
                return Err(violation("trailing bytes after the compressed input block"));
            }

            let plane_stream = &body[body.len() - planes..];
            sink.begin_planes(values * width);
            let mut pos = 0usize;
            for plane in 0..width {
                parse_rle0(plane_stream, &mut pos, plane * values, values, sink)?;
            }
            if pos != plane_stream.len() {
                return Err(violation("trailing bytes after the sample planes"));
            }
            sink.end_planes();
        }
    }
    Ok(())
}

/// Rebuilds `out.len()` values of `W` bytes from their delta-coded byte
/// planes (plane `p` holds byte `p` of every value, stored at
/// `planes[p * out.len()..]`) in one pass: the W planes are prefix-summed
/// together, and each value's little-endian bytes are decoded as soon as
/// they are complete.
fn unshuffle<const W: usize>(planes: &[u8], out: &mut [f64], decode: impl Fn([u8; W]) -> f64) {
    let values = out.len();
    let rows: [&[u8]; W] = std::array::from_fn(|p| &planes[p * values..(p + 1) * values]);
    let mut bytes = [0u8; W];
    for (i, value) in out.iter_mut().enumerate() {
        for (byte, row) in bytes.iter_mut().zip(&rows) {
            *byte = byte.wrapping_add(row[i]);
        }
        *value = decode(bytes);
    }
}

fn violation(message: &str) -> StoreError {
    StoreError::FormatViolation {
        message: message.into(),
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    let mut bytes = [0u8; 10];
    let mut len = 0;
    while v >= 0x80 {
        bytes[len] = (v & 0x7F) as u8 | 0x80;
        v >>= 7;
        len += 1;
    }
    bytes[len] = v as u8;
    out.extend_from_slice(&bytes[..=len]);
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut value = 0u64;
    for shift in 0..10 {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(violation("varint stream truncated"));
        };
        *pos += 1;
        let payload = u64::from(byte & 0x7F);
        if shift == 9 && byte > 0x01 {
            return Err(violation("varint exceeds 64 bits"));
        }
        value |= payload << (shift * 7);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(violation("varint longer than 10 bytes"))
}

/// Wrapping delta of a byte plane into `out` (first byte kept raw).  Not in
/// place, so the loop carries no dependency and vectorizes.
fn delta(plane: &[u8], out: &mut [u8]) {
    let (Some(&first), Some(head)) = (plane.first(), out.first_mut()) else {
        return;
    };
    *head = first;
    for ((d, &current), &prev) in out[1..].iter_mut().zip(&plane[1..]).zip(plane) {
        *d = current.wrapping_sub(prev);
    }
}

const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// The index of the first byte at or after `i` for which `stop` holds (or
/// `bytes.len()`), testing 8 bytes at a time: `hits` maps a little-endian
/// word to a mask whose lowest set bit lies in its first stopping byte.
#[inline]
fn scan(bytes: &[u8], mut i: usize, hits: fn(u64) -> u64, stop: fn(u8) -> bool) -> usize {
    while let Some(word) = bytes.get(i..i + 8) {
        let mask = hits(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        if mask != 0 {
            return i + (mask.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < bytes.len() && !stop(bytes[i]) {
        i += 1;
    }
    i
}

/// The first zero byte at or after `i`.  The SWAR zero-byte test can flag
/// bytes above a true zero, never below one, so its lowest flag is exact.
#[inline]
fn next_zero(bytes: &[u8], i: usize) -> usize {
    scan(
        bytes,
        i,
        |w| w.wrapping_sub(LOW_BITS) & !w & HIGH_BITS,
        |b| b == 0,
    )
}

/// The first non-zero byte at or after `i`.
#[inline]
fn next_nonzero(bytes: &[u8], i: usize) -> usize {
    scan(bytes, i, |w| w, |b| b != 0)
}

/// Zero-run-length codes one delta plane as `(zero_run, literal_run,
/// literal bytes)` groups.  Runs of at least four zeros are worth a group
/// boundary; shorter ones ride inside literals.
fn encode_rle0(plane: &[u8], out: &mut Vec<u8>) {
    const MIN_ZERO_RUN: usize = 4;
    let len = plane.len();
    let mut i = 0;
    while i < len {
        let zero_start = i;
        i = next_nonzero(plane, i);
        let zeros = i - zero_start;
        let literal_start = i;
        loop {
            // Extend the literal run until a worthwhile zero run or the end.
            i = next_zero(plane, i);
            let mut z = i;
            while z < len && z - i < MIN_ZERO_RUN && plane[z] == 0 {
                z += 1;
            }
            if z - i < MIN_ZERO_RUN && z < len {
                i = z;
                continue;
            }
            break;
        }
        put_varint(out, zeros as u64);
        put_varint(out, (i - literal_start) as u64);
        out.extend_from_slice(&plane[literal_start..i]);
    }
}

/// Parses one zero-RLE plane of exactly `len` bytes, advancing `pos`
/// through the shared plane stream; the plane starts at byte `at` of the
/// concatenated planes.
fn parse_rle0<S: BodySink>(
    bytes: &[u8],
    pos: &mut usize,
    at: usize,
    len: usize,
    sink: &mut S,
) -> Result<()> {
    let mut produced = 0usize;
    while produced < len {
        let zeros = get_varint(bytes, pos)? as usize;
        let literals = get_varint(bytes, pos)? as usize;
        if zeros == 0 && literals == 0 {
            return Err(violation("empty run group in a sample plane"));
        }
        let total = zeros
            .checked_add(literals)
            .ok_or_else(|| violation("run group length overflows"))?;
        if total > len - produced {
            return Err(violation("run group overruns its sample plane"));
        }
        let Some(literal_bytes) = bytes.get(*pos..*pos + literals) else {
            return Err(violation("literal run truncated"));
        };
        sink.run(at + produced, zeros, literal_bytes);
        *pos += literals;
        produced += total;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(
        encoding: SampleEncoding,
        compression: Compression,
        inputs: &[u64],
        samples: &[f64],
    ) -> (Vec<u64>, Vec<f64>, usize) {
        let mut body = Vec::new();
        let mut scratch = EncodeScratch::default();
        encode_body(
            encoding,
            compression,
            inputs,
            samples,
            &mut scratch,
            &mut body,
        );
        assert!(
            body.len() as u64
                <= max_body_len(
                    inputs.len(),
                    samples.len() / inputs.len().max(1),
                    encoding,
                    compression
                ),
            "body {} over bound",
            body.len()
        );
        let mut out_inputs = Vec::new();
        let mut sample_major = vec![0.0; samples.len()];
        let mut scratch = Vec::new();
        decode_body(
            encoding,
            compression,
            inputs.len(),
            &body,
            &mut out_inputs,
            &mut sample_major,
            &mut scratch,
        )
        .unwrap();
        // The body is sample-major; hand the values back trace-major, the
        // layout they were encoded from.
        let k = inputs.len();
        let columns = samples.len() / k;
        let out_samples = (0..samples.len())
            .map(|i| sample_major[(i % columns) * k + i / columns])
            .collect();
        (out_inputs, out_samples, body.len())
    }

    fn noisy_samples(count: usize) -> Vec<f64> {
        // Deterministic xorshift noise around a smooth baseline, the shape
        // of a real trace column.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..count)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                1.0 + (i as f64 * 0.01).sin() * 0.25 + noise * 0.01
            })
            .collect()
    }

    /// A [`BodySink`] that keeps the parsed inputs and the delta-coded
    /// planes as they are, for the oracles below.
    #[derive(Default)]
    struct Collect {
        inputs: Vec<u64>,
        planes: Vec<u8>,
    }

    impl BodySink for Collect {
        fn input(&mut self, input: u64) {
            self.inputs.push(input);
        }
        fn words(&mut self, _: &[u8]) {}
        fn begin_planes(&mut self, len: usize) {
            self.planes = vec![0xEE; len];
        }
        fn run(&mut self, at: usize, zeros: usize, literals: &[u8]) {
            self.planes[at..at + zeros].fill(0);
            self.planes[at + zeros..at + zeros + literals.len()].copy_from_slice(literals);
        }
        fn end_planes(&mut self) {}
    }

    /// The two-pass shuffle decode that [`unshuffle`] fuses: undo the
    /// delta along each plane, scatter the planes into value-major raw
    /// bytes, then decode the fixed-width values (test oracle).
    fn reference_decode_planes(encoding: SampleEncoding, k: usize, body: &[u8], out: &mut [f64]) {
        let (width, values) = (encoding.width(), out.len());
        let mut parsed = Collect::default();
        parse_body(width, Compression::Shuffle, k, values, body, &mut parsed).unwrap();
        let mut planes = parsed.planes;
        for plane_out in planes.chunks_exact_mut(values) {
            let mut prev = 0u8;
            for b in plane_out.iter_mut() {
                prev = prev.wrapping_add(*b);
                *b = prev;
            }
        }
        let mut raw = vec![0u8; values * width];
        for plane in 0..width {
            for i in 0..values {
                raw[i * width + plane] = planes[plane * values + i];
            }
        }
        encoding.decode_samples(&raw, out);
    }

    #[test]
    fn fused_unshuffle_is_bit_identical_to_the_two_pass_decode() {
        let q = Quantization::for_max_magnitude(2.0).unwrap();
        // Exactly at the saturation-free range bounds and far beyond them,
        // so the i16 planes carry i16::MIN, -i16::MAX and i16::MAX.
        let extremes = [q.max_magnitude(), -q.max_magnitude(), 1e9, -1e9];
        for encoding in [
            SampleEncoding::F64,
            SampleEncoding::F32,
            SampleEncoding::I16(q),
        ] {
            for k in [1usize, 7, 1023, 1024] {
                let inputs: Vec<u64> = (0..k as u64).map(|i| (i * 5) % 16).collect();
                let mut samples = noisy_samples(k * 3);
                for (slot, &extreme) in samples.iter_mut().step_by(5).zip(extremes.iter().cycle()) {
                    *slot = extreme;
                }
                let mut body = Vec::new();
                encode_body(
                    encoding,
                    Compression::Shuffle,
                    &inputs,
                    &samples,
                    &mut EncodeScratch::default(),
                    &mut body,
                );
                let mut fused_inputs = Vec::new();
                let mut fused = vec![0.0; samples.len()];
                decode_body(
                    encoding,
                    Compression::Shuffle,
                    k,
                    &body,
                    &mut fused_inputs,
                    &mut fused,
                    &mut Vec::new(),
                )
                .unwrap();
                let mut reference = vec![0.0; samples.len()];
                reference_decode_planes(encoding, k, &body, &mut reference);
                assert_eq!(fused_inputs, inputs);
                assert_eq!(
                    fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{encoding:?} k={k}"
                );
                if let (SampleEncoding::I16(q), true) = (encoding, k >= 7) {
                    for bound in [i16::MIN, -i16::MAX, i16::MAX] {
                        assert!(fused.contains(&q.dequantize(bound)), "k={k} {bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn f64_round_trips_exactly_in_both_compressions() {
        let inputs: Vec<u64> = (0..96).map(|i| i % 16).collect();
        let samples = noisy_samples(96 * 3);
        for compression in [Compression::None, Compression::Shuffle] {
            let (in2, s2, _) = round_trip(SampleEncoding::F64, compression, &inputs, &samples);
            assert_eq!(in2, inputs);
            assert_eq!(
                s2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                samples.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{compression:?}"
            );
        }
    }

    #[test]
    fn f32_round_trips_to_single_precision() {
        let inputs: Vec<u64> = (0..64).collect();
        let samples = noisy_samples(64 * 2);
        for compression in [Compression::None, Compression::Shuffle] {
            let (in2, s2, _) = round_trip(SampleEncoding::F32, compression, &inputs, &samples);
            assert_eq!(in2, inputs);
            for (a, b) in s2.iter().zip(&samples) {
                assert_eq!(*a, f64::from(*b as f32), "{compression:?}");
            }
        }
    }

    #[test]
    fn i16_round_trips_within_the_documented_error_bound() {
        let q = Quantization::for_max_magnitude(2.0).unwrap();
        let encoding = SampleEncoding::I16(q);
        let inputs: Vec<u64> = (0..64).map(|i| (i * 7) % 16).collect();
        let samples = noisy_samples(64 * 2);
        for compression in [Compression::None, Compression::Shuffle] {
            let (in2, s2, _) = round_trip(encoding, compression, &inputs, &samples);
            assert_eq!(in2, inputs);
            for (a, b) in s2.iter().zip(&samples) {
                assert!(
                    (a - b).abs() <= q.max_error(),
                    "{compression:?}: {a} vs {b} (bound {})",
                    q.max_error()
                );
            }
        }
    }

    #[test]
    fn i16_saturates_outside_the_contract_range() {
        let q = Quantization::new(0.001).unwrap();
        assert_eq!(q.quantize(1e9), i16::MAX);
        assert_eq!(q.quantize(-1e9), i16::MIN);
        assert_eq!(q.quantize(f64::NAN), 0);
        assert!(q.max_magnitude() < 33.0);
    }

    /// The quantizer's definition, through libm `round` and the saturating
    /// cast (test oracle).
    fn reference_quantize(q: Quantization, value: f64) -> i16 {
        (value / q.scale).round() as i16
    }

    /// Power-of-two steps (where `(k + ½) · scale` is an exact tie), the
    /// planning constructor's step and two arbitrary ones.
    fn oracle_scales() -> Vec<Quantization> {
        [1.0, 0.0625, 2f64.powi(-20), 1e-3, 7.3e-5]
            .into_iter()
            .map(|scale| Quantization::new(scale).unwrap())
            .chain([Quantization::for_max_magnitude(3.0).unwrap()])
            .collect()
    }

    #[test]
    fn quantize_matches_round_on_every_tie_and_its_neighbours() {
        for q in oracle_scales() {
            for k in -40_000i32..40_000 {
                let tie = (f64::from(k) + 0.5) * q.scale;
                let on_grid = f64::from(k) * q.scale;
                for value in [
                    tie,
                    f64::from_bits(tie.to_bits() + 1),
                    f64::from_bits(tie.to_bits() - 1),
                    on_grid,
                    -on_grid,
                ] {
                    assert_eq!(
                        q.quantize(value),
                        reference_quantize(q, value),
                        "value {value:e}, scale {:e}",
                        q.scale
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn quantize_matches_round_on_arbitrary_values(
            bits in 0u64..u64::MAX,
            in_range in -50_000.0f64..50_000.0,
        ) {
            // Every bit pattern (NaN, ±∞, subnormals, huge) and values
            // around the integer range, at every scale.
            for q in oracle_scales() {
                for value in [f64::from_bits(bits), in_range * q.scale, in_range] {
                    // The scale and value bits ride along for the
                    // diagnostics (bits, so a NaN compares equal).
                    let case = (q.scale, value.to_bits());
                    proptest::prop_assert_eq!(
                        (case, q.quantize(value)),
                        (case, reference_quantize(q, value))
                    );
                }
            }
        }
    }

    #[test]
    fn shuffle_compresses_nibble_inputs_and_smooth_samples() {
        let inputs: Vec<u64> = (0..512).map(|i| i % 16).collect();
        let samples = noisy_samples(512);
        let q = Quantization::for_max_magnitude(2.0).unwrap();
        let (_, _, compact) = round_trip(
            SampleEncoding::I16(q),
            Compression::Shuffle,
            &inputs,
            &samples,
        );
        let (_, _, raw) = round_trip(SampleEncoding::F64, Compression::None, &inputs, &samples);
        assert!(
            compact * 2 <= raw,
            "compressed i16 body {compact} not ≥2× smaller than raw f64 {raw}"
        );
    }

    #[test]
    fn corrupt_compressed_bodies_fail_typed() {
        let inputs: Vec<u64> = (0..32).map(|i| i % 16).collect();
        let samples = noisy_samples(32);
        let mut body = Vec::new();
        let mut scratch = EncodeScratch::default();
        encode_body(
            SampleEncoding::F32,
            Compression::Shuffle,
            &inputs,
            &samples,
            &mut scratch,
            &mut body,
        );
        // Truncations and trailing garbage are violations, never panics.
        let decode = |bytes: &[u8]| {
            let mut i = Vec::new();
            let mut s = vec![0.0; samples.len()];
            let mut scratch = Vec::new();
            decode_body(
                SampleEncoding::F32,
                Compression::Shuffle,
                inputs.len(),
                bytes,
                &mut i,
                &mut s,
                &mut scratch,
            )
        };
        for cut in [0, 1, 3, body.len() / 2, body.len() - 1] {
            assert!(
                matches!(
                    decode(&body[..cut]),
                    Err(StoreError::FormatViolation { .. })
                ),
                "cut {cut}"
            );
        }
        let mut extended = body.clone();
        extended.push(0xAB);
        assert!(matches!(
            decode(&extended),
            Err(StoreError::FormatViolation { .. })
        ));
    }

    /// The validator and the decoder agree — `Ok` together, or the same
    /// error message — on every encoding × compression body and on every
    /// single-byte change and truncation of it.
    #[test]
    fn validator_agrees_with_the_decoder_on_every_flip_and_truncation() {
        let q = Quantization::for_max_magnitude(2.0).unwrap();
        let k = 12;
        let inputs: Vec<u64> = (0..k as u64).map(|i| (i * 5) % 16).collect();
        // A constant column (zero-run groups in every plane) beside a
        // noisy one (literal runs), trace-major.
        let noise = noisy_samples(k);
        let samples: Vec<f64> = noise.iter().flat_map(|&v| [0.75, v]).collect();
        let decode = |encoding, compression, body: &[u8]| {
            let mut values = vec![0.0; samples.len()];
            decode_body(
                encoding,
                compression,
                k,
                body,
                &mut Vec::new(),
                &mut values,
                &mut Vec::new(),
            )
            .map_err(|e| e.to_string())
        };
        let validate = |encoding, compression, body: &[u8]| {
            validate_body(encoding, compression, k, samples.len(), body).map_err(|e| e.to_string())
        };
        for encoding in [
            SampleEncoding::F64,
            SampleEncoding::F32,
            SampleEncoding::I16(q),
        ] {
            for compression in [Compression::None, Compression::Shuffle] {
                let mut body = Vec::new();
                encode_body(
                    encoding,
                    compression,
                    &inputs,
                    &samples,
                    &mut EncodeScratch::default(),
                    &mut body,
                );
                assert_eq!(validate(encoding, compression, &body), Ok(()));
                let mut failures = 0;
                let mut check = |bytes: &[u8], case: &str| {
                    let decoded = decode(encoding, compression, bytes);
                    failures += usize::from(decoded.is_err());
                    assert_eq!(
                        validate(encoding, compression, bytes),
                        decoded,
                        "{encoding:?}/{compression:?}: {case}"
                    );
                };
                for cut in 0..body.len() {
                    check(&body[..cut], &format!("cut at {cut}"));
                }
                let mut changed = body.clone();
                for at in 0..body.len() {
                    for mask in 1..=u8::MAX {
                        changed[at] = body[at] ^ mask;
                        check(&changed, &format!("byte {at} ^ {mask:#04x}"));
                    }
                    changed[at] = body[at];
                }
                // Every cut fails, and in a compressed body so do some flips.
                let cuts = body.len();
                let floor = if compression == Compression::None {
                    cuts
                } else {
                    cuts + 1
                };
                assert!(failures >= floor, "{encoding:?}/{compression:?}");
            }
        }
    }

    #[test]
    fn varints_round_trip_and_reject_overlong_streams() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            out.clear();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
        let overlong = [0xFFu8; 11];
        let mut pos = 0;
        assert!(get_varint(&overlong, &mut pos).is_err());
        assert_eq!(unzigzag(zigzag(-5)), -5);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }

    #[test]
    fn invalid_quantizations_are_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(Quantization::new(bad).is_err());
        }
        assert!(Quantization::for_max_magnitude(f64::NAN).is_err());
        // Zero magnitude still yields a usable (tiny) positive scale.
        let q = Quantization::for_max_magnitude(0.0).unwrap();
        assert!(q.scale > 0.0);
    }

    #[test]
    fn encoding_codes_round_trip_and_reject_mismatched_scales() {
        let q = Quantization::new(0.5).unwrap();
        for encoding in [
            SampleEncoding::F64,
            SampleEncoding::F32,
            SampleEncoding::I16(q),
        ] {
            let decoded =
                SampleEncoding::from_code(encoding.code(), encoding.scale_bits()).unwrap();
            assert_eq!(decoded, encoding);
            assert!(!encoding.label().is_empty());
        }
        assert!(SampleEncoding::from_code(9, 0).is_err());
        assert!(SampleEncoding::from_code(0, 1.0f64.to_bits()).is_err());
        assert!(SampleEncoding::from_code(2, 0).is_err());
        assert!(SampleEncoding::from_code(2, f64::NAN.to_bits()).is_err());
        for compression in [Compression::None, Compression::Shuffle] {
            assert_eq!(
                Compression::from_code(compression.code()).unwrap(),
                compression
            );
            assert!(!compression.label().is_empty());
        }
        assert!(Compression::from_code(7).is_err());
    }
}
