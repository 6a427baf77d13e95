//! Sharded multi-archive campaigns.
//!
//! A **campaign manifest** names an ordered list of shard archives, each
//! holding a contiguous global trace range, and a [`ShardedReader`] presents
//! them as one chunk stream in global trace order.  The manifest enforces
//! one structural rule that makes bit-identity *trivial* instead of subtle:
//! every shard except the last must hold a **multiple of `chunk_traces`**
//! traces.  Under that rule the concatenation of the shards' chunk streams
//! is exactly the chunk stream a single archive of the same campaign would
//! hold — same chunk boundaries, same trace order — so any fold that is
//! bit-identical over a single archive is bit-identical over the shards
//! with no per-accumulator reasoning at all.
//!
//! The manifest is a small JSON document (rendered with the workspace's
//! zero-dependency [`dpl_obs::Json`]) carrying a campaign digest over the
//! shard table; [`CampaignManifest::load`] recomputes and checks it, so a
//! manifest that lost or reordered a shard entry fails loudly before any
//! trace is read.

use std::fmt::Write as _;
use std::fs;
use std::io::{BufReader, Read};
use std::path::{Component, Path, PathBuf};

use dpl_obs::{names, Json, Obs};
use dpl_power::TraceSet;

use crate::error::{Result, StoreError};
use crate::fault::RetryPolicy;
use crate::fold::worker_count;
use crate::format::{fnv1a64, ArchiveMeta};
use crate::reader::{ArchiveReader, ChunkSource};
use crate::salvage::{DamageReport, ReadPolicy};

/// Self-identifying document kind recorded in every manifest.
pub const MANIFEST_KIND: &str = "dpl-campaign";
/// Manifest schema version.
pub const MANIFEST_VERSION: u64 = 1;

/// One shard entry of a campaign manifest: a relative archive path plus the
/// contiguous global trace range it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Archive path, relative to the manifest file's directory.
    pub path: String,
    /// Traces held by this shard.
    pub traces: u64,
    /// Global index of this shard's first trace.
    pub start: u64,
}

/// Ordered shard table plus campaign-level facts a reader cannot derive
/// from the shards alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignManifest {
    shards: Vec<ShardMeta>,
    /// Distinct inputs across the *whole* campaign (0 = unknown or over the
    /// class-aggregation limit).  Per-shard headers record per-shard
    /// distinct counts, whose union is not derivable from counts alone —
    /// and the profile choice changes accumulation order, so it must match
    /// what a single archive of the campaign would record.
    distinct_inputs: u32,
    digest: u64,
}

impl CampaignManifest {
    /// Builds a manifest from an ordered shard table.
    ///
    /// `distinct_inputs` is the campaign-wide distinct input count exactly
    /// as a single archive of the same campaign would record it (0 when
    /// unknown or over the limit).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::FormatViolation`] when the table is empty or
    /// the ranges are not contiguous from zero, and
    /// [`StoreError::UnsafeShardPath`] for a shard path that could leave
    /// the manifest's directory.
    pub fn new(shards: Vec<ShardMeta>, distinct_inputs: u32) -> Result<Self> {
        if shards.is_empty() {
            return Err(StoreError::FormatViolation {
                message: "campaign manifest needs at least one shard".into(),
            });
        }
        let mut next = 0u64;
        for (index, shard) in shards.iter().enumerate() {
            if !is_contained(&shard.path) {
                return Err(StoreError::UnsafeShardPath {
                    index,
                    path: shard.path.clone(),
                });
            }
            if shard.start != next {
                return Err(StoreError::FormatViolation {
                    message: format!(
                        "shard {index} ({path}) starts at trace {got}, expected {next}",
                        path = shard.path,
                        got = shard.start,
                    ),
                });
            }
            next = next
                .checked_add(shard.traces)
                .ok_or_else(|| StoreError::FormatViolation {
                    message: format!(
                        "shard {index} ({path}) overflows the global trace range",
                        path = shard.path,
                    ),
                })?;
        }
        let digest = manifest_digest(&shards, distinct_inputs);
        Ok(Self {
            shards,
            distinct_inputs,
            digest,
        })
    }

    /// The ordered shard table.
    pub fn shards(&self) -> &[ShardMeta] {
        &self.shards
    }

    /// Total traces across all shards.
    pub fn total_traces(&self) -> u64 {
        self.shards.iter().map(|s| s.traces).sum()
    }

    /// Campaign-wide distinct input count, or `None` when unknown/over the
    /// class-aggregation limit.
    pub fn distinct_inputs(&self) -> Option<usize> {
        match self.distinct_inputs {
            0 => None,
            n => Some(n as usize),
        }
    }

    /// FNV-1a 64 digest over the shard table and campaign facts.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Renders the manifest as its canonical JSON document.
    pub fn to_json(&self) -> Json {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                Json::object(vec![
                    ("path", Json::str(&s.path)),
                    ("traces", Json::U64(s.traces)),
                    ("start", Json::U64(s.start)),
                ])
            })
            .collect();
        Json::object(vec![
            ("kind", Json::str(MANIFEST_KIND)),
            ("version", Json::U64(MANIFEST_VERSION)),
            (
                "distinct_inputs",
                Json::U64(u64::from(self.distinct_inputs)),
            ),
            ("shards", Json::Array(shards)),
            ("digest", Json::U64(self.digest)),
        ])
    }

    /// Parses and validates a manifest from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::FormatViolation`] for malformed JSON, a wrong
    /// kind/version, a non-contiguous shard table, or a digest mismatch, and
    /// [`StoreError::UnsafeShardPath`] for a shard path that could leave
    /// the manifest's directory.
    pub fn from_json(text: &str) -> Result<Self> {
        let doc = Json::parse(text).map_err(|e| StoreError::FormatViolation {
            message: format!("campaign manifest is not valid JSON: {e}"),
        })?;
        let kind = doc.field("kind").and_then(Json::as_str).unwrap_or("");
        if kind != MANIFEST_KIND {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "not a campaign manifest (kind {kind:?}, expected {MANIFEST_KIND:?})"
                ),
            });
        }
        let version = field_u64(&doc, "version")?;
        if version != MANIFEST_VERSION {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "unsupported campaign manifest version {version} (expected {MANIFEST_VERSION})"
                ),
            });
        }
        let distinct = field_u64(&doc, "distinct_inputs")?;
        let distinct = u32::try_from(distinct).map_err(|_| StoreError::FormatViolation {
            message: format!("campaign distinct_inputs {distinct} exceeds u32"),
        })?;
        let Some(Json::Array(entries)) = doc.field("shards") else {
            return Err(StoreError::FormatViolation {
                message: "campaign manifest is missing its shard table".into(),
            });
        };
        let mut shards = Vec::with_capacity(entries.len());
        for (index, entry) in entries.iter().enumerate() {
            let path = entry.field("path").and_then(Json::as_str).ok_or_else(|| {
                StoreError::FormatViolation {
                    message: format!("shard {index} entry is missing its path"),
                }
            })?;
            shards.push(ShardMeta {
                path: path.to_owned(),
                traces: field_u64(entry, "traces")?,
                start: field_u64(entry, "start")?,
            });
        }
        let recorded = field_u64(&doc, "digest")?;
        let manifest = Self::new(shards, distinct)?;
        if manifest.digest != recorded {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "campaign digest mismatch: manifest records {recorded:#018x}, \
                     shard table hashes to {:#018x}",
                    manifest.digest
                ),
            });
        }
        Ok(manifest)
    }

    /// Writes the manifest to `path` as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let mut text = self.to_json().render_pretty();
        text.push('\n');
        fs::write(path, text)?;
        Ok(())
    }

    /// Loads and validates a manifest file.
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or a malformed manifest
    /// (see [`CampaignManifest::from_json`]).
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text)
    }

    /// Resolves shard `index`'s archive path against the manifest's
    /// directory.  Construction rejects every path that could resolve
    /// elsewhere, so the result always lies inside that directory.
    pub fn shard_path(&self, manifest_path: &Path, index: usize) -> PathBuf {
        let dir = manifest_path.parent().unwrap_or_else(|| Path::new("."));
        dir.join(&self.shards[index].path)
    }
}

/// Sniffs whether `path` looks like a campaign manifest (as opposed to a
/// trace archive): manifests are JSON objects, archives open with a binary
/// magic.  Returns `false` for unreadable or empty files, leaving the
/// archive opener to produce the precise error.
pub fn is_manifest_file<P: AsRef<Path>>(path: P) -> bool {
    let Ok(mut file) = fs::File::open(path) else {
        return false;
    };
    let mut head = [0u8; 64];
    let Ok(n) = file.read(&mut head) else {
        return false;
    };
    head[..n]
        .iter()
        .find(|b| !b.is_ascii_whitespace())
        .is_some_and(|&b| b == b'{')
}

/// Whether a manifest shard path stays inside the manifest's directory:
/// non-empty, relative, and made of plain names (`.` allowed, `..` and
/// roots or drive prefixes not).
fn is_contained(path: &str) -> bool {
    let mut names = 0;
    for component in Path::new(path).components() {
        match component {
            Component::Normal(_) => names += 1,
            Component::CurDir => {}
            Component::ParentDir | Component::RootDir | Component::Prefix(_) => return false,
        }
    }
    names > 0
}

fn field_u64(doc: &Json, name: &str) -> Result<u64> {
    doc.field(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| StoreError::FormatViolation {
            message: format!("campaign manifest field {name:?} is missing or not an integer"),
        })
}

/// FNV-1a 64 over a canonical byte encoding of the shard table: entry
/// count, then per shard `path bytes, NUL, traces LE, start LE`, then the
/// campaign distinct-input count.
fn manifest_digest(shards: &[ShardMeta], distinct_inputs: u32) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(shards.len() as u64).to_le_bytes());
    for shard in shards {
        bytes.extend_from_slice(shard.path.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&shard.traces.to_le_bytes());
        bytes.extend_from_slice(&shard.start.to_le_bytes());
    }
    bytes.extend_from_slice(&distinct_inputs.to_le_bytes());
    fnv1a64(&bytes)
}

type ShardFile = ArchiveReader<BufReader<std::fs::File>>;

/// Presents a sharded campaign as one global-order chunk stream.
///
/// Opening validates the whole campaign shape: every shard's header must
/// agree on [`ArchiveMeta`], every shard's trace count must match its
/// manifest entry, and every shard except the last must hold a multiple of
/// `chunk_traces` traces.  Those rules make the concatenated chunk streams
/// *exactly* the chunk stream of a single archive holding the same traces,
/// so the mergeable accumulators fold a sharded campaign bit-identically
/// to its unsharded twin.
#[derive(Debug)]
pub struct ShardedReader {
    manifest: CampaignManifest,
    readers: Vec<ShardFile>,
    /// Cumulative chunk count before each shard (`chunk_starts[i]` = global
    /// index of shard `i`'s first chunk); one extra entry holds the total.
    chunk_starts: Vec<usize>,
    meta: ArchiveMeta,
    version: u32,
    trace_count: u64,
    obs: Option<Obs>,
}

impl ShardedReader {
    /// Opens every shard of the campaign at `manifest_path` with the
    /// strict read policy.
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures, a malformed manifest, or a
    /// campaign-shape violation (see [`ShardedReader`]).
    pub fn open<P: AsRef<Path>>(manifest_path: P) -> Result<Self> {
        Self::open_with_policy(manifest_path, ReadPolicy::Strict)
    }

    /// Opens every shard of the campaign at `manifest_path` under `policy`.
    ///
    /// Under [`ReadPolicy::Salvage`] each shard archive is opened in
    /// salvage mode (damaged chunks surface per read), but the campaign
    /// *shape* checks stay strict — a manifest that disagrees with its
    /// shards is a structural fault, not bit rot.
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures, a malformed manifest, or a
    /// campaign-shape violation.
    pub fn open_with_policy<P: AsRef<Path>>(manifest_path: P, policy: ReadPolicy) -> Result<Self> {
        let manifest_path = manifest_path.as_ref();
        let manifest = CampaignManifest::load(manifest_path)?;
        let mut readers = Vec::with_capacity(manifest.shards().len());
        let mut chunk_starts = Vec::with_capacity(manifest.shards().len() + 1);
        let mut meta: Option<(ArchiveMeta, u32)> = None;
        let mut chunks = 0usize;
        let last = manifest.shards().len() - 1;
        for (index, shard) in manifest.shards().iter().enumerate() {
            let path = manifest.shard_path(manifest_path, index);
            let reader = ArchiveReader::open_with_policy(&path, policy)
                .map_err(|e| annotate_shard_error(e, index, &shard.path))?;
            if reader.trace_count() != shard.traces {
                return Err(StoreError::FormatViolation {
                    message: format!(
                        "shard {index} ({path}) holds {got} traces, manifest records {want}",
                        path = shard.path,
                        got = reader.trace_count(),
                        want = shard.traces,
                    ),
                });
            }
            let identity = (*reader.meta(), reader.format_version());
            match &meta {
                None => meta = Some(identity),
                Some(first) => {
                    if *first != identity {
                        return Err(StoreError::FormatViolation {
                            message: format!(
                                "shard {index} ({path}) header disagrees with shard 0 \
                                 (campaign metadata and format version must be identical \
                                 across shards)",
                                path = shard.path,
                            ),
                        });
                    }
                }
            }
            let chunk_traces = reader.meta().chunk_traces as u64;
            if index != last && shard.traces % chunk_traces != 0 {
                return Err(StoreError::FormatViolation {
                    message: format!(
                        "shard {index} ({path}) holds {got} traces, not a multiple of the \
                         {chunk_traces}-trace chunk size; only the last shard may end on a \
                         partial chunk",
                        path = shard.path,
                        got = shard.traces,
                    ),
                });
            }
            chunk_starts.push(chunks);
            chunks += reader.chunk_count();
            readers.push(reader);
        }
        chunk_starts.push(chunks);
        let (meta, version) = meta.expect("manifest guarantees at least one shard");
        let trace_count = manifest.total_traces();
        Ok(Self {
            manifest,
            readers,
            chunk_starts,
            meta,
            version,
            trace_count,
            obs: None,
        })
    }

    /// The campaign manifest this reader was opened from.
    pub fn manifest(&self) -> &CampaignManifest {
        &self.manifest
    }

    /// Number of shard archives.
    pub fn shard_count(&self) -> usize {
        self.readers.len()
    }

    /// The format version shared by every shard.
    pub fn format_version(&self) -> u32 {
        self.version
    }

    /// The campaign's `i16` saturated-sample count, summed over the shards,
    /// or `None` when a shard predates format version 4 and recorded none.
    pub fn saturated_samples(&self) -> Option<u64> {
        self.readers
            .iter()
            .map(ArchiveReader::saturated_samples)
            .sum()
    }

    /// Attaches a telemetry context, propagated to every shard reader.
    pub fn set_obs(&mut self, obs: &Obs) {
        obs.counter_add(names::STORE_SHARDS_OPENED, self.readers.len() as u64);
        for reader in &mut self.readers {
            reader.set_obs(obs);
        }
        self.obs = Some(obs.clone());
    }

    /// Maps a global chunk index to `(shard, local chunk index)`.
    fn locate(&self, index: usize) -> Option<(usize, usize)> {
        if index >= *self.chunk_starts.last().unwrap_or(&0) {
            return None;
        }
        // partition_point: first shard whose start exceeds `index`, minus 1.
        let shard = self.chunk_starts.partition_point(|&start| start <= index) - 1;
        Some((shard, index - self.chunk_starts[shard]))
    }

    /// Scans every shard under the salvage protocol, returning one damage
    /// report per shard, in manifest order, for `fsck`-style tooling.
    ///
    /// The shards are scanned concurrently: [`worker_count`]`(None, shards)`
    /// scoped threads, the calling thread among them, with shard `i` on
    /// worker `i mod W` (the fold engine's round-robin rule).  Each worker
    /// scans with the shard's already-open reader, so no chunk head is
    /// walked again, and [`ArchiveReader::scan`] validates every chunk body
    /// with the decoder's parser without decoding a sample.  The reports
    /// equal those of scanning each shard alone, one after another.
    ///
    /// # Errors
    ///
    /// Returns an error only for faults the salvage protocol cannot absorb
    /// (e.g. an out-of-range internal index — a bug, not bit rot).  When
    /// several shards fail, the error is the lowest-index failing shard's,
    /// returned once every worker has joined.
    pub fn scan_shards(&mut self, retry: &RetryPolicy) -> Result<Vec<DamageReport>> {
        let workers = worker_count(None, self.readers.len());
        round_robin(self.readers.iter_mut(), workers, |reader| {
            reader.scan(retry)
        })
    }
}

/// Runs `work` over `items` on `workers` (at least 1) scoped threads, the
/// calling thread among them, item `i` on worker `i mod workers`.  Returns
/// the results in item order, or the lowest-index error once every worker
/// has joined.
fn round_robin<T, R, F>(
    items: impl IntoIterator<Item = T>,
    workers: usize,
    work: F,
) -> Result<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> Result<R> + Sync,
{
    let mut lanes: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (index, item) in items.into_iter().enumerate() {
        lanes[index % workers].push((index, item));
    }
    // A lane stops at its first error.  Every lower-index item of that lane
    // succeeded, so the lowest-index failure is still found.
    let run = |lane: Vec<(usize, T)>| {
        let mut done = Vec::with_capacity(lane.len());
        for (index, item) in lane {
            let result = work(item);
            let failed = result.is_err();
            done.push((index, result));
            if failed {
                break;
            }
        }
        done
    };
    let mut lanes = lanes.into_iter();
    let own = lanes.next().expect("at least one worker");
    let mut done = std::thread::scope(|scope| {
        let run = &run;
        let spawned: Vec<_> = lanes.map(|lane| scope.spawn(move || run(lane))).collect();
        let mut done = run(own);
        for worker in spawned {
            done.extend(
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Prefixes a shard-open error with the shard's identity so campaign-level
/// failures name the file at fault.
fn annotate_shard_error(error: StoreError, index: usize, path: &str) -> StoreError {
    let mut message = String::new();
    let _ = write!(message, "shard {index} ({path}): {error}");
    match error {
        StoreError::Io { kind, .. } => StoreError::Io { kind, message },
        other => StoreError::FormatViolation {
            message: format!("shard {index} ({path}): {other}"),
        },
    }
}

impl ChunkSource for ShardedReader {
    fn meta(&self) -> &ArchiveMeta {
        &self.meta
    }

    fn trace_count(&self) -> u64 {
        self.trace_count
    }

    fn chunk_count(&self) -> usize {
        *self.chunk_starts.last().unwrap_or(&0)
    }

    fn distinct_inputs(&self) -> Option<usize> {
        self.manifest.distinct_inputs()
    }

    fn read_chunk(&mut self, index: usize) -> Result<TraceSet> {
        let mut set = TraceSet::new();
        ChunkSource::read_chunk_into(self, index, &mut set)?;
        Ok(set)
    }

    fn read_chunk_into(&mut self, index: usize, set: &mut TraceSet) -> Result<()> {
        let Some((shard, local)) = self.locate(index) else {
            return Err(StoreError::FormatViolation {
                message: format!(
                    "chunk {index} out of range (campaign has {} chunks)",
                    self.chunk_count()
                ),
            });
        };
        self.readers[shard].read_chunk_into(local, set)
    }

    fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize, per: u64) -> Vec<ShardMeta> {
        (0..n)
            .map(|i| ShardMeta {
                path: format!("shard-{i:03}.dpltrc"),
                traces: per,
                start: i as u64 * per,
            })
            .collect()
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let manifest = CampaignManifest::new(table(3, 1000), 16).unwrap();
        let text = manifest.to_json().render_pretty();
        let back = CampaignManifest::from_json(&text).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.total_traces(), 3000);
        assert_eq!(back.distinct_inputs(), Some(16));
    }

    #[test]
    fn manifest_rejects_gaps_overlaps_and_emptiness() {
        assert!(matches!(
            CampaignManifest::new(Vec::new(), 0),
            Err(StoreError::FormatViolation { .. })
        ));
        let mut shards = table(2, 500);
        shards[1].start = 400; // overlap
        assert!(matches!(
            CampaignManifest::new(shards, 0),
            Err(StoreError::FormatViolation { .. })
        ));
        let mut shards = table(2, 500);
        shards[1].start = 600; // gap
        assert!(matches!(
            CampaignManifest::new(shards, 0),
            Err(StoreError::FormatViolation { .. })
        ));
    }

    #[test]
    fn manifest_digest_detects_tampering() {
        let manifest = CampaignManifest::new(table(2, 256), 0).unwrap();
        let text = manifest.to_json().render_pretty();
        // Grow shard 1 by one trace but keep the recorded digest.
        let tampered = text.replacen("\"traces\": 256", "\"traces\": 257", 1);
        assert_ne!(tampered, text);
        // Fix contiguity so only the digest check can catch it.
        let tampered = tampered.replacen("\"start\": 256", "\"start\": 257", 1);
        let err = CampaignManifest::from_json(&tampered).unwrap_err();
        let StoreError::FormatViolation { message } = err else {
            panic!("expected FormatViolation, got {err:?}");
        };
        assert!(message.contains("digest mismatch"), "{message}");
    }

    #[test]
    fn manifest_rejects_shard_paths_outside_its_directory() {
        for bad in [
            "",
            ".",
            "/etc/passwd",
            "/",
            "..",
            "../escape.dpltrc",
            "shards/../../escape.dpltrc",
            "./..",
        ] {
            let mut shards = table(2, 10);
            shards[1].path = bad.to_owned();
            assert_eq!(
                CampaignManifest::new(shards, 0),
                Err(StoreError::UnsafeShardPath {
                    index: 1,
                    path: bad.to_owned()
                }),
                "{bad:?}"
            );
        }
        // Nested and dot-prefixed relative paths stay inside.
        let mut shards = table(2, 10);
        shards[0].path = "./shard-0.dpltrc".into();
        shards[1].path = "shards/shard-1.dpltrc".into();
        let manifest = CampaignManifest::new(shards, 0).unwrap();
        assert_eq!(
            manifest.shard_path(Path::new("/data/campaign.json"), 1),
            Path::new("/data/shards/shard-1.dpltrc")
        );

        // The parser enforces the same rule on a tampered document, before
        // the digest check can be reached.
        let text = CampaignManifest::new(table(1, 10), 0)
            .unwrap()
            .to_json()
            .render_pretty();
        let tampered = text.replacen("shard-000.dpltrc", "../shard-000.dpltrc", 1);
        assert!(matches!(
            CampaignManifest::from_json(&tampered),
            Err(StoreError::UnsafeShardPath { index: 0, .. })
        ));
    }

    #[test]
    fn manifest_rejects_wrong_kind_and_version() {
        let manifest = CampaignManifest::new(table(1, 10), 0).unwrap();
        let text = manifest.to_json().render_pretty();
        let wrong_kind = text.replacen(MANIFEST_KIND, "dpl-other", 1);
        assert!(CampaignManifest::from_json(&wrong_kind).is_err());
        let wrong_version = text.replacen("\"version\": 1", "\"version\": 9", 1);
        assert!(CampaignManifest::from_json(&wrong_version).is_err());
    }

    #[test]
    fn round_robin_deals_items_by_index_and_reports_the_lowest_index_error() {
        for workers in 1..=4 {
            let seen = std::sync::Mutex::new(Vec::new());
            let results = round_robin(0..7usize, workers, |i| {
                seen.lock().unwrap().push((i, std::thread::current().id()));
                Ok(i * 10)
            })
            .unwrap();
            assert_eq!(results, (0..7).map(|i| i * 10).collect::<Vec<_>>());
            let seen = seen.into_inner().unwrap();
            let thread_of = |i: usize| seen.iter().find(|&&(j, _)| j == i).unwrap().1;
            assert_eq!(thread_of(0), std::thread::current().id());
            for i in 0..7 {
                for j in 0..7 {
                    assert_eq!(thread_of(i) == thread_of(j), i % workers == j % workers);
                }
            }

            for (failing, lowest) in [(&[5, 2][..], "2"), (&[6, 3, 4], "3"), (&[0, 1], "0")] {
                let error = round_robin(0..7usize, workers, |i| {
                    if failing.contains(&i) {
                        Err(StoreError::FormatViolation {
                            message: i.to_string(),
                        })
                    } else {
                        Ok(i)
                    }
                })
                .unwrap_err();
                assert!(
                    matches!(&error, StoreError::FormatViolation { message } if message == lowest),
                    "{workers} workers, failing {failing:?}: {error:?}"
                );
            }
        }
    }
}
