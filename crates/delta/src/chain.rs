//! Delta-chain state: what the writer remembers between incremental
//! checkpoints, with two-phase semantics mirroring the checkpoint commit.

use std::collections::HashMap;

use drms_core::manifest::{delta_path, manifest_path, ArrayDelta, ChunkSource, CkptKind, Manifest};
use drms_core::{CoreError, Result};
use drms_darray::chunks::{
    clamp_chunk, ChunkDigest, ChunkDigests, ChunkParams, Codec, DirtyTracker,
};
use drms_piofs::Piofs;

/// Tunables of the incremental checkpoint path.
#[derive(Debug, Clone)]
pub struct DeltaConfig {
    /// Chunk size in bytes (clamped to the supported range); `0` means
    /// "use [`drms_core::integrity_chunk`]", so delta chunks line up
    /// one-to-one with the integrity CRC chunks by default.
    pub chunk_bytes: u64,
    /// Full-rewrite epoch: at most `full_every - 1` incremental
    /// checkpoints are taken between full rewrites, bounding the restore
    /// chain length. `0` or `1` makes every checkpoint a full rewrite.
    pub full_every: u64,
    /// Whether to try per-chunk compression (a chunk is stored compressed
    /// only when the codec output is strictly smaller).
    pub compress: bool,
}

impl Default for DeltaConfig {
    fn default() -> DeltaConfig {
        DeltaConfig { chunk_bytes: 0, full_every: 8, compress: true }
    }
}

impl DeltaConfig {
    /// The defaults: integrity-aligned chunks, a full rewrite every 8th
    /// checkpoint, compression on.
    pub fn new() -> DeltaConfig {
        DeltaConfig::default()
    }

    /// Resolves the chunk geometry against the file system (the `0`
    /// default follows the integrity chunk size, so one chunking
    /// definition serves both subsystems).
    pub fn params(&self, fs: &Piofs) -> ChunkParams {
        let bytes = if self.chunk_bytes == 0 {
            drms_core::integrity_chunk(fs)
        } else {
            clamp_chunk(self.chunk_bytes)
        };
        ChunkParams::new(bytes)
    }
}

/// Fully resolved location of a committed chunk's stored bytes. Always one
/// hop: the prefix named here stores the chunk in its own pack file, so a
/// chain of any depth materializes with a single lookup per chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChunkLoc {
    pub prefix: String,
    pub array: String,
    pub offset: u64,
    pub stored_len: u32,
    pub codec: Codec,
}

impl ChunkLoc {
    /// Whether the referenced incarnation is still a committed checkpoint
    /// and its pack file still exists. A reference that fails this check is
    /// escalated to a local write — a delta must never commit pointing at
    /// history that is already gone.
    fn available(&self, fs: &Piofs) -> bool {
        fs.exists(&manifest_path(&self.prefix)) && fs.exists(&delta_path(&self.prefix, &self.array))
    }
}

/// Per-chunk staging statistics of one array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Chunks whose content changed since the last committed checkpoint
    /// (escalated references count here too — they must be re-stored).
    pub dirty: u64,
    /// Chunks carried forward by reference, unwritten.
    pub clean: u64,
    /// Dirty chunks satisfied by content-hash dedup instead of a write.
    pub dedup: u64,
    /// Pack bytes written for this array.
    pub pack_bytes: u64,
    /// Bytes saved by compression (raw minus stored, over compressed
    /// chunks).
    pub saved: u64,
}

impl StageStats {
    /// Accumulates another array's staging statistics into this total.
    pub fn add(&mut self, o: StageStats) {
        self.dirty += o.dirty;
        self.clean += o.clean;
        self.dedup += o.dedup;
        self.pack_bytes += o.pack_bytes;
        self.saved += o.saved;
    }

    /// Fraction of chunks that were dirty (0.0 when there were none).
    pub fn dirty_ratio(&self) -> f64 {
        let total = self.dirty + self.clean;
        if total == 0 {
            0.0
        } else {
            self.dirty as f64 / total as f64
        }
    }
}

/// The writer-side state of a delta chain: committed chunk digests per
/// array, a content-addressed index of every committed chunk, and the
/// resolved location records needed to carry clean chunks forward.
///
/// All mutations are two-phase — [`DeltaChain::stage_array`] stages,
/// [`DeltaChain::commit`] promotes, [`DeltaChain::abort`] discards — so a
/// crashed checkpoint can never mark chunks clean or index chunks that were
/// never published. Chunk content lives only on the representative task
/// (rank 0, which gathers the canonical streams); the epoch counters are
/// maintained identically on every rank so the full-rewrite decision is
/// collective-deterministic.
#[derive(Debug, Default)]
pub struct DeltaChain {
    tracker: DirtyTracker,
    /// Committed content-addressed index: hash → where those bytes live.
    index: HashMap<u128, ChunkLoc>,
    staged_index: Vec<(u128, ChunkLoc)>,
    /// Committed per-array resolved records, in stream order.
    records: HashMap<String, Vec<ChunkLoc>>,
    staged_records: HashMap<String, Vec<ChunkLoc>>,
    /// Committed incremental checkpoints since the last full rewrite.
    since_full: u64,
    /// Whether the checkpoint currently being staged is a full rewrite.
    staged_full: Option<bool>,
    /// Prefix of the newest committed checkpoint of this chain.
    last_committed: Option<String>,
    /// Whether any checkpoint of this chain has committed.
    has_committed: bool,
}

impl DeltaChain {
    /// A fresh chain: the first checkpoint will be a full rewrite.
    pub fn new() -> DeltaChain {
        DeltaChain::default()
    }

    /// Committed chain depth: incremental checkpoints since the last full
    /// rewrite.
    pub fn depth(&self) -> u64 {
        self.since_full
    }

    /// Prefix of the newest committed checkpoint of this chain, if any.
    pub fn last_committed(&self) -> Option<&str> {
        self.last_committed.as_deref()
    }

    /// Opens a checkpoint attempt: decides (deterministically from the
    /// epoch counters, so every rank agrees) whether this one must be a
    /// full rewrite, and stages that decision. Must be called on every
    /// rank before any [`DeltaChain::stage_array`].
    pub fn begin(&mut self, cfg: &DeltaConfig) -> bool {
        let full = !self.has_committed || self.since_full + 1 >= cfg.full_every.max(1);
        self.staged_full = Some(full);
        full
    }

    /// Promotes everything staged: the checkpoint written to `prefix` has
    /// passed its commit point (manifest renamed into place). Every rank
    /// calls this so the epoch counters stay in lockstep.
    pub fn commit(&mut self, prefix: &str) {
        self.tracker.commit();
        for (h, loc) in self.staged_index.drain(..) {
            self.index.insert(h, loc);
        }
        for (k, v) in self.staged_records.drain() {
            self.records.insert(k, v);
        }
        match self.staged_full.take() {
            Some(true) => self.since_full = 0,
            Some(false) => self.since_full += 1,
            None => {}
        }
        self.last_committed = Some(prefix.to_string());
        self.has_committed = true;
    }

    /// Discards everything staged: the checkpoint attempt failed before
    /// its commit point, so the committed state still describes what is
    /// discoverable on the file system.
    pub fn abort(&mut self) {
        self.tracker.abort();
        self.staged_index.clear();
        self.staged_records.clear();
        self.staged_full = None;
    }

    /// Rebuilds chain state from a committed delta manifest (restart: the
    /// in-memory chain died with the previous incarnation). The manifest's
    /// chunk tables carry everything needed — digests, geometry, and
    /// resolved locations — because records are self-contained. The depth
    /// counter is recovered conservatively as the number of distinct prior
    /// incarnations referenced (a freshly full checkpoint references none).
    pub fn recover(prefix: &str, manifest: &Manifest) -> Result<DeltaChain> {
        if manifest.kind != CkptKind::DrmsDelta {
            return Err(CoreError::ManifestMismatch(format!(
                "{prefix:?} is not an incremental checkpoint; the delta chain resumes only \
                 from CkptKind::DrmsDelta manifests"
            )));
        }
        let mut chain = DeltaChain::new();
        let mut ref_prefixes = std::collections::BTreeSet::new();
        for d in &manifest.deltas {
            let params = d.params();
            let mut digests = Vec::with_capacity(d.chunks.len());
            let mut locs = Vec::with_capacity(d.chunks.len());
            for c in &d.chunks {
                digests.push(ChunkDigest { hash: c.hash, len: c.len });
                let loc = match &c.source {
                    ChunkSource::Local => ChunkLoc {
                        prefix: prefix.to_string(),
                        array: d.name.clone(),
                        offset: c.offset,
                        stored_len: c.stored_len,
                        codec: c.codec,
                    },
                    ChunkSource::Ref { prefix: rp, array: ra } => {
                        ref_prefixes.insert(rp.clone());
                        ChunkLoc {
                            prefix: rp.clone(),
                            array: ra.clone(),
                            offset: c.offset,
                            stored_len: c.stored_len,
                            codec: c.codec,
                        }
                    }
                };
                chain.index.entry(c.hash).or_insert_with(|| loc.clone());
                locs.push(loc);
            }
            chain.tracker.seed_committed(
                &d.name,
                ChunkDigests { params, stream_len: d.stream_len, digests },
            );
            chain.records.insert(d.name.clone(), locs);
        }
        chain.since_full = ref_prefixes.len() as u64;
        chain.last_committed = Some(prefix.to_string());
        chain.has_committed = true;
        Ok(chain)
    }

    /// Chunks, digests, and packs one array's canonical stream (rank 0
    /// only: the caller gathered the stream there). Returns the manifest
    /// chunk table, the pack bytes to stage, and the staging statistics.
    ///
    /// Sourcing order per chunk: carried forward by reference when clean
    /// and its stored copy is still available; deduplicated against a chunk
    /// already packed by *this* checkpoint (always, even in full mode —
    /// intra-pack dedup keeps the checkpoint self-contained); deduplicated
    /// against the committed index (delta mode only — a full rewrite must
    /// not reference prior incarnations, that is the point of the epoch
    /// bound); otherwise encoded and appended to the pack.
    #[allow(clippy::too_many_arguments)]
    pub fn stage_array(
        &mut self,
        fs: &Piofs,
        own_prefix: &str,
        array: &str,
        stream: &[u8],
        params: ChunkParams,
        full: bool,
        compress: bool,
    ) -> (ArrayDelta, Vec<u8>, StageStats) {
        use drms_core::manifest::ChunkRecord;
        use drms_darray::chunks::{digest_stream, encode_chunk};

        let digests = digest_stream(stream, params);
        let dirty: std::collections::HashSet<usize> =
            self.tracker.stage(array, digests.clone()).into_iter().collect();
        let prev = self.records.get(array).cloned();

        let mut stats = StageStats::default();
        let mut pack: Vec<u8> = Vec::new();
        let mut local_by_hash: HashMap<u128, ChunkLoc> = HashMap::new();
        let mut new_locs: Vec<ChunkLoc> = Vec::with_capacity(digests.digests.len());
        let mut chunks: Vec<ChunkRecord> = Vec::with_capacity(digests.digests.len());

        for (i, d) in digests.digests.iter().enumerate() {
            // Clean carry-forward: same content as the committed stream and
            // the stored copy is still reachable.
            if !full && !dirty.contains(&i) {
                if let Some(loc) = prev.as_ref().and_then(|p| p.get(i)) {
                    if loc.available(fs) {
                        stats.clean += 1;
                        chunks.push(record_for(d, loc, false));
                        new_locs.push(loc.clone());
                        continue;
                    }
                }
                // The committed copy vanished (retention plus sweep got
                // ahead of us): escalate to a local write.
            }
            stats.dirty += 1;
            // Intra-pack dedup: this checkpoint already stored these bytes.
            if let Some(loc) = local_by_hash.get(&d.hash) {
                stats.dedup += 1;
                chunks.push(record_for(d, loc, true));
                new_locs.push(loc.clone());
                continue;
            }
            // Cross-incarnation dedup (delta mode only).
            if !full {
                if let Some(loc) = self.index.get(&d.hash) {
                    if loc.available(fs) {
                        stats.dedup += 1;
                        chunks.push(record_for(d, loc, false));
                        new_locs.push(loc.clone());
                        continue;
                    }
                }
            }
            // Store locally.
            let (s, e) = params.range(digests.stream_len, i);
            let (codec, stored) = encode_chunk(&stream[s as usize..e as usize], compress);
            let loc = ChunkLoc {
                prefix: own_prefix.to_string(),
                array: array.to_string(),
                offset: pack.len() as u64,
                stored_len: stored.len() as u32,
                codec,
            };
            stats.pack_bytes += stored.len() as u64;
            if codec == Codec::Rle {
                stats.saved += d.len as u64 - stored.len() as u64;
            }
            pack.extend_from_slice(&stored);
            chunks.push(record_for(d, &loc, true));
            local_by_hash.insert(d.hash, loc.clone());
            self.staged_index.push((d.hash, loc.clone()));
            new_locs.push(loc);
        }
        self.staged_records.insert(array.to_string(), new_locs);

        let table = ArrayDelta {
            name: array.to_string(),
            chunk_bytes: params.chunk_bytes(),
            stream_len: digests.stream_len,
            chunks,
        };
        (table, pack, stats)
    }
}

/// Builds the manifest record for a chunk at `loc`. `local` marks chunks
/// stored in the checkpoint's own pack (the manifest's `Local` source);
/// everything else is a one-hop reference to the incarnation that stores
/// the bytes.
fn record_for(d: &ChunkDigest, loc: &ChunkLoc, local: bool) -> drms_core::manifest::ChunkRecord {
    drms_core::manifest::ChunkRecord {
        hash: d.hash,
        len: d.len,
        stored_len: loc.stored_len,
        codec: loc.codec,
        offset: loc.offset,
        source: if local {
            ChunkSource::Local
        } else {
            ChunkSource::Ref { prefix: loc.prefix.clone(), array: loc.array.clone() }
        },
    }
}
