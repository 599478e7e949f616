//! Checkpoint manifests and file-naming conventions.
//!
//! A checkpoint under prefix `P` consists of:
//! * `P/manifest` — this manifest;
//! * `P/segment` — the representative task's data segment (DRMS), or
//!   `P/task-{rank}` — one segment per task (conventional SPMD);
//! * `P/array-{name}` — one distribution-independent stream per distributed
//!   array (DRMS only).
//!
//! The manifest records everything a *reconfigured* restart needs that is
//! not derivable from the application source: the task count at checkpoint
//! time (for `delta`), and the identity (name, domain, element type, order)
//! of every array stream, so mismatched restarts fail loudly instead of
//! reading garbage.

use drms_darray::chunks::{ChunkParams, Codec};
use drms_slices::{Order, Range, Slice};

use crate::handle::CheckpointArray;
use crate::wire::{
    crc32, crc32_combine, crc32_shift, split_trailing_crc, Reader, WireError, Writer,
};

const MAGIC: [u8; 4] = *b"DMFT";
/// Current manifest version. v1 had no integrity section and no trailing
/// self-CRC; v2 added integrity records and the trailing self-CRC; v3 adds
/// the per-array delta chunk tables. `decode` still accepts all of them.
const VERSION: u32 = 3;

/// Which checkpointing scheme produced the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptKind {
    /// Reconfigurable DRMS checkpoint (one segment + array streams).
    Drms,
    /// Conventional SPMD checkpoint (one segment per task).
    Spmd,
    /// Incremental DRMS checkpoint (one segment + per-array delta packs
    /// whose chunk tables may reference prior incarnations' committed
    /// packs by content hash).
    DrmsDelta,
}

/// Identity of one array stream within a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayEntry {
    /// Array name.
    pub name: String,
    /// Element type code (see [`drms_darray::Element::CODE`]).
    pub elem_code: u8,
    /// Global index domain.
    pub domain: Slice,
    /// Stream/storage order.
    pub order: Order,
}

impl ArrayEntry {
    /// The entry describing the stream of `a`.
    pub fn of(a: &dyn CheckpointArray) -> ArrayEntry {
        ArrayEntry {
            name: a.array_name().to_string(),
            elem_code: a.elem_code(),
            domain: a.domain().clone(),
            order: a.order(),
        }
    }
}

/// Integrity record for one checkpoint file: per-chunk CRC-32s plus a
/// whole-file CRC. Chunk granularity is chosen by the writer (normally the
/// PIOFS stripe unit) so a failing chunk maps directly onto the stripe
/// units a parity repair must reconstruct.
#[derive(Debug, Clone, PartialEq)]
pub struct FileIntegrity {
    /// File name relative to the checkpoint prefix (e.g. `segment`,
    /// `array-u`).
    pub name: String,
    /// File length in bytes.
    pub len: u64,
    /// Chunk size in bytes (last chunk may be short). Always > 0.
    pub chunk: u64,
    /// CRC-32 of each chunk, in order.
    pub crcs: Vec<u32>,
    /// CRC-32 of the whole file.
    pub whole: u32,
}

impl FileIntegrity {
    /// Computes the integrity record for `bytes` at `chunk` granularity.
    /// Chunk geometry is the shared [`ChunkParams`] definition, the same
    /// one delta checkpointing cuts its content-hash chunks with — so an
    /// integrity chunk and a delta chunk of the same size are the same
    /// byte range.
    ///
    /// The bytes are read once: the whole-file CRC is folded from the chunk
    /// CRCs with a CRC-32 combine, and the shift for the fixed chunk
    /// length is computed once per file.
    pub fn compute(name: &str, bytes: &[u8], chunk: u64) -> FileIntegrity {
        let params = ChunkParams::new(chunk);
        let (len, chunk) = (bytes.len() as u64, params.chunk_bytes());
        let full_shift = crc32_shift(chunk);
        let mut whole = 0;
        let crcs = (0..params.count(len))
            .map(|i| {
                let (s, e) = params.range(len, i);
                let crc = crc32(&bytes[s as usize..e as usize]);
                let shift = if e - s == chunk { full_shift } else { crc32_shift(e - s) };
                whole = crc32_combine(whole, crc, shift);
                crc
            })
            .collect();
        FileIntegrity { name: name.to_string(), len, chunk, crcs, whole }
    }

    /// Byte range `[start, end)` of chunk `i` within the file.
    pub fn chunk_range(&self, i: usize) -> (u64, u64) {
        ChunkParams::new(self.chunk).range(self.len, i)
    }

    /// Indices of chunks whose CRC does not match `bytes`. A length
    /// mismatch marks every chunk corrupt (the file is not the one that
    /// was checksummed).
    pub fn corrupt_chunks(&self, bytes: &[u8]) -> Vec<usize> {
        if bytes.len() as u64 != self.len {
            return (0..self.crcs.len().max(1)).collect();
        }
        self.crcs
            .iter()
            .enumerate()
            .filter(|&(i, &want)| {
                let (s, e) = self.chunk_range(i);
                crc32(&bytes[s as usize..e as usize]) != want
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether `bytes` matches this record exactly.
    pub fn matches(&self, bytes: &[u8]) -> bool {
        bytes.len() as u64 == self.len && crc32(bytes) == self.whole
    }
}

/// Where a delta chunk's stored bytes live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkSource {
    /// In this checkpoint's own pack file for the array.
    Local,
    /// In the committed pack file `delta-{array}` of a prior incarnation
    /// under `prefix`. The record is self-contained — offset, stored
    /// length, and codec all describe the referenced pack — so restore and
    /// garbage collection never need the referenced manifest.
    Ref {
        /// Checkpoint prefix holding the pack.
        prefix: String,
        /// Array whose pack file stores the chunk.
        array: String,
    },
}

/// One chunk of an array's distribution-independent stream, as stored by
/// an incremental checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRecord {
    /// 128-bit FNV-1a content hash of the raw chunk bytes.
    pub hash: u128,
    /// Raw (uncompressed) chunk length in bytes.
    pub len: u32,
    /// Stored length in the pack file (differs from `len` when
    /// compressed).
    pub stored_len: u32,
    /// Storage codec of the pack bytes.
    pub codec: Codec,
    /// Byte offset of the stored bytes within the pack file.
    pub offset: u64,
    /// Which pack file stores the bytes.
    pub source: ChunkSource,
}

impl ChunkRecord {
    /// Path of the pack file storing this chunk, given the checkpoint's
    /// own `prefix` and the array's `name`.
    pub fn pack_path(&self, prefix: &str, array: &str) -> String {
        match &self.source {
            ChunkSource::Local => delta_path(prefix, array),
            ChunkSource::Ref { prefix, array } => delta_path(prefix, array),
        }
    }
}

/// The delta chunk table of one array stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDelta {
    /// Array name (matches an [`ArrayEntry`]).
    pub name: String,
    /// Chunk size in bytes (shared [`ChunkParams`] geometry).
    pub chunk_bytes: u64,
    /// Total stream length in bytes.
    pub stream_len: u64,
    /// Per-chunk records, in stream order, covering the stream exactly.
    pub chunks: Vec<ChunkRecord>,
}

impl ArrayDelta {
    /// The chunk geometry of this table.
    pub fn params(&self) -> ChunkParams {
        ChunkParams::new(self.chunk_bytes)
    }
}

/// The checkpoint manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Application name.
    pub app: String,
    /// Scheme that produced the checkpoint.
    pub kind: CkptKind,
    /// Number of tasks at checkpoint time.
    pub ntasks: usize,
    /// SOP sequence number (which observable point this state belongs to).
    pub sop: u64,
    /// Array streams present.
    pub arrays: Vec<ArrayEntry>,
    /// Integrity records for the checkpoint's data files (v2+; empty when
    /// decoded from a v1 manifest).
    pub integrity: Vec<FileIntegrity>,
    /// Delta chunk tables, one per array, for [`CkptKind::DrmsDelta`]
    /// checkpoints (v3+; empty otherwise).
    pub deltas: Vec<ArrayDelta>,
}

/// Path of the manifest file under `prefix`.
pub fn manifest_path(prefix: &str) -> String {
    format!("{prefix}/manifest")
}

/// Path of the DRMS representative segment under `prefix`.
pub fn segment_path(prefix: &str) -> String {
    format!("{prefix}/segment")
}

/// Path of task `rank`'s segment in an SPMD checkpoint.
pub fn task_segment_path(prefix: &str, rank: usize) -> String {
    format!("{prefix}/task-{rank}")
}

/// Path of the stream for array `name` under `prefix`.
pub fn array_path(prefix: &str, name: &str) -> String {
    format!("{prefix}/array-{name}")
}

/// Path of the delta pack file for array `name` under `prefix`: the
/// concatenation of the chunks an incremental checkpoint stored locally.
pub fn delta_path(prefix: &str, name: &str) -> String {
    format!("{prefix}/delta-{name}")
}

fn write_range(w: &mut Writer, r: &Range) {
    match r {
        Range::Contiguous { lo, hi } => {
            w.u8(0);
            w.i64(*lo);
            w.i64(*hi);
        }
        Range::Strided { lo, hi, step } => {
            w.u8(1);
            w.i64(*lo);
            w.i64(*hi);
            w.i64(*step);
        }
        Range::Explicit(v) => {
            w.u8(2);
            w.u64(v.len() as u64);
            for x in v.iter() {
                w.i64(*x);
            }
        }
    }
}

fn read_range(r: &mut Reader<'_>) -> Result<Range, WireError> {
    match r.u8()? {
        0 => Ok(Range::contiguous(r.i64()?, r.i64()?)),
        1 => {
            let (lo, hi, step) = (r.i64()?, r.i64()?, r.i64()?);
            Range::strided(lo, hi, step).map_err(|_| WireError::Truncated { what: "range" })
        }
        2 => {
            let n = r.count_u64(8, "range indices")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.i64()?);
            }
            Range::from_indices(&v).map_err(|_| WireError::Truncated { what: "range" })
        }
        _ => Err(WireError::Truncated { what: "range tag" }),
    }
}

/// Encodes a slice (exposed for segment/region metadata reuse).
pub fn write_slice(w: &mut Writer, s: &Slice) {
    w.u32(s.rank() as u32);
    for r in s.ranges() {
        write_range(w, r);
    }
}

/// Decodes a slice.
pub fn read_slice(r: &mut Reader<'_>) -> Result<Slice, WireError> {
    // Smallest range: tag + an explicit index count of zero.
    let rank = r.count_u32(9, "slice rank")?;
    let mut ranges = Vec::with_capacity(rank);
    for _ in 0..rank {
        ranges.push(read_range(r)?);
    }
    Ok(Slice::new(ranges))
}

impl Manifest {
    /// Encodes the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.string(&self.app);
        w.u8(match self.kind {
            CkptKind::Drms => 0,
            CkptKind::Spmd => 1,
            CkptKind::DrmsDelta => 2,
        });
        w.u64(self.ntasks as u64);
        w.u64(self.sop);
        w.u32(self.arrays.len() as u32);
        for a in &self.arrays {
            w.string(&a.name);
            w.u8(a.elem_code);
            w.u8(match a.order {
                Order::ColumnMajor => 0,
                Order::RowMajor => 1,
            });
            write_slice(&mut w, &a.domain);
        }
        w.u32(self.integrity.len() as u32);
        for fi in &self.integrity {
            w.string(&fi.name);
            w.u64(fi.len);
            w.u64(fi.chunk);
            w.u32(fi.crcs.len() as u32);
            for &c in &fi.crcs {
                w.u32(c);
            }
            w.u32(fi.whole);
        }
        w.u32(self.deltas.len() as u32);
        for d in &self.deltas {
            w.string(&d.name);
            w.u64(d.chunk_bytes);
            w.u64(d.stream_len);
            w.u32(d.chunks.len() as u32);
            for c in &d.chunks {
                w.u64((c.hash >> 64) as u64);
                w.u64(c.hash as u64);
                w.u32(c.len);
                w.u32(c.stored_len);
                w.u8(c.codec.tag());
                w.u64(c.offset);
                match &c.source {
                    ChunkSource::Local => w.u8(0),
                    ChunkSource::Ref { prefix, array } => {
                        w.u8(1);
                        w.string(prefix);
                        w.string(array);
                    }
                }
            }
        }
        // The manifest is the root of trust for the whole checkpoint, so it
        // carries its own digest: a trailing CRC over everything above.
        w.finish_with_crc()
    }

    /// Decodes a manifest. Accepts the current version, v2 (pre-delta),
    /// and v1 (pre-integrity, no trailing CRC) for backward compatibility.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, WireError> {
        let (_, version) = Reader::with_header(bytes, MAGIC)?;
        let body = match version {
            1 => bytes,
            2 | VERSION => split_trailing_crc(bytes, "manifest")?,
            v => return Err(WireError::BadVersion(v)),
        };
        let (mut r, _) = Reader::with_header(body, MAGIC)?;
        let app = r.string()?;
        let kind = match r.u8()? {
            0 => CkptKind::Drms,
            1 => CkptKind::Spmd,
            2 => CkptKind::DrmsDelta,
            _ => return Err(WireError::Truncated { what: "checkpoint kind" }),
        };
        let ntasks = r.u64()? as usize;
        let sop = r.u64()?;
        // Every count below is bounded by the bytes left over the entry's
        // smallest encoding, so a crafted count cannot force a huge
        // allocation. Smallest array entry: empty name, two tags, rank.
        let narrays = r.count_u32(10, "array entries")?;
        let mut arrays = Vec::with_capacity(narrays);
        for _ in 0..narrays {
            let name = r.string()?;
            let elem_code = r.u8()?;
            let order = match r.u8()? {
                0 => Order::ColumnMajor,
                1 => Order::RowMajor,
                _ => return Err(WireError::Truncated { what: "order tag" }),
            };
            let domain = read_slice(&mut r)?;
            arrays.push(ArrayEntry { name, elem_code, domain, order });
        }
        let mut integrity = Vec::new();
        if version >= 2 {
            // Smallest record: empty name, len, chunk, CRC count, whole CRC.
            let n = r.count_u32(28, "integrity records")?;
            integrity.reserve(n);
            for _ in 0..n {
                let name = r.string()?;
                let len = r.u64()?;
                let chunk = r.u64()?;
                let ncrcs = r.count_u32(4, "chunk crcs")?;
                let mut crcs = Vec::with_capacity(ncrcs);
                for _ in 0..ncrcs {
                    crcs.push(r.u32()?);
                }
                let whole = r.u32()?;
                integrity.push(FileIntegrity { name, len, chunk, crcs, whole });
            }
        }
        let mut deltas = Vec::new();
        if version >= 3 {
            // Smallest table: empty name, chunk size, stream length, count.
            let n = r.count_u32(24, "delta tables")?;
            deltas.reserve(n);
            for _ in 0..n {
                let name = r.string()?;
                let chunk_bytes = r.u64()?;
                let stream_len = r.u64()?;
                // Smallest chunk record: hash, lengths, codec, offset, tag.
                let nchunks = r.count_u32(34, "chunk records")?;
                let mut chunks = Vec::with_capacity(nchunks);
                for _ in 0..nchunks {
                    let hash = ((r.u64()? as u128) << 64) | r.u64()? as u128;
                    let len = r.u32()?;
                    let stored_len = r.u32()?;
                    let codec = Codec::from_tag(r.u8()?)
                        .ok_or(WireError::Truncated { what: "chunk codec tag" })?;
                    let offset = r.u64()?;
                    let source = match r.u8()? {
                        0 => ChunkSource::Local,
                        1 => ChunkSource::Ref { prefix: r.string()?, array: r.string()? },
                        _ => return Err(WireError::Truncated { what: "chunk source tag" }),
                    };
                    chunks.push(ChunkRecord { hash, len, stored_len, codec, offset, source });
                }
                deltas.push(ArrayDelta { name, chunk_bytes, stream_len, chunks });
            }
        }
        Ok(Manifest { app, kind, ntasks, sop, arrays, integrity, deltas })
    }

    /// Looks up the integrity record for a file (name relative to the
    /// checkpoint prefix).
    pub fn file_integrity(&self, name: &str) -> Option<&FileIntegrity> {
        self.integrity.iter().find(|fi| fi.name == name)
    }

    /// Looks up an array entry by name.
    pub fn array(&self, name: &str) -> Option<&ArrayEntry> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Looks up the delta chunk table for an array.
    pub fn delta(&self, name: &str) -> Option<&ArrayDelta> {
        self.deltas.iter().find(|d| d.name == name)
    }

    /// Every pack file path this manifest's chunk tables reference in
    /// *other* checkpoints — the mark set of the garbage collector's
    /// mark-and-sweep over the chunk hash graph. Locally stored chunks are
    /// under this manifest's own prefix and need no marking.
    pub fn referenced_packs(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        for d in &self.deltas {
            for c in &d.chunks {
                if let ChunkSource::Ref { prefix, array } = &c.source {
                    out.insert(delta_path(prefix, array));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            app: "bt".into(),
            kind: CkptKind::Drms,
            ntasks: 8,
            sop: 100,
            arrays: vec![
                ArrayEntry {
                    name: "u".into(),
                    elem_code: 1,
                    domain: Slice::boxed(&[(1, 64), (1, 64), (1, 64)]),
                    order: Order::ColumnMajor,
                },
                ArrayEntry {
                    name: "mask".into(),
                    elem_code: 7,
                    domain: Slice::new(vec![
                        Range::strided(0, 100, 3).unwrap(),
                        Range::from_indices(&[1, 5, 9]).unwrap(),
                    ]),
                    order: Order::RowMajor,
                },
            ],
            integrity: vec![FileIntegrity::compute("segment", b"some segment bytes", 4)],
            deltas: Vec::new(),
        }
    }

    fn sample_delta() -> Manifest {
        let mut m = sample();
        m.kind = CkptKind::DrmsDelta;
        m.deltas = vec![ArrayDelta {
            name: "u".into(),
            chunk_bytes: 4096,
            stream_len: 6000,
            chunks: vec![
                ChunkRecord {
                    hash: 0xdead_beef_dead_beef_0123_4567_89ab_cdef,
                    len: 4096,
                    stored_len: 200,
                    codec: Codec::Rle,
                    offset: 0,
                    source: ChunkSource::Local,
                },
                ChunkRecord {
                    hash: 42,
                    len: 1904,
                    stored_len: 1904,
                    codec: Codec::Raw,
                    offset: 512,
                    source: ChunkSource::Ref { prefix: "ck/7".into(), array: "u".into() },
                },
            ],
        }];
        m
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let d = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(d, m);
        assert_eq!(d.array("u").unwrap().elem_code, 1);
        assert!(d.array("nope").is_none());
    }

    #[test]
    fn spmd_kind_roundtrip() {
        let mut m = sample();
        m.kind = CkptKind::Spmd;
        m.arrays.clear();
        assert_eq!(Manifest::decode(&m.encode()).unwrap().kind, CkptKind::Spmd);
    }

    #[test]
    fn delta_roundtrip_and_marks() {
        let m = sample_delta();
        let d = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(d, m);
        assert_eq!(d.kind, CkptKind::DrmsDelta);
        let table = d.delta("u").unwrap();
        assert_eq!(table.params().chunk_bytes(), 4096);
        assert_eq!(table.chunks[0].pack_path("ck/9", "u"), "ck/9/delta-u");
        assert_eq!(table.chunks[1].pack_path("ck/9", "u"), "ck/7/delta-u");
        assert_eq!(
            d.referenced_packs().into_iter().collect::<Vec<_>>(),
            vec!["ck/7/delta-u".to_string()]
        );
        assert!(d.delta("nope").is_none());
    }

    #[test]
    fn paths_are_disjoint_per_prefix() {
        assert_eq!(manifest_path("ck/1"), "ck/1/manifest");
        assert_eq!(segment_path("ck/1"), "ck/1/segment");
        assert_eq!(task_segment_path("ck/1", 3), "ck/1/task-3");
        assert_eq!(array_path("ck/1", "u"), "ck/1/array-u");
        assert_eq!(delta_path("ck/1", "u"), "ck/1/delta-u");
        assert_ne!(array_path("a", "u"), array_path("b", "u"));
        assert_ne!(delta_path("ck/1", "u"), array_path("ck/1", "u"));
    }

    #[test]
    fn corrupt_manifest_rejected() {
        let m = sample();
        let mut bytes = m.encode();
        bytes.truncate(10);
        assert!(Manifest::decode(&bytes).is_err());

        // Any single flipped byte fails the trailing self-CRC.
        let bytes = m.encode();
        for i in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Manifest::decode(&bad).is_err(), "flip at {i} went undetected");
        }
    }

    /// Encodes `m` the way version 1 did: no integrity section, no
    /// trailing CRC.
    fn encode_v1(m: &Manifest) -> Vec<u8> {
        let mut w = Writer::with_header(MAGIC, 1);
        w.string(&m.app);
        w.u8(match m.kind {
            CkptKind::Drms => 0,
            CkptKind::Spmd => 1,
            CkptKind::DrmsDelta => 2,
        });
        w.u64(m.ntasks as u64);
        w.u64(m.sop);
        w.u32(m.arrays.len() as u32);
        for a in &m.arrays {
            w.string(&a.name);
            w.u8(a.elem_code);
            w.u8(match a.order {
                Order::ColumnMajor => 0,
                Order::RowMajor => 1,
            });
            write_slice(&mut w, &a.domain);
        }
        w.finish()
    }

    #[test]
    fn v1_manifest_still_decodes() {
        let mut m = sample();
        let bytes = encode_v1(&m);
        let d = Manifest::decode(&bytes).unwrap();
        m.integrity.clear();
        assert_eq!(d, m);
    }

    /// Encodes `m` the way version 2 did: integrity section and trailing
    /// CRC, but no delta tables.
    fn encode_v2(m: &Manifest) -> Vec<u8> {
        let mut w = Writer::with_header(MAGIC, 2);
        w.string(&m.app);
        w.u8(match m.kind {
            CkptKind::Drms => 0,
            CkptKind::Spmd => 1,
            CkptKind::DrmsDelta => 2,
        });
        w.u64(m.ntasks as u64);
        w.u64(m.sop);
        w.u32(m.arrays.len() as u32);
        for a in &m.arrays {
            w.string(&a.name);
            w.u8(a.elem_code);
            w.u8(match a.order {
                Order::ColumnMajor => 0,
                Order::RowMajor => 1,
            });
            write_slice(&mut w, &a.domain);
        }
        w.u32(m.integrity.len() as u32);
        for fi in &m.integrity {
            w.string(&fi.name);
            w.u64(fi.len);
            w.u64(fi.chunk);
            w.u32(fi.crcs.len() as u32);
            for &c in &fi.crcs {
                w.u32(c);
            }
            w.u32(fi.whole);
        }
        w.finish_with_crc()
    }

    #[test]
    fn v2_manifest_still_decodes() {
        let m = sample();
        let bytes = encode_v2(&m);
        let d = Manifest::decode(&bytes).unwrap();
        assert_eq!(d, m);
        // v2 carries its trailing self-CRC: flips are still detected.
        for i in [8usize, 20, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Manifest::decode(&bad).is_err(), "flip at {i} went undetected");
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let w = Writer::with_header(MAGIC, 9);
        assert!(matches!(Manifest::decode(&w.finish()), Err(WireError::BadVersion(9))));
    }

    #[test]
    fn file_integrity_chunking_and_detection() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let fi = FileIntegrity::compute("array-u", &data, 256);
        assert_eq!(fi.crcs.len(), 4);
        assert_eq!(fi.chunk_range(3), (768, 1000));
        assert!(fi.matches(&data));
        assert!(fi.corrupt_chunks(&data).is_empty());

        // Every single-byte flip is pinned to exactly its chunk.
        for &pos in &[0usize, 255, 256, 700, 999] {
            let mut bad = data.clone();
            bad[pos] ^= 0x01;
            assert!(!fi.matches(&bad));
            assert_eq!(fi.corrupt_chunks(&bad), vec![pos / 256]);
        }

        // Length mismatch marks everything corrupt.
        assert_eq!(fi.corrupt_chunks(&data[..999]).len(), 4);
    }

    #[test]
    fn one_pass_whole_crc_equals_crc_of_file() {
        let data = crate::wire::tests::seeded(3 * 4096 + 1, 11);
        for len in [0, 100, 4095, 4096, 3 * 4096, 3 * 4096 + 1] {
            let fi = FileIntegrity::compute("f", &data[..len], 4096);
            assert_eq!(fi.whole, crc32(&data[..len]), "length {len}");
            assert!(fi.matches(&data[..len]));
        }
    }

    #[test]
    fn integrity_records_are_pinned() {
        // Values produced before the one-pass, sliced CRC: records already
        // on disk keep verifying and the manifest bytes are unchanged.
        let seeded = crate::wire::tests::seeded;
        let files = [
            ("empty", seeded(0, 1), 1024u64, 0),
            ("segment", seeded(5000, 2), 1024, 0xCCB6_2582),
            ("array-u", seeded(64 * 1024, 3), 4096, 0x6D52_56A8),
            ("array-v", seeded(3 * 4096 + 1, 4), 4096, 0xA76F_B89C),
            ("array-w", seeded((1 << 20) + 7, 5), 1 << 16, 0x7B61_8090),
        ];
        let mut integrity = Vec::new();
        for (name, bytes, chunk, whole) in &files {
            let fi = FileIntegrity::compute(name, bytes, *chunk);
            assert_eq!(fi.whole, *whole, "{name}");
            integrity.push(fi);
        }
        let m = Manifest {
            app: "pin".into(),
            kind: CkptKind::Drms,
            ntasks: 4,
            sop: 1,
            arrays: Vec::new(),
            integrity,
            deltas: Vec::new(),
        };
        assert_eq!(
            drms_darray::chunks::fnv128(&m.encode()),
            0xd0bc_c697_58fd_6cfe_b6d2_a572_36da_8c8c
        );
    }

    #[test]
    fn crafted_counts_are_errors_not_aborts() {
        // A 35-byte v1 manifest (no self-CRC) claiming 2^32 - 1 arrays.
        let mut w = Writer::with_header(MAGIC, 1);
        w.string("bt");
        w.u8(0);
        w.u64(4);
        w.u64(1);
        w.u32(u32::MAX);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 35);
        assert!(matches!(Manifest::decode(&bytes), Err(WireError::Truncated { .. })));
    }
}
