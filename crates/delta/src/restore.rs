//! Restart from a committed delta chain: bitwise materialization of each
//! array's canonical stream out of the chunk graph.

use drms_core::manifest::{ArrayDelta, Manifest};
use drms_core::restore::{read_segment, RestoreSource, SourceKind};
use drms_core::{
    read_manifest_collective, CheckpointArray, CoreError, Drms, DrmsConfig, EnableFlag, Result,
    Start,
};
use drms_msg::Ctx;
use drms_piofs::{Piofs, ReadAccess, ReadReq};

/// A committed delta chain on PIOFS, as a restore source: each fetched
/// stream range is assembled chunk by chunk out of the packs its chunk
/// table names, every chunk decoded and hash-verified before a byte of it
/// is returned.
pub struct DeltaSource<'a> {
    fs: &'a Piofs,
    prefix: &'a str,
    manifest: &'a Manifest,
}

impl<'a> DeltaSource<'a> {
    /// The delta chain committed under `prefix` with `manifest`.
    pub fn new(fs: &'a Piofs, prefix: &'a str, manifest: &'a Manifest) -> DeltaSource<'a> {
        DeltaSource { fs, prefix, manifest }
    }
}

impl RestoreSource for DeltaSource<'_> {
    fn kind(&self) -> &'static SourceKind {
        &SourceKind::DELTA
    }

    fn fs(&self) -> Option<&Piofs> {
        Some(self.fs)
    }

    fn segment(&mut self, ctx: &mut Ctx, manifest: &Manifest) -> Result<Vec<u8>> {
        read_segment(ctx, self.fs, self.prefix, manifest)
    }

    fn fetch(
        &mut self,
        ctx: &mut Ctx,
        array: &str,
        off: u64,
        len: u64,
    ) -> std::result::Result<Vec<u8>, String> {
        chunk_table(self.manifest, array)
            .and_then(|d| fetch_stream_range(ctx, self.fs, self.prefix, d, off, len))
            .map_err(|e| e.to_string())
    }

    fn read_array(&mut self, ctx: &mut Ctx, a: &mut dyn CheckpointArray, io: usize) -> Result<()> {
        let d = chunk_table(self.manifest, a.array_name())?;
        if d.stream_len != a.stream_bytes() {
            return Err(CoreError::ManifestMismatch(format!(
                "array {:?}: stream is {} bytes in checkpoint, {} in program",
                a.array_name(),
                d.stream_len,
                a.stream_bytes()
            )));
        }
        let (fs, prefix) = (self.fs, self.prefix);
        a.read_stream_via(ctx, io, &mut |ctx, off, len| {
            fetch_stream_range(ctx, fs, prefix, d, off, len).map_err(|e| e.to_string())
        })
    }
}

/// The chunk table of `array` in a delta manifest.
fn chunk_table<'m>(manifest: &'m Manifest, array: &str) -> Result<&'m ArrayDelta> {
    manifest.delta(array).ok_or_else(|| {
        CoreError::ManifestMismatch(format!("delta checkpoint has no chunk table for {array:?}"))
    })
}

/// `drms_initialize` for a delta chain: reads the committed v3 manifest at
/// `prefix` and runs [`Drms::resume`] over a [`DeltaSource`], which
/// verifies and loads the shared data segment. [`Drms::initialize`] refuses
/// delta manifests and points here. Restoring the arrays themselves is
/// [`restore_arrays_delta`].
pub fn resume(
    ctx: &mut Ctx,
    fs: &Piofs,
    cfg: DrmsConfig,
    enable: EnableFlag,
    prefix: &str,
) -> Result<(Drms, Start)> {
    let manifest = read_manifest_collective(ctx, fs, prefix)?;
    let mut source = DeltaSource::new(fs, prefix, &manifest);
    let (drms, info) = Drms::resume(ctx, fs, cfg, enable, &mut source, &manifest)?;
    Ok((drms, Start::Restarted(info)))
}

/// Loads every array from a committed delta chain, after the application
/// has (re-)created them under the current distributions (any task count —
/// the chunked stream is the same distribution-independent representation
/// full checkpoints use, so restore is reconfigurable): [`Drms::restore_from`]
/// a [`DeltaSource`]. Returns the array-phase time.
pub fn restore_arrays_delta(
    drms: &Drms,
    ctx: &mut Ctx,
    fs: &Piofs,
    prefix: &str,
    manifest: &Manifest,
    arrays: &mut [&mut dyn CheckpointArray],
) -> Result<f64> {
    drms.restore_from(ctx, &mut DeltaSource::new(fs, prefix, manifest), manifest, arrays)
}

/// Assembles `[off, off + len)` of an array's canonical stream from its
/// chunk table. All covering chunks are read in **one collective phase**
/// ([`Piofs::collective_read`]): the fetch callback is invoked on every
/// rank of every wave (see [`drms_darray::stream::PieceFetch`]), so the
/// phase's pricing orders the whole region's requests deterministically —
/// per-rank independent reads would price in thread arrival order and make
/// restore times nondeterministic. Each chunk is then decoded and
/// hash-verified before a byte reaches the caller.
fn fetch_stream_range(
    ctx: &mut Ctx,
    fs: &Piofs,
    prefix: &str,
    d: &ArrayDelta,
    off: u64,
    len: u64,
) -> Result<Vec<u8>> {
    let params = d.params();
    if off + len > d.stream_len {
        return Err(CoreError::Integrity(format!(
            "array {:?}: fetch {off}+{len} past stream length {}",
            d.name, d.stream_len
        )));
    }
    let mut idxs = Vec::new();
    let mut reqs = Vec::new();
    if len > 0 {
        let first = params.index_of(off);
        let last = params.index_of(off + len - 1);
        for i in first..=last {
            let c = d.chunks.get(i).ok_or_else(|| {
                CoreError::Integrity(format!(
                    "array {:?}: chunk table is missing chunk {i}",
                    d.name
                ))
            })?;
            idxs.push(i);
            reqs.push(ReadReq {
                path: c.pack_path(prefix, &d.name),
                offset: c.offset,
                len: c.stored_len as u64,
                access: ReadAccess::Strided,
            });
        }
    }
    // Idle ranks participate with an empty request list.
    let got = fs.collective_read(ctx, reqs)?;
    let mut out = Vec::with_capacity(len as usize);
    for (stored, i) in got.iter().zip(idxs) {
        let raw = d.chunks[i].decode_verified(stored, &d.name, i)?;
        let (s, _) = params.range(d.stream_len, i);
        let lo = (off.max(s) - s) as usize;
        let hi = ((off + len).min(s + raw.len() as u64) - s) as usize;
        out.extend_from_slice(&raw[lo..hi]);
    }
    if out.len() as u64 != len {
        return Err(CoreError::Integrity(format!(
            "array {:?}: assembled {} bytes for a {len}-byte fetch",
            d.name,
            out.len()
        )));
    }
    Ok(out)
}

/// Materializes an array's full canonical stream out of a committed delta
/// chain, bitwise. Control-plane operation (unpriced `peek`s, no clock) —
/// this is the tooling/verification path; restarts go through
/// [`restore_arrays_delta`], which prices its reads.
pub fn materialize_stream(
    fs: &Piofs,
    prefix: &str,
    manifest: &Manifest,
    array: &str,
) -> Result<Vec<u8>> {
    let d = chunk_table(manifest, array)?;
    let mut packs = Default::default();
    let mut out = Vec::with_capacity(d.stream_len as usize);
    for i in 0..d.chunks.len() {
        out.extend_from_slice(&d.peek_chunk(fs, prefix, i, &mut packs)?);
    }
    if out.len() as u64 != d.stream_len {
        return Err(CoreError::Integrity(format!(
            "array {array:?}: materialized {} bytes, stream is {}",
            out.len(),
            d.stream_len
        )));
    }
    Ok(out)
}
