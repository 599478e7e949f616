//! The restore pipeline: every restart and every localized recovery reads
//! checkpoint bytes through one [`RestoreSource`].
//!
//! A restart is one algorithm whatever holds the checkpoint (paper,
//! Section 5 and Figure 5): every new task loads the single data segment,
//! then loads its sections of each array from the array's canonical stream
//! under an adjusted distribution. [`Drms::resume`] runs the first half and
//! [`Drms::restore_from`] the second; localized recovery pulls the lost
//! sections' byte ranges through [`RestoreSource::fetch`]. A source only
//! answers *where the bytes come from*:
//!
//! * [`FullSource`] — a full checkpoint's files on PIOFS;
//! * `drms_delta::DeltaSource` — a delta chain's chunk packs on PIOFS;
//! * `drms_memtier::TierSource` — a memory-tier entry's resident pieces.
//!
//! What else differs between them is data, not code: the [`SourceKind`]
//! table names each source's manifest kind, spans and restart crash points.
//! Each source prices its own data movement against the calling task's
//! clock.
//!
//! The array phase ends in one error agreement: a task whose fetch failed
//! still joins every later wave, and the phase's closing barrier exchanges
//! each task's first error, so every task returns the same `Err` at once
//! rather than leaving its siblings blocked in the next collective.

use drms_chaos::CrashPoint;
use drms_darray::stream::file_fetch;
use drms_msg::Ctx;
use drms_obs::{names, Phase};
use drms_piofs::{Piofs, ReadAccess, ReadReq};

use crate::drms::phase_span;
use crate::handle::CheckpointArray;
use crate::inject::crash_point;
use crate::manifest::{array_path, segment_path, CkptKind, Manifest};
use crate::segment::DataSegment;
use crate::{CoreError, Drms, DrmsConfig, EnableFlag, RestartInfo, Result};

/// What one kind of restore source does differently from another, beyond
/// where its bytes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceKind {
    /// The manifest kind the source restores.
    pub manifest: CkptKind,
    /// Name of the rank-0 array-phase span.
    pub arrays_span: &'static str,
    /// Whether the array phase is also reported as a memory-tier restore
    /// span.
    pub tier_span: bool,
    /// Whether the array phase also records [`names::SEGMENT_BYTES`] (as
    /// zero), the way every checkpoint phase does.
    pub records_segment: bool,
    /// The restart crash points the source fires, from
    /// `RestartAfterInit`, `RestartAfterSegment` and `RestartAfterArrays`.
    pub points: &'static [CrashPoint],
}

impl SourceKind {
    /// A full checkpoint on PIOFS: guards every restart stage.
    pub const FULL: SourceKind = SourceKind {
        manifest: CkptKind::Drms,
        arrays_span: "restore_arrays",
        tier_span: false,
        records_segment: true,
        points: &[
            CrashPoint::RestartAfterInit,
            CrashPoint::RestartAfterSegment,
            CrashPoint::RestartAfterArrays,
        ],
    };

    /// A delta chain on PIOFS: guards the array phase only.
    pub const DELTA: SourceKind = SourceKind {
        manifest: CkptKind::DrmsDelta,
        arrays_span: "restore_arrays_delta",
        tier_span: false,
        records_segment: false,
        points: &[CrashPoint::RestartAfterArrays],
    };

    /// A memory-tier entry: fires no crash point.
    pub const TIER: SourceKind = SourceKind {
        manifest: CkptKind::Drms,
        arrays_span: "restore_arrays",
        tier_span: true,
        records_segment: false,
        points: &[],
    };
}

/// Where one restart or recovery reads checkpoint bytes from. Every method
/// is collective: each task of the region calls it at the same point.
pub trait RestoreSource {
    /// This source's row of the [`SourceKind`] table.
    fn kind(&self) -> &'static SourceKind;

    /// The file system a firing crash point salvages flight rings to;
    /// `None` for a source that fires none.
    fn fs(&self) -> Option<&Piofs>;

    /// This task's copy of the shared data segment, verified against
    /// `manifest` where the storage does not verify it itself.
    fn segment(&mut self, ctx: &mut Ctx, manifest: &Manifest) -> Result<Vec<u8>>;

    /// `[off, off + len)` of `array`'s canonical stream, under the
    /// [`drms_darray::stream::PieceFetch`] convention: every task calls once
    /// per wave, with `len == 0` when it has nothing to fetch.
    fn fetch(
        &mut self,
        ctx: &mut Ctx,
        array: &str,
        off: u64,
        len: u64,
    ) -> std::result::Result<Vec<u8>, String>;

    /// Fills `a` from its canonical stream with `io` reading tasks. By
    /// default this is the read wave loop over [`RestoreSource::fetch`].
    fn read_array(&mut self, ctx: &mut Ctx, a: &mut dyn CheckpointArray, io: usize) -> Result<()> {
        let name = a.array_name().to_string();
        a.read_stream_via(ctx, io, &mut |ctx, off, len| self.fetch(ctx, &name, off, len))
    }
}

/// Collective: this task's copy of the data segment of the PIOFS checkpoint
/// under `prefix`, verified end to end against the manifest's integrity
/// record (v1 manifests carry none): bytes that survived the file system
/// may still be bytes that rotted on it.
pub fn read_segment(
    ctx: &mut Ctx,
    fs: &Piofs,
    prefix: &str,
    manifest: &Manifest,
) -> Result<Vec<u8>> {
    let path = segment_path(prefix);
    let len = fs.size(&path)?;
    let mut got = fs.collective_read(
        ctx,
        vec![ReadReq { path, offset: 0, len, access: ReadAccess::Sequential }],
    )?;
    let bytes = got.pop().expect("one request");
    if let Some(fi) = manifest.file_integrity("segment") {
        if !fi.matches(&bytes) {
            return Err(CoreError::Integrity(format!(
                "segment of {prefix:?} fails checksum verification"
            )));
        }
    }
    Ok(bytes)
}

/// A full checkpoint's files on PIOFS. A restart reads each array stream
/// whole ([`CheckpointArray::read_stream`]); a recovery's range fetches
/// read strided.
pub struct FullSource<'a> {
    fs: &'a Piofs,
    prefix: &'a str,
}

impl<'a> FullSource<'a> {
    /// The full checkpoint under `prefix`.
    pub fn new(fs: &'a Piofs, prefix: &'a str) -> FullSource<'a> {
        FullSource { fs, prefix }
    }
}

impl RestoreSource for FullSource<'_> {
    fn kind(&self) -> &'static SourceKind {
        &SourceKind::FULL
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
        let path = array_path(self.prefix, array);
        let mut fetch = file_fetch(self.fs, &path, ReadAccess::Strided);
        fetch(ctx, off, len)
    }

    fn read_array(&mut self, ctx: &mut Ctx, a: &mut dyn CheckpointArray, io: usize) -> Result<()> {
        let path = array_path(self.prefix, a.array_name());
        a.read_stream(ctx, self.fs, &path, io)
    }
}

/// Fires `point` if `source`'s kind guards it.
fn fire(ctx: &mut Ctx, source: &dyn RestoreSource, point: CrashPoint) -> Result<()> {
    match source.fs() {
        Some(fs) if source.kind().points.contains(&point) => crash_point(ctx, fs, point, false),
        _ => Ok(()),
    }
}

/// Checks `a` against its manifest entry: present, same element type,
/// same domain.
fn check_entry(manifest: &Manifest, a: &dyn CheckpointArray) -> Result<()> {
    let entry = manifest.array(a.array_name()).ok_or_else(|| {
        CoreError::ManifestMismatch(format!("checkpoint has no array {:?}", a.array_name()))
    })?;
    if entry.elem_code != a.elem_code() {
        return Err(CoreError::ManifestMismatch(format!(
            "array {:?}: element code {} in checkpoint, {} in program",
            a.array_name(),
            entry.elem_code,
            a.elem_code()
        )));
    }
    if &entry.domain != a.domain() {
        return Err(CoreError::ManifestMismatch(format!(
            "array {:?}: domain {} in checkpoint, {} in program",
            a.array_name(),
            entry.domain,
            a.domain()
        )));
    }
    Ok(())
}

impl Drms {
    /// Collective: the restart half of `drms_initialize` over any restore
    /// source. Checks `manifest` against the source's kind and `cfg`'s
    /// application, reloads the application text from `fs` (restart reloads
    /// the binary wherever the state lives), then loads the single saved
    /// data segment through `source` on every task (Section 5).
    pub fn resume(
        ctx: &mut Ctx,
        fs: &Piofs,
        cfg: DrmsConfig,
        enable: EnableFlag,
        source: &mut dyn RestoreSource,
        manifest: &Manifest,
    ) -> Result<(Drms, Box<RestartInfo>)> {
        let kind = source.kind();
        if manifest.kind != kind.manifest {
            let hint = match manifest.kind {
                CkptKind::Spmd => "use spmd::restart",
                CkptKind::Drms => "use Drms::initialize",
                CkptKind::DrmsDelta => "use the delta crate's resume",
            };
            return Err(CoreError::ManifestMismatch(format!(
                "{:?} checkpoint given to a {:?} restore source; {hint}",
                manifest.kind, kind.manifest
            )));
        }
        if manifest.app != cfg.app {
            return Err(CoreError::ManifestMismatch(format!(
                "checkpoint belongs to app {:?}, not {:?}",
                manifest.app, cfg.app
            )));
        }

        // Initialization: load the application text (shared sequential read).
        ctx.barrier();
        let t0 = ctx.now();
        let text = format!("bin/{}", cfg.app);
        if fs.exists(&text) {
            let len = fs.size(&text)?;
            fs.collective_read(
                ctx,
                vec![ReadReq { path: text, offset: 0, len, access: ReadAccess::Sequential }],
            )?;
        }
        ctx.barrier();
        fire(ctx, source, CrashPoint::RestartAfterInit)?;
        let t1 = ctx.now();

        // Each task loads the single saved data segment.
        let seg_bytes = source.segment(ctx, manifest)?;
        let segment = DataSegment::decode(&seg_bytes)?;
        ctx.barrier();
        fire(ctx, source, CrashPoint::RestartAfterSegment)?;
        let t2 = ctx.now();
        phase_span(ctx, Phase::Init, "load_text", t0, t1);
        phase_span(ctx, Phase::Segment, "load_segment", t1, t2);
        // Every task reads the whole shared segment, so the bytes moved in
        // this phase are ntasks x its size: record per rank, matching the
        // aggregate the restart report uses.
        if ctx.recorder().enabled() {
            let len = seg_bytes.len() as u64;
            ctx.recorder().counter_add_at(ctx.now(), ctx.rank(), names::SEGMENT_BYTES, None, len);
        }

        let info = RestartInfo {
            manifest: manifest.clone(),
            segment,
            delta: ctx.ntasks() as i64 - manifest.ntasks as i64,
            init_time: t1 - t0,
            segment_time: t2 - t1,
        };
        Ok((Drms::at_sop(cfg, enable, manifest.sop), Box::new(info)))
    }

    /// Collective: loads every array from `source`, after the application
    /// has (re-)created them under the current distributions (adjusted when
    /// the task count changed). Each array is checked against `manifest`
    /// first. Returns the array-phase time.
    pub fn restore_from(
        &self,
        ctx: &mut Ctx,
        source: &mut dyn RestoreSource,
        manifest: &Manifest,
        arrays: &mut [&mut dyn CheckpointArray],
    ) -> Result<f64> {
        ctx.barrier();
        let t0 = ctx.now();
        let io = self.cfg().io.resolve(ctx.ntasks());
        let mut first_err = None;
        for a in arrays.iter_mut() {
            check_entry(manifest, &**a)?;
            if let Err(e) = source.read_array(ctx, &mut **a, io) {
                first_err.get_or_insert(e);
            }
        }
        // The closing barrier, priced as one, carries every task's first
        // error so that all of them fail together.
        let (errors, t) = ctx.exchange(first_err);
        ctx.advance_to(t);
        ctx.charge(ctx.cost().barrier_cost);
        if let Some(e) = errors.iter().flatten().next() {
            return Err(e.clone());
        }
        fire(ctx, source, CrashPoint::RestartAfterArrays)?;
        let t1 = ctx.now();
        let kind = source.kind();
        if ctx.rank() == 0 && ctx.recorder().enabled() {
            let rec = ctx.recorder();
            rec.span_start(t0, 0, Phase::Arrays, kind.arrays_span);
            rec.span_end(t1, 0, Phase::Arrays, kind.arrays_span);
            if kind.tier_span {
                rec.span_start(t0, 0, Phase::MemTier, "restore");
                rec.span_end(t1, 0, Phase::MemTier, "restore");
            }
            if kind.records_segment {
                rec.counter_add_at(t1, 0, names::SEGMENT_BYTES, None, 0);
            }
            let bytes = arrays.iter().map(|a| a.stream_bytes()).sum();
            rec.counter_add_at(t1, 0, names::ARRAY_BYTES, None, bytes);
        }
        Ok(t1 - t0)
    }
}
