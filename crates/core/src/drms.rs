use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drms_chaos::{CommitPoints, CrashPoint};
use drms_msg::Ctx;
use drms_obs::{names, Phase};
use drms_piofs::{Piofs, ReadAccess, ReadReq, WriteReq};

use crate::commit::{commit_staged, stage_segment, staging_prefix};
use crate::handle::{encode_segment, CheckpointArray};
use crate::inject::crash_point;
use crate::manifest::{
    array_path, manifest_path, segment_path, task_segment_path, ArrayEntry, CkptKind, Manifest,
};
use crate::report::OpBreakdown;
use crate::segment::DataSegment;
use crate::{CoreError, IoMode, Result};
use drms_darray::chunks;

/// Static configuration of a DRMS application.
#[derive(Debug, Clone)]
pub struct DrmsConfig {
    /// Application name (manifests are tagged with it).
    pub app: String,
    /// How many tasks perform array-stream I/O.
    pub io: IoMode,
    /// Size of the application text segment, reloaded at restart (the
    /// paper's restart totals include this initialization component).
    pub text_bytes: u64,
    /// Compile-time reservation for local array sections in each task's
    /// data segment. The paper's Fortran codes size this for the minimum
    /// task count, so it does not shrink as tasks are added.
    pub fixed_local_bytes: u64,
}

impl DrmsConfig {
    /// A configuration with typical defaults (parallel I/O, 8 MB text).
    pub fn new(app: &str) -> DrmsConfig {
        DrmsConfig {
            app: app.to_string(),
            io: IoMode::Parallel,
            text_bytes: 8 << 20,
            fixed_local_bytes: 0,
        }
    }
}

/// Shared enable signal for system-initiated checkpoints
/// (`drms_reconfig_chkenable`): the scheduler raises it; the application
/// takes a checkpoint at its next enabling SOP.
#[derive(Debug, Clone, Default)]
pub struct EnableFlag(Arc<AtomicBool>);

impl EnableFlag {
    /// A cleared flag.
    pub fn new() -> EnableFlag {
        EnableFlag::default()
    }

    /// Raises the flag (scheduler side).
    pub fn raise(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the flag is currently raised.
    pub fn is_raised(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    fn clear(&self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// What a restarted application needs to resume from its SOP.
#[derive(Debug)]
pub struct RestartInfo {
    /// The checkpoint manifest.
    pub manifest: Manifest,
    /// The restored data segment (replicated + control variables).
    pub segment: DataSegment,
    /// New task count minus checkpoint task count; non-zero means the
    /// application must adjust its distributions before loading arrays.
    pub delta: i64,
    /// Time spent loading the application text.
    pub init_time: f64,
    /// Time spent loading the data segment.
    pub segment_time: f64,
}

/// Result of `drms_initialize`: fresh start or restart from archived state.
#[derive(Debug)]
pub enum Start {
    /// No checkpoint: run from the beginning.
    Fresh,
    /// Restarted: resume from the saved SOP.
    Restarted(Box<RestartInfo>),
}

/// Per-task handle to the DRMS run-time (Table 2's API).
pub struct Drms {
    cfg: DrmsConfig,
    enable: EnableFlag,
    sop: u64,
    /// Versions last saved per (prefix, array): drives incremental
    /// checkpointing.
    saved_versions: std::collections::HashMap<(String, String), u64>,
}

impl Drms {
    /// Places the application binary on the file system (environment setup;
    /// not part of any checkpoint).
    pub fn install_binary(fs: &Piofs, cfg: &DrmsConfig) {
        fs.preload(&format!("bin/{}", cfg.app), vec![0u8; cfg.text_bytes as usize]);
    }

    /// `drms_initialize`: initializes the run-time and, when `restart_from`
    /// names an archived state, reloads it. Every task calls this first;
    /// each receives the full segment (all tasks read the single saved
    /// segment file, per Section 5).
    pub fn initialize(
        ctx: &mut Ctx,
        fs: &Piofs,
        cfg: DrmsConfig,
        enable: EnableFlag,
        restart_from: Option<&str>,
    ) -> Result<(Drms, Start)> {
        let Some(prefix) = restart_from else {
            return Ok((
                Drms { cfg, enable, sop: 0, saved_versions: Default::default() },
                Start::Fresh,
            ));
        };
        let manifest = read_manifest_collective(ctx, fs, prefix)?;
        match manifest.kind {
            CkptKind::Drms => {}
            CkptKind::Spmd => {
                return Err(CoreError::ManifestMismatch(format!(
                    "{prefix:?} is a conventional SPMD checkpoint; use spmd::restart"
                )))
            }
            CkptKind::DrmsDelta => {
                return Err(CoreError::ManifestMismatch(format!(
                    "{prefix:?} is an incremental checkpoint; restore it through the \
                     delta crate's resume, which materializes the chunk chain"
                )))
            }
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
        crash_point(ctx, fs, CrashPoint::RestartAfterInit, false)?;
        let t1 = ctx.now();

        // Each task loads the single saved data segment.
        let seg_path = segment_path(prefix);
        let len = fs.size(&seg_path)?;
        let mut got = fs.collective_read(
            ctx,
            vec![ReadReq { path: seg_path, offset: 0, len, access: ReadAccess::Sequential }],
        )?;
        let seg_bytes = got.pop().expect("one request");
        // End-to-end verification against the manifest's integrity record:
        // bytes that survived the file system may still be bytes that rotted
        // on it. v1 manifests carry no record and skip this.
        if let Some(fi) = manifest.file_integrity("segment") {
            if !fi.matches(&seg_bytes) {
                return Err(CoreError::Integrity(format!(
                    "segment of {prefix:?} fails checksum verification"
                )));
            }
        }
        let segment = DataSegment::decode(&seg_bytes)?;
        ctx.barrier();
        crash_point(ctx, fs, CrashPoint::RestartAfterSegment, false)?;
        let t2 = ctx.now();
        phase_span(ctx, Phase::Init, "load_text", t0, t1);
        phase_span(ctx, Phase::Segment, "load_segment", t1, t2);
        // Every task reads the whole shared segment file, so the bytes moved
        // in this phase are ntasks x file size: record per rank, matching the
        // aggregate the restart report uses.
        if ctx.recorder().enabled() {
            ctx.recorder().counter_add_at(ctx.now(), ctx.rank(), names::SEGMENT_BYTES, None, len);
        }

        let delta = ctx.ntasks() as i64 - manifest.ntasks as i64;
        let sop = manifest.sop;
        let info =
            RestartInfo { manifest, segment, delta, init_time: t1 - t0, segment_time: t2 - t1 };
        Ok((
            Drms { cfg, enable, sop, saved_versions: Default::default() },
            Start::Restarted(Box::new(info)),
        ))
    }

    /// As [`Drms::initialize`], but with the manifest and segment supplied
    /// by an external source — an in-memory checkpoint tier — instead of
    /// read from PIOFS files. The application text is still loaded from the
    /// file system (restart reloads the binary regardless of where the
    /// checkpointed state lives). `segment_fetch` is called collectively by
    /// every task and must price its own data movement against the calling
    /// task's clock.
    pub fn initialize_external(
        ctx: &mut Ctx,
        fs: &Piofs,
        cfg: DrmsConfig,
        enable: EnableFlag,
        manifest: Manifest,
        segment_fetch: &mut dyn FnMut(&mut Ctx) -> Result<Vec<u8>>,
    ) -> Result<(Drms, Start)> {
        if manifest.kind == CkptKind::Spmd {
            return Err(CoreError::ManifestMismatch(
                "external restart source holds a conventional SPMD checkpoint".to_string(),
            ));
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
        let t1 = ctx.now();

        // Each task fetches the single saved data segment from the source.
        let seg_bytes = segment_fetch(ctx)?;
        let segment = DataSegment::decode(&seg_bytes)?;
        ctx.barrier();
        let t2 = ctx.now();
        phase_span(ctx, Phase::Init, "load_text", t0, t1);
        phase_span(ctx, Phase::Segment, "load_segment", t1, t2);
        if ctx.recorder().enabled() {
            ctx.recorder().counter_add_at(
                ctx.now(),
                ctx.rank(),
                names::SEGMENT_BYTES,
                None,
                seg_bytes.len() as u64,
            );
        }

        let delta = ctx.ntasks() as i64 - manifest.ntasks as i64;
        let sop = manifest.sop;
        let info =
            RestartInfo { manifest, segment, delta, init_time: t1 - t0, segment_time: t2 - t1 };
        Ok((
            Drms { cfg, enable, sop, saved_versions: Default::default() },
            Start::Restarted(Box::new(info)),
        ))
    }

    /// The configuration in effect.
    pub fn cfg(&self) -> &DrmsConfig {
        &self.cfg
    }

    /// Current SOP sequence number.
    pub fn sop(&self) -> u64 {
        self.sop
    }

    /// Advances the SOP sequence number and returns the new value. Every
    /// checkpoint is one schedulable-and-observable point no matter which
    /// tier it lands on; checkpoint paths outside this crate (the in-memory
    /// tier) use this so their SOP numbering stays in lockstep with
    /// [`Drms::reconfig_checkpoint`]. Each task must call it the same number
    /// of times.
    pub fn advance_sop(&mut self) -> u64 {
        self.sop += 1;
        self.sop
    }

    /// Registers this task's resident memory with the file-system node
    /// ledger (drives interference and buffer-pressure modelling).
    pub fn register_residency(&self, ctx: &Ctx, fs: &Piofs, bytes: u64) {
        fs.set_residency(ctx.node(), bytes);
    }

    /// `drms_reconfig_checkpoint`: mandatory checkpoint, always taken.
    ///
    /// The representative task (rank 0) writes the shared data segment —
    /// `base_segment` plus the local-sections region assembled from the
    /// arrays — then all tasks cooperate to stream every distributed array.
    /// Returns the phase breakdown (Table 6's rows).
    ///
    /// Crash-consistent: everything is staged under `{prefix}.tmp` and
    /// published by the two-phase commit of [`crate::commit`], so an
    /// interrupted checkpoint is never discoverable and a restart always
    /// lands on the last *committed* state.
    pub fn reconfig_checkpoint(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        prefix: &str,
        base_segment: &DataSegment,
        arrays: &[&dyn CheckpointArray],
    ) -> Result<OpBreakdown> {
        self.checkpoint(ctx, fs, prefix, base_segment, arrays, arrays)
    }

    /// Incremental variant of [`Drms::reconfig_checkpoint`]: arrays whose
    /// mutation counter is unchanged since the last checkpoint *to the same
    /// prefix* are not rewritten — their stream bytes on the file system are
    /// already current. This is the array-granularity analog of the memory
    /// exclusion optimization the paper discusses in Section 6 (skipping
    /// regions "not updated since the last checkpoint"); it pays off for
    /// fields like forcing terms that are constant after setup.
    ///
    /// Returns the breakdown plus the names of skipped arrays. Safety: a
    /// fresh `Drms` handle (e.g. after restart) has no version records, so
    /// the first incremental checkpoint always writes everything.
    pub fn reconfig_checkpoint_incremental(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        prefix: &str,
        base_segment: &DataSegment,
        arrays: &[&dyn CheckpointArray],
    ) -> Result<(OpBreakdown, Vec<String>)> {
        let (skipped, to_write): (Vec<&dyn CheckpointArray>, Vec<&dyn CheckpointArray>) =
            arrays.iter().partition(|a| {
                let key = (prefix.to_string(), a.array_name().to_string());
                fs.exists(&array_path(prefix, a.array_name()))
                    && self.saved_versions.get(&key) == Some(&a.version())
            });
        let breakdown = self.checkpoint(ctx, fs, prefix, base_segment, arrays, &to_write)?;
        Ok((breakdown, skipped.iter().map(|a| a.array_name().to_string()).collect()))
    }

    /// The body of both checkpoint calls: stages the segment and the
    /// `to_write` subset of `arrays`, then commits a manifest listing every
    /// array (skipped ones are current on disk, and the staged integrity
    /// union covers both, so restart is oblivious to incrementality).
    fn checkpoint(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        prefix: &str,
        base_segment: &DataSegment,
        arrays: &[&dyn CheckpointArray],
        to_write: &[&dyn CheckpointArray],
    ) -> Result<OpBreakdown> {
        let points = CommitPoints::FOREGROUND;
        self.sop += 1;
        ctx.barrier();
        crash_point(ctx, fs, points.enter, false)?;
        let t0 = ctx.now();

        // Phase 1: one task's data segment, staged.
        stage_segment(ctx, fs, prefix, &points, || {
            encode_segment(base_segment, arrays, self.cfg.fixed_local_bytes)
        })?;
        let t1 = ctx.now();

        // Phase 2: the arrays to write, streamed in sequence, staged.
        let staging = staging_prefix(prefix);
        let io = self.cfg.io.resolve(ctx.ntasks());
        for a in to_write {
            a.write_stream(ctx, fs, &array_path(&staging, a.array_name()), io)?;
            crash_point(ctx, fs, points.after_array, true)?;
        }
        ctx.barrier();
        let t2 = ctx.now();

        let ntasks = ctx.ntasks();
        let t3 = commit_staged(
            ctx,
            fs,
            prefix,
            &points,
            |integrity| Manifest {
                app: self.cfg.app.clone(),
                kind: CkptKind::Drms,
                ntasks,
                sop: self.sop,
                arrays: arrays.iter().map(|&a| ArrayEntry::of(a)).collect(),
                integrity,
                deltas: Vec::new(),
            },
            || {},
        )?;

        for &a in arrays {
            self.saved_versions
                .insert((prefix.to_string(), a.array_name().to_string()), a.version());
        }
        let breakdown = OpBreakdown {
            init: 0.0,
            segment: t1 - t0,
            arrays: t2 - t1,
            segment_bytes: fs.size(&segment_path(prefix))?,
            array_bytes: to_write.iter().map(|a| a.stream_bytes()).sum(),
        };
        phase_span(ctx, Phase::Segment, "write_segment", t0, t1);
        phase_span(ctx, Phase::Arrays, "stream_arrays", t1, t2);
        phase_span(ctx, Phase::Manifest, "write_manifest", t2, t3);
        record_bytes(ctx, breakdown.segment_bytes, breakdown.array_bytes);
        Ok(breakdown)
    }

    /// `drms_reconfig_chkenable`: enabling checkpoint, taken only when the
    /// system has raised the enable signal. The decision is made
    /// collectively (rank 0 samples the flag) so all tasks agree.
    pub fn reconfig_chkenable(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        prefix: &str,
        base_segment: &DataSegment,
        arrays: &[&dyn CheckpointArray],
    ) -> Result<Option<OpBreakdown>> {
        let mine = ctx.rank() == 0 && self.enable.is_raised();
        let (votes, _) = ctx.exchange(mine);
        if !votes[0] {
            return Ok(None);
        }
        if ctx.rank() == 0 {
            self.enable.clear();
        }
        self.reconfig_checkpoint(ctx, fs, prefix, base_segment, arrays).map(Some)
    }

    /// Loads every array from an archived state, after the application has
    /// (re-)created them under the current distributions (adjusted when
    /// `delta != 0`). Returns the array-phase time.
    pub fn restore_arrays(
        &self,
        ctx: &mut Ctx,
        fs: &Piofs,
        prefix: &str,
        manifest: &Manifest,
        arrays: &mut [&mut dyn CheckpointArray],
    ) -> Result<f64> {
        ctx.barrier();
        let t0 = ctx.now();
        let io = self.cfg.io.resolve(ctx.ntasks());
        for a in arrays.iter_mut() {
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
            a.read_stream(ctx, fs, &array_path(prefix, a.array_name()), io)?;
        }
        ctx.barrier();
        crash_point(ctx, fs, CrashPoint::RestartAfterArrays, false)?;
        let t1 = ctx.now();
        phase_span(ctx, Phase::Arrays, "restore_arrays", t0, t1);
        record_bytes(ctx, 0, arrays.iter().map(|a| a.stream_bytes()).sum());
        Ok(t1 - t0)
    }
}

/// Chunk size for integrity records: the file system's stripe unit, clamped
/// to a sane range. Matching the stripe unit means a failing chunk maps
/// directly onto the stripe units a parity repair must reconstruct.
pub fn integrity_chunk(fs: &Piofs) -> u64 {
    fs.cfg().stripe_unit.clamp(1024, 1 << 20)
}

/// Whether the checkpoint under `prefix` verifies end-to-end: the manifest
/// decodes (for v2+ that includes its trailing self-CRC), every file the
/// checkpoint kind mandates exists, and every recorded integrity entry
/// matches its file bitwise. A v1 manifest carries no integrity records and
/// validates on existence alone.
///
/// For an incremental ([`CkptKind::DrmsDelta`]) checkpoint, the chunk
/// tables are verified too: every chunk stored in a *prior* incarnation's
/// pack must still be present there and decode to bytes matching the
/// recorded content hash — a delta checkpoint whose referenced history was
/// lost or rotted is not a valid restart source. Locally stored chunks are
/// covered by this prefix's own integrity records. Control-plane operation
/// (no clock).
pub fn checkpoint_is_valid(fs: &Piofs, prefix: &str) -> bool {
    let Some(bytes) = fs.peek(&manifest_path(prefix)) else { return false };
    let Ok(m) = Manifest::decode(&bytes) else { return false };
    let required: Vec<String> = match m.kind {
        CkptKind::Drms => std::iter::once(segment_path(prefix))
            .chain(m.arrays.iter().map(|a| array_path(prefix, &a.name)))
            .collect(),
        CkptKind::Spmd => (0..m.ntasks).map(|r| task_segment_path(prefix, r)).collect(),
        CkptKind::DrmsDelta => std::iter::once(segment_path(prefix))
            .chain(
                m.deltas.iter().flat_map(|d| d.chunks.iter().map(|c| c.pack_path(prefix, &d.name))),
            )
            .collect(),
    };
    if required.iter().any(|p| !fs.exists(p)) {
        return false;
    }
    if m.kind == CkptKind::DrmsDelta && !delta_chunks_verify(fs, prefix, &m) {
        return false;
    }
    m.integrity
        .iter()
        .all(|fi| fs.peek(&format!("{prefix}/{}", fi.name)).is_some_and(|b| fi.matches(&b)))
}

/// Verifies the referenced (non-local) chunks of a delta manifest against
/// their recorded content hashes. The referenced incarnation's own
/// manifest may be long gone, so this reads the pack bytes directly.
fn delta_chunks_verify(fs: &Piofs, prefix: &str, m: &Manifest) -> bool {
    let mut packs: std::collections::HashMap<String, Vec<u8>> = Default::default();
    for d in &m.deltas {
        for c in &d.chunks {
            if matches!(c.source, crate::manifest::ChunkSource::Local) {
                continue;
            }
            let path = c.pack_path(prefix, &d.name);
            let bytes = match packs.entry(path.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => match fs.peek(&path) {
                    Some(b) => e.insert(b),
                    None => return false,
                },
            };
            let (start, end) = (c.offset as usize, c.offset as usize + c.stored_len as usize);
            if end > bytes.len() {
                return false;
            }
            let Some(raw) = chunks::decode_chunk(c.codec, &bytes[start..end]) else {
                return false;
            };
            if raw.len() as u64 != c.len as u64 || chunks::fnv128(&raw) != c.hash {
                return false;
            }
        }
    }
    true
}

/// Lists all complete checkpoints on the file system, newest SOP first,
/// optionally filtered by application. Control-plane operation (no clock).
pub fn find_checkpoints(fs: &Piofs, app: Option<&str>) -> Vec<(String, Manifest)> {
    let mut out = Vec::new();
    for info in fs.list("") {
        let Some(prefix) = info.path.strip_suffix("/manifest") else { continue };
        let Some(bytes) = fs.peek(&info.path) else { continue };
        let Ok(m) = Manifest::decode(&bytes) else { continue };
        if let Some(app) = app {
            if m.app != app {
                continue;
            }
        }
        out.push((prefix.to_string(), m));
    }
    out.sort_by(|a, b| b.1.sop.cmp(&a.1.sop).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Deletes every file of the checkpoint under `prefix` (manifest first, so
/// a concurrent observer never sees a manifest for missing data). Returns
/// whether a checkpoint existed. Control-plane operation (no clock).
///
/// Deletion is resumable rather than atomic: if it is interrupted after the
/// manifest is gone, the leftover data files are invisible to
/// [`find_checkpoints`] and are reclaimed by the next [`sweep_orphans`]
/// pass.
pub fn delete_checkpoint(fs: &Piofs, prefix: &str) -> bool {
    let manifest = manifest_path(prefix);
    let existed = fs.delete(&manifest);
    for info in fs.list(&format!("{prefix}/")) {
        fs.delete(&info.path);
    }
    // Any staging left by an interrupted checkpoint to this prefix goes
    // with it (it could only ever commit over the state just deleted).
    crate::commit::abort_staged(fs, prefix);
    existed
}

/// Reclaims data files stranded by an interrupted [`delete_checkpoint`] or
/// an interrupted two-phase commit: checkpoint-shaped files (`segment`,
/// `task-{rank}`, `array-{name}`, `delta-{name}`, and the staged
/// `manifest.tmp`) whose prefix has no manifest. A prefix with a
/// quarantined manifest (`manifest.quarantined`) is *not* an orphan — its
/// data is deliberately preserved for diagnosis. Staging prefixes
/// (`{prefix}.tmp`) never hold a file named exactly `manifest`, so crashed
/// checkpoint attempts are always reclaimed here.
///
/// Mark-and-sweep over the delta chunk graph: before deleting anything,
/// every committed (or quarantined) manifest on the file system is decoded
/// and the pack files its chunk tables reference are marked reachable.
/// A marked pack survives even when its own prefix has lost its manifest
/// (delta-aware retention uncommits old incarnations but leaves their
/// packs for the chains that still reference them). Must not run
/// concurrently with a checkpoint being written (data lands before the
/// manifest does). Returns the prefixes files were reclaimed under.
/// Control-plane operation (no clock).
pub fn sweep_orphans(fs: &Piofs) -> Vec<String> {
    let mut prefixes: std::collections::BTreeMap<String, (bool, Vec<String>)> = Default::default();
    let mut reachable: std::collections::BTreeSet<String> = Default::default();
    for info in fs.list("") {
        let Some((prefix, name)) = info.path.rsplit_once('/') else { continue };
        let entry = prefixes.entry(prefix.to_string()).or_default();
        if name == "manifest" || name == "manifest.quarantined" || name == "journal" {
            // A recovery journal is a commit marker for its directory,
            // exactly like a manifest is for a checkpoint.
            entry.0 = true;
            // Mark phase: packs referenced from any committed manifest
            // must survive the sweep, wherever they live.
            if let Some(bytes) = fs.peek(&info.path) {
                if let Ok(m) = Manifest::decode(&bytes) {
                    reachable.extend(m.referenced_packs());
                }
            }
        } else if name == "segment"
            || name == "manifest.tmp"
            || name == "journal.tmp"
            || name.starts_with("task-")
            || name.starts_with("array-")
            || name.starts_with("delta-")
            || name.starts_with("blackbox-")
        {
            entry.1.push(info.path.clone());
        }
    }
    let mut swept = Vec::new();
    for (prefix, (has_manifest, files)) in prefixes {
        if has_manifest || files.is_empty() {
            continue;
        }
        let mut reclaimed = false;
        for f in &files {
            if reachable.contains(f) {
                continue;
            }
            fs.delete(f);
            reclaimed = true;
        }
        if reclaimed {
            swept.push(prefix);
        }
    }
    swept
}

/// Retention policy: keeps the `keep` newest complete checkpoints of `app`
/// and retires the rest. Returns the retired prefixes. The paper notes that
/// applications maintain multiple checkpointed states concurrently via
/// prefixes; long-running jobs need exactly this kind of garbage collection.
///
/// Resilience-aware: when checkpoints newer than the newest *verified* one
/// ([`checkpoint_is_valid`]) exist but fail verification, that verified
/// checkpoint is what a restart would fall back to — so it is never deleted,
/// even when the corrupt newcomers push it past the retention window. When
/// the newest checkpoint verifies, retention behaves classically (and
/// `keep == 0` purges everything).
///
/// Delta-aware: a retired incarnation whose pack files are still referenced
/// by a surviving manifest's chunk table is *uncommitted* rather than
/// deleted — its manifest is removed (so it stops being a restart source
/// and stops counting against retention) but its data files stay, and the
/// next [`sweep_orphans`] pass reclaims exactly the files no surviving
/// chain reaches. This is what keeps retention safe under content-addressed
/// chunk sharing: nothing a retained manifest can reach is ever collected.
pub fn retain_checkpoints(fs: &Piofs, app: &str, keep: usize) -> Vec<String> {
    let all = find_checkpoints(fs, Some(app));
    let protected = match all.iter().position(|(p, _)| checkpoint_is_valid(fs, p)) {
        // Everything newer than index i failed verification, so index i is
        // the restart fallback; protect it. i == 0 means the newest is
        // healthy and needs no special treatment.
        Some(i) if i > 0 => Some(all[i].0.clone()),
        _ => None,
    };
    let victims: Vec<String> = all
        .into_iter()
        .skip(keep)
        .map(|(prefix, _)| prefix)
        .filter(|prefix| Some(prefix) != protected.as_ref())
        .collect();
    // Mark phase over every *surviving* manifest (this app's and others'—
    // chains never cross apps, but playing safe costs nothing): packs under
    // a victim's prefix that are still referenced force the uncommit path.
    let mut referenced: std::collections::BTreeSet<String> = Default::default();
    for info in fs.list("") {
        let Some((prefix, name)) = info.path.rsplit_once('/') else { continue };
        if (name != "manifest" && name != "manifest.quarantined")
            || victims.iter().any(|v| v == prefix)
        {
            continue;
        }
        if let Some(bytes) = fs.peek(&info.path) {
            if let Ok(m) = Manifest::decode(&bytes) {
                referenced.extend(m.referenced_packs());
            }
        }
    }
    for prefix in &victims {
        let dir = format!("{prefix}/");
        if referenced.iter().any(|p| p.starts_with(&dir)) {
            // Uncommit: drop the manifest (and any staging), keep the data.
            fs.delete(&manifest_path(prefix));
            crate::commit::abort_staged(fs, prefix);
        } else {
            delete_checkpoint(fs, prefix);
        }
    }
    victims
}

/// Emits a closed rank-0 phase span over `[start, end]`. The phase totals in
/// the trace summary are built from exactly these spans, with the same
/// timestamps that build the returned [`OpBreakdown`] — so the two can never
/// disagree. Public so out-of-crate checkpoint writers (the delta and async
/// pipelines) report phases under the same convention.
pub fn phase_span(ctx: &Ctx, phase: Phase, name: &str, start: f64, end: f64) {
    if ctx.rank() != 0 || !ctx.recorder().enabled() {
        return;
    }
    let rec = ctx.recorder();
    rec.span_start(start, 0, phase, name);
    rec.span_end(end, 0, phase, name);
}

/// Records the byte totals of one checkpoint/restart operation (rank 0 only,
/// mirroring the synchronized-maximum convention of [`OpBreakdown`]).
pub fn record_bytes(ctx: &Ctx, segment_bytes: u64, array_bytes: u64) {
    if ctx.rank() != 0 || !ctx.recorder().enabled() {
        return;
    }
    let rec = ctx.recorder();
    rec.counter_add_at(ctx.now(), 0, names::SEGMENT_BYTES, None, segment_bytes);
    rec.counter_add_at(ctx.now(), 0, names::ARRAY_BYTES, None, array_bytes);
}

/// Stages a sealed snapshot of every rank's flight ring alongside the
/// checkpoint data, so the ring rides the same two-phase commit as the
/// arrays: staged under `{prefix}.tmp/blackbox-r{rank}`, covered by the
/// staged integrity records, and published (or abandoned) with the rest.
///
/// Seals are snapshots, not drains — overlapping seals from consecutive
/// SOPs and crash salvages dedup exactly at recovery by per-event capture
/// sequence numbers, so only the *newest* recovered seal per rank matters
/// and retention deleting older checkpoints loses nothing.
///
/// The rings land through one *collective* write — every rank contributes
/// its own seal to a single deterministically-priced phase. Concurrent
/// single-client writes would be admitted to the simulated servers in
/// host lock-acquisition order, smearing per-rank completion times across
/// runs; the collective phase prices the whole request set at once, so
/// the flight recorder's own staging never perturbs the determinism it
/// exists to witness. The phase's descriptor exchange doubles as the
/// barrier rank 0 needs before computing staged integrity.
///
/// Strict no-op unless a flight recorder is attached
/// ([`drms_obs::Recorder::flight_enabled`]), so runs without one stay
/// bit-identical. `flight_enabled` is uniform across ranks (it is a
/// property of the shared recorder), so the conditional collective is
/// consistent. Called by [`crate::commit::commit_staged`]; public so the
/// recovery journal commit stages rings under the same convention.
pub fn stage_flight_rings(ctx: &mut Ctx, fs: &Piofs, staging: &str) {
    let rec = ctx.recorder();
    if !rec.flight_enabled() {
        return;
    }
    let (t, r) = (ctx.now(), ctx.rank());
    let mut reqs = Vec::new();
    if let Some(seal) = rec.flight_seal(t, r, "sop") {
        let path = format!("{staging}/{}", drms_blackbox::ring_file_name(r));
        let rec = ctx.recorder();
        rec.counter_add_at(t, r, names::BLACKBOX_SEALS, None, 1);
        rec.counter_add_at(t, r, names::BLACKBOX_SEAL_BYTES, None, seal.bytes.len() as u64);
        rec.counter_add_at(t, r, names::BLACKBOX_EVENTS_CAPTURED, None, seal.events);
        rec.counter_add_at(t, r, names::BLACKBOX_EVENTS_EVICTED, None, seal.evicted);
        reqs.push(WriteReq { path, offset: 0, data: seal.bytes });
    }
    fs.collective_write(ctx, reqs);
}

/// Collective read + decode of a manifest. Public so out-of-crate restart
/// paths (the delta chain's resume) read manifests with the same pricing
/// and error behavior as [`Drms::initialize`].
pub fn read_manifest_collective(ctx: &mut Ctx, fs: &Piofs, prefix: &str) -> Result<Manifest> {
    let path = manifest_path(prefix);
    if !fs.exists(&path) {
        return Err(CoreError::NoCheckpoint(prefix.to_string()));
    }
    let len = fs.size(&path)?;
    let mut got = fs.collective_read(
        ctx,
        vec![ReadReq { path, offset: 0, len, access: ReadAccess::Sequential }],
    )?;
    Ok(Manifest::decode(&got.pop().expect("one request"))?)
}
