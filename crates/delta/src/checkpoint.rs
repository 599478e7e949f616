//! The incremental checkpoint writer.

use drms_core::chaos::CommitPoints;
use drms_core::commit::{commit_staged, stage_segment, staging_prefix};
use drms_core::crash_point;
use drms_core::manifest::{
    delta_path, manifest_path, segment_path, ArrayDelta, ArrayEntry, CkptKind, Manifest,
};
use drms_core::report::OpBreakdown;
use drms_core::segment::DataSegment;
use drms_core::{phase_span, record_bytes, CheckpointArray, CoreError, Drms, Result};
use drms_darray::stream::assemble_pieces;
use drms_msg::Ctx;
use drms_obs::{names, Phase};
use drms_piofs::Piofs;

use crate::chain::{DeltaChain, DeltaConfig, StageStats};

/// What one incremental checkpoint did. The byte/chunk statistics are
/// gathered on the representative task (rank 0, which owns the canonical
/// streams); other ranks see zeros there but agree on `full` and the
/// breakdown's synchronized timings.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Phase timings and byte totals (array bytes are *pack bytes
    /// written*, the quantity incremental checkpointing reduces).
    pub breakdown: OpBreakdown,
    /// Whether this checkpoint was a full rewrite (chain restart).
    pub full: bool,
    /// Chunks whose content changed and had to be re-stored.
    pub dirty_chunks: u64,
    /// Chunks carried forward by reference, unwritten.
    pub clean_chunks: u64,
    /// Dirty chunks satisfied by content-hash dedup instead of a write.
    pub dedup_hits: u64,
    /// Pack bytes written across all arrays.
    pub pack_bytes: u64,
    /// Bytes saved by per-chunk compression.
    pub compressed_saved: u64,
    /// Chain depth after this checkpoint committed.
    pub chain_depth: u64,
}

impl DeltaReport {
    /// Dirty-chunk ratio of this checkpoint (1.0 when nothing was carried
    /// forward — the signal the delta-collapse pulse rule watches).
    pub fn dirty_ratio(&self) -> f64 {
        let stats =
            StageStats { dirty: self.dirty_chunks, clean: self.clean_chunks, ..Default::default() };
        stats.dirty_ratio()
    }
}

/// Takes an incremental checkpoint of the application state to a **fresh**
/// `prefix` (each incarnation gets its own prefix; chunk references name
/// prefixes, so delta checkpoints never overwrite one).
///
/// The representative task writes the shared data segment *without* the
/// local-sections region — arrays restore from their chunk streams, so
/// duplicating their bytes into the segment would defeat the reduction —
/// then every array's canonical stream is gathered to rank 0, chunked,
/// diffed against the last committed checkpoint, deduplicated by content
/// hash, optionally compressed per chunk, and only the surviving chunks are
/// written to the staged pack file. The manifest (v3, with per-chunk
/// records) publishes through the same two-phase commit as
/// [`Drms::reconfig_checkpoint`], with the same crash-point sequence; the
/// chain state itself is two-phase, committing only after the manifest
/// rename, so a crashed attempt never marks chunks clean.
#[allow(clippy::too_many_arguments)]
pub fn delta_checkpoint(
    drms: &mut Drms,
    chain: &mut DeltaChain,
    cfg: &DeltaConfig,
    ctx: &mut Ctx,
    fs: &Piofs,
    prefix: &str,
    base_segment: &DataSegment,
    arrays: &[&dyn CheckpointArray],
) -> Result<DeltaReport> {
    match run(drms, chain, cfg, ctx, fs, prefix, base_segment, arrays) {
        Ok(mut report) => {
            chain.commit(prefix);
            report.chain_depth = chain.depth();
            record_chain(ctx, ctx.now(), report.chain_depth, report.dirty_ratio());
            Ok(report)
        }
        Err(e) => {
            chain.abort();
            Err(e)
        }
    }
}

/// Records one incremental checkpoint's staging pass on rank 0: a
/// [`Phase::Delta`] span over `[start, end]` and, at `end`, its chunk
/// counters. Shared by the blocking writer and the asynchronous pipeline,
/// which runs the same pass in the foreground.
pub fn record_stage(ctx: &Ctx, prefix: &str, stats: &StageStats, full: bool, start: f64, end: f64) {
    if ctx.rank() != 0 || !ctx.recorder().enabled() {
        return;
    }
    let rec = ctx.recorder();
    rec.span_start(start, 0, Phase::Delta, prefix);
    rec.counter_add_at(end, 0, names::DELTA_DIRTY_CHUNKS, None, stats.dirty);
    rec.counter_add_at(end, 0, names::DELTA_CLEAN_CHUNKS, None, stats.clean);
    rec.counter_add_at(end, 0, names::DELTA_DEDUP_HITS, None, stats.dedup);
    rec.counter_add_at(end, 0, names::DELTA_BYTES_WRITTEN, None, stats.pack_bytes);
    rec.counter_add_at(end, 0, names::DELTA_COMPRESSED_BYTES, None, stats.saved);
    if full {
        rec.counter_add_at(end, 0, names::DELTA_FULL_REWRITES, None, 1);
    }
    rec.span_end(end, 0, Phase::Delta, prefix);
}

/// Records the chain gauges at `t` on rank 0, once a checkpoint's chain
/// state has committed.
pub fn record_chain(ctx: &Ctx, t: f64, depth: u64, dirty_ratio: f64) {
    if ctx.rank() != 0 || !ctx.recorder().enabled() {
        return;
    }
    let rec = ctx.recorder();
    rec.gauge_set_at(t, 0, names::DELTA_CHAIN_DEPTH, 0, depth as f64);
    rec.gauge_set_at(t, 0, names::DELTA_DIRTY_RATIO, 0, dirty_ratio);
}

#[allow(clippy::too_many_arguments)]
fn run(
    drms: &mut Drms,
    chain: &mut DeltaChain,
    cfg: &DeltaConfig,
    ctx: &mut Ctx,
    fs: &Piofs,
    prefix: &str,
    base_segment: &DataSegment,
    arrays: &[&dyn CheckpointArray],
) -> Result<DeltaReport> {
    // Fresh-prefix requirement: committing here would clobber a checkpoint
    // that other chain links may reference by prefix.
    if fs.exists(&manifest_path(prefix)) {
        return Err(CoreError::ManifestMismatch(format!(
            "delta checkpoints require a fresh prefix, but {prefix:?} already holds a \
             committed checkpoint"
        )));
    }

    let points = CommitPoints::FOREGROUND;
    drms.advance_sop();
    let full = chain.begin(cfg);
    ctx.barrier();
    crash_point(ctx, fs, points.enter, false)?;
    let t0 = ctx.now();

    // Phase 1: the shared data segment, staged, without the local-sections
    // region (arrays restore from their chunk streams, not segment locals).
    stage_segment(ctx, fs, prefix, &points, || base_segment.encode_with_region(None))?;
    let t1 = ctx.now();

    // Phase 2: gather each array's canonical stream to rank 0, chunk,
    // diff, dedup, and stage only the surviving chunks as a pack file.
    let staging = staging_prefix(prefix);
    let params = cfg.params(fs);
    let mut stats = StageStats::default();
    let mut deltas: Vec<ArrayDelta> = Vec::new();
    for a in arrays {
        let pieces = a.stream_pieces(ctx, 1)?;
        if ctx.rank() == 0 {
            let stream = assemble_pieces(pieces);
            let (table, pack, s) =
                chain.stage_array(fs, prefix, a.array_name(), &stream, params, full, cfg.compress);
            let pack_path = delta_path(&staging, a.array_name());
            fs.create(&pack_path);
            if !pack.is_empty() {
                fs.write_at(ctx, &pack_path, 0, &pack);
            }
            stats.add(s);
            deltas.push(table);
        }
        crash_point(ctx, fs, points.after_array, true)?;
    }
    record_stage(ctx, prefix, &stats, full, t1, ctx.now());
    ctx.barrier();
    let t2 = ctx.now();

    // Manifest v3, then the two-phase publish.
    let (app, ntasks, sop) = (drms.cfg().app.clone(), ctx.ntasks(), drms.sop());
    let t3 = commit_staged(
        ctx,
        fs,
        prefix,
        &points,
        |integrity| Manifest {
            app,
            kind: CkptKind::DrmsDelta,
            ntasks,
            sop,
            arrays: arrays.iter().map(|&a| ArrayEntry::of(a)).collect(),
            integrity,
            deltas,
        },
        || {},
    )?;

    let breakdown = OpBreakdown {
        init: 0.0,
        segment: t1 - t0,
        arrays: t2 - t1,
        segment_bytes: fs.size(&segment_path(prefix))?,
        array_bytes: stats.pack_bytes,
    };
    phase_span(ctx, Phase::Segment, "write_segment", t0, t1);
    phase_span(ctx, Phase::Arrays, "stage_deltas", t1, t2);
    phase_span(ctx, Phase::Manifest, "write_manifest", t2, t3);
    record_bytes(ctx, breakdown.segment_bytes, breakdown.array_bytes);
    Ok(DeltaReport {
        breakdown,
        full,
        dirty_chunks: stats.dirty,
        clean_chunks: stats.clean,
        dedup_hits: stats.dedup,
        pack_bytes: stats.pack_bytes,
        compressed_saved: stats.saved,
        chain_depth: 0, // filled in after commit
    })
}
