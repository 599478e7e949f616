//! The asynchronous checkpointer: backpressure, detached flush, and the
//! deterministic flusher timeline.

use std::collections::VecDeque;

use drms_core::chaos::CommitPoints;
use drms_core::commit::{commit_staged, stage_segment, staging_prefix};
use drms_core::crash_point;
use drms_core::manifest::{array_path, delta_path, manifest_path, ArrayEntry, CkptKind, Manifest};
use drms_core::segment::DataSegment;
use drms_core::{CheckpointArray, CoreError, Drms};
use drms_darray::stream::assemble_pieces;
use drms_delta::{record_chain, record_stage, DeltaChain, DeltaConfig, StageStats};
use drms_memtier::{spill_to_staging, store_captured, MemTier};
use drms_msg::Ctx;
use drms_obs::{names, Phase};
use drms_piofs::{Piofs, WriteReq};

use crate::snapshot::Snapshot;
use crate::{micros, Result};

/// Tuning knobs of the asynchronous pipeline.
#[derive(Debug, Clone, Copy)]
pub struct AsyncConfig {
    /// Maximum snapshots in flight behind the flusher. An SOP arriving
    /// with the budget exhausted stalls until the oldest flush commits
    /// (clamped to at least 1).
    pub budget: usize,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig { budget: 2 }
    }
}

/// One armed snapshot moving through the background flusher.
#[derive(Debug, Clone, PartialEq)]
pub struct Flight {
    /// Checkpoint prefix the flush publishes to.
    pub prefix: String,
    /// SOP number of the snapshot.
    pub sop: u64,
    /// Virtual time the snapshot finished capturing (flush becomes
    /// eligible here).
    pub t_snap: f64,
    /// Virtual time the flusher actually started on it (after older
    /// flights drained).
    pub start: f64,
    /// Virtual time the flush commit becomes visible.
    pub finish: f64,
    /// Stream bytes the flush moves.
    pub bytes: u64,
    /// Critical-path seconds charged to this flight so far (backpressure
    /// and drain waits).
    pub stall: f64,
}

/// Delta-mode statistics of one asynchronous checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaSummary {
    /// Whether this checkpoint was a full rewrite (chain restart).
    pub full: bool,
    /// Chunk statistics of the staging pass (rank 0's view).
    pub stats: StageStats,
    /// Chain depth after the commit.
    pub chain_depth: u64,
}

/// What one asynchronous checkpoint did (foreground view).
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncReport {
    /// SOP number of the snapshot.
    pub sop: u64,
    /// Critical-path seconds spent capturing the snapshot.
    pub snapshot_seconds: f64,
    /// Seconds of flusher work the checkpoint enqueued (measured on the
    /// detached clock).
    pub flush_seconds: f64,
    /// Seconds between arming and the commit becoming visible (queueing
    /// behind older flights included).
    pub lag: f64,
    /// Virtual time the commit becomes visible.
    pub finish: f64,
    /// Stream bytes captured across all tasks.
    pub bytes: u64,
    /// Backpressure seconds paid before this snapshot could arm.
    pub stalled: f64,
    /// Delta-mode statistics, when taken through
    /// [`AsyncCheckpointer::checkpoint_delta`].
    pub delta: Option<DeltaSummary>,
}

/// The pipeline state every task keeps in lockstep: armed flights and the
/// flusher's free horizon. All of it is computed from barrier-synchronized
/// timestamps and detached-clock durations, so every task holds the exact
/// same values without further communication.
#[derive(Debug, Default)]
pub struct AsyncCheckpointer {
    cfg: AsyncConfig,
    flights: VecDeque<Flight>,
    free_at: f64,
    stalls: u64,
    stall_seconds: f64,
}

impl AsyncCheckpointer {
    /// A fresh pipeline under `cfg`.
    pub fn new(cfg: AsyncConfig) -> AsyncCheckpointer {
        AsyncCheckpointer {
            cfg,
            flights: VecDeque::new(),
            free_at: 0.0,
            stalls: 0,
            stall_seconds: 0.0,
        }
    }

    /// Snapshots currently in flight (armed, commit not yet visible at the
    /// last synchronization point).
    pub fn inflight(&self) -> usize {
        self.flights.len()
    }

    /// Backpressure engagements so far.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Critical-path seconds lost to backpressure and drain waits so far.
    pub fn stall_seconds(&self) -> f64 {
        self.stall_seconds
    }

    /// Virtual time the flusher becomes idle (the newest flight's finish).
    pub fn free_at(&self) -> f64 {
        self.free_at
    }

    /// Retires every flight whose commit is visible at `now`, publishing
    /// its overlap ratio (fraction of the flush window hidden off the
    /// critical path).
    fn retire(&mut self, ctx: &Ctx, now: f64) {
        while let Some(f) = self.flights.front() {
            if f.finish > now {
                break;
            }
            let f = self.flights.pop_front().expect("front exists");
            if ctx.rank() == 0 && ctx.recorder().enabled() {
                let window = (f.finish - f.t_snap).max(0.0);
                let overlap =
                    if window > 0.0 { (1.0 - f.stall / window).clamp(0.0, 1.0) } else { 1.0 };
                let rec = ctx.recorder();
                rec.gauge_set_at(f.finish, 0, names::ASYNC_OVERLAP_RATIO, 0, overlap);
                rec.gauge_set_at(f.finish, 0, names::ASYNC_INFLIGHT, 0, self.flights.len() as f64);
            }
        }
    }

    /// Backpressure gate at an SOP: reconciles clocks, retires visible
    /// commits, and — while the in-flight count still meets the budget —
    /// waits for the oldest flush, charging exactly that residual wait to
    /// compute. Returns the seconds stalled.
    fn await_slot(&mut self, ctx: &mut Ctx) -> f64 {
        ctx.barrier();
        let mut stalled = 0.0;
        loop {
            let now = ctx.now();
            self.retire(ctx, now);
            if self.flights.len() < self.cfg.budget.max(1) {
                break;
            }
            let finish = self.flights.front().expect("budget > 0").finish;
            let wait = (finish - now).max(0.0);
            stalled += wait;
            self.flights.front_mut().expect("budget > 0").stall += wait;
            if ctx.rank() == 0 && ctx.recorder().enabled() {
                let rec = ctx.recorder();
                rec.counter_add_at(now, 0, names::ASYNC_BACKPRESSURE_STALLS, None, 1);
                rec.counter_add_at(now, 0, names::ASYNC_STALL_US, None, micros(wait));
            }
            ctx.advance_to(finish);
        }
        self.stalls += if stalled > 0.0 { 1 } else { 0 };
        self.stall_seconds += stalled;
        stalled
    }

    /// Waits until every armed flight's commit is visible (collective).
    /// Call before the application exits or measures final state — an
    /// asynchronous checkpoint is only durable once its flight retires.
    /// Returns the critical-path seconds the drain cost.
    pub fn drain(&mut self, ctx: &mut Ctx) -> f64 {
        ctx.barrier();
        let start = ctx.now();
        while let Some(f) = self.flights.front() {
            let finish = f.finish;
            let now = ctx.now();
            if finish > now {
                let wait = finish - now;
                self.flights.front_mut().expect("front exists").stall += wait;
                if ctx.rank() == 0 && ctx.recorder().enabled() {
                    ctx.recorder().counter_add_at(
                        now,
                        0,
                        names::ASYNC_STALL_US,
                        None,
                        micros(wait),
                    );
                }
                ctx.advance_to(finish);
            }
            self.retire(ctx, ctx.now());
        }
        let waited = ctx.now() - start;
        self.stall_seconds += waited;
        waited
    }

    /// Asynchronous `drms_reconfig_checkpoint`: waits out backpressure,
    /// advances the SOP, captures a COW snapshot (the only cost left on
    /// the critical path), then runs the flush in a detached virtual-time
    /// region — through the replica `tier` when given, directly to staged
    /// PIOFS files otherwise — and books the flight on the deterministic
    /// flusher timeline. The committed checkpoint is bitwise identical to
    /// a blocking [`Drms::reconfig_checkpoint`] of the same state.
    #[allow(clippy::too_many_arguments)]
    pub fn checkpoint(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        drms: &mut Drms,
        prefix: &str,
        base_segment: &DataSegment,
        arrays: &[&dyn CheckpointArray],
        tier: Option<&MemTier>,
    ) -> Result<AsyncReport> {
        let stalled = self.await_slot(ctx);
        drms.advance_sop();
        ctx.barrier();
        crash_point(ctx, fs, CommitPoints::FOREGROUND.enter, false)?;
        let t_sop = ctx.now();

        let snap = Snapshot::capture(ctx, drms, base_segment, arrays)?;
        ctx.barrier();
        let t_snap = ctx.now();
        crash_point(ctx, fs, CommitPoints::DETACHED.enter, false)?;

        let (flushed, d) = ctx.run_detached(|ctx| flush_full(ctx, fs, tier, prefix, &snap));
        if let Err(e) = flushed {
            if ctx.rank() == 0 && ctx.recorder().enabled() {
                ctx.recorder().counter_add_at(t_snap, 0, names::ASYNC_FLUSH_ABORTS, None, 1);
            }
            return Err(e);
        }
        Ok(self.arm(ctx, prefix, snap.sop, snap.total_bytes, t_sop, t_snap, d, stalled, None))
    }

    /// Asynchronous incremental checkpoint: the chunk diff/dedup pass runs
    /// in the foreground at the SOP — content digests must describe the
    /// snapshot, not whatever the arrays mutate into — and only the
    /// surviving pack bytes ride the background flush. Composes with the
    /// same [`DeltaChain`] two-phase state as
    /// [`drms_delta::delta_checkpoint`]: the chain commits only after the
    /// flush's manifest rename, and aborts if the flush dies.
    #[allow(clippy::too_many_arguments)]
    pub fn checkpoint_delta(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        drms: &mut Drms,
        chain: &mut DeltaChain,
        dcfg: &DeltaConfig,
        prefix: &str,
        base_segment: &DataSegment,
        arrays: &[&dyn CheckpointArray],
    ) -> Result<AsyncReport> {
        if fs.exists(&manifest_path(prefix)) {
            return Err(CoreError::ManifestMismatch(format!(
                "delta checkpoints require a fresh prefix, but {prefix:?} already holds a \
                 committed checkpoint"
            ))
            .into());
        }
        let stalled = self.await_slot(ctx);
        drms.advance_sop();
        let full = chain.begin(dcfg);
        ctx.barrier();
        if let Err(e) = crash_point(ctx, fs, CommitPoints::FOREGROUND.enter, false) {
            chain.abort();
            return Err(e.into());
        }
        let t_sop = ctx.now();

        let plan =
            match capture_delta(ctx, fs, chain, dcfg, drms, prefix, base_segment, arrays, full) {
                Ok(p) => p,
                Err(e) => {
                    chain.abort();
                    return Err(e);
                }
            };
        ctx.barrier();
        let t_snap = ctx.now();
        record_stage(ctx, prefix, &plan.stats, full, t_sop, t_snap);
        if let Err(e) = crash_point(ctx, fs, CommitPoints::DETACHED.enter, false) {
            chain.abort();
            return Err(e.into());
        }

        let (flushed, d) = ctx.run_detached(|ctx| flush_delta(ctx, fs, prefix, &plan));
        if let Err(e) = flushed {
            chain.abort();
            if ctx.rank() == 0 && ctx.recorder().enabled() {
                ctx.recorder().counter_add_at(t_snap, 0, names::ASYNC_FLUSH_ABORTS, None, 1);
            }
            return Err(e);
        }
        chain.commit(prefix);
        let summary = DeltaSummary { full, stats: plan.stats, chain_depth: chain.depth() };
        record_chain(ctx, t_snap, summary.chain_depth, plan.stats.dirty_ratio());
        let (sop, bytes) = (plan.manifest.sop, plan.total_bytes);
        Ok(self.arm(ctx, prefix, sop, bytes, t_sop, t_snap, d, stalled, Some(summary)))
    }

    /// Books a completed detached flush on the flusher timeline and emits
    /// the pipeline's observability: the snapshot span covers the
    /// critical-path capture, the flush span covers the full lag window
    /// `[t_snap, finish]` (so span seconds equal the lag counter), both
    /// under [`Phase::Async`].
    #[allow(clippy::too_many_arguments)]
    fn arm(
        &mut self,
        ctx: &Ctx,
        prefix: &str,
        sop: u64,
        bytes: u64,
        t_sop: f64,
        t_snap: f64,
        d: f64,
        stalled: f64,
        delta: Option<DeltaSummary>,
    ) -> AsyncReport {
        let start = self.free_at.max(t_snap);
        let finish = start + d;
        self.free_at = finish;
        self.flights.push_back(Flight {
            prefix: prefix.to_string(),
            sop,
            t_snap,
            start,
            finish,
            bytes,
            stall: 0.0,
        });
        if ctx.rank() == 0 && ctx.recorder().enabled() {
            let rec = ctx.recorder();
            rec.span_start(t_sop, 0, Phase::Async, "snapshot");
            rec.span_end(t_snap, 0, Phase::Async, "snapshot");
            rec.counter_add_at(t_snap, 0, names::ASYNC_SNAPSHOTS, None, 1);
            rec.counter_add_at(t_snap, 0, names::ASYNC_SNAPSHOT_BYTES, None, bytes);
            rec.gauge_set_at(t_snap, 0, names::ASYNC_INFLIGHT, 0, self.flights.len() as f64);
            rec.span_start(t_snap, 0, Phase::Async, "flush");
            rec.span_end(finish, 0, Phase::Async, "flush");
            rec.counter_add_at(finish, 0, names::ASYNC_FLUSHES, None, 1);
            rec.counter_add_at(finish, 0, names::ASYNC_FLUSH_LAG_US, None, micros(finish - t_snap));
            rec.event(t_snap, 0, Phase::Async, &format!("AsyncArmed {prefix}"));
        }
        AsyncReport {
            sop,
            snapshot_seconds: t_snap - t_sop,
            flush_seconds: d,
            lag: finish - t_snap,
            finish,
            bytes,
            stalled,
            delta,
        }
    }
}

/// The background flush of a full snapshot: through the replica tier when
/// one is attached (replicate, seal, spill resident pieces to staging),
/// directly to staged PIOFS files otherwise; then the staged-commit
/// pipeline every checkpoint path shares. Runs inside a detached
/// virtual-time region under the [`CommitPoints::DETACHED`] family, so
/// chaos campaigns can cut the flush at every stage without perturbing
/// blocking checkpoints.
fn flush_full(
    ctx: &mut Ctx,
    fs: &Piofs,
    tier: Option<&MemTier>,
    prefix: &str,
    snap: &Snapshot,
) -> Result<u64> {
    let points = CommitPoints::DETACHED;
    if let Some(tier) = tier {
        let manifest = snap.manifest(Vec::new()).encode();
        let file_lens = snap.file_lens();
        let pieces = snap.tier_pieces(tier.piece_bytes());
        store_captured(ctx, tier, prefix, &snap.app, snap.sop, manifest, &file_lens, pieces)?;
        crash_point(ctx, fs, points.after_segment, true)?;
        spill_to_staging(ctx, fs, tier, prefix)?;
        ctx.barrier();
        crash_point(ctx, fs, points.after_array, true)?;
    } else {
        stage_segment(ctx, fs, prefix, &points, || {
            snap.segment.as_ref().expect("rank 0 captured the segment")
        })?;
        let staging = staging_prefix(prefix);
        for a in &snap.arrays {
            let path = array_path(&staging, &a.entry.name);
            if ctx.rank() == 0 {
                fs.create(&path);
            }
            ctx.barrier();
            let reqs: Vec<WriteReq> = a
                .pieces
                .iter()
                .map(|p| WriteReq { path: path.clone(), offset: p.offset, data: p.data.clone() })
                .collect();
            fs.collective_write(ctx, reqs);
            crash_point(ctx, fs, points.after_array, true)?;
        }
        ctx.barrier();
    }
    commit_staged(
        ctx,
        fs,
        prefix,
        &points,
        |integrity| snap.manifest(integrity),
        || {
            if let Some(tier) = tier {
                tier.mark_spilled(prefix);
            }
        },
    )?;
    Ok(snap.total_bytes)
}

/// Everything the delta flush writes, staged at the SOP: the chunk diff
/// runs in the foreground so the digests describe the snapshot.
struct DeltaPlan {
    /// The v3 manifest, less its integrity records (chunk tables on rank 0).
    manifest: Manifest,
    /// Encoded segment without the local-sections region (rank 0).
    segment: Option<Vec<u8>>,
    /// Pack bytes per array, in declaration order (rank 0).
    packs: Vec<(String, Vec<u8>)>,
    stats: StageStats,
    total_bytes: u64,
}

#[allow(clippy::too_many_arguments)]
fn capture_delta(
    ctx: &mut Ctx,
    fs: &Piofs,
    chain: &mut DeltaChain,
    dcfg: &DeltaConfig,
    drms: &Drms,
    prefix: &str,
    base_segment: &DataSegment,
    arrays: &[&dyn CheckpointArray],
    full: bool,
) -> Result<DeltaPlan> {
    let params = dcfg.params(fs);
    let mut segment = None;
    let mut captured = 0u64;
    if ctx.rank() == 0 {
        let bytes = base_segment.encode_with_region(None);
        captured += bytes.len() as u64;
        segment = Some(bytes);
    }
    let mut manifest = Manifest {
        app: drms.cfg().app.clone(),
        kind: CkptKind::DrmsDelta,
        ntasks: ctx.ntasks(),
        sop: drms.sop(),
        arrays: arrays.iter().map(|&a| ArrayEntry::of(a)).collect(),
        integrity: Vec::new(),
        deltas: Vec::new(),
    };
    let mut packs = Vec::new();
    let mut stats = StageStats::default();
    for a in arrays {
        let pieces = a.stream_pieces(ctx, 1)?;
        if ctx.rank() == 0 {
            let stream = assemble_pieces(pieces);
            captured += stream.len() as u64;
            let (table, pack, s) =
                chain.stage_array(fs, prefix, a.array_name(), &stream, params, full, dcfg.compress);
            stats.add(s);
            packs.push((a.array_name().to_string(), pack));
            manifest.deltas.push(table);
        }
    }
    // The diff pass reads the full stream on the representative task:
    // price the pass at memory bandwidth like any snapshot copy.
    ctx.charge(captured as f64 / ctx.cost().memcpy_bw);
    let (per_task, _) = ctx.exchange(captured);
    let total_bytes = per_task.iter().sum();
    Ok(DeltaPlan { manifest, segment, packs, stats, total_bytes })
}

/// The background flush of a staged delta plan: segment and pack files,
/// then the staged-commit pipeline under the same
/// [`CommitPoints::DETACHED`] family as the full path.
fn flush_delta(ctx: &mut Ctx, fs: &Piofs, prefix: &str, plan: &DeltaPlan) -> Result<u64> {
    let points = CommitPoints::DETACHED;
    stage_segment(ctx, fs, prefix, &points, || {
        plan.segment.as_ref().expect("rank 0 captured the segment")
    })?;
    let staging = staging_prefix(prefix);
    for i in 0..plan.manifest.arrays.len() {
        if ctx.rank() == 0 {
            let (name, pack) = &plan.packs[i];
            let path = delta_path(&staging, name);
            fs.create(&path);
            if !pack.is_empty() {
                fs.write_at(ctx, &path, 0, pack);
            }
        }
        crash_point(ctx, fs, points.after_array, true)?;
    }
    ctx.barrier();
    let manifest = |integrity| Manifest { integrity, ..plan.manifest.clone() };
    commit_staged(ctx, fs, prefix, &points, manifest, || {})?;
    Ok(plan.stats.pack_bytes)
}
