//! `delta_chain`: incremental checkpoints over a moving update window.
//!
//! bt's `u` and a constant `forcing` term, on 4 tasks. Each link dirties
//! one quarter of `u` (a moving z-window, so one contiguous quarter of its
//! stream) and takes one `delta_checkpoint`; the chain rewrites fully
//! every `FULL_EVERY` links, so a job of `LINKS` links is one full rewrite
//! and seven deltas. The deltas are the checkpoint operations; the full
//! rewrite is timed as an operation of its own, inside `job_s`. Every `RESTART_EVERY`-th link is then restored onto
//! 3 tasks (`resume` + `restore_arrays_delta`), and the job ends with
//! `sweep_orphans`, after which every link must still verify.

use std::sync::Arc;

use drms_apps::{bt, AppSpec};
use drms_bench::experiment::experiment_fs;
use drms_core::manifest::delta_path;
use drms_core::segment::DataSegment;
use drms_core::{checkpoint_is_valid, sweep_orphans, Drms, DrmsConfig, EnableFlag, Start};
use drms_darray::DistArray;
use drms_delta::{delta_checkpoint, restore_arrays_delta, resume, DeltaChain, DeltaConfig};
use drms_msg::Ctx;
use drms_obs::TraceRecorder;
use drms_piofs::Piofs;
use drms_slices::Order;

use super::{breakdown_record, handles, handles_mut, Workload};
use crate::bench::{Bench, Kind};
use crate::data;
use crate::lockstep::Lockstep;

/// Tasks that update and checkpoint the fields.
pub const CKPT_TASKS: usize = 4;
/// Tasks every restore lands on.
pub const RESTART_TASKS: usize = 3;
/// Links per job.
pub const LINKS: i64 = 8;
/// The chain's full-rewrite epoch.
pub const FULL_EVERY: u64 = 8;
/// Restore every this many links.
pub const RESTART_EVERY: i64 = 2;

fn link_prefix(link: i64) -> String {
    format!("dl/{link}")
}

/// The delta config every link uses: integrity-aligned chunks, RLE on.
pub fn config() -> DeltaConfig {
    DeltaConfig { chunk_bytes: 0, full_every: FULL_EVERY, compress: true }
}

/// `u` and `forcing` under bt's distribution of `u`, allocated (zeroed).
pub fn alloc_fields(spec: &AppSpec, ctx: &Ctx) -> Vec<DistArray<f64>> {
    let fu = &spec.fields[0];
    ["u", "forcing"]
        .iter()
        .map(|n| DistArray::new(n, Order::ColumnMajor, spec.dist(fu, ctx.ntasks()), ctx.rank()))
        .collect()
}

/// Fills `u` with seeded values and `forcing` with a seeded two-value
/// pattern, so RLE has something to compress.
pub fn fill(seed: u64, fields: &mut [DistArray<f64>]) {
    data::fill_seeded(seed, &mut fields[..1]);
    fields[1].fill_assigned(|p| ((p[0] as u64 ^ seed) & 1) as f64 * 0.125);
}

/// Whether link `link` updates point `p`: the points whose z falls in zone
/// `(link - 1) % 4` of four equal z-zones.
fn touched(grid: i64, p: &[i64], link: i64) -> bool {
    (p[3] - 1) / (grid / 4) == (link - 1) % 4
}

/// The benchmark's own compute between links: bump the window.
pub fn advance(grid: i64, u: &mut DistArray<f64>, link: i64) {
    let region = u.assigned().clone();
    region.points(Order::ColumnMajor).for_each(|p| {
        if touched(grid, p, link) {
            let v = u.get(p).expect("assigned point");
            u.set(p, v + 0.25).expect("assigned point");
        }
    });
}

/// One job: `LINKS` links on 4 tasks, restores of every
/// `RESTART_EVERY`-th link on 3 tasks, then the sweep.
pub fn job(b: &Bench, obs: Option<&Arc<TraceRecorder>>) {
    let spec = bt(b.cfg.class);
    let cfg = spec.drms_config();
    let fs = experiment_fs(spec.class, b.cfg.seed);
    if let Some(rec) = obs {
        fs.set_recorder(rec.clone());
    }
    Drms::install_binary(&fs, &cfg);

    let ls = Lockstep::new(CKPT_TASKS);
    let dcfg = config();
    let wants = b.region(CKPT_TASKS, obs, |ctx| {
        let rank = ctx.rank();
        let init = Drms::initialize(ctx, &fs, cfg.clone(), EnableFlag::new(), None);
        let (mut drms, _) = b.agree(&ls, rank, "drms_initialize", init)?;
        let mut fields = Workload::DeltaChain.fields(spec.class, b.cfg.seed, ctx);
        let mut seg = DataSegment::new();
        let mut chain = DeltaChain::new();
        let mut wants = Vec::new();
        for link in 1..=LINKS {
            advance(spec.grid() as i64, &mut fields[0], link);
            seg.set_control("iter", link);
            let prefix = link_prefix(link);
            // A full rewrite costs about 1.5 deltas; filed with the deltas it
            // would make the checkpoint times bimodal, and the tail would
            // flip between the modes with the sample count.
            let full = ((link - 1) as u64).is_multiple_of(FULL_EVERY);
            let (kind, name) =
                if full { (Kind::Other, "op.full") } else { (Kind::Ckpt, "op.ckpt") };
            let rep = b.op(&ls, ctx, kind, name, |ctx| {
                let hs = handles(&fields);
                b.call(rank, "delta.delta_checkpoint", 0, || {
                    delta_checkpoint(&mut drms, &mut chain, &dcfg, ctx, &fs, &prefix, &seg, &hs)
                })
                .map_err(|e| e.to_string())
            })?;
            if rank == 0 {
                let mut rec = breakdown_record(&rep.breakdown);
                rec.extend([
                    rep.dirty_chunks,
                    rep.clean_chunks,
                    rep.dedup_hits,
                    rep.pack_bytes,
                    rep.compressed_saved,
                ]);
                b.record("delta checkpoint", rec);
                b.check(if rep.full == full {
                    Ok(())
                } else {
                    Err(format!("{prefix}: full rewrite {} where {full} was due", rep.full))
                });
            }
            if link % RESTART_EVERY == 0 {
                wants.push((link, b.expected_digest(b.digest(&ls, ctx, &fields))));
            }
        }
        Some(wants)
    });
    let Some(wants) = wants.and_then(|w| w.into_iter().next().flatten()) else { return };

    for (link, want) in wants {
        restore(b, obs, &fs, &spec, &cfg, link, want);
    }
    if b.cfg.faults.flip_stream_byte {
        // Rot the last link after its restore: a delta restore that meets
        // a bad chunk fails on one task while the others wait out the
        // message layer's stall guard, so the sweep check is the target.
        fs.corrupt_range(&delta_path(&link_prefix(LINKS), "u"), 0, 1, 7);
    }

    let timer = b.start_op("op.sweep");
    b.call(0, "core.sweep_orphans", 0, || sweep_orphans(&fs));
    b.finish_op(timer, Kind::Other, Ok(()));
    for link in 1..=LINKS {
        let prefix = link_prefix(link);
        let valid = b.call(0, "resil.checkpoint_is_valid", 0, || checkpoint_is_valid(&fs, &prefix));
        b.check(if valid {
            Ok(())
        } else {
            Err(format!("{prefix}: checkpoint_is_valid failed after sweep_orphans"))
        });
    }
}

/// Restores link `link` onto `RESTART_TASKS` tasks, timed from region
/// start to the moment every task holds the restored fields.
fn restore(
    b: &Bench,
    obs: Option<&Arc<TraceRecorder>>,
    fs: &Arc<Piofs>,
    spec: &AppSpec,
    cfg: &DrmsConfig,
    link: i64,
    want: u64,
) {
    let prefix = link_prefix(link);
    let what = format!("restore of {prefix}");
    let timer = b.start_op("op.restart");
    let restore = |ctx: &mut Ctx| {
        let mut fields = alloc_fields(spec, ctx);
        let rec = b.call(ctx.rank(), "delta.resume_restore", spec.stream_bytes(), || {
            let (drms, start) = resume(ctx, fs, cfg.clone(), EnableFlag::new(), &prefix)?;
            let Start::Restarted(info) = start else {
                return Err(drms_core::CoreError::ManifestMismatch("fresh start".into()));
            };
            let mut hs = handles_mut(&mut fields);
            let arrays = restore_arrays_delta(&drms, ctx, fs, &prefix, &info.manifest, &mut hs)?;
            Ok(vec![info.init_time.to_bits(), info.segment_time.to_bits(), arrays.to_bits()])
        });
        Ok((rec.map_err(|e| e.to_string())?, fields))
    };
    b.restart_region(timer, RESTART_TASKS, obs, &what, want, restore, |f| f.as_slice());
}
