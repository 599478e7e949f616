//! Conventional (non-reconfigurable) SPMD checkpointing — the paper's
//! comparison baseline, similar to the approaches of [6, 10, 18].
//!
//! Every task saves its *entire* data segment — stack, replicated and
//! private data, and the full (compile-time-fixed) storage of its mapped
//! array sections — to a private file, synchronizing at the end. The run-time
//! knows nothing about distributed data structures, so:
//!
//! * the saved state grows linearly with the number of tasks (Table 3);
//! * a restart requires **exactly** the task count the checkpoint was taken
//!   with ([`CoreError::TaskCountFixed`] otherwise) — no reconfigured
//!   recovery.

use drms_msg::Ctx;
use drms_obs::Phase;
use drms_piofs::{Piofs, ReadAccess, ReadReq, WriteReq};

use crate::drms::{phase_span, record_bytes};
use crate::handle::{encode_segment, CheckpointArray};
use crate::manifest::{manifest_path, task_segment_path, CkptKind, Manifest};
use crate::report::OpBreakdown;
use crate::segment::DataSegment;
use crate::{CoreError, DrmsConfig, Result};

/// Conventional SPMD checkpoint: every task writes its full segment to its
/// own file. Collective.
pub fn checkpoint(
    ctx: &mut Ctx,
    fs: &Piofs,
    cfg: &DrmsConfig,
    prefix: &str,
    base_segment: &DataSegment,
    arrays: &[&dyn CheckpointArray],
    sop: u64,
) -> Result<OpBreakdown> {
    ctx.barrier();
    let t0 = ctx.now();

    let bytes = encode_segment(base_segment, arrays, cfg.fixed_local_bytes);
    let path = task_segment_path(prefix, ctx.rank());
    fs.create(&path);
    fs.collective_write(ctx, vec![WriteReq { path, offset: 0, data: bytes }]);
    ctx.barrier();
    let t1 = ctx.now();

    if ctx.rank() == 0 {
        let manifest = Manifest {
            app: cfg.app.clone(),
            kind: CkptKind::Spmd,
            ntasks: ctx.ntasks(),
            sop,
            arrays: Vec::new(),
            integrity: crate::compute_integrity(fs, prefix),
            deltas: Vec::new(),
        };
        let bytes = manifest.encode();
        // Stage, then publish by rename: the manifest appears atomically,
        // so an observer never sees a half-written commit marker.
        let smp = crate::commit::staged_manifest_path(prefix);
        fs.create(&smp);
        fs.write_at(ctx, &smp, 0, &bytes);
        fs.delete(&manifest_path(prefix));
        crate::commit::publish_manifest(fs, prefix);
    }
    ctx.barrier();
    let t2 = ctx.now();

    let total: u64 =
        (0..ctx.ntasks()).map(|r| fs.size(&task_segment_path(prefix, r)).unwrap_or(0)).sum();
    phase_span(ctx, Phase::Segment, "spmd_write_segments", t0, t1);
    phase_span(ctx, Phase::Manifest, "write_manifest", t1, t2);
    record_bytes(ctx, total, 0);
    Ok(OpBreakdown {
        init: 0.0,
        segment: t1 - t0,
        arrays: 0.0,
        segment_bytes: total,
        array_bytes: 0,
    })
}

/// Conventional SPMD restart: each task reads back its own segment file.
/// Fails unless the task count matches the checkpoint exactly.
pub fn restart(
    ctx: &mut Ctx,
    fs: &Piofs,
    cfg: &DrmsConfig,
    prefix: &str,
) -> Result<(DataSegment, OpBreakdown)> {
    let manifest = crate::drms::read_manifest_collective(ctx, fs, prefix)?;
    if manifest.kind != CkptKind::Spmd {
        return Err(CoreError::ManifestMismatch(format!(
            "{prefix:?} is a DRMS checkpoint; use Drms::initialize"
        )));
    }
    if manifest.ntasks != ctx.ntasks() {
        return Err(CoreError::TaskCountFixed {
            checkpointed: manifest.ntasks,
            restarting: ctx.ntasks(),
        });
    }

    // Initialization: application text.
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

    // Each task reads its own (large, sequential) segment file.
    let path = task_segment_path(prefix, ctx.rank());
    let len = fs.size(&path)?;
    let mut got = fs.collective_read(
        ctx,
        vec![ReadReq { path: path.clone(), offset: 0, len, access: ReadAccess::Sequential }],
    )?;
    let segment = DataSegment::decode(&got.pop().expect("one request"))?;
    ctx.barrier();
    let t2 = ctx.now();

    let total: u64 =
        (0..ctx.ntasks()).map(|r| fs.size(&task_segment_path(prefix, r)).unwrap_or(0)).sum();
    phase_span(ctx, Phase::Init, "load_text", t0, t1);
    phase_span(ctx, Phase::Segment, "spmd_read_segment", t1, t2);
    record_bytes(ctx, total, 0);
    Ok((
        segment,
        OpBreakdown {
            init: t1 - t0,
            segment: t2 - t1,
            arrays: 0.0,
            segment_bytes: total,
            array_bytes: 0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::RegionKind;
    use drms_darray::{DistArray, Distribution};
    use drms_msg::{run_spmd, CostModel};
    use drms_piofs::PiofsConfig;
    use drms_slices::{Order, Slice};
    use std::sync::Arc;

    fn setup() -> (Arc<Piofs>, DrmsConfig) {
        let fs = Piofs::new(PiofsConfig::test_tiny(4), 11);
        let mut cfg = DrmsConfig::new("toy");
        cfg.text_bytes = 1024;
        crate::Drms::install_binary(&fs, &cfg);
        (fs, cfg)
    }

    fn make_array(rank: usize, p: usize) -> DistArray<f64> {
        let dom = Slice::boxed(&[(0, 15)]);
        let dist = Distribution::block(&dom, &[p], &[1]).unwrap();
        let mut a = DistArray::new("u", Order::ColumnMajor, dist, rank);
        a.fill_mapped(|pt| pt[0] as f64 * 2.0);
        a
    }

    #[test]
    fn checkpoint_restart_same_task_count() {
        let (fs, cfg) = setup();
        run_spmd(4, CostModel::default(), |ctx| {
            let a = make_array(ctx.rank(), 4);
            let mut seg = DataSegment::new();
            seg.set_control("iter", 7);
            let report = checkpoint(ctx, &fs, &cfg, "ck/spmd", &seg, &[&a], 1).unwrap();
            assert!(report.segment > 0.0 || report.segment_bytes > 0);
            assert_eq!(report.array_bytes, 0);

            let (restored, rep) = restart(ctx, &fs, &cfg, "ck/spmd").unwrap();
            assert_eq!(restored.control("iter"), Some(7));
            assert!(rep.init >= 0.0);

            // Restore arrays from the local-sections region.
            let mut b = DistArray::<f64>::new(
                "u",
                Order::ColumnMajor,
                Distribution::block(&Slice::boxed(&[(0, 15)]), &[4], &[1]).unwrap(),
                ctx.rank(),
            );
            let blob = restored.region("local-sections").unwrap();
            crate::handle::decode_locals(&mut [&mut b], &blob.bytes).unwrap();
            assert_eq!(b.local(), a.local());
        })
        .unwrap();
        // One file per task plus the manifest.
        assert_eq!(fs.list("ck/spmd/").len(), 5);
    }

    #[test]
    fn restart_with_different_task_count_rejected() {
        let (fs, cfg) = setup();
        run_spmd(4, CostModel::default(), |ctx| {
            let a = make_array(ctx.rank(), 4);
            let seg = DataSegment::new();
            checkpoint(ctx, &fs, &cfg, "ck/s", &seg, &[&a], 1).unwrap();
        })
        .unwrap();
        let out =
            run_spmd(2, CostModel::default(), |ctx| restart(ctx, &fs, &cfg, "ck/s").err().unwrap())
                .unwrap();
        assert!(matches!(out[0], CoreError::TaskCountFixed { checkpointed: 4, restarting: 2 }));
    }

    #[test]
    fn saved_state_grows_linearly_with_tasks() {
        let (fs, cfg) = setup();
        let mut sizes = Vec::new();
        for p in [2usize, 4] {
            let prefix = format!("ck/grow{p}");
            run_spmd(p, CostModel::default(), |ctx| {
                let dom = Slice::boxed(&[(0, 63)]);
                let dist = Distribution::block(&dom, &[p], &[0]).unwrap();
                let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
                a.fill_mapped(|pt| pt[0] as f64);
                let mut seg = DataSegment::new();
                // Fixed-size private region, like real replicated state.
                seg.set_region("work", RegionKind::PrivateData, vec![1; 4096]);
                let mut cfg = cfg.clone();
                cfg.fixed_local_bytes = 64 * 8 / 2; // compiled for 2 tasks minimum
                checkpoint(ctx, &fs, &cfg, &prefix, &seg, &[&a], 1).unwrap();
            })
            .unwrap();
            sizes.push(fs.total_bytes(&format!("{prefix}/")));
        }
        // Doubling tasks roughly doubles the saved state.
        let ratio = sizes[1] as f64 / sizes[0] as f64;
        assert!(ratio > 1.8 && ratio < 2.2, "sizes {sizes:?}");
    }

    #[test]
    fn restart_rejects_drms_checkpoint() {
        let (fs, cfg) = setup();
        run_spmd(2, CostModel::default(), |ctx| {
            let a = make_array(ctx.rank(), 2);
            let mut drms =
                crate::Drms::initialize(ctx, &fs, cfg.clone(), crate::EnableFlag::new(), None)
                    .map(|(d, _)| d)
                    .unwrap();
            let seg = DataSegment::new();
            drms.reconfig_checkpoint(ctx, &fs, "ck/d", &seg, &[&a]).unwrap();
            let err = restart(ctx, &fs, &cfg, "ck/d").err().unwrap();
            assert!(matches!(err, CoreError::ManifestMismatch(_)));
        })
        .unwrap();
    }
}
