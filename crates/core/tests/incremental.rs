//! Incremental checkpointing (the Section 6 memory-exclusion optimization
//! at array granularity): arrays unmodified since the last checkpoint to a
//! prefix are not rewritten, yet restarts see a complete, correct state.

use std::sync::Arc;

use drms_core::chaos::{ChaosCtl, CommitPoints, CrashPoint, FaultPlan};
use drms_core::segment::DataSegment;
use drms_core::{
    checkpoint_is_valid, find_checkpoints, sweep_orphans, CoreError, Drms, DrmsConfig, EnableFlag,
    Start,
};
use drms_darray::{DistArray, Distribution};
use drms_msg::{run_spmd, run_spmd_chaos, CostModel};
use drms_obs::NullRecorder;
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Slice};

fn fs() -> Arc<Piofs> {
    Piofs::new(PiofsConfig::test_tiny(4), 21)
}

fn arrays(ctx_ntasks: usize, rank: usize) -> (DistArray<f64>, DistArray<f64>) {
    let dom = Slice::boxed(&[(0, 31)]);
    let dist = Distribution::block_auto(&dom, ctx_ntasks, 1).unwrap();
    let mut u = DistArray::new("u", Order::ColumnMajor, dist.clone(), rank);
    let mut forcing = DistArray::new("forcing", Order::ColumnMajor, dist, rank);
    u.fill_assigned(|p| p[0] as f64);
    forcing.fill_assigned(|p| (p[0] * 7) as f64); // constant after setup
    (u, forcing)
}

#[test]
fn unchanged_arrays_are_skipped_but_state_stays_complete() {
    let f = fs();
    Drms::install_binary(&f, &DrmsConfig::new("inc"));
    run_spmd(4, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &f, DrmsConfig::new("inc"), EnableFlag::new(), None).unwrap();
        let (mut u, forcing) = arrays(4, ctx.rank());
        let seg = DataSegment::new();

        // First incremental checkpoint: everything written.
        let (r1, skipped) =
            drms.reconfig_checkpoint_incremental(ctx, &f, "ck/inc", &seg, &[&u, &forcing]).unwrap();
        assert!(skipped.is_empty(), "first checkpoint writes all");
        assert_eq!(r1.array_bytes, 2 * 32 * 8);

        // Mutate only u; checkpoint again to the same prefix.
        u.fill_assigned(|p| p[0] as f64 + 100.0);
        let (r2, skipped) =
            drms.reconfig_checkpoint_incremental(ctx, &f, "ck/inc", &seg, &[&u, &forcing]).unwrap();
        assert_eq!(skipped, vec!["forcing".to_string()]);
        assert_eq!(r2.array_bytes, 32 * 8, "only u rewritten");
        assert!(r2.arrays < r1.arrays || r2.array_bytes < r1.array_bytes);

        // Nothing changed: both skipped.
        let (r3, skipped) =
            drms.reconfig_checkpoint_incremental(ctx, &f, "ck/inc", &seg, &[&u, &forcing]).unwrap();
        assert_eq!(skipped.len(), 2);
        assert_eq!(r3.array_bytes, 0);
    })
    .unwrap();

    // Restart (reconfigured to 3 tasks) sees the complete, newest state.
    run_spmd(3, CostModel::default(), |ctx| {
        let (drms, start) =
            Drms::initialize(ctx, &f, DrmsConfig::new("inc"), EnableFlag::new(), Some("ck/inc"))
                .unwrap();
        let Start::Restarted(info) = start else { panic!() };
        let (mut u, mut forcing) = arrays(3, ctx.rank());
        drms.restore_arrays(ctx, &f, "ck/inc", &info.manifest, &mut [&mut u, &mut forcing])
            .unwrap();
        u.fold_assigned((), |_, p, v| assert_eq!(v, p[0] as f64 + 100.0));
        forcing.fold_assigned((), |_, p, v| assert_eq!(v, (p[0] * 7) as f64));
    })
    .unwrap();
}

#[test]
fn different_prefix_forces_full_write() {
    let f = fs();
    run_spmd(2, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &f, DrmsConfig::new("inc"), EnableFlag::new(), None).unwrap();
        let (u, forcing) = arrays(2, ctx.rank());
        let seg = DataSegment::new();
        let (_, skipped) =
            drms.reconfig_checkpoint_incremental(ctx, &f, "ck/a", &seg, &[&u, &forcing]).unwrap();
        assert!(skipped.is_empty());
        // Same (untouched) arrays, new prefix: data is not there yet, so
        // nothing may be skipped.
        let (_, skipped) =
            drms.reconfig_checkpoint_incremental(ctx, &f, "ck/b", &seg, &[&u, &forcing]).unwrap();
        assert!(skipped.is_empty(), "new prefix has no prior streams");
        // And back to the first prefix: everything is current now.
        let (_, skipped) =
            drms.reconfig_checkpoint_incremental(ctx, &f, "ck/a", &seg, &[&u, &forcing]).unwrap();
        assert_eq!(skipped.len(), 2);
    })
    .unwrap();
}

#[test]
fn redistribution_counts_as_mutation() {
    // After an in-place redistribution the bytes are logically identical,
    // but the conservative counter must force a rewrite (the stream file
    // stays correct either way; this asserts we never *under*-save).
    let f = fs();
    run_spmd(2, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &f, DrmsConfig::new("inc"), EnableFlag::new(), None).unwrap();
        let (mut u, _) = arrays(2, ctx.rank());
        let seg = DataSegment::new();
        drms.reconfig_checkpoint_incremental(ctx, &f, "ck/r", &seg, &[&u]).unwrap();

        use drms_core::CheckpointArray;
        (&mut u as &mut dyn CheckpointArray).adjust_redistribute(ctx).unwrap();
        let (_, skipped) =
            drms.reconfig_checkpoint_incremental(ctx, &f, "ck/r", &seg, &[&u]).unwrap();
        assert!(skipped.is_empty());
    })
    .unwrap();
}

/// Restarts `prefix` on 3 tasks and asserts both arrays bitwise: `u` holds
/// `p + u_shift`, `forcing` its setup values.
fn assert_restores(f: &Arc<Piofs>, prefix: &str, u_shift: f64) {
    run_spmd(3, CostModel::default(), |ctx| {
        let (drms, start) =
            Drms::initialize(ctx, f, DrmsConfig::new("inc"), EnableFlag::new(), Some(prefix))
                .unwrap();
        let Start::Restarted(info) = start else { panic!("{prefix} did not restart") };
        let (mut u, mut forcing) = arrays(3, ctx.rank());
        drms.restore_arrays(ctx, f, prefix, &info.manifest, &mut [&mut u, &mut forcing]).unwrap();
        u.fold_assigned((), |_, p, v| assert_eq!(v.to_bits(), (p[0] as f64 + u_shift).to_bits()));
        forcing.fold_assigned((), |_, p, v| assert_eq!(v.to_bits(), ((p[0] * 7) as f64).to_bits()));
    })
    .unwrap();
}

#[test]
fn every_crash_point_of_an_incremental_checkpoint_recovers_bitwise() {
    // Two commits (`ck/a`, then `ck/b`) precede the victim, a second
    // checkpoint to `ck/a` that rewrites `u` and skips `forcing`. Before it,
    // every point fired once per commit, except `after_array`, which fired
    // once per array written (two per commit).
    let points = CommitPoints::FOREGROUND;
    let mut cases: Vec<Option<(CrashPoint, u32)>> = vec![None];
    cases.extend(points.all().map(|p| Some((p, if p == points.after_array { 5 } else { 3 }))));
    for crash in cases {
        let f = fs();
        Drms::install_binary(&f, &DrmsConfig::new("inc"));
        let ctl = ChaosCtl::new(FaultPlan { crash, ..FaultPlan::seeded(7) });
        let rec = Arc::new(NullRecorder);
        run_spmd_chaos(4, CostModel::default(), rec, Arc::clone(&ctl), |ctx| {
            let (mut drms, _) =
                Drms::initialize(ctx, &f, DrmsConfig::new("inc"), EnableFlag::new(), None).unwrap();
            let (mut u, forcing) = arrays(4, ctx.rank());
            let seg = DataSegment::new();
            for prefix in ["ck/a", "ck/b"] {
                drms.reconfig_checkpoint_incremental(ctx, &f, prefix, &seg, &[&u, &forcing])
                    .unwrap();
            }
            u.fill_assigned(|p| p[0] as f64 + 100.0);
            match drms.reconfig_checkpoint_incremental(ctx, &f, "ck/a", &seg, &[&u, &forcing]) {
                Ok((_, skipped)) => {
                    assert!(crash.is_none(), "{crash:?} never fired");
                    assert_eq!(skipped, vec!["forcing".to_string()]);
                }
                Err(CoreError::Interrupted(at)) => {
                    assert_eq!(Some(at.as_str()), crash.map(|(p, _)| p.as_str()));
                }
                Err(e) => panic!("{crash:?}: {e}"),
            }
        })
        .unwrap();

        let found = find_checkpoints(&f, Some("inc"));
        for (prefix, _) in &found {
            assert!(checkpoint_is_valid(&f, prefix), "{crash:?}: {prefix} fails verification");
        }
        let committed = matches!(crash, None | Some((CrashPoint::CkptCommitted, _)));
        let (newest, u_shift) = if committed { ("ck/a", 100.0) } else { ("ck/b", 0.0) };
        assert_eq!(found[0].0, newest, "{crash:?}");
        sweep_orphans(&f);
        assert!(f.list("ck/a.tmp/").is_empty(), "{crash:?}: staging survived the sweep");
        assert_restores(&f, newest, u_shift);
    }
}
