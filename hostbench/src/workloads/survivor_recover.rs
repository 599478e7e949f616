//! `survivor_recover`: localized recovery from memory-tier replicas.
//!
//! bt's eight fields on 4 tasks. Each round stores a memory-tier
//! checkpoint (2 replicas) and retains the local sections (the checkpoint
//! operation); scribbles over the live state, as work past the checkpoint
//! would; fails one node, rotating over ranks 1..3, and recovers only its
//! sections from the replicas (the restart operation); then grows back to
//! 4 tasks. PIOFS stays idle: a recovery that reads it fails its check.

use std::sync::Arc;

use drms_apps::bt;
use drms_bench::experiment::experiment_fs;
use drms_core::segment::DataSegment;
use drms_core::{Drms, EnableFlag};
use drms_memtier::{store_checkpoint, MemTier};
use drms_obs::TraceRecorder;
use drms_recover::{grow, recover, retain, Membership};

use super::{handles, handles_mut, Workload};
use crate::bench::{digest_check, Bench, Kind};
use crate::lockstep::Lockstep;

/// Tasks of the region (one of them is lost and re-grown each round).
pub const TASKS: usize = 4;
/// Memory-tier replicas per piece: survives one node loss.
pub const REPLICAS: usize = 2;
/// Rounds per job: one per victim rank 1..3.
pub const ROUNDS: usize = TASKS - 1;
/// The checkpoint prefix every round reuses.
pub const PREFIX: &str = "mt/ck";

/// One job: `ROUNDS` rounds of store + retain, fail + recover, grow.
pub fn job(b: &Bench, obs: Option<&Arc<TraceRecorder>>) {
    let class = b.cfg.class;
    let cfg = bt(class).drms_config();
    let fs = experiment_fs(class, b.cfg.seed);
    if let Some(rec) = obs {
        fs.set_recorder(rec.clone());
    }
    Drms::install_binary(&fs, &cfg);
    let tier = MemTier::new(REPLICAS);
    let ls = Lockstep::new(TASKS);
    b.region(TASKS, obs, |ctx| {
        let rank = ctx.rank();
        let init = Drms::initialize(ctx, &fs, cfg.clone(), EnableFlag::new(), None);
        let (mut drms, _) = b.agree(&ls, rank, "drms_initialize", init)?;
        let io = cfg.io.resolve(TASKS);
        let mut fields = Workload::SurvivorRecover.fields(class, b.cfg.seed, ctx);
        let mut seg = DataSegment::new();
        let mut members = Membership::initial(TASKS);
        for round in 0..ROUNDS {
            let victim = 1 + round % (TASKS - 1);
            seg.set_control("iter", round as i64);
            let (store, kept) = b.op(&ls, ctx, Kind::Ckpt, "op.ckpt", |ctx| {
                let hs = handles(&fields);
                let store = b.call(rank, "memtier.store_checkpoint", 0, || {
                    store_checkpoint(ctx, &tier, PREFIX, &mut drms, &seg, &hs)
                });
                let store = store.map_err(|e| e.to_string())?;
                let kept =
                    b.call(rank, "recover.retain", 0, || retain(ctx, PREFIX, store.sop, &hs));
                Ok((store, kept))
            })?;
            if rank == 0 {
                let rec =
                    vec![store.seconds.to_bits(), store.bytes, store.replica_bytes, store.pieces];
                b.record("memtier store", rec);
            }
            if b.cfg.faults.piofs_fallback {
                let r = drms.reconfig_checkpoint(ctx, &fs, PREFIX, &seg, &handles(&fields));
                b.agree(&ls, rank, "PIOFS copy", r)?;
                if rank == 0 {
                    tier.invalidate(PREFIX);
                }
            }
            let want = b.expected_digest(b.digest(&ls, ctx, &fields));
            for f in fields.iter_mut() {
                f.fill_assigned(|_| -1.0);
            }
            if rank == 0 {
                tier.fail_node(victim);
            }
            ls.sync();
            let (next, report) = b.op(&ls, ctx, Kind::Restart, "op.recover", |ctx| {
                let mut hs = handles_mut(&mut fields);
                b.call(rank, "recover.recover", 0, || {
                    recover(ctx, &fs, Some(&tier), &kept, &members, &[victim], &mut hs, io)
                })
                .map_err(|e| e.to_string())
            })?;
            let got = b.digest(&ls, ctx, &fields);
            if rank == 0 {
                let rec = vec![
                    report.epoch,
                    report.sections,
                    report.replica_bytes,
                    report.piofs_bytes,
                    report.survivor_bytes,
                    report.duration.to_bits(),
                ];
                b.record("recover", rec);
                b.check(if report.piofs_bytes == 0 {
                    Ok(())
                } else {
                    Err(format!("recover read {} B from PIOFS", report.piofs_bytes))
                });
                b.check(digest_check("recover", want, got));
            }
            members = b.op(&ls, ctx, Kind::Other, "op.grow", |ctx| {
                let mut hs = handles_mut(&mut fields);
                b.call(rank, "recover.grow", 0, || grow(ctx, &next, TASKS, &mut hs))
                    .map_err(|e| e.to_string())
            })?;
            let got = b.digest(&ls, ctx, &fields);
            if rank == 0 {
                b.check(digest_check("grow", want, got));
            }
        }
        Some(())
    });
}
