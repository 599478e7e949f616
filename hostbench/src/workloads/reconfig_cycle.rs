//! `reconfig_cycle`: the paper's reconfigurable checkpoint protocol.
//!
//! bt (eight five-component fields), DRMS variant, on 4 tasks. The job
//! starts the application from a seeded input checkpoint, then runs
//! cycles of one `MiniApp::step` and one full `reconfig_checkpoint`,
//! alternating between two prefixes. It ends with a verified restart from
//! each prefix onto 3 tasks: `checkpoint_is_valid`, then
//! `MiniApp::start(.., Some(prefix))`. 3 does not divide 4, so every
//! restart redistributes for real.

use std::sync::Arc;

use drms_apps::{bt, AppSpec, AppVariant, MiniApp};
use drms_bench::experiment::experiment_fs;
use drms_core::manifest::array_path;
use drms_core::segment::{DataSegment, RegionKind};
use drms_core::{checkpoint_is_valid, Drms, EnableFlag};
use drms_msg::Ctx;
use drms_obs::TraceRecorder;
use drms_piofs::Piofs;

use super::{breakdown_record, handles, Workload};
use crate::bench::{Bench, Kind};
use crate::lockstep::Lockstep;

/// Tasks that run the solver and take the checkpoints.
pub const CKPT_TASKS: usize = 4;
/// Tasks every restart lands on.
pub const RESTART_TASKS: usize = 3;
/// Step + checkpoint cycles per job.
pub const CYCLES: usize = 2;
/// The alternating checkpoint prefixes.
pub const PREFIXES: [&str; 2] = ["ck/a", "ck/b"];
/// Prefix of the seeded input checkpoint every job starts from.
pub const INPUT: &str = "ck/input";

/// The data segment `MiniApp::start` builds for a fresh run of `spec`.
pub fn segment(spec: &AppSpec) -> DataSegment {
    let mut seg = DataSegment::new();
    seg.set_region("msgbuf", RegionKind::SystemBuffers, vec![0xA5; spec.system_bytes() as usize]);
    seg.set_region(
        "work-arrays",
        RegionKind::PrivateData,
        vec![0x5C; spec.private_bytes() as usize],
    );
    seg.set_replicated_f64("grid", spec.grid() as f64);
    seg.set_control("iter", 0);
    seg
}

/// Writes the seeded input checkpoint: the application's own segment and
/// fields, with field values generated from the seed.
fn write_input(b: &Bench, ls: &Lockstep, ctx: &mut Ctx, fs: &Piofs, spec: &AppSpec) -> Option<()> {
    let rank = ctx.rank();
    let (mut drms, _) = b.agree(
        ls,
        rank,
        "input: drms_initialize",
        Drms::initialize(ctx, fs, spec.drms_config(), EnableFlag::new(), None),
    )?;
    let fields = Workload::ReconfigCycle.fields(spec.class, b.cfg.seed, ctx);
    let r = drms.reconfig_checkpoint(ctx, fs, INPUT, &segment(spec), &handles(&fields));
    b.agree(ls, rank, "input: checkpoint", r).map(drop)
}

/// One job: input, `CYCLES` step + checkpoint cycles on 4 tasks, then a
/// verified restart from each prefix onto 3 tasks.
pub fn job(b: &Bench, obs: Option<&Arc<TraceRecorder>>) {
    let spec = bt(b.cfg.class);
    let fs = experiment_fs(spec.class, b.cfg.seed);
    if let Some(rec) = obs {
        fs.set_recorder(rec.clone());
    }
    Drms::install_binary(&fs, &spec.drms_config());

    let ls = Lockstep::new(CKPT_TASKS);
    let digests = b.region(CKPT_TASKS, obs, |ctx| {
        let rank = ctx.rank();
        write_input(b, &ls, ctx, &fs, &spec)?;
        let start = MiniApp::start(
            ctx,
            &fs,
            spec.clone(),
            AppVariant::Drms,
            EnableFlag::new(),
            Some(INPUT),
        );
        let mut app = b.agree(&ls, rank, "start from input", start)?;
        let mut digests = [0u64; 2];
        for c in 0..CYCLES {
            b.op(&ls, ctx, Kind::Other, "op.step", |ctx| {
                b.call(rank, "apps.step", 0, || app.step(ctx));
                Ok(())
            })?;
            let prefix = PREFIXES[c % 2];
            let bytes = spec.stream_bytes();
            let bd = b.op(&ls, ctx, Kind::Ckpt, "op.ckpt", |ctx| {
                b.call(rank, "core.reconfig_checkpoint", bytes, || app.checkpoint(ctx, &fs, prefix))
                    .map_err(|e| e.to_string())
            })?;
            if rank == 0 {
                b.record("checkpoint", breakdown_record(&bd));
            }
            digests[c % 2] = b.expected_digest(b.digest(&ls, ctx, app.fields()));
        }
        Some(digests)
    });
    let Some(want) = digests.and_then(|d| d.into_iter().next().flatten()) else { return };

    for (prefix, want) in PREFIXES.iter().zip(want) {
        if b.cfg.faults.flip_stream_byte {
            fs.corrupt_range(&array_path(prefix, "u"), 0, 1, 7);
        }
        restart(b, obs, &fs, &spec, prefix, want);
    }
}

/// One verified restart from `prefix` onto `RESTART_TASKS` tasks, timed
/// from the validity check to the moment every task holds the restored
/// state.
fn restart(
    b: &Bench,
    obs: Option<&Arc<TraceRecorder>>,
    fs: &Arc<Piofs>,
    spec: &AppSpec,
    prefix: &str,
    want: u64,
) {
    let what = format!("restart from {prefix}");
    let timer = b.start_op("op.restart");
    if !b.call(0, "resil.checkpoint_is_valid", 0, || checkpoint_is_valid(fs, prefix)) {
        b.finish_op(timer, Kind::Restart, Err(format!("{what}: checkpoint_is_valid failed")));
        return;
    }
    let restore = |ctx: &mut Ctx| {
        let app = b.call(ctx.rank(), "apps.start", spec.stream_bytes(), || {
            MiniApp::start(ctx, fs, spec.clone(), AppVariant::Drms, EnableFlag::new(), Some(prefix))
        });
        let app = app.map_err(|e| e.to_string())?;
        let report = app.restart_report.as_ref().expect("a restart carries its report");
        Ok((breakdown_record(report), app))
    };
    b.restart_region(timer, RESTART_TASKS, obs, &what, want, restore, |app| app.fields());
}
