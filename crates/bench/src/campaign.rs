//! The start of one incarnation of the iterative job the crash-campaign
//! benches (chaos, pulse, blackbox, recover) run under the JSA.

use drms_core::segment::DataSegment;
use drms_core::{CoreError, Drms, DrmsConfig, Start};
use drms_darray::{DistArray, Distribution};
use drms_memtier::{restore_arrays_from_tier, resume_from_tier, MemTierError, RestartTier};
use drms_msg::Ctx;
use drms_rtenv::{JobEnv, JobOutcome};
use drms_slices::{Order, Slice};

/// What one incarnation of the job resumes with.
pub struct Incarnation {
    /// The run-time handle.
    pub drms: Drms,
    /// The job's one distributed field, under a block distribution.
    pub u: DistArray<f64>,
    /// The data segment (its `iter` control variable is the progress).
    pub seg: DataSegment,
    /// The first iteration still to run.
    pub start_iter: i64,
}

/// Collective: starts one incarnation of `app` over `domain`. A first start
/// fills `u` with the campaign's initial field; a restart restores the
/// state under `env.restart_from`, out of the memory tier when the JSA
/// chose it, else from PIOFS. An injected crash ends the incarnation as
/// killed, any other failure as failed.
pub fn start(
    ctx: &mut Ctx,
    env: &JobEnv,
    app: &str,
    domain: &Slice,
) -> Result<Incarnation, JobOutcome> {
    let dist = Distribution::block_auto(domain, ctx.ntasks(), 1).expect("a block distribution");
    let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
    let cfg = DrmsConfig::new(app);
    let (drms, info) = match (env.restart_from.as_deref(), env.restart_tier) {
        (Some(prefix), RestartTier::Memory) => {
            let tier = env.memtier.as_ref().expect("memory restart without a tier");
            let failed = |e: MemTierError| JobOutcome::Failed(e.to_string());
            let (drms, info) =
                resume_from_tier(ctx, &env.fs, tier, cfg, env.enable.clone(), prefix)
                    .map_err(failed)?;
            restore_arrays_from_tier(ctx, tier, &drms, prefix, &info.manifest, &mut [&mut u])
                .map_err(failed)?;
            (drms, info)
        }
        (from, _) => {
            let ended = |e: CoreError| match e {
                CoreError::Interrupted(_) => JobOutcome::Killed,
                e => JobOutcome::Failed(e.to_string()),
            };
            let (drms, start) =
                Drms::initialize(ctx, &env.fs, cfg, env.enable.clone(), from).map_err(ended)?;
            let (Some(prefix), Start::Restarted(info)) = (from, start) else {
                u.fill_assigned(|p| (p[0] * 13 + p[1] * 3) as f64);
                return Ok(Incarnation { drms, u, seg: DataSegment::new(), start_iter: 1 });
            };
            drms.restore_arrays(ctx, &env.fs, prefix, &info.manifest, &mut [&mut u])
                .map_err(ended)?;
            (drms, info)
        }
    };
    let start_iter = info.segment.control("iter").expect("a restart segment carries iter") + 1;
    Ok(Incarnation { drms, u, seg: info.segment, start_iter })
}
