//! One state, three restore sources: a bt class-T state committed as a
//! full PIOFS checkpoint, as the head of a delta chain and as a memory-tier
//! entry, each restored onto a different task count.
//!
//! Every source must restore the arrays bitwise, with the same virtual-time
//! phase breakdown as pinned below, and must fire exactly its own set of
//! restart crash points: a full checkpoint guards init, segment and arrays;
//! a delta chain the arrays only; the memory tier none.

use std::sync::Arc;

use drms::apps::{bt, AppSpec, Class};
use drms::chaos::{ChaosCtl, CrashPoint, FaultPlan};
use drms::core::manifest::segment_path;
use drms::core::report::OpBreakdown;
use drms::core::segment::DataSegment;
use drms::core::{
    CheckpointArray, CoreError, Drms, DrmsConfig, EnableFlag, RestartInfo, Result, Start,
};
use drms::darray::DistArray;
use drms::delta::{delta_checkpoint, restore_arrays_delta, resume, DeltaChain, DeltaConfig};
use drms::memtier::{
    restore_arrays_from_tier, resume_from_tier, store_checkpoint, MemTier, MemTierError,
    SEGMENT_FILE,
};
use drms::msg::{run_spmd, run_spmd_chaos, CostModel, Ctx};
use drms::obs::NullRecorder;
use drms::piofs::Piofs;
use drms::slices::Order;
use drms_bench::experiment::experiment_fs;

const CKPT_TASKS: usize = 4;
const RESTART_TASKS: usize = 3;
const FULL: &str = "ck/full";
const LINKS: [&str; 2] = ["ck/d1", "ck/d2"];
const TIER: &str = "ck/tier";

const RESTART_POINTS: [CrashPoint; 3] =
    [CrashPoint::RestartAfterInit, CrashPoint::RestartAfterSegment, CrashPoint::RestartAfterArrays];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    Full,
    Delta,
    Tier,
}

fn spec() -> AppSpec {
    bt(Class::T)
}

fn fields(spec: &AppSpec, ctx: &Ctx) -> Vec<DistArray<f64>> {
    spec.fields
        .iter()
        .map(|f| {
            DistArray::new(&f.name, Order::ColumnMajor, spec.dist(f, ctx.ntasks()), ctx.rank())
        })
        .collect()
}

/// The committed state: a function of (field, point) that the delta link
/// changes in a band of the first field only.
fn value(field: usize, p: &[i64], link: usize) -> f64 {
    let base = (field * 1009) as f64 + p.iter().fold(0i64, |h, &c| h * 31 + c) as f64 * 0.25;
    if link == 1 && field == 0 && p[0] <= 2 {
        base + 0.5
    } else {
        base
    }
}

/// The three storages, each holding the same state.
struct Stores {
    full: Arc<Piofs>,
    delta: Arc<Piofs>,
    tier_fs: Arc<Piofs>,
    tier: Arc<MemTier>,
}

fn commit_three_ways() -> Stores {
    let spec = spec();
    let cfg = spec.drms_config();
    let stores = Stores {
        full: experiment_fs(Class::T, 1),
        delta: experiment_fs(Class::T, 2),
        tier_fs: experiment_fs(Class::T, 3),
        tier: MemTier::new(1),
    };
    for fs in [&stores.full, &stores.delta, &stores.tier_fs] {
        Drms::install_binary(fs, &cfg);
    }
    run_spmd(CKPT_TASKS, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &stores.full, cfg.clone(), EnableFlag::new(), None).unwrap();
        let mut seg = DataSegment::new();
        seg.set_control("iter", 7);
        let mut fs = fields(&spec, ctx);
        let mut chain = DeltaChain::new();
        for (link, prefix) in LINKS.iter().enumerate() {
            for (i, f) in fs.iter_mut().enumerate() {
                f.fill_assigned(|p| value(i, p, link));
            }
            let handles: Vec<&dyn CheckpointArray> =
                fs.iter().map(|f| f as &dyn CheckpointArray).collect();
            let r = delta_checkpoint(
                &mut drms,
                &mut chain,
                &DeltaConfig::new(),
                ctx,
                &stores.delta,
                prefix,
                &seg,
                &handles,
            )
            .unwrap();
            assert_eq!(r.full, link == 0, "{prefix}: the second link must be a delta");
        }
        let handles: Vec<&dyn CheckpointArray> =
            fs.iter().map(|f| f as &dyn CheckpointArray).collect();
        drms.reconfig_checkpoint(ctx, &stores.full, FULL, &seg, &handles).unwrap();
        store_checkpoint(ctx, &stores.tier, TIER, &mut drms, &seg, &handles).unwrap();
    })
    .unwrap();
    stores
}

/// Restores the state from `source` onto the calling region: the restart's
/// phase breakdown, or the first error.
fn restore(ctx: &mut Ctx, stores: &Stores, source: Source) -> Result<OpBreakdown> {
    let spec = spec();
    let cfg: DrmsConfig = spec.drms_config();
    let enable = EnableFlag::new();
    let tier_err = |e: MemTierError| match e {
        MemTierError::Core(e) => e,
        e => CoreError::Integrity(e.to_string()),
    };
    let restarted = |start: Start| match start {
        Start::Restarted(info) => info,
        Start::Fresh => panic!("a restart prefix started fresh"),
    };
    let (drms, info): (Drms, Box<RestartInfo>) = match source {
        Source::Full => {
            let (d, s) = Drms::initialize(ctx, &stores.full, cfg, enable, Some(FULL))?;
            (d, restarted(s))
        }
        Source::Delta => {
            let (d, s) = resume(ctx, &stores.delta, cfg, enable, LINKS[1])?;
            (d, restarted(s))
        }
        Source::Tier => resume_from_tier(ctx, &stores.tier_fs, &stores.tier, cfg, enable, TIER)
            .map_err(tier_err)?,
    };
    assert_eq!(info.segment.control("iter"), Some(7));
    let mut fs = fields(&spec, ctx);
    let mut handles: Vec<&mut dyn CheckpointArray> =
        fs.iter_mut().map(|f| f as &mut dyn CheckpointArray).collect();
    let m = &info.manifest;
    let (arrays, segment_file) = match source {
        Source::Full => (
            drms.restore_arrays(ctx, &stores.full, FULL, m, &mut handles)?,
            stores.full.size(&segment_path(FULL))?,
        ),
        Source::Delta => (
            restore_arrays_delta(&drms, ctx, &stores.delta, LINKS[1], m, &mut handles)?,
            stores.delta.size(&segment_path(LINKS[1]))?,
        ),
        Source::Tier => (
            restore_arrays_from_tier(ctx, &stores.tier, &drms, TIER, m, &mut handles)
                .map_err(tier_err)?,
            stores.tier.file_len(TIER, SEGMENT_FILE).map_err(tier_err)?,
        ),
    };
    for (i, f) in fs.iter().enumerate() {
        f.fold_assigned((), |_, p, v| {
            assert_eq!(v.to_bits(), value(i, p, 1).to_bits(), "{source:?}: field {i} at {p:?}");
        });
    }
    Ok(OpBreakdown {
        init: info.init_time,
        segment: info.segment_time,
        arrays,
        segment_bytes: segment_file * ctx.ntasks() as u64,
        array_bytes: spec.stream_bytes(),
    })
}

/// Each source's breakdown, pinned from the implementation that kept one
/// hand-written restore path per source: the single restore pipeline must
/// price every source exactly as before.
fn pinned(source: Source) -> OpBreakdown {
    match source {
        Source::Full => OpBreakdown {
            init: 0.004764111592911777,
            segment: 0.03667028631485203,
            arrays: 0.16377533636739297,
            segment_bytes: 376509,
            array_bytes: 163840,
        },
        Source::Delta => OpBreakdown {
            init: 0.004986323046043645,
            segment: 0.00014006537625131654,
            arrays: 0.16231464865506467,
            segment_bytes: 108,
            array_bytes: 163840,
        },
        Source::Tier => OpBreakdown {
            init: 0.004825127739358139,
            segment: 0.0036857999999999986,
            arrays: 0.01207714285714287,
            segment_bytes: 376509,
            array_bytes: 163840,
        },
    }
}

#[test]
fn every_source_restores_the_same_state_at_its_pinned_cost() {
    let stores = commit_three_ways();
    for source in [Source::Full, Source::Delta, Source::Tier] {
        let got = run_spmd(RESTART_TASKS, CostModel::default(), |ctx| {
            restore(ctx, &stores, source).unwrap()
        })
        .unwrap();
        assert!(got.iter().all(|b| *b == got[0]), "{source:?}: ranks disagree: {got:?}");
        assert_eq!(got[0], pinned(source), "{source:?}: restart breakdown moved");
    }
}

#[test]
fn every_source_fires_exactly_its_restart_crash_points() {
    let stores = commit_three_ways();
    let expect = |source: Source| -> &'static [CrashPoint] {
        match source {
            Source::Full => &RESTART_POINTS,
            Source::Delta => &[CrashPoint::RestartAfterArrays],
            Source::Tier => &[],
        }
    };
    for source in [Source::Full, Source::Delta, Source::Tier] {
        for point in RESTART_POINTS {
            let plan = FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(5) };
            let ctl = ChaosCtl::new(plan);
            let out = run_spmd_chaos(
                RESTART_TASKS,
                CostModel::default(),
                Arc::new(NullRecorder),
                Arc::clone(&ctl),
                |ctx| restore(ctx, &stores, source).err(),
            )
            .unwrap();
            let fired = expect(source).contains(&point);
            assert_eq!(ctl.crash_fired(), fired, "{source:?} at {point}");
            for err in out {
                match err {
                    None => assert!(!fired, "{source:?} ran through an armed {point}"),
                    Some(CoreError::Interrupted(at)) => {
                        assert!(fired, "{source:?} fired {at}, which it does not guard");
                        assert_eq!(at, point.as_str());
                    }
                    Some(e) => panic!("{source:?} at {point}: {e}"),
                }
            }
        }
    }
}
