//! The layer probe of a traced run: times the public functions of every
//! layer on the workload's own data, from the benchmark's own code.
//!
//! The jobs can only time calls the benchmark itself makes (a checkpoint,
//! a restart, a step); the layers underneath run inside those calls and
//! carry no tracing of their own. After the jobs, the probe rebuilds the
//! workload's seeded fields on a fresh file system and calls each layer
//! directly: the same functions the program uses, on the same bytes, one
//! span per call. Every layer is probed on every workload, so a workload
//! that bypasses a layer still reports its cost on that workload's data.

use std::hint::black_box;

use drms_apps::solver;
use drms_bench::experiment::experiment_fs;
use drms_core::manifest::{manifest_path, Manifest};
use drms_core::segment::{Region, RegionKind};
use drms_core::wire::crc32;
use drms_core::{
    checkpoint_is_valid, compute_integrity, encode_locals, sweep_orphans, CheckpointArray, Drms,
    EnableFlag,
};
use drms_darray::chunks::{digest_stream, encode_chunk, fnv128};
use drms_darray::stream::TARGET_PIECE_BYTES;
use drms_darray::DistArray;
use drms_delta::{delta_checkpoint, materialize_stream, DeltaChain};
use drms_memtier::{array_file, store_checkpoint, MemTier};
use drms_msg::{run_spmd, CostModel, Ctx};
use drms_piofs::{Piofs, ReadAccess};
use drms_recover::{grow, retain, shrink, Membership};
use drms_slices::partition::{choose_piece_count, partition, stream_offsets};

use crate::bench::Bench;
use crate::lockstep::Lockstep;
use crate::workloads::{delta_chain, handles, handles_mut, Workload};

/// Repetitions of each cheap call.
const REPS: usize = 5;
/// Repetitions of each call that moves the whole state.
const HEAVY_REPS: usize = 2;

const STREAMS: &str = "probe/streams";
const CKPT: &str = "probe/ck";
const TIER: &str = "probe/mt";
const LINKS: [&str; 2] = ["probe/d1", "probe/d2"];

fn stream_path(name: &str) -> String {
    format!("{STREAMS}/{name}")
}

/// Collective: times `f` on every task between two host barriers; task 0
/// records the span.
fn timed<T>(
    b: &Bench,
    ls: &Lockstep,
    rank: usize,
    name: &'static str,
    bytes: u64,
    f: impl FnOnce() -> T,
) -> T {
    ls.sync();
    b.call(rank, name, bytes, || {
        let out = f();
        ls.sync();
        out
    })
}

/// Runs the probe. Failures of the probe's own calls count as failed
/// operations, like any other.
pub fn run(b: &Bench) {
    let w = b.cfg.workload;
    let (class, seed) = (b.cfg.class, b.cfg.seed);
    let cfg = drms_apps::bt(class).drms_config();
    let fs = experiment_fs(class, seed);
    Drms::install_binary(&fs, &cfg);
    let (n, m) = w.tasks();
    let top = b.tracer.open("probe", 0, false);

    for _ in 0..REPS {
        let r = b.call(0, "msg.run_spmd", 0, || run_spmd(n, CostModel::default(), |_| ()));
        if let Err(e) = r {
            b.fail(format!("probe: empty region: {e}"));
        }
    }
    let ls = Lockstep::new(n);
    let tier = MemTier::new(2);
    b.region(n, None, |ctx| on_writers(b, &ls, ctx, &fs, &tier, w));
    let ls = Lockstep::new(m);
    b.region(m, None, |ctx| {
        let mut fields = w.alloc_fields(class, ctx);
        let io = cfg.io.resolve(ctx.ntasks());
        for f in fields.iter_mut() {
            let (path, bytes) = (stream_path(f.name()), f.stream_bytes());
            let r = timed(b, &ls, ctx.rank(), "darray.read_stream", bytes, || {
                f.read_stream(ctx, &fs, &path, io)
            });
            if let (Err(e), 0) = (r, ctx.rank()) {
                b.fail(format!("probe: read_stream {path}: {e}"));
            }
        }
    });
    on_main_thread(b, &fs, w);
    b.tracer.close(top);
}

/// The calls made inside a region of the workload's checkpointing tasks.
fn on_writers(
    b: &Bench,
    ls: &Lockstep,
    ctx: &mut Ctx,
    fs: &Piofs,
    tier: &MemTier,
    w: Workload,
) -> Option<()> {
    let (class, rank, n) = (b.cfg.class, ctx.rank(), ctx.ntasks());
    let spec = drms_apps::bt(class);
    let mut fields = w.fields(class, b.cfg.seed, ctx);
    let seg = w.segment(class);
    let init = Drms::initialize(ctx, fs, spec.drms_config(), EnableFlag::new(), None);
    let (mut drms, _) = b.agree(ls, rank, "probe: drms_initialize", init)?;
    let io = drms.cfg().io.resolve(n);
    let state: u64 = fields.iter().map(|f| f.stream_bytes()).sum();

    // apps: reconfig_cycle times MiniApp::step in its jobs already.
    if w != Workload::ReconfigCycle {
        for iter in 1..=HEAVY_REPS as i64 {
            timed(b, ls, rank, "apps.step", 0, || solver::step(ctx, &mut fields, iter));
        }
        // Back to the seeded state the other probes expect.
        fields = w.fields(class, b.cfg.seed, ctx);
    }

    // slices: each stream's Figure 5a partition.
    if rank == 0 {
        for f in &fields {
            let pieces = choose_piece_count(f.stream_bytes() as usize, n, TARGET_PIECE_BYTES);
            let r = b.call(0, "slices.partition", 0, || partition(f.domain(), pieces, f.order()));
            if let Err(e) = r {
                b.fail(format!("probe: partition: {e}"));
            }
        }
    }

    // msg: a barrier, and one redistribution's volume through alltoallv.
    for _ in 0..REPS {
        timed(b, ls, rank, "msg.barrier", 0, || ctx.barrier());
    }
    let share = vec![0u8; (state / (n * n) as u64) as usize];
    for _ in 0..HEAVY_REPS {
        let out = vec![share.clone(); n];
        timed(b, ls, rank, "msg.alltoallv", state, || black_box(ctx.alltoallv(out)));
    }

    // darray: every field's canonical stream, written on its own.
    for f in &fields {
        let path = stream_path(f.name());
        let r = timed(b, ls, rank, "darray.write_stream", f.stream_bytes(), || {
            f.write_stream(ctx, fs, &path, io)
        });
        b.agree(ls, rank, "probe: write_stream", r)?;
    }

    // core: a committed checkpoint of the same state, and its segment.
    let r = drms.reconfig_checkpoint(ctx, fs, CKPT, &seg, &handles(&fields));
    b.agree(ls, rank, "probe: reconfig_checkpoint", r)?;
    if rank == 0 {
        let local = Region {
            name: "local-sections".to_string(),
            kind: RegionKind::LocalSections,
            bytes: encode_locals(&handles(&fields), drms.cfg().fixed_local_bytes),
        };
        for _ in 0..REPS {
            b.call(0, "core.encode_with_region", 0, || {
                black_box(seg.encode_with_region(Some(&local)))
            });
        }
    }

    // memtier: fetch what losing task 1 would, out of a replicated store.
    let r = store_checkpoint(ctx, tier, TIER, &mut drms, &seg, &handles(&fields));
    b.agree(ls, rank, "probe: store_checkpoint", r)?;
    if rank == 0 {
        for f in &fields {
            let ranges = lost_piece_ranges(f, 1, io);
            let bytes = ranges.iter().map(|r| r.1).sum();
            let file = array_file(f.name());
            let r = b.call(0, "memtier.fetch", bytes, || {
                ranges
                    .iter()
                    .try_for_each(|&(off, len)| tier.fetch(TIER, &file, off, len).map(drop))
            });
            if let Err(e) = r {
                b.fail(format!("probe: memtier fetch {file}: {e}"));
            }
        }
    }

    // recover: retain the sections, shrink by one task and grow back.
    for _ in 0..REPS {
        let sop = drms.sop();
        timed(b, ls, rank, "recover.retain", 0, || {
            black_box(retain(ctx, CKPT, sop, &handles(&fields)))
        });
    }
    let mut members = Membership::initial(n);
    for _ in 0..HEAVY_REPS {
        let r = shrink(ctx, &members, n - 1, &mut handles_mut(&mut fields));
        let shrunk = b.agree(ls, rank, "probe: shrink", r)?;
        let r = timed(b, ls, rank, "recover.grow", 0, || {
            grow(ctx, &shrunk, n, &mut handles_mut(&mut fields))
        });
        members = b.agree(ls, rank, "probe: grow", r)?;
    }

    // delta: a full link, a quarter of the first field dirtied, a delta
    // link, and the delta link's first stream materialized.
    let (dcfg, mut chain) = (delta_chain::config(), DeltaChain::new());
    for (i, prefix) in LINKS.iter().enumerate() {
        if i > 0 {
            delta_chain::advance(spec.grid() as i64, &mut fields[0], 1);
        }
        let hs = handles(&fields);
        let r = delta_checkpoint(&mut drms, &mut chain, &dcfg, ctx, fs, prefix, &seg, &hs);
        b.agree(ls, rank, "probe: delta_checkpoint", r)?;
    }
    if rank == 0 {
        let bytes = fs.peek(&manifest_path(LINKS[1])).unwrap_or_default();
        match Manifest::decode(&bytes) {
            Ok(man) => {
                let name = fields[0].name();
                for _ in 0..HEAVY_REPS {
                    let r = b.call(0, "delta.materialize_stream", fields[0].stream_bytes(), || {
                        materialize_stream(fs, LINKS[1], &man, name)
                    });
                    if let Err(e) = r {
                        b.fail(format!("probe: materialize_stream: {e}"));
                    }
                }
            }
            Err(e) => b.fail(format!("probe: delta manifest: {e}")),
        }
    }
    ls.sync();
    Some(())
}

/// The stream pieces a localized recovery of `lost`'s section of `f`
/// fetches: the pieces of the Figure 5a plan over `io` tasks that
/// intersect the section, as `(offset, len)` byte ranges.
fn lost_piece_ranges(f: &DistArray<f64>, lost: usize, io: usize) -> Vec<(u64, u64)> {
    let section = f.dist().assigned(lost);
    let count = choose_piece_count(f.stream_bytes() as usize, io, TARGET_PIECE_BYTES);
    let pieces = partition(f.domain(), count, f.order()).expect("power-of-two piece count");
    let offsets = stream_offsets(&pieces);
    pieces
        .iter()
        .zip(offsets)
        .filter(|(p, _)| p.intersect(section).is_ok_and(|s| !s.is_empty()))
        .map(|(p, off)| (off as u64 * 8, p.size() as u64 * 8))
        .collect()
}

/// The calls made on stored bytes from the main thread.
fn on_main_thread(b: &Bench, fs: &Piofs, w: Workload) {
    let names: Vec<String> = fs.list(&format!("{STREAMS}/")).into_iter().map(|i| i.path).collect();
    let streams: Vec<Vec<u8>> = names.iter().filter_map(|p| fs.peek(p)).collect();
    let params = delta_chain::config().params(fs);

    // darray: chunk digests, raw fnv128 and RLE over each stream.
    for s in &streams {
        b.call(0, "darray.digest_stream", 0, || black_box(digest_stream(s, params)));
        b.call(0, "darray.fnv128", s.len() as u64, || black_box(fnv128(s)));
    }
    if let Some(s) = streams.first() {
        let chunk = params.chunk_bytes() as usize;
        for _ in 0..HEAVY_REPS {
            b.call(0, "darray.encode_chunk", s.len() as u64, || {
                s.chunks(chunk).for_each(|c| drop(black_box(encode_chunk(c, true))))
            });
        }
    }

    // core: integrity records, raw crc32, the manifest codec, the sweep.
    let files: Vec<Vec<u8>> =
        fs.list(&format!("{CKPT}/")).into_iter().filter_map(|i| fs.peek(&i.path)).collect();
    for f in &files {
        b.call(0, "core.crc32", f.len() as u64, || black_box(crc32(f)));
    }
    for _ in 0..HEAVY_REPS {
        b.call(0, "core.compute_integrity", 0, || black_box(compute_integrity(fs, CKPT)));
    }
    // The manifest a restart of this workload reads: v3 chunk tables for
    // the delta chain, a full checkpoint's otherwise.
    let last = if w == Workload::DeltaChain { LINKS[1] } else { CKPT };
    let manifest = fs.peek(&manifest_path(last)).unwrap_or_default();
    for _ in 0..REPS {
        let r =
            b.call(0, "core.manifest_codec", 0, || Manifest::decode(&manifest).map(|m| m.encode()));
        if let Err(e) = r {
            b.fail(format!("probe: manifest {last}: {e}"));
        }
        let valid = b.call(0, "resil.checkpoint_is_valid", 0, || checkpoint_is_valid(fs, last));
        if !valid {
            b.fail(format!("probe: {last} does not verify"));
        }
    }

    // piofs: one stream-sized file written and read back by one task.
    if let Some(s) = streams.first() {
        b.region(1, None, |ctx| {
            for i in 0..HEAVY_REPS {
                let path = format!("probe/piofs/{i}");
                fs.create(&path);
                b.call(0, "piofs.write_at", s.len() as u64, || fs.write_at(ctx, &path, 0, s));
                let r = b.call(0, "piofs.read_at", s.len() as u64, || {
                    fs.read_at(ctx, &path, 0, s.len() as u64, ReadAccess::Sequential)
                });
                if let Err(e) = r {
                    b.fail(format!("probe: read_at {path}: {e}"));
                }
            }
        });
    }
    for _ in 0..REPS {
        b.call(0, "core.sweep_orphans", 0, || black_box(sweep_orphans(fs)));
    }
}
