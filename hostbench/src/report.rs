//! Metric definitions, the run header, the result line and the stored
//! virtual-time reference.

use std::fmt::Write as _;

use drms_apps::Class;
use drms_obs::names;

use crate::bench::{Outcome, RunConfig, Samples};
use crate::clock::Stamp;
use crate::stats::{median, tail};
use crate::trace::Span;
use crate::workloads::Workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The end-to-end metrics of an untraced run, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("ckpt_p50_s", "s"),
    ("ckpt_tail_s", "s"),
    ("restart_p50_s", "s"),
    ("restart_tail_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Where a per-layer metric comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Median host seconds of the spans with this name.
    Median(&'static str),
    /// Median MB/s (bytes / host seconds) of the spans with this name.
    Rate(&'static str),
    /// Median spread between the first and last task entering an
    /// operation.
    Skew,
    /// An obs counter per operation of the traced jobs.
    PerOp(&'static str),
    /// An obs counter per traced job (every job does the same work, so
    /// this repeats exactly).
    PerJob(&'static str),
    /// Dirty chunks over chunks hashed, from the obs counters.
    DirtyRatio,
    /// Median traced job time over median untraced job time.
    TraceOverhead,
}

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// How it is measured.
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, source: Source) -> LayerMetric {
    LayerMetric { name, unit, source }
}

use Source::{Median, PerJob, PerOp, Rate};

/// Every per-layer metric, grouped by layer. `README.md` maps each to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: &[LayerMetric] = &[
    m("apps.step_s", "s", Median("apps.step")),
    m("msg.region_s", "s", Median("msg.run_spmd")),
    m("msg.barrier_s", "s", Median("msg.barrier")),
    m("msg.alltoallv_s", "s", Median("msg.alltoallv")),
    m("msg.entry_skew_s", "s", Source::Skew),
    m("msg.messages_sent", "count", PerOp(names::MESSAGES_SENT)),
    m("msg.message_bytes", "B", PerOp(names::MESSAGE_BYTES)),
    m("redistribute.bytes", "B", PerOp(names::REDISTRIBUTION_BYTES)),
    m("slices.partition_s", "s", Median("slices.partition")),
    m("darray.write_stream_s", "s", Median("darray.write_stream")),
    m("darray.read_stream_s", "s", Median("darray.read_stream")),
    m("darray.digest_s", "s", Median("darray.digest_stream")),
    m("darray.fnv128_mb_s", "MB/s", Rate("darray.fnv128")),
    m("darray.rle_mb_s", "MB/s", Rate("darray.encode_chunk")),
    m("stream.pieces_written", "count", PerJob(names::PIECES_WRITTEN)),
    m("stream.bytes", "B", PerJob(names::BYTES_STREAMED)),
    m("piofs.write_mb_s", "MB/s", Rate("piofs.write_at")),
    m("piofs.read_mb_s", "MB/s", Rate("piofs.read_at")),
    m("piofs.requests", "count", PerJob(names::IO_REQUESTS)),
    m("piofs.stripes", "count", PerJob(names::STRIPES_TOUCHED)),
    m("core.integrity_s", "s", Median("core.compute_integrity")),
    m("core.crc32_mb_s", "MB/s", Rate("core.crc32")),
    m("core.segment_encode_s", "s", Median("core.encode_with_region")),
    m("core.manifest_s", "s", Median("core.manifest_codec")),
    m("core.sweep_s", "s", Median("core.sweep_orphans")),
    m("resil.verify_s", "s", Median("resil.checkpoint_is_valid")),
    m("delta.materialize_s", "s", Median("delta.materialize_stream")),
    m("delta.dirty_ratio", "ratio", Source::DirtyRatio),
    m("delta.dedup_hits", "count", PerJob(names::DELTA_DEDUP_HITS)),
    m("delta.bytes_written", "B", PerJob(names::DELTA_BYTES_WRITTEN)),
    m("delta.compressed_bytes", "B", PerJob(names::DELTA_COMPRESSED_BYTES)),
    m("memtier.fetch_s", "s", Median("memtier.fetch")),
    m("memtier.store_bytes", "B", PerJob(names::MEMTIER_STORE_BYTES)),
    m("memtier.replica_bytes", "B", PerJob(names::MEMTIER_REPLICA_BYTES)),
    m("recover.retain_s", "s", Median("recover.retain")),
    m("recover.grow_s", "s", Median("recover.grow")),
    m("recover.replica_bytes", "B", PerJob(names::RECOVER_REPLICA_BYTES)),
    m("recover.survivor_bytes", "B", PerJob(names::RECOVER_SURVIVOR_BYTES)),
    m("recover.piofs_bytes", "B", PerJob(names::RECOVER_PIOFS_BYTES)),
    m("trace_overhead", "ratio", Source::TraceOverhead),
];

/// obs counters summed over traced jobs.
pub const COUNTED: [&str; 17] = [
    names::MESSAGES_SENT,
    names::MESSAGE_BYTES,
    names::REDISTRIBUTION_BYTES,
    names::PIECES_WRITTEN,
    names::BYTES_STREAMED,
    names::IO_REQUESTS,
    names::STRIPES_TOUCHED,
    names::DELTA_DIRTY_CHUNKS,
    names::DELTA_CLEAN_CHUNKS,
    names::DELTA_DEDUP_HITS,
    names::DELTA_BYTES_WRITTEN,
    names::DELTA_COMPRESSED_BYTES,
    names::MEMTIER_STORE_BYTES,
    names::MEMTIER_REPLICA_BYTES,
    names::RECOVER_REPLICA_BYTES,
    names::RECOVER_SURVIVOR_BYTES,
    names::RECOVER_PIOFS_BYTES,
];

/// Process peak resident set (VmHWM), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics, and the name of the first one without samples.
pub fn end_to_end(s: &Samples) -> (Vec<Metric>, Option<String>) {
    let values = [
        median(&s.setup),
        median(&s.job),
        median(&s.ckpt),
        tail(&s.ckpt).map(|t| t.value),
        median(&s.restart),
        tail(&s.restart).map(|t| t.value),
        peak_rss_mb(),
    ];
    collect(END_TO_END.iter().map(|&(n, u)| (n, u)).zip(values))
}

/// The per-layer metrics of a traced run, and the name of the first one
/// without samples.
pub fn per_layer(s: &Samples, spans: &[Span]) -> (Vec<Metric>, Option<String>) {
    let count = |n: &str| s.counts.get(n).copied().unwrap_or(0) as f64;
    let per = |n: &str, d: u64| (d > 0).then(|| count(n) / d as f64);
    let values = PER_LAYER.iter().map(|lm| match lm.source {
        Source::Median(call) => median(&durations(spans, call)),
        Source::Rate(call) => median(
            &spans
                .iter()
                .filter(|sp| sp.name == call && sp.duration() > 0.0)
                .map(|sp| sp.bytes as f64 / 1e6 / sp.duration())
                .collect::<Vec<_>>(),
        ),
        Source::Skew => median(&s.skew),
        Source::PerOp(n) => per(n, s.traced_ops),
        Source::PerJob(n) => per(n, s.traced_jobs),
        Source::DirtyRatio => {
            let (d, c) = (count(names::DELTA_DIRTY_CHUNKS), count(names::DELTA_CLEAN_CHUNKS));
            (s.traced_jobs > 0).then(|| if d + c > 0.0 { d / (d + c) } else { 0.0 })
        }
        Source::TraceOverhead => Some(median(&s.job_traced)? / median(&s.job)?),
    });
    collect(PER_LAYER.iter().map(|lm| (lm.name, lm.unit)).zip(values))
}

fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::duration).collect()
}

fn collect(
    items: impl Iterator<Item = ((&'static str, &'static str), Option<f64>)>,
) -> (Vec<Metric>, Option<String>) {
    let mut missing = None;
    let metrics = items
        .map(|((name, unit), v)| {
            if v.is_none() && missing.is_none() {
                missing = Some(name.to_string());
            }
            Metric { name, value: v.unwrap_or(0.0), unit }
        })
        .collect();
    (metrics, missing)
}

/// The run header: seed, task counts, class, state bytes per operation,
/// git revision, build profile, host parallelism, job count, and the
/// percentile and sample count behind each tail.
pub fn header(cfg: &RunConfig, s: &Samples, start: Stamp) -> Vec<(String, String)> {
    let w = cfg.workload;
    let (ckpt_tasks, restart_tasks) = w.tasks();
    let tail_note = |xs: &[f64]| match tail(xs) {
        Some(t) => format!("p{:.1} of {} samples, {} beyond", t.percentile, t.samples, t.beyond),
        None => "no samples".to_string(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut h = vec![
        ("workload", w.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("class", cfg.class.to_string()),
        ("tasks", format!("{ckpt_tasks} checkpoint, {restart_tasks} restart")),
        ("state_bytes_per_op", w.state_bytes(cfg.class).to_string()),
        ("git_rev", git_rev()),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("nproc", nproc.to_string()),
        ("jobs", (s.job.len() + s.job_traced.len()).to_string()),
        ("traced", cfg.trace.to_string()),
        (
            "steal",
            format!(
                "{:.1}% of the run's CPU time; every reported time excludes it",
                100.0 * start.stolen() / (start.wall() * nproc.max(1) as f64)
            ),
        ),
        ("ckpt_tail", tail_note(&s.ckpt)),
        ("restart_tail", tail_note(&s.restart)),
    ];
    if let Some(rss) = peak_rss_mb() {
        h.push(("peak_rss", format!("{rss:.1} MB for {} B of state", w.state_bytes(cfg.class))));
    }
    h.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// The git revision of the source tree the benchmark was built from, read
/// from `.git` above this package without running git; `unknown` outside
/// a git checkout.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).ok().or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find(|l| l.ends_with(r)).map(|l| l[..l.len() - r.len()].to_string())
        }),
        None => Some(head.to_string()),
    };
    match rev.map(|r| r.trim().to_string()) {
        Some(r) if !r.is_empty() => r.chars().take(12).collect(),
        _ => "unknown".to_string(),
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(out, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

/// The stored virtual-time reference: one line per record,
/// `workload class seed index hex...`.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// Path of the reference file in the source tree (for `--bless`).
pub const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");

fn reference_key(w: Workload, class: Class, seed: u64) -> String {
    format!("{} {class} {seed}", w.name())
}

/// The stored records for `(w, class, seed)`, if any.
pub fn stored_reference(w: Workload, class: Class, seed: u64) -> Option<Vec<Vec<u64>>> {
    let key = reference_key(w, class, seed);
    let mut recs: Vec<Vec<u64>> = Vec::new();
    for line in REFERENCE.lines() {
        let Some(rest) = line.strip_prefix(&key).and_then(|r| r.strip_prefix(' ')) else {
            continue;
        };
        let mut words = rest.split_whitespace();
        let idx: usize = words.next()?.parse().ok()?;
        if idx != recs.len() {
            return None;
        }
        recs.push(words.map(|h| u64::from_str_radix(h, 16)).collect::<Result<_, _>>().ok()?);
    }
    (!recs.is_empty()).then_some(recs)
}

/// The reference text `current` with the records of `(w, class, seed)`
/// replaced by `recs`.
pub fn blessed_reference(
    current: &str,
    w: Workload,
    class: Class,
    seed: u64,
    recs: &[Vec<u64>],
) -> String {
    let key = reference_key(w, class, seed);
    let mut out: String = current
        .lines()
        .filter(|l| !l.starts_with(&format!("{key} ")))
        .map(|l| format!("{l}\n"))
        .collect();
    for (i, r) in recs.iter().enumerate() {
        let hex: Vec<String> = r.iter().map(|v| format!("{v:016x}")).collect();
        let _ = writeln!(out, "{key} {i} {}", hex.join(" "));
    }
    out
}
