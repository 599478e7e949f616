//! The benchmark command.
//!
//! ```text
//! cargo run --offline --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload reconfig_cycle|delta_chain|survivor_recover \
//!     [--seed N | --fault-seed N] [--seconds S] [--trace 0|1] [--bless]
//! ```
//!
//! The seed follows the repository's convention: `FAULT_SEED` in the
//! environment, overridden by `--seed`/`--fault-seed`; 42 by default.
//! Prints a run header (`# key: value` lines), then, as the last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics, or with `--trace 1` the per-layer ones, with
//! the spans written to `out/<workload>-seed<N>.trace.json` beside this
//! package's manifest.
//! `--bless` stores the first job's virtual-time records in
//! `reference.txt` for the run's workload, class and seed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use drms_hostbench::report::{self, REFERENCE_PATH};
use drms_hostbench::{run, trace, RunConfig, Workload};

const DEFAULT_SEED: u64 = drms_hostbench::bench::DEFAULT_SEED;

struct Args {
    cfg: RunConfig,
    bless: bool,
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: hostbench --workload reconfig_cycle|delta_chain|survivor_recover\n\
         \x20                [--seed N | --fault-seed N] [--seconds S] [--trace 0|1] [--bless]"
    );
    ExitCode::from(2)
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = drms_bench::seed::fault_seed_or(DEFAULT_SEED);
    let (mut seconds, mut trace, mut bless) = (10.0, false, false);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&v).ok_or_else(bad)?),
            "--seed" | "--fault-seed" => seed = v.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds =
                    v.parse().ok().filter(|s: &f64| s.is_finite() && *s >= 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let mut cfg = RunConfig::new(workload.ok_or("--workload is required")?, seed);
    cfg.seconds = seconds;
    cfg.trace = trace;
    cfg.reference = !bless;
    Ok(Args { cfg, bless })
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let (w, class, seed) = (args.cfg.workload, args.cfg.class, args.cfg.seed);
    let trace_out = args.cfg.trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{seed}.trace.json", w.name()))
    });
    let outcome = run(args.cfg, origin);

    for (k, v) in &outcome.header {
        println!("# {k}: {v}");
    }
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    if let Some(path) = trace_out {
        print_self_times(&outcome.spans);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&outcome.spans)));
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# trace: {}", path.display());
    }
    if args.bless {
        if !outcome.correct || outcome.first_records.is_empty() {
            eprintln!("error: refusing to bless a run with failures or no records");
            return ExitCode::FAILURE;
        }
        // The file on disk, not the copy compiled in: blessing several
        // workloads in a row must keep each one's records.
        let current = std::fs::read_to_string(REFERENCE_PATH).unwrap_or_default();
        let text = report::blessed_reference(&current, w, class, seed, &outcome.first_records);
        if let Err(e) = std::fs::write(REFERENCE_PATH, text) {
            eprintln!("error: cannot write {REFERENCE_PATH}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "# blessed: {} records for {} {class} {seed}",
            outcome.first_records.len(),
            w.name()
        );
    }
    println!("{}", report::result_json(&outcome));
    ExitCode::SUCCESS
}

/// Per-span-name count, median duration and median self time, on stderr.
fn print_self_times(spans: &[trace::Span]) {
    let selfs = trace::self_times(spans);
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    eprintln!("{:<32} {:>6} {:>12} {:>12}", "span", "count", "median_s", "median_self_s");
    for n in names {
        let (d, o): (Vec<f64>, Vec<f64>) = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == n)
            .map(|(s, o)| (s.duration(), *o))
            .unzip();
        let med = |x: &[f64]| drms_hostbench::stats::median(x).unwrap_or(0.0);
        eprintln!("{n:<32} {:>6} {:>12.6} {:>12.6}", d.len(), med(&d), med(&o));
    }
}
