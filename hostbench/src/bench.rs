//! The run loop and the bookkeeping every workload shares: operation
//! timing, correctness accounting, virtual-time reference records, obs
//! counts and spans.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use drms_apps::Class;
use drms_darray::DistArray;
use drms_msg::{run_spmd, run_spmd_traced, CostModel, Ctx};
use drms_obs::TraceRecorder;

use crate::clock::Stamp;
use crate::data;
use crate::lockstep::Lockstep;
use crate::report::{self, Metric};
use crate::trace::{Span, Tracer};
use crate::workloads::{self, Workload};

/// The seed whose virtual-time records are stored in `reference.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// Deliberately broken inputs, each of which one correctness check must
/// catch. All off in a normal run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// Flip one byte of a stored stream: before the restarts that read it
    /// (reconfig_cycle), or before the sweep check (delta_chain).
    pub flip_stream_byte: bool,
    /// Perturb every expected virtual-time record.
    pub wrong_reference: bool,
    /// Perturb every digest taken at a checkpoint.
    pub wrong_digest: bool,
    /// survivor_recover: drop the memory-tier replicas and leave a PIOFS
    /// copy, so recovery reads PIOFS.
    pub piofs_fallback: bool,
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: drives the PIOFS instance and all field data.
    pub seed: u64,
    /// How long to keep starting jobs.
    pub seconds: f64,
    /// Traced run: alternate untraced and traced jobs, then probe every
    /// layer, and report the per-layer metrics.
    pub trace: bool,
    /// Problem class (the workload's default unless overridden).
    pub class: Class,
    /// Broken inputs to inject.
    pub faults: Faults,
    /// Stop after this many jobs even if time remains.
    pub max_jobs: Option<usize>,
    /// Check against `reference.txt` when it holds records for this
    /// workload, class and seed (off when re-blessing).
    pub reference: bool,
}

impl RunConfig {
    /// The default configuration of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> RunConfig {
        RunConfig {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            class: workload.default_class(),
            faults: Faults::default(),
            max_jobs: None,
            reference: true,
        }
    }
}

/// How an operation's host time is filed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A checkpoint: feeds `ckpt_p50_s` / `ckpt_tail_s`.
    Ckpt,
    /// A restart or recovery: feeds `restart_p50_s` / `restart_tail_s`.
    Restart,
    /// Any other operation (solver step, grow, sweep).
    Other,
}

/// Timer of one operation in flight.
pub struct OpTimer {
    start: Stamp,
    span: crate::trace::Open,
}

/// Host-time samples and counters of one run.
#[derive(Default)]
pub struct Samples {
    /// Set-up seconds per job.
    pub setup: Vec<f64>,
    /// Timed-phase seconds per untraced job.
    pub job: Vec<f64>,
    /// Timed-phase seconds per traced job.
    pub job_traced: Vec<f64>,
    /// Seconds per successful checkpoint.
    pub ckpt: Vec<f64>,
    /// Seconds per successful restart or recovery.
    pub restart: Vec<f64>,
    /// Entry skew per collective operation in traced jobs.
    pub skew: Vec<f64>,
    /// obs counters summed over traced jobs.
    pub counts: BTreeMap<&'static str, u64>,
    /// Traced jobs completed.
    pub traced_jobs: u64,
    /// Operations attempted in traced jobs.
    pub traced_ops: u64,
}

#[derive(Default)]
struct State {
    samples: Samples,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Whether the latest operation already counts as failed, so a second
    /// failed check on it does not count twice.
    last_failed: bool,
    /// Expected virtual-time records, by position in the job.
    expected: Vec<Vec<u64>>,
    /// Records of the current job.
    records: Vec<Vec<u64>>,
    /// Records of the first job that produced any.
    first: Vec<Vec<u64>>,
    jobs: u64,
    job_start: Option<Stamp>,
    setup_end: Option<Stamp>,
    job_span: Option<crate::trace::Open>,
    setup_span: Option<crate::trace::Open>,
    traced: bool,
}

/// Shared state of one run, used from the main thread and every task.
pub struct Bench {
    /// The run's configuration.
    pub cfg: RunConfig,
    /// Span recorder (enabled during traced jobs and the probe).
    pub tracer: Tracer,
    origin: Instant,
    /// The run's start, with the steal counter read there.
    start: Stamp,
    stored_reference: bool,
    st: Mutex<State>,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// No operation failed and every metric has samples.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Run header: `(key, value)` pairs.
    pub header: Vec<(String, String)>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Every span of a traced run.
    pub spans: Vec<Span>,
    /// Virtual-time records of the first job that produced any (what
    /// `--bless` stores).
    pub first_records: Vec<Vec<u64>>,
}

const MAX_MESSAGES: usize = 20;

/// Jobs at the start of a run whose host times are not reported: the
/// first job pays for cold caches, first-touch page faults and the
/// allocator growing to its working size. Their checks still count.
const WARMUP_JOBS: u64 = 1;

impl Bench {
    fn new(cfg: RunConfig, origin: Instant) -> Bench {
        let stored = cfg
            .reference
            .then(|| report::stored_reference(cfg.workload, cfg.class, cfg.seed))
            .flatten();
        let mut st = State::default();
        let stored_reference = stored.is_some();
        if let Some(recs) = stored {
            st.expected = expectation(&cfg.faults, recs);
        }
        let start = Stamp::now();
        Bench {
            cfg,
            tracer: Tracer::new(origin),
            origin,
            start,
            stored_reference,
            st: Mutex::new(st),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.st.lock().expect("bench state poisoned by a panicking task")
    }

    fn begin_job(&self, traced: bool) {
        self.tracer.set_enabled(traced);
        let job_span = self.tracer.open("job", 0, false);
        let setup_span = self.tracer.open("setup", 0, false);
        let mut st = self.state();
        // The first job's set-up runs from process start.
        st.job_start = Some(if st.jobs == 0 { self.start } else { Stamp::now() });
        st.setup_end = None;
        st.records.clear();
        st.traced = traced;
        st.job_span = Some(job_span);
        st.setup_span = Some(setup_span);
    }

    /// Marks the end of the job's set-up: the first timed operation is
    /// about to start. Idempotent within a job.
    pub fn setup_done(&self) {
        let mut st = self.state();
        if st.setup_end.is_some() {
            return;
        }
        let start = st.job_start.expect("setup_done inside a job");
        st.samples.setup.push(start.elapsed());
        st.setup_end = Some(Stamp::now());
        if let Some(s) = st.setup_span.take() {
            drop(st);
            self.tracer.close(s);
        }
    }

    fn end_job(&self, obs: Option<&TraceRecorder>) {
        let mut st = self.state();
        if let Some(s) = st.setup_span.take() {
            // The job failed during set-up: nothing was timed.
            drop(st);
            self.tracer.close(s);
            st = self.state();
        } else if let (Some(end), false) = (st.setup_end, st.jobs < WARMUP_JOBS) {
            let secs = end.elapsed();
            if st.traced {
                st.samples.job_traced.push(secs);
            } else {
                st.samples.job.push(secs);
            }
        }
        if st.first.is_empty() {
            st.first = st.records.clone();
        }
        if st.expected.is_empty() {
            // No stored reference: later jobs must repeat the first one
            // that produced records.
            st.expected = expectation(&self.cfg.faults, st.records.clone());
        }
        st.jobs += 1;
        if let Some(rec) = obs {
            st.samples.traced_jobs += 1;
            for name in report::COUNTED {
                *st.samples.counts.entry(name).or_default() += rec.metrics().counter_total(name);
            }
        }
        let job_span = st.job_span.take();
        drop(st);
        if let Some(s) = job_span {
            self.tracer.close(s);
        }
        self.tracer.set_enabled(false);
    }

    /// Starts timing an operation (main thread or task 0).
    pub fn start_op(&self, name: &'static str) -> OpTimer {
        self.setup_done();
        let span = self.tracer.open(name, 0, true);
        OpTimer { start: Stamp::now(), span }
    }

    /// Files a finished operation: its time under `kind` when it succeeded,
    /// a failure otherwise.
    pub fn finish_op(&self, timer: OpTimer, kind: Kind, result: Result<(), String>) {
        let secs = timer.start.elapsed();
        self.tracer.close(timer.span);
        let mut st = self.state();
        st.attempted += 1;
        if st.traced {
            st.samples.traced_ops += 1;
        }
        st.last_failed = result.is_err();
        let warmup = st.jobs < WARMUP_JOBS;
        match result {
            Ok(()) if warmup => {}
            Ok(()) => match kind {
                Kind::Ckpt => st.samples.ckpt.push(secs),
                Kind::Restart => st.samples.restart.push(secs),
                Kind::Other => {}
            },
            Err(e) => {
                st.failed += 1;
                push_message(&mut st.failures, e);
            }
        }
    }

    /// Collective over a region: times `f` from the moment every task has
    /// arrived to the moment every task has returned, files it under
    /// `kind`, and returns `Some` on every task iff `f` succeeded on every
    /// task. Task 0 records the entry skew and the span.
    pub fn op<T>(
        &self,
        ls: &Lockstep,
        ctx: &mut Ctx,
        kind: Kind,
        name: &'static str,
        f: impl FnOnce(&mut Ctx) -> Result<T, String>,
    ) -> Option<T> {
        let rank = ctx.rank();
        let arrivals = ls.gather(rank, self.now_ns());
        let timer = (rank == 0).then(|| {
            if self.tracer.enabled() {
                let lo = arrivals.iter().min().copied().unwrap_or(0);
                let hi = arrivals.iter().max().copied().unwrap_or(0);
                self.state().samples.skew.push((hi - lo) as f64 * 1e-9);
            }
            self.start_op(name)
        });
        let r = f(ctx);
        let all_ok = ls.gather(rank, r.is_ok() as u64).iter().all(|&v| v == 1);
        if let Some(t) = timer {
            self.finish_op(t, kind, verdict(name, &r, all_ok));
        }
        r.ok().filter(|_| all_ok)
    }

    /// A restart that runs as a region of its own on `n` tasks, timed from
    /// `timer`'s start to the moment `restore` has returned on every task.
    /// `restore` yields the operation's virtual-time record and the
    /// restored state; the state's digest must then equal `want`, the
    /// digest taken at the checkpoint.
    #[allow(clippy::too_many_arguments)]
    pub fn restart_region<S>(
        &self,
        timer: OpTimer,
        n: usize,
        obs: Option<&Arc<TraceRecorder>>,
        what: &str,
        want: u64,
        restore: impl Fn(&mut Ctx) -> Result<(Vec<u64>, S), String> + Sync,
        fields: impl Fn(&S) -> &[DistArray<f64>] + Sync,
    ) {
        let timer = Mutex::new(Some(timer));
        let ls = Lockstep::new(n);
        let got = self.region(n, obs, |ctx| {
            let rank = ctx.rank();
            let r = restore(ctx);
            let all_ok = ls.gather(rank, r.is_ok() as u64).iter().all(|&v| v == 1);
            if rank == 0 {
                let t = timer.lock().expect("timer lock").take().expect("one timer per restart");
                self.finish_op(t, Kind::Restart, verdict(what, &r, all_ok));
            }
            let (rec, state) = r.ok().filter(|_| all_ok)?;
            if rank == 0 {
                self.record(what, rec);
            }
            Some(self.digest(&ls, ctx, fields(&state)))
        });
        if let Some(t) = timer.into_inner().expect("timer lock") {
            // The region died before task 0 could file the restart.
            self.finish_op(t, Kind::Restart, Err(format!("{what}: region failed")));
        }
        if let Some(Some(got)) = got.and_then(|g| g.into_iter().next()) {
            self.check(digest_check(what, want, got));
        }
    }

    /// Collective set-up step: `Some` on every task iff `r` is `Ok` on
    /// every task; a failure counts as a failed operation.
    pub fn agree<T, E: std::fmt::Display>(
        &self,
        ls: &Lockstep,
        rank: usize,
        what: &str,
        r: Result<T, E>,
    ) -> Option<T> {
        let votes = ls.gather(rank, r.is_ok() as u64);
        if votes.iter().all(|&v| v == 1) {
            return r.ok();
        }
        if rank == 0 {
            let why = r.err().map_or("failed on another task".to_string(), |e| e.to_string());
            self.fail(format!("{what}: {why}"));
        }
        None
    }

    /// Times a call into the program as a child span, on task 0 (or the
    /// main thread, which passes rank 0) only.
    pub fn call<T>(&self, rank: usize, name: &'static str, bytes: u64, f: impl FnOnce() -> T) -> T {
        if rank != 0 {
            return f();
        }
        let s = self.tracer.open(name, bytes, false);
        let out = f();
        self.tracer.close(s);
        out
    }

    /// Counts an operation that could not even be attempted properly (a
    /// region that panicked, a set-up step that failed).
    pub fn fail(&self, why: String) {
        let mut st = self.state();
        st.attempted += 1;
        st.failed += 1;
        st.last_failed = true;
        push_message(&mut st.failures, why);
    }

    /// Files the verdict of a check on the latest operation: a failure
    /// turns that operation into a failed one (once).
    pub fn check(&self, verdict: Result<(), String>) {
        let Err(why) = verdict else { return };
        let mut st = self.state();
        if !st.last_failed {
            st.failed += 1;
            st.last_failed = true;
        }
        push_message(&mut st.failures, why);
    }

    /// Checks the latest operation's virtual-time record against the
    /// expected one at the same position in the job (the stored reference
    /// at the default seed, else the run's first job). Task 0 only.
    pub fn record(&self, what: &str, rec: Vec<u64>) {
        let verdict = {
            let mut st = self.state();
            let i = st.records.len();
            st.records.push(rec.clone());
            match st.expected.get(i) {
                Some(want) if *want != rec => {
                    let source =
                        if self.stored_reference { "stored reference" } else { "first job" };
                    Err(format!("{what}: virtual-time record #{i} differs from the {source}"))
                }
                _ => Ok(()),
            }
        };
        self.check(verdict);
    }

    /// Collective: the state digest of `fields` over the whole region.
    pub fn digest(&self, ls: &Lockstep, ctx: &Ctx, fields: &[DistArray<f64>]) -> u64 {
        let rank = ctx.rank();
        let parts =
            self.call(rank, "check.digest", 0, || ls.gather(rank, data::local_digest(fields)));
        parts.into_iter().fold(0u64, u64::wrapping_add)
    }

    /// The digest a later restore must reproduce (perturbed under the
    /// `wrong_digest` fault).
    pub fn expected_digest(&self, d: u64) -> u64 {
        if self.cfg.faults.wrong_digest {
            d ^ 1
        } else {
            d
        }
    }

    /// Runs an SPMD region of `n` tasks, reporting to `obs` when traced.
    /// A panicking region counts as a failed operation and yields `None`.
    pub fn region<R: Send>(
        &self,
        n: usize,
        obs: Option<&Arc<TraceRecorder>>,
        f: impl Fn(&mut Ctx) -> R + Sync,
    ) -> Option<Vec<R>> {
        let out = match obs {
            Some(rec) => run_spmd_traced(n, CostModel::default(), rec.clone(), f),
            None => run_spmd(n, CostModel::default(), f),
        };
        out.map_err(|e| self.fail(format!("region of {n} tasks: {e}"))).ok()
    }

    /// Nanoseconds since the run began.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Seconds since the run began.
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }

    fn finish(self) -> Outcome {
        let spans = self.tracer.spans();
        let st = self.st.into_inner().expect("bench state poisoned by a panicking task");
        let (metrics, missing) = if self.cfg.trace {
            report::per_layer(&st.samples, &spans)
        } else {
            report::end_to_end(&st.samples)
        };
        let mut failures = st.failures;
        if let Some(m) = &missing {
            push_message(&mut failures, format!("no samples for {m}"));
        }
        Outcome {
            correct: st.failed == 0 && st.attempted > 0 && missing.is_none(),
            attempted: st.attempted,
            failed: st.failed,
            failures,
            header: report::header(&self.cfg, &st.samples, self.start),
            metrics,
            spans,
            first_records: if self.stored_reference { Vec::new() } else { st.first },
        }
    }
}

/// The records later operations must match (perturbed under the
/// `wrong_reference` fault).
fn expectation(faults: &Faults, mut recs: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    if faults.wrong_reference {
        recs.iter_mut().flatten().for_each(|v| *v ^= 1);
    }
    recs
}

fn verdict<T, E: std::fmt::Display>(
    what: &str,
    r: &Result<T, E>,
    all_ok: bool,
) -> Result<(), String> {
    match r {
        Ok(_) if all_ok => Ok(()),
        Ok(_) => Err(format!("{what}: failed on another task")),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// The check that a restore reproduced the checkpoint's state.
pub fn digest_check(what: &str, want: u64, got: u64) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!("{what}: state digest {got:016x} differs from {want:016x} at the checkpoint"))
    }
}

fn push_message(v: &mut Vec<String>, m: String) {
    if v.len() < MAX_MESSAGES {
        v.push(m);
    }
}

/// Runs `cfg`: repeats the workload's job until `cfg.seconds` have passed
/// since `origin`, then, when traced, probes every layer. After the
/// warm-up job at least two jobs are timed; a traced run alternates
/// untraced and traced jobs and times at least two of each.
pub fn run(cfg: RunConfig, origin: Instant) -> Outcome {
    let bench = Bench::new(cfg, origin);
    let deadline = Duration::from_secs_f64(bench.cfg.seconds.max(0.0));
    let warmup = WARMUP_JOBS as usize;
    let min_jobs = warmup + if bench.cfg.trace { 4 } else { 2 };
    let mut jobs = 0usize;
    loop {
        let traced = bench.cfg.trace && jobs >= warmup && (jobs - warmup) % 2 == 1;
        bench.begin_job(traced);
        let obs = traced.then(|| Arc::new(TraceRecorder::new()));
        workloads::run_job(&bench, obs.as_ref());
        bench.end_job(obs.as_deref());
        jobs += 1;
        if bench.cfg.max_jobs.is_some_and(|m| jobs >= m) {
            break;
        }
        if jobs >= min_jobs && bench.elapsed() >= deadline {
            break;
        }
    }
    if bench.cfg.trace {
        bench.tracer.set_enabled(true);
        crate::probe::run(&bench);
        bench.tracer.set_enabled(false);
    }
    bench.finish()
}
