//! Gate conventions for the bench binaries.
//!
//! Every bench binary that asserts invariants is a CI gate. The two rules
//! (the `failure_campaign` convention): a failing gate exits with a
//! **non-zero status the runner can distinguish from a crash** (1, not the
//! panic runtime's 101), and it prints a **one-command repro line** so the
//! failure can be rerun without digging through CI definitions.
//!
//! * [`run_gated`] wraps a binary's body: any assertion failure or panic
//!   inside it prints the repro line and exits 1.
//! * [`Gate`] collects soft check failures across a run and reports them
//!   all at the end, instead of stopping at the first.
//! * [`baseline_gate`] is the bench-baseline regression check: compare a
//!   [`BenchResult`] against a committed
//!   baseline file with a relative tolerance, with `--bless` rewriting
//!   the baseline.

use std::path::Path;

use crate::json::{compare, BenchResult};

/// Runs `body`, turning any panic (failed `assert!`, `expect`, ...) into
/// a clean gate failure: the panic message has already been printed by
/// the panic hook; this adds the repro line and exits with status 1.
pub fn run_gated(label: &str, repro: &str, body: impl FnOnce() + std::panic::UnwindSafe) {
    if std::panic::catch_unwind(body).is_err() {
        eprintln!("\n{label}: FAILED (assertion above)");
        eprintln!("reproduce with: {repro}");
        std::process::exit(1);
    }
}

/// Collects check failures across a run; reports them together.
#[derive(Debug)]
pub struct Gate {
    label: String,
    repro: String,
    failures: Vec<String>,
}

impl Gate {
    /// A gate named `label`, reproducible with the one-liner `repro`.
    pub fn new(label: &str, repro: &str) -> Gate {
        Gate { label: label.to_owned(), repro: repro.to_owned(), failures: Vec::new() }
    }

    /// Records a failure unless `ok` holds.
    pub fn check(&mut self, ok: bool, msg: impl ToString) {
        if !ok {
            self.failures.push(msg.to_string());
        }
    }

    /// Records an unconditional failure.
    pub fn fail(&mut self, msg: impl ToString) {
        self.failures.push(msg.to_string());
    }

    /// Whether every check so far passed.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints the verdict; on any failure prints every message plus the
    /// repro line and exits 1.
    pub fn finish(self) {
        if self.failures.is_empty() {
            println!("{}: PASS", self.label);
            return;
        }
        eprintln!("\n{}: FAILED ({} check(s))", self.label, self.failures.len());
        for f in &self.failures {
            eprintln!("  - {f}");
        }
        eprintln!("reproduce with: {}", self.repro);
        std::process::exit(1);
    }
}

/// The bench-baseline regression gate. Compares `result` against the
/// baseline file at `path` with relative tolerance `tol`:
///
/// * `bless` — (re)writes the baseline from `result` and passes;
/// * no baseline file — fails, telling the operator to `--bless`;
/// * otherwise — every baseline metric must exist in `result` within
///   `±tol` relative, parameters must match, and `result` must not have
///   grown metrics the baseline lacks. Failures all print, then the
///   repro line, then exit 1.
pub fn baseline_gate(result: &BenchResult, path: &Path, tol: f64, bless: bool, repro: &str) {
    let label = format!("baseline gate [{}]", path.display());
    if bless {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create baseline directory");
        }
        std::fs::write(path, result.to_json()).expect("write baseline");
        println!("{label}: blessed from current run");
        return;
    }
    let mut gate = Gate::new(&label, repro);
    match std::fs::read_to_string(path) {
        Err(e) => gate.fail(format!("no baseline at {} ({e}); rerun with --bless", path.display())),
        Ok(text) => match BenchResult::parse(&text) {
            Err(e) => gate.fail(format!("unparseable baseline: {e}; rerun with --bless")),
            Ok(baseline) => {
                for f in compare(result, &baseline, tol) {
                    gate.fail(f);
                }
            }
        },
    }
    if gate.is_ok() {
        println!("{label}: PASS (tolerance ±{:.1}%)", 100.0 * tol);
    }
    gate.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_collects_failures() {
        let mut g = Gate::new("t", "cargo run");
        g.check(true, "fine");
        assert!(g.is_ok());
        g.check(false, "broken");
        g.fail("also broken");
        assert!(!g.is_ok());
        // finish() would exit(1); the exit path is covered by the CI
        // perturbation check on the committed baselines.
    }

    #[test]
    fn baseline_gate_blesses_and_passes() {
        let dir = std::env::temp_dir().join(format!("drms-gate-{}", std::process::id()));
        let path = dir.join("BENCH_t.json");
        let mut r = BenchResult::new("t");
        r.metric("x", 1.0);
        baseline_gate(&r, &path, 0.05, true, "cargo run");
        // Within tolerance: passes without exiting.
        let mut near = BenchResult::new("t");
        near.metric("x", 1.04);
        baseline_gate(&near, &path, 0.05, false, "cargo run");
        std::fs::remove_dir_all(&dir).ok();
    }
}
