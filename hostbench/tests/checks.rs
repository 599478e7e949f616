//! The benchmark's own tests: class-T smoke runs of every workload with
//! every check on, every check firing on a deliberately broken input, and
//! the traced run's spans.

use std::time::Instant;

use drms_apps::Class;
use drms_hostbench::report::{END_TO_END, PER_LAYER};
use drms_hostbench::trace::self_times;
use drms_hostbench::{run, Faults, Outcome, RunConfig, Workload};

fn run_t(w: Workload, jobs: usize, faults: Faults, trace: bool) -> Outcome {
    let mut cfg = RunConfig::new(w, 7);
    cfg.class = Class::T;
    cfg.seconds = 0.0;
    cfg.max_jobs = Some(jobs);
    cfg.faults = faults;
    cfg.trace = trace;
    run(cfg, Instant::now())
}

fn assert_fails(o: &Outcome, needle: &str) {
    assert!(!o.correct && o.failed > 0, "expected a failed operation: {o:?}");
    assert!(
        o.failures.iter().any(|f| f.contains(needle)),
        "no failure mentions {needle:?}: {:?}",
        o.failures
    );
}

#[test]
fn every_workload_passes_every_check_at_class_t() {
    for w in Workload::ALL {
        let o = run_t(w, 2, Faults::default(), false);
        assert!(o.correct, "{}: {:?}", w.name(), o.failures);
        assert!(o.attempted > 0);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert!(o.metrics.iter().all(|m| m.value > 0.0), "{}: {:?}", w.name(), o.metrics);
    }
}

#[test]
fn a_flipped_stream_byte_fails_the_restore() {
    let flip = Faults { flip_stream_byte: true, ..Faults::default() };
    assert_fails(&run_t(Workload::ReconfigCycle, 1, flip, false), "checkpoint_is_valid failed");
    assert_fails(&run_t(Workload::DeltaChain, 1, flip, false), "after sweep_orphans");
}

#[test]
fn a_wrong_digest_fails_every_restore() {
    for w in Workload::ALL {
        let o = run_t(w, 1, Faults { wrong_digest: true, ..Faults::default() }, false);
        assert_fails(&o, "state digest");
    }
}

#[test]
fn a_wrong_virtual_time_reference_fails() {
    for w in Workload::ALL {
        let o = run_t(w, 2, Faults { wrong_reference: true, ..Faults::default() }, false);
        assert_fails(&o, "virtual-time record");
    }
}

#[test]
fn a_recovery_that_reads_piofs_fails() {
    let o = run_t(
        Workload::SurvivorRecover,
        1,
        Faults { piofs_fallback: true, ..Faults::default() },
        false,
    );
    assert_fails(&o, "from PIOFS");
}

#[test]
fn traced_spans_nest_and_report_every_layer() {
    for w in Workload::ALL {
        let o = run_t(w, 3, Faults::default(), true);
        assert!(o.correct, "{}: {:?}", w.name(), o.failures);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert!(!o.spans.is_empty());
        for s in &o.spans {
            if let Some(p) = s.parent {
                let p = &o.spans[p];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns, "{s:?} outside {p:?}");
                assert!(s.op == p.op || p.op == 0, "{s:?} changed operation under {p:?}");
            }
        }
        assert!(self_times(&o.spans).iter().all(|&t| t >= 0.0));
    }
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed = json.matches("\"name\":").count();
    assert_eq!(listed, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
    let names = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|(n, _)| *n))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for n in names {
        assert!(json.contains(&format!("\"name\": \"{n}\"")), "BENCHMARK.json lacks {n}");
    }
}
