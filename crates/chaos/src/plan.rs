//! Declarative fault plans.

use crate::backoff::RetryPolicy;

/// Declares the [`CrashPoint`] enum, its stable names, and `CrashPoint::ALL`
/// in one place, mirroring the `phases!` idiom in `drms-obs`: a crash point
/// added here is automatically part of the exhaustive sweep campaigns that
/// iterate `ALL`, so no point can silently escape coverage.
macro_rules! crash_points {
    ($($(#[$doc:meta])* $variant:ident = $name:literal;)+) => {
        /// An enumerated instant inside a checkpoint or restart at which
        /// the chaos controller can kill the region. Each point names a
        /// distinct window of the two-phase commit protocol (or of the
        /// restart path), so sweeping `ALL` exercises every intermediate
        /// on-storage state an interruption can leave behind.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum CrashPoint {
            $($(#[$doc])* $variant,)+
        }

        impl CrashPoint {
            /// Stable lowercase name, used in traces and repro lines.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(CrashPoint::$variant => $name,)+
                }
            }

            /// Every crash point, in protocol order. Generated from the
            /// same variant list as the enum, so sweeps cannot miss one.
            pub const ALL: [CrashPoint; [$(CrashPoint::$variant),+].len()] =
                [$(CrashPoint::$variant),+];
        }
    };
}

crash_points! {
    /// Checkpoint entered: SOP advanced, nothing written yet.
    CkptEnter = "ckpt_enter";
    /// Data segment staged, arrays not yet streamed.
    CkptAfterSegment = "ckpt_after_segment";
    /// One array stream finished (arm an occurrence to pick which).
    CkptAfterArray = "ckpt_after_array";
    /// All data and the manifest staged under the `.tmp` prefix, nothing
    /// published.
    CkptStagedManifest = "ckpt_staged_manifest";
    /// Data files renamed into the final prefix, manifest rename (the
    /// commit point) not yet executed.
    CkptMidPublish = "ckpt_mid_publish";
    /// Manifest renamed into place: the checkpoint is committed, but the
    /// region dies before the operation returns.
    CkptCommitted = "ckpt_committed";
    /// Restart: application text loaded, data segment not yet read.
    RestartAfterInit = "restart_after_init";
    /// Restart: data segment decoded, arrays not yet restored.
    RestartAfterSegment = "restart_after_segment";
    /// Restart: every array restored, region dies before resuming compute.
    RestartAfterArrays = "restart_after_arrays";
    /// Async pipeline: snapshot captured and handed to the background
    /// flusher, nothing staged on storage yet.
    FlushArmed = "flush_armed";
    /// Async flush: data segment staged under the `.tmp` prefix, arrays
    /// not yet written.
    FlushAfterSegment = "flush_after_segment";
    /// Async flush: one array's snapshot stream staged (arm an occurrence
    /// to pick which).
    FlushAfterArray = "flush_after_array";
    /// Async flush: all data and the manifest staged, nothing published.
    FlushStagedManifest = "flush_staged_manifest";
    /// Async flush: data files renamed into the final prefix, manifest
    /// rename (the commit point) not yet executed.
    FlushMidPublish = "flush_mid_publish";
    /// Async flush: manifest renamed into place — the overlapped
    /// checkpoint is committed, but the region dies before the flusher
    /// retires the snapshot.
    FlushCommitted = "flush_committed";
    /// Localized recovery entered: a node loss was observed at an SOP,
    /// the epoch-stamped recovery barrier has not yet run.
    RecoverEnter = "recover_enter";
    /// Localized recovery: membership agreement reached (every survivor
    /// holds the same epoch and lost-node set), nothing restored yet.
    RecoverAgreed = "recover_agreed";
    /// Localized recovery: survivor sections reinstated and lost sections
    /// fetched, the recovery journal not yet staged.
    RecoverRestored = "recover_restored";
    /// Localized recovery: journal and flight rings staged under the
    /// `.tmp` prefix, nothing published.
    RecoverStagedJournal = "recover_staged_journal";
    /// Localized recovery: journal renamed into place — the membership
    /// transition is durable, but the region dies before resuming compute.
    RecoverCommitted = "recover_committed";
}

/// The crash-point family of one staged-commit pipeline run: which
/// [`CrashPoint`] fires at each of its six stages. A checkpoint writer
/// picks one family and every stage consults it, so the foreground
/// (`Ckpt*`) and detached (`Flush*`) checkpoints name the same stages by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitPoints {
    /// Entered (foreground) or armed (detached): nothing staged yet.
    pub enter: CrashPoint,
    /// Data segment staged.
    pub after_segment: CrashPoint,
    /// One array staged (consulted once per array).
    pub after_array: CrashPoint,
    /// Data and manifest staged, nothing published.
    pub staged_manifest: CrashPoint,
    /// Data published, manifest rename not yet executed.
    pub mid_publish: CrashPoint,
    /// Manifest renamed into place: committed.
    pub committed: CrashPoint,
}

impl CommitPoints {
    /// Blocking checkpoints, on the application's critical path.
    pub const FOREGROUND: CommitPoints = CommitPoints {
        enter: CrashPoint::CkptEnter,
        after_segment: CrashPoint::CkptAfterSegment,
        after_array: CrashPoint::CkptAfterArray,
        staged_manifest: CrashPoint::CkptStagedManifest,
        mid_publish: CrashPoint::CkptMidPublish,
        committed: CrashPoint::CkptCommitted,
    };

    /// The asynchronous pipeline's background flush.
    pub const DETACHED: CommitPoints = CommitPoints {
        enter: CrashPoint::FlushArmed,
        after_segment: CrashPoint::FlushAfterSegment,
        after_array: CrashPoint::FlushAfterArray,
        staged_manifest: CrashPoint::FlushStagedManifest,
        mid_publish: CrashPoint::FlushMidPublish,
        committed: CrashPoint::FlushCommitted,
    };

    /// The family's points, in stage order.
    pub const fn all(&self) -> [CrashPoint; 6] {
        [
            self.enter,
            self.after_segment,
            self.after_array,
            self.staged_manifest,
            self.mid_publish,
            self.committed,
        ]
    }
}

impl CrashPoint {
    /// Whether this point lives inside the asynchronous background flush
    /// (the [`CommitPoints::DETACHED`] family, consulted only by
    /// `drms-async`'s overlapped checkpoints). Blocking checkpoint/restart
    /// sweeps skip these — an armed flush-side point can never fire on a
    /// path that takes no overlapped checkpoints.
    pub fn is_flush_side(&self) -> bool {
        CommitPoints::DETACHED.all().contains(self)
    }

    /// Whether this point lives inside the localized-recovery protocol
    /// (consulted only by `drms-recover`). Checkpoint/restart sweeps that
    /// never enter a localized recovery skip these — an armed recover-side
    /// point can never fire on a path that takes no localized recoveries.
    pub fn is_recover_side(&self) -> bool {
        matches!(
            self,
            CrashPoint::RecoverEnter
                | CrashPoint::RecoverAgreed
                | CrashPoint::RecoverRestored
                | CrashPoint::RecoverStagedJournal
                | CrashPoint::RecoverCommitted
        )
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Message-layer faults, decided per `(rank, send sequence)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MsgFaults {
    /// Probability a send attempt fails transiently and is retried under
    /// the plan's [`RetryPolicy`].
    pub drop_prob: f64,
    /// Probability a message is delivered twice (receive-side dedup drops
    /// the duplicate by correlation id).
    pub dup_prob: f64,
    /// Upper bound on extra delivery latency, simulated seconds (uniform
    /// per message; 0 disables).
    pub max_extra_latency: f64,
}

/// File-system faults, decided per `(rank, operation sequence)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PiofsFaults {
    /// Probability an I/O operation hits a transient server error and is
    /// retried under the plan's [`RetryPolicy`].
    pub transient_prob: f64,
    /// Optional single armed torn write (partial `write_at`).
    pub torn: Option<TornWrite>,
}

/// One armed torn write: the n-th `write_at` whose path contains the
/// pattern persists only a prefix of its payload — the simulation of a
/// crash or media error mid-write. Fires once.
#[derive(Debug, Clone, PartialEq)]
pub struct TornWrite {
    /// Substring selecting the victim path (e.g. `"manifest"`).
    pub path_contains: String,
    /// Which matching write to tear, 1-based.
    pub occurrence: u32,
    /// Fraction of the payload that lands, in `[0, 1)`.
    pub keep_fraction: f64,
}

/// A complete, seeded fault plan: what to inject at each layer, and the
/// retry policy instrumented code backs off with. The default plan injects
/// nothing (all probabilities zero, no torn write, no crash).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed all stateless fault decisions hash against.
    pub seed: u64,
    /// Message-transport faults.
    pub msg: MsgFaults,
    /// File-system faults.
    pub piofs: PiofsFaults,
    /// Optional armed crash: the region dies at the n-th consultation
    /// (1-based occurrence) of the given point. Fires once per controller.
    pub crash: Option<(CrashPoint, u32)>,
    /// Backoff schedule for transient-fault retries.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// A plan with the given seed and no faults armed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_point_names_unique_and_all_exhaustive() {
        let mut names: Vec<&str> = CrashPoint::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(names.len(), CrashPoint::ALL.len());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CrashPoint::ALL.len(), "duplicate crash-point name");
    }

    #[test]
    fn commit_families_are_disjoint_and_named_by_prefix() {
        let fg = CommitPoints::FOREGROUND.all();
        let bg = CommitPoints::DETACHED.all();
        assert!(fg.iter().all(|p| p.as_str().starts_with("ckpt_") && !p.is_flush_side()));
        assert!(bg.iter().all(|p| p.as_str().starts_with("flush_") && p.is_flush_side()));
        let flush_side = CrashPoint::ALL.iter().filter(|p| p.is_flush_side()).count();
        assert_eq!(flush_side, bg.len());
    }

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert_eq!(p.msg.drop_prob, 0.0);
        assert_eq!(p.piofs.transient_prob, 0.0);
        assert!(p.crash.is_none() && p.piofs.torn.is_none());
    }
}
