//! Crash-consistent two-phase checkpoint commit.
//!
//! A checkpoint interrupted mid-write must never be mistaken for a
//! restartable state. The commit protocol makes the manifest rename the
//! single atomic commit point:
//!
//! 1. **Stage.** All checkpoint data (segment, array streams) is written
//!    under the *staging prefix* `{prefix}.tmp`, and the manifest is staged
//!    as `{prefix}.tmp/manifest.tmp`. Nothing under a staging prefix is a
//!    committed checkpoint: discovery ([`crate::find_checkpoints`]) keys on
//!    `{prefix}/manifest` paths, and `manifest.tmp` never matches.
//! 2. **Publish data.** Any previously committed manifest at `prefix` is
//!    deleted first — an explicit *uncommit*, required because
//!    [`Piofs::rename`] refuses to clobber a committed manifest — then the
//!    staged data files are renamed into the final prefix. A crash in this
//!    window leaves data without a manifest: invisible to discovery,
//!    reclaimed by [`crate::sweep_orphans`].
//! 3. **Commit.** The staged manifest is renamed to `{prefix}/manifest`.
//!    Renames are atomic namespace operations, so the checkpoint flips from
//!    "does not exist" to "complete and verified-able" in one step.
//!
//! Every checkpoint writer — blocking full and incremental, the delta
//! writer, and both asynchronous flushes — stages its own data (with
//! [`stage_segment`] for the shared segment) and then hands the rest of
//! the operation to [`commit_staged`], which runs steps 2 and 3 with the
//! crash points of the writer's [`CommitPoints`] family between them.
//!
//! The publish helpers are rank-0 control-plane operations (no clock): the
//! data movement was already priced while staging, and the paper's PIOFS
//! charges nothing for metadata renames.

use drms_chaos::CommitPoints;
use drms_msg::Ctx;
use drms_obs::{names, Phase};
use drms_piofs::Piofs;

use crate::drms::{integrity_chunk, stage_flight_rings};
use crate::inject::crash_point;
use crate::manifest::{manifest_path, segment_path, FileIntegrity, Manifest};
use crate::Result;

/// The staging prefix for checkpoints being written to `prefix`. Chosen so
/// no staged file can collide with a committed checkpoint path and so
/// `{staging}/manifest` is never created (the staged manifest is
/// `manifest.tmp`).
pub fn staging_prefix(prefix: &str) -> String {
    format!("{prefix}.tmp")
}

/// Where a checkpoint to `prefix` stages its manifest. The `.tmp` name
/// keeps it invisible to checkpoint discovery and excluded from integrity
/// records (which skip `manifest.*`).
pub fn staged_manifest_path(prefix: &str) -> String {
    format!("{}/manifest.tmp", staging_prefix(prefix))
}

/// Computes integrity records for every data file currently under `prefix`
/// (manifest and quarantine markers excluded), in sorted-name order so the
/// encoded manifest is deterministic. Writer-side (rank 0) control-plane
/// operation. Public so out-of-crate checkpoint writers (the memory tier's
/// spill) can stamp their manifests the same way.
pub fn compute_integrity(fs: &Piofs, prefix: &str) -> Vec<FileIntegrity> {
    integrity_of(fs, &[format!("{prefix}/")])
}

/// Computes integrity records for the checkpoint as it will exist *after*
/// publication: the union of data files already committed under `prefix`
/// (incremental checkpoints leave unchanged arrays in place) and files
/// staged under `{prefix}.tmp`, with staged files winning name collisions.
fn compute_integrity_staged(fs: &Piofs, prefix: &str) -> Vec<FileIntegrity> {
    integrity_of(fs, &[format!("{prefix}/"), format!("{}/", staging_prefix(prefix))])
}

/// Integrity records for the data files under `dirs`, keyed by name
/// relative to their dir (a later dir wins a collision) and sorted by it.
fn integrity_of(fs: &Piofs, dirs: &[String]) -> Vec<FileIntegrity> {
    let chunk = integrity_chunk(fs);
    let mut by_name: std::collections::BTreeMap<String, String> = Default::default();
    for dir in dirs {
        for info in fs.list(dir) {
            by_name.insert(info.path[dir.len()..].to_string(), info.path);
        }
    }
    by_name
        .into_iter()
        .filter_map(|(name, path)| {
            if name == "manifest" || name.starts_with("manifest.") {
                return None;
            }
            fs.peek(&path).map(|bytes| FileIntegrity::compute(&name, &bytes, chunk))
        })
        .collect()
}

/// Publishes the staged data files of a checkpoint into their final prefix.
/// Deletes any previously committed manifest at `prefix` first (the
/// explicit uncommit), so a crash between here and [`publish_manifest`]
/// leaves only manifest-less data for the orphan sweep. Returns the number
/// of files moved. Rank-0 control-plane operation.
fn publish_data(fs: &Piofs, prefix: &str) -> usize {
    fs.delete(&manifest_path(prefix));
    let staged_dir = format!("{}/", staging_prefix(prefix));
    let mut moved = 0;
    for info in fs.list(&staged_dir) {
        let name = &info.path[staged_dir.len()..];
        if name == "manifest.tmp" {
            continue;
        }
        if fs.rename(&info.path, &format!("{prefix}/{name}")) {
            moved += 1;
        }
    }
    moved
}

/// The commit point: renames the staged manifest to `{prefix}/manifest`,
/// atomically flipping the checkpoint to committed. Returns `false` when
/// there is no staged manifest or a committed manifest still occupies the
/// target (the previous manifest was not deleted first). Rank-0
/// control-plane operation.
pub fn publish_manifest(fs: &Piofs, prefix: &str) -> bool {
    fs.rename(&staged_manifest_path(prefix), &manifest_path(prefix))
}

/// Stages the shared data segment: rank 0 writes the bytes `segment`
/// returns (called on rank 0 only) to `{prefix}.tmp/segment`, every task
/// meets at a barrier, then the family's `after_segment` point fires.
pub fn stage_segment<B: AsRef<[u8]>>(
    ctx: &mut Ctx,
    fs: &Piofs,
    prefix: &str,
    points: &CommitPoints,
    segment: impl FnOnce() -> B,
) -> Result<()> {
    if ctx.rank() == 0 {
        let path = segment_path(&staging_prefix(prefix));
        let bytes = segment();
        fs.create(&path);
        fs.write_at(ctx, &path, 0, bytes.as_ref());
    }
    ctx.barrier();
    crash_point(ctx, fs, points.after_segment, true)
}

/// The staged-commit pipeline: everything a checkpoint does once its data
/// is staged under `{prefix}.tmp` and every task has met at a barrier.
///
/// 1. Every rank's flight ring is staged ([`stage_flight_rings`]).
/// 2. Rank 0 stages the manifest `manifest` builds from the staged
///    integrity records (called on rank 0 only).
/// 3. `staged_manifest` fires; rank 0 publishes the data, uncommitting any
///    previous checkpoint at `prefix`; `mid_publish` fires.
/// 4. Rank 0 renames the manifest into place — the commit point — counts
///    it, marks it for the flight recorder, and runs `on_commit`.
/// 5. Every task meets at a barrier, then `committed` fires.
///
/// Returns the virtual time right after that barrier. No barrier precedes
/// the publish: only rank 0 acts in that window (renames are
/// control-plane), and the crash-point vote is itself a synchronization
/// when a controller is armed, so a chaos-free checkpoint pays exactly one
/// barrier here.
pub fn commit_staged(
    ctx: &mut Ctx,
    fs: &Piofs,
    prefix: &str,
    points: &CommitPoints,
    manifest: impl FnOnce(Vec<FileIntegrity>) -> Manifest,
    on_commit: impl FnOnce(),
) -> Result<f64> {
    stage_flight_rings(ctx, fs, &staging_prefix(prefix));
    if ctx.rank() == 0 {
        // Staged as `manifest.tmp`: decodable and complete, but invisible
        // to checkpoint discovery until published.
        let bytes = manifest(compute_integrity_staged(fs, prefix)).encode();
        let smp = staged_manifest_path(prefix);
        fs.create(&smp);
        fs.write_at(ctx, &smp, 0, &bytes);
    }
    crash_point(ctx, fs, points.staged_manifest, true)?;
    if ctx.rank() == 0 {
        publish_data(fs, prefix);
    }
    crash_point(ctx, fs, points.mid_publish, true)?;
    if ctx.rank() == 0 {
        let committed = publish_manifest(fs, prefix);
        debug_assert!(committed, "staged manifest must exist at the commit point");
        if ctx.recorder().enabled() {
            ctx.recorder().counter_add_at(ctx.now(), 0, names::COMMITS, None, 1);
        }
        if ctx.recorder().flight_enabled() {
            // Durable-progress marker for the flight recorder: the
            // stitched timeline attributes everything after the last
            // `commit:` of a killed incarnation as lost work.
            ctx.recorder().event(ctx.now(), 0, Phase::Manifest, &format!("commit:{prefix}"));
        }
        on_commit();
    }
    ctx.barrier();
    let t = ctx.now();
    crash_point(ctx, fs, points.committed, false)?;
    Ok(t)
}

/// Abandons a staged checkpoint: deletes everything under its staging
/// prefix. Crashed attempts that never get this courtesy are reclaimed by
/// [`crate::sweep_orphans`] instead. Returns the number of files removed.
pub fn abort_staged(fs: &Piofs, prefix: &str) -> usize {
    let staged_dir = format!("{}/", staging_prefix(prefix));
    let mut removed = 0;
    for info in fs.list(&staged_dir) {
        if fs.delete(&info.path) {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_piofs::PiofsConfig;

    #[test]
    fn staging_paths_never_look_committed() {
        assert_eq!(staging_prefix("ck/1"), "ck/1.tmp");
        assert_eq!(staged_manifest_path("ck/1"), "ck/1.tmp/manifest.tmp");
        assert!(!staged_manifest_path("ck/1").ends_with("/manifest"));
    }

    #[test]
    fn publish_moves_data_then_commits_manifest() {
        let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
        fs.preload("ck/1.tmp/segment", vec![1; 10]);
        fs.preload("ck/1.tmp/array-u", vec![2; 10]);
        fs.preload("ck/1.tmp/manifest.tmp", vec![3; 10]);
        assert_eq!(publish_data(&fs, "ck/1"), 2);
        assert!(fs.exists("ck/1/segment"));
        assert!(fs.exists("ck/1/array-u"));
        assert!(!fs.exists("ck/1/manifest"), "not committed yet");
        assert!(publish_manifest(&fs, "ck/1"));
        assert!(fs.exists("ck/1/manifest"));
        assert!(fs.list("ck/1.tmp/").is_empty(), "staging fully drained");
    }

    #[test]
    fn publish_data_uncommits_a_previous_checkpoint_in_place() {
        let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
        fs.preload("ck/1/manifest", vec![9]);
        fs.preload("ck/1/segment", vec![9; 4]);
        fs.preload("ck/1.tmp/segment", vec![1; 4]);
        fs.preload("ck/1.tmp/manifest.tmp", vec![2]);
        publish_data(&fs, "ck/1");
        // The old manifest is gone (uncommitted) and the new data is in
        // place; only the manifest rename remains.
        assert!(!fs.exists("ck/1/manifest"));
        assert_eq!(fs.peek("ck/1/segment").unwrap(), vec![1; 4]);
        assert!(publish_manifest(&fs, "ck/1"));
        assert_eq!(fs.peek("ck/1/manifest").unwrap(), vec![2]);
    }

    #[test]
    fn staged_integrity_unions_committed_and_staged_files() {
        let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
        fs.preload("ck/1/array-old", vec![1; 8]);
        fs.preload("ck/1/segment", vec![2; 8]);
        fs.preload("ck/1/manifest", vec![0]);
        fs.preload("ck/1.tmp/segment", vec![3; 8]); // staged wins
        fs.preload("ck/1.tmp/manifest.tmp", vec![0]);
        let fi = compute_integrity_staged(&fs, "ck/1");
        let names: Vec<&str> = fi.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["array-old", "segment"]);
        let seg = fi.iter().find(|f| f.name == "segment").unwrap();
        assert!(seg.matches(&[3; 8]), "staged copy must win the collision");
    }

    #[test]
    fn abort_staged_drains_staging_only() {
        let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
        fs.preload("ck/1/segment", vec![1]);
        fs.preload("ck/1.tmp/segment", vec![2]);
        fs.preload("ck/1.tmp/manifest.tmp", vec![3]);
        assert_eq!(abort_staged(&fs, "ck/1"), 2);
        assert!(fs.list("ck/1.tmp/").is_empty());
        assert!(fs.exists("ck/1/segment"));
    }
}
