//! Restart served out of the memory tier.
//!
//! [`TierSource`] is the memory tier as a restore source: `resume_from_tier`
//! and `restore_arrays_from_tier` run the same restore pipeline as
//! `Drms::initialize` and `Drms::restore_arrays`, but segment and array
//! bytes come from resident tier pieces instead of PIOFS files. Pricing is
//! where the tier earns its keep: a piece held on the reading task's own
//! node moves at memory-copy bandwidth; a remote piece pays one message
//! latency plus wire time — both far ahead of PIOFS client read bandwidth,
//! which is the whole point of the tier.

use drms_core::manifest::Manifest;
use drms_core::restore::{RestoreSource, SourceKind};
use drms_core::{CheckpointArray, CoreError, Drms, DrmsConfig, EnableFlag, RestartInfo};
use drms_msg::Ctx;
use drms_obs::names;
use drms_piofs::Piofs;

use crate::store::{array_file, SEGMENT_FILE};
use crate::tier::MemTier;
use crate::{MemTierError, Result};

/// The tier entry under a prefix, as a restore source. Its pieces carry
/// their own CRCs, so the segment needs no manifest check; a tier error
/// met while serving the segment is kept, so a resume can report it as
/// itself.
pub struct TierSource<'a> {
    tier: &'a MemTier,
    prefix: &'a str,
    err: Option<MemTierError>,
}

impl<'a> TierSource<'a> {
    /// The tier entry under `prefix`.
    pub fn new(tier: &'a MemTier, prefix: &'a str) -> TierSource<'a> {
        TierSource { tier, prefix, err: None }
    }

    /// Serves `[off, off + len)` of `file` out of resident pieces, charged
    /// to the caller's clock — a local holder moves at memory-copy
    /// bandwidth, a remote one pays latency plus wire time — and counted
    /// against `memtier.restore_bytes`.
    fn read(&self, ctx: &mut Ctx, file: &str, off: u64, len: u64) -> Result<Vec<u8>> {
        let f = self.tier.fetch(self.prefix, file, off, len)?;
        let cost = *ctx.cost();
        let my = ctx.node();
        let mut dt = 0.0;
        for &(node, bytes) in &f.sources {
            if node == my {
                dt += bytes as f64 / cost.memcpy_bw;
            } else {
                dt += cost.latency + cost.wire_time(bytes as usize);
            }
        }
        ctx.charge(dt);
        if ctx.recorder().enabled() {
            ctx.recorder().counter_add(ctx.rank(), names::MEMTIER_RESTORE_BYTES, None, len);
        }
        Ok(f.data)
    }
}

impl RestoreSource for TierSource<'_> {
    fn kind(&self) -> &'static SourceKind {
        &SourceKind::TIER
    }

    fn fs(&self) -> Option<&Piofs> {
        None
    }

    fn segment(&mut self, ctx: &mut Ctx, _manifest: &Manifest) -> drms_core::Result<Vec<u8>> {
        let read = self
            .tier
            .file_len(self.prefix, SEGMENT_FILE)
            .and_then(|len| self.read(ctx, SEGMENT_FILE, 0, len));
        read.map_err(|e| {
            let msg = e.to_string();
            self.err = Some(e);
            CoreError::Integrity(msg)
        })
    }

    /// A zero-length request returns an empty buffer without touching the
    /// tier: tier reads price locally, so there is no phase to line up with.
    fn fetch(
        &mut self,
        ctx: &mut Ctx,
        array: &str,
        off: u64,
        len: u64,
    ) -> std::result::Result<Vec<u8>, String> {
        if len == 0 {
            return Ok(Vec::new());
        }
        self.read(ctx, &array_file(array), off, len).map_err(|e| e.to_string())
    }
}

/// `drms_initialize` against the memory tier (collective): checks the entry
/// is intact for the surviving node set, then runs [`Drms::resume`] over a
/// [`TierSource`], which reloads the application text from the file system
/// and serves the representative data segment out of resident pieces.
/// Returns the run-time handle and the restart info — a tier resume is
/// always a restart, never a fresh start.
pub fn resume_from_tier(
    ctx: &mut Ctx,
    fs: &Piofs,
    tier: &MemTier,
    cfg: DrmsConfig,
    enable: EnableFlag,
    prefix: &str,
) -> Result<(Drms, Box<RestartInfo>)> {
    if !tier.is_intact(prefix) {
        return Err(MemTierError::NotIntact(format!("{prefix:?} cannot serve a restart")));
    }
    let manifest = tier.manifest(prefix)?;
    let mut source = TierSource::new(tier, prefix);
    Drms::resume(ctx, fs, cfg, enable, &mut source, &manifest)
        .map_err(|e| source.err.take().unwrap_or(MemTierError::Core(e)))
}

/// Loads every array from the tier entry under `prefix` (collective), after
/// the application has re-created them under the current distributions:
/// [`Drms::restore_from`] a [`TierSource`], which validates each array
/// against the manifest exactly like [`Drms::restore_arrays`]. Returns the
/// array-phase time.
pub fn restore_arrays_from_tier(
    ctx: &mut Ctx,
    tier: &MemTier,
    drms: &Drms,
    prefix: &str,
    manifest: &Manifest,
    arrays: &mut [&mut dyn CheckpointArray],
) -> Result<f64> {
    Ok(drms.restore_from(ctx, &mut TierSource::new(tier, prefix), manifest, arrays)?)
}
