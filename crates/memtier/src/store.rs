//! Collective store into the memory tier and verified spill to PIOFS.
//!
//! `store_checkpoint` is the diskless sibling of
//! `Drms::reconfig_checkpoint`: the same SOP numbering, the same canonical
//! stream pieces, the same manifest encoding — but the pieces land in node
//! memory (owner copy plus `r` replicas scattered over the interconnect)
//! instead of PIOFS files. `spill_checkpoint` later writes the resident
//! pieces out to the same files the direct checkpoint path would have
//! produced, stamps the manifest with file-integrity records, and verifies
//! the result end-to-end before calling the checkpoint durable — so a
//! spilled checkpoint is bitwise indistinguishable from one written through
//! PIOFS directly.
//!
//! All replication traffic moves through [`drms_msg::Ctx::alltoallv`], so
//! its virtual-time price follows the same deterministic cost model as
//! every other message in the simulation.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use drms_core::manifest::{manifest_path, ArrayEntry, CkptKind, Manifest};
use drms_core::segment::DataSegment;
use drms_core::wire::{crc32, Reader, Writer};
use drms_core::{compute_integrity, encode_segment, CheckpointArray, CoreError, Drms};
use drms_msg::Ctx;
use drms_obs::{names, Phase};
use drms_piofs::{Piofs, WriteReq};

use crate::placement;
use crate::tier::MemTier;
use crate::{MemTierError, Result};

/// Name of the data-segment stream within a tier entry (matches the
/// `{prefix}/segment` file of the PIOFS layout).
pub const SEGMENT_FILE: &str = "segment";

/// What one memory-tier store did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreReport {
    /// Wall-clock (simulated) seconds from first to last barrier.
    pub seconds: f64,
    /// SOP number the checkpoint was taken at.
    pub sop: u64,
    /// Unique stream bytes captured (segment plus all arrays).
    pub bytes: u64,
    /// Bytes scattered to replica nodes over the interconnect.
    pub replica_bytes: u64,
    /// Stream pieces captured across all tasks.
    pub pieces: u64,
}

/// What one spill to PIOFS did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillReport {
    /// Wall-clock (simulated) seconds from first to last barrier.
    pub seconds: f64,
    /// Data bytes written to PIOFS (manifest excluded).
    pub bytes: u64,
}

/// Stream-file name of a checkpoint array within a tier entry.
pub fn array_file(name: &str) -> String {
    format!("array-{name}")
}

/// One pre-captured stream piece handed to [`store_captured`]: the tier
/// file it belongs to, its stream offset, its bytes and their CRC. The
/// asynchronous checkpoint pipeline captures these at the SOP (pricing the
/// copy there) and replicates them into the tier from its background
/// flusher.
#[derive(Debug, Clone)]
pub struct CapturedPiece {
    /// Tier stream file ([`SEGMENT_FILE`] or [`array_file`]).
    pub file: String,
    /// Byte offset within the stream.
    pub offset: u64,
    /// The piece's bytes (shared — the tier never duplicates per holder).
    pub data: Arc<Vec<u8>>,
    /// CRC32 of `data`.
    pub crc: u32,
}

/// Whether a store into `tier` can satisfy its replication factor on the
/// calling region's node set. A pure function of the region topology every
/// task shares — no communication — so jobs can agree to degrade to a
/// direct PIOFS checkpoint when the region has shrunk below `replicas + 1`
/// distinct nodes.
pub fn store_feasible(ctx: &Ctx, tier: &MemTier) -> bool {
    let (_, nodes) = node_map(ctx);
    placement::replication_feasible(nodes.len(), tier.replicas())
}

fn node_map(ctx: &Ctx) -> (BTreeMap<usize, usize>, Vec<usize>) {
    // Lowest rank per node does the tier's node-level work (receiving
    // replicas, writing spill pieces).
    let mut rank_of_node = BTreeMap::new();
    for r in 0..ctx.ntasks() {
        rank_of_node.entry(ctx.node_of(r)).or_insert(r);
    }
    let nodes = rank_of_node.keys().copied().collect();
    (rank_of_node, nodes)
}

/// `drms_reconfig_checkpoint` into the memory tier (collective): advances
/// the SOP, captures the representative data segment (rank 0) and every
/// array's canonical stream pieces, keeps the owner copy on each piece's
/// node, and scatters `tier.replicas()` additional copies to distinct other
/// nodes in one priced `alltoallv`. The entry is sealed under `prefix` with
/// the same manifest a PIOFS checkpoint would carry (integrity records
/// empty — per-piece CRCs protect resident data).
///
/// Errors before any communication when the replication factor is not
/// satisfiable on the region's node set, identically on every task.
pub fn store_checkpoint(
    ctx: &mut Ctx,
    tier: &MemTier,
    prefix: &str,
    drms: &mut Drms,
    base_segment: &DataSegment,
    arrays: &[&dyn CheckpointArray],
) -> Result<StoreReport> {
    let sop = drms.advance_sop();
    let (rank_of_node, node_set) = node_map(ctx);
    if !placement::replication_feasible(node_set.len(), tier.replicas()) {
        return Err(MemTierError::ReplicationUnsatisfiable {
            replicas: tier.replicas(),
            nodes: node_set.len(),
        });
    }
    ctx.barrier();
    let t0 = ctx.now();
    // A fresh store replaces any previous entry under this prefix: a
    // different task count means a different piece plan, and plans must
    // never mix.
    if ctx.rank() == 0 {
        tier.begin(prefix);
    }
    ctx.barrier();

    // Capture this task's pieces: the representative segment on rank 0,
    // then every array's canonical stream pieces.
    let cfg = drms.cfg().clone();
    let io = cfg.io.resolve(ctx.ntasks());
    let mut local: Vec<(String, u64, Arc<Vec<u8>>, u32)> = Vec::new();
    let mut seg_len = 0u64;
    if ctx.rank() == 0 {
        let bytes = encode_segment(base_segment, arrays, cfg.fixed_local_bytes);
        seg_len = bytes.len() as u64;
        let mut off = 0u64;
        for chunk in bytes.chunks(tier.piece_bytes()) {
            let data = Arc::new(chunk.to_vec());
            let crc = crc32(&data);
            local.push((SEGMENT_FILE.to_string(), off, data, crc));
            off += chunk.len() as u64;
        }
    }
    for a in arrays {
        let file = array_file(a.array_name());
        for p in a.stream_pieces(ctx, io)? {
            let data = Arc::new(p.data);
            let crc = crc32(&data);
            local.push((file.clone(), p.offset, data, crc));
        }
    }
    // Capturing into tier memory is a local copy; price it as one.
    let my_bytes: u64 = local.iter().map(|(_, _, d, _)| d.len() as u64).sum();
    let memcpy_bw = ctx.cost().memcpy_bw;
    ctx.charge(my_bytes as f64 / memcpy_bw);

    let my_node = ctx.node();
    for (file, off, data, crc) in &local {
        tier.insert_piece(prefix, file, *off, data, *crc, my_node)?;
    }

    // Replication scatter: one priced alltoallv carrying every replica,
    // addressed to the lowest rank of each chosen node. Placement keys on
    // (file, offset) so the rotation spreads load across pieces.
    let mut outgoing: Vec<Vec<u8>> = vec![Vec::new(); ctx.ntasks()];
    let mut my_replica_bytes = 0u64;
    for (file, off, data, crc) in &local {
        let key = u64::from(crc32(file.as_bytes())).wrapping_add(*off);
        for node in placement::replica_nodes(my_node, &node_set, tier.replicas(), key)? {
            let dst = rank_of_node[&node];
            let mut w = Writer::new();
            w.string(file);
            w.u64(*off);
            w.u32(*crc);
            w.blob(data);
            outgoing[dst].extend(w.finish());
            my_replica_bytes += data.len() as u64;
        }
    }
    let incoming = ctx.alltoallv(outgoing);
    for src in 0..ctx.ntasks() {
        if src == ctx.rank() {
            continue;
        }
        let buf = incoming.from(src).to_vec();
        let mut r = Reader::new(&buf);
        while r.remaining() > 0 {
            let file = r.string().map_err(CoreError::from)?;
            let off = r.u64().map_err(CoreError::from)?;
            let crc = r.u32().map_err(CoreError::from)?;
            let data = Arc::new(r.blob().map_err(CoreError::from)?);
            tier.insert_piece(prefix, &file, off, &data, crc, my_node)?;
        }
    }

    // Free rendezvous for the report totals (deterministic, no clock cost).
    let (per_task, _) = ctx.exchange((my_bytes, my_replica_bytes, local.len() as u64));
    let bytes: u64 = per_task.iter().map(|x| x.0).sum();
    let replica_bytes: u64 = per_task.iter().map(|x| x.1).sum();
    let pieces: u64 = per_task.iter().map(|x| x.2).sum();

    // All inserts done: rank 0 seals (identity + coverage check) and the
    // outcome is shared so every task fails identically.
    ctx.barrier();
    let seal_err: Option<String> = if ctx.rank() == 0 {
        let manifest = Manifest {
            app: cfg.app.clone(),
            kind: CkptKind::Drms,
            ntasks: ctx.ntasks(),
            sop,
            arrays: arrays.iter().map(|&a| ArrayEntry::of(a)).collect(),
            integrity: Vec::new(),
            deltas: Vec::new(),
        };
        let mut file_lens = vec![(SEGMENT_FILE.to_string(), seg_len)];
        for a in arrays {
            file_lens.push((array_file(a.array_name()), a.stream_bytes()));
        }
        tier.seal(prefix, &cfg.app, sop, manifest.encode(), &file_lens).err().map(|e| e.to_string())
    } else {
        None
    };
    let (votes, t) = ctx.exchange(seal_err);
    ctx.advance_to(t);
    ctx.barrier();
    let t1 = ctx.now();

    if ctx.rank() == 0 && ctx.recorder().enabled() {
        let rec = ctx.recorder();
        rec.span_start(t0, 0, Phase::MemTier, "store");
        rec.span_end(t1, 0, Phase::MemTier, "store");
        rec.event(t1, 0, Phase::MemTier, &format!("MemTierStore {prefix}"));
        rec.counter_add_at(t1, 0, names::MEMTIER_STORE_BYTES, None, bytes);
        rec.counter_add_at(t1, 0, names::MEMTIER_REPLICA_BYTES, None, replica_bytes);
        if let Some(r) = tier.min_replicas(prefix) {
            rec.gauge_set_at(t1, 0, names::MEMTIER_REPLICAS, 0, r as f64);
        }
    }
    if let Some(err) = votes[0].clone() {
        return Err(MemTierError::Incomplete(err));
    }
    Ok(StoreReport { seconds: t1 - t0, sop, bytes, replica_bytes, pieces })
}

/// Replicates **pre-captured** pieces into the tier and seals the entry
/// (collective): the capture itself — gathering canonical streams and
/// pricing the copy — already happened at the caller's snapshot point, so
/// this function only moves bytes: owner copies land on each piece's node,
/// `tier.replicas()` additional copies scatter over the interconnect in one
/// priced `alltoallv`, and rank 0 seals under the supplied manifest. This
/// is the tier half of the asynchronous flush pipeline; a blocking
/// [`store_checkpoint`] captures and replicates in one call instead.
///
/// Every task passes its own `local` pieces; `app`, `sop`, `manifest` and
/// `file_lens` are meaningful on rank 0 only. Errors identically on every
/// task when replication is not feasible or sealing fails.
#[allow(clippy::too_many_arguments)]
pub fn store_captured(
    ctx: &mut Ctx,
    tier: &MemTier,
    prefix: &str,
    app: &str,
    sop: u64,
    manifest: Vec<u8>,
    file_lens: &[(String, u64)],
    local: Vec<CapturedPiece>,
) -> Result<StoreReport> {
    let (rank_of_node, node_set) = node_map(ctx);
    if !placement::replication_feasible(node_set.len(), tier.replicas()) {
        return Err(MemTierError::ReplicationUnsatisfiable {
            replicas: tier.replicas(),
            nodes: node_set.len(),
        });
    }
    ctx.barrier();
    let t0 = ctx.now();
    if ctx.rank() == 0 {
        tier.begin(prefix);
    }
    ctx.barrier();

    let my_node = ctx.node();
    let my_bytes: u64 = local.iter().map(|p| p.data.len() as u64).sum();
    for p in &local {
        tier.insert_piece(prefix, &p.file, p.offset, &p.data, p.crc, my_node)?;
    }

    // Replication scatter, identical placement law to `store_checkpoint`:
    // keyed on (file, offset) so the rotation spreads load across pieces.
    let mut outgoing: Vec<Vec<u8>> = vec![Vec::new(); ctx.ntasks()];
    let mut my_replica_bytes = 0u64;
    for p in &local {
        let key = u64::from(crc32(p.file.as_bytes())).wrapping_add(p.offset);
        for node in placement::replica_nodes(my_node, &node_set, tier.replicas(), key)? {
            let dst = rank_of_node[&node];
            let mut w = Writer::new();
            w.string(&p.file);
            w.u64(p.offset);
            w.u32(p.crc);
            w.blob(&p.data);
            outgoing[dst].extend(w.finish());
            my_replica_bytes += p.data.len() as u64;
        }
    }
    let incoming = ctx.alltoallv(outgoing);
    for src in 0..ctx.ntasks() {
        if src == ctx.rank() {
            continue;
        }
        let buf = incoming.from(src).to_vec();
        let mut r = Reader::new(&buf);
        while r.remaining() > 0 {
            let file = r.string().map_err(CoreError::from)?;
            let off = r.u64().map_err(CoreError::from)?;
            let crc = r.u32().map_err(CoreError::from)?;
            let data = Arc::new(r.blob().map_err(CoreError::from)?);
            tier.insert_piece(prefix, &file, off, &data, crc, my_node)?;
        }
    }

    let (per_task, _) = ctx.exchange((my_bytes, my_replica_bytes, local.len() as u64));
    let bytes: u64 = per_task.iter().map(|x| x.0).sum();
    let replica_bytes: u64 = per_task.iter().map(|x| x.1).sum();
    let pieces: u64 = per_task.iter().map(|x| x.2).sum();

    ctx.barrier();
    let seal_err: Option<String> = if ctx.rank() == 0 {
        tier.seal(prefix, app, sop, manifest, file_lens).err().map(|e| e.to_string())
    } else {
        None
    };
    let (votes, t) = ctx.exchange(seal_err);
    ctx.advance_to(t);
    ctx.barrier();
    let t1 = ctx.now();

    if ctx.rank() == 0 && ctx.recorder().enabled() {
        let rec = ctx.recorder();
        rec.span_start(t0, 0, Phase::MemTier, "store");
        rec.span_end(t1, 0, Phase::MemTier, "store");
        rec.event(t1, 0, Phase::MemTier, &format!("MemTierStore {prefix}"));
        rec.counter_add_at(t1, 0, names::MEMTIER_STORE_BYTES, None, bytes);
        rec.counter_add_at(t1, 0, names::MEMTIER_REPLICA_BYTES, None, replica_bytes);
        if let Some(r) = tier.min_replicas(prefix) {
            rec.gauge_set_at(t1, 0, names::MEMTIER_REPLICAS, 0, r as f64);
        }
    }
    if let Some(err) = votes[0].clone() {
        return Err(MemTierError::Incomplete(err));
    }
    Ok(StoreReport { seconds: t1 - t0, sop, bytes, replica_bytes, pieces })
}

/// Writes every resident piece of a sealed tier entry into the **staged**
/// PIOFS prefix (`{prefix}.tmp/...`) through the priced collective-write
/// path, without touching manifests: the asynchronous flusher owns the
/// two-phase publish tail (staged manifest → `publish_data` →
/// `publish_manifest`), so a crash mid-spill leaves only staged debris for
/// the orphan sweep. Each piece is written by the lowest rank on its first
/// holder node, exactly like [`spill_checkpoint`]. Returns data bytes
/// written across all tasks.
pub fn spill_to_staging(ctx: &mut Ctx, fs: &Piofs, tier: &MemTier, prefix: &str) -> Result<u64> {
    let staging = drms_core::commit::staging_prefix(prefix);
    let pieces = tier.pieces_for_spill(prefix)?;
    let (rank_of_node, _) = node_map(ctx);

    if ctx.rank() == 0 {
        let mut seen = BTreeSet::new();
        for p in &pieces {
            if seen.insert(p.file.clone()) {
                fs.create(&format!("{staging}/{}", p.file));
            }
        }
    }
    ctx.barrier();

    let my_reqs: Vec<WriteReq> = pieces
        .iter()
        .filter(|p| *rank_of_node.get(&p.primary).unwrap_or(&0) == ctx.rank())
        .map(|p| WriteReq {
            path: format!("{staging}/{}", p.file),
            offset: p.offset,
            data: (*p.data).clone(),
        })
        .collect();
    let my_bytes: u64 = my_reqs.iter().map(|r| r.data.len() as u64).sum();
    fs.collective_write(ctx, my_reqs);
    ctx.barrier();

    let (per_task, _) = ctx.exchange(my_bytes);
    Ok(per_task.iter().sum())
}

/// Persists a sealed tier entry to PIOFS (collective): every resident piece
/// is written to `{prefix}/{file}` by the lowest rank on its first holder
/// node through the priced collective-write path, the manifest — rewritten
/// with file-integrity records — lands last, and the result is verified
/// end-to-end ([`drms_resil::verify_checkpoint`]) before the entry is
/// marked spilled. On verification failure the manifest is deleted again
/// (the half-spilled data is orphaned, reclaimable by
/// [`drms_core::sweep_orphans`]) and every task gets the error.
pub fn spill_checkpoint(
    ctx: &mut Ctx,
    fs: &Piofs,
    tier: &MemTier,
    prefix: &str,
) -> Result<SpillReport> {
    ctx.barrier();
    let t0 = ctx.now();
    let pieces = tier.pieces_for_spill(prefix)?;
    let (rank_of_node, _) = node_map(ctx);

    if ctx.rank() == 0 {
        let mut seen = BTreeSet::new();
        for p in &pieces {
            if seen.insert(p.file.clone()) {
                fs.create(&format!("{prefix}/{}", p.file));
            }
        }
    }
    ctx.barrier();

    // Each piece is written by the node holding it (orphaned holders fall
    // to rank 0 — possible when the region shrank since the store).
    let my_reqs: Vec<WriteReq> = pieces
        .iter()
        .filter(|p| *rank_of_node.get(&p.primary).unwrap_or(&0) == ctx.rank())
        .map(|p| WriteReq {
            path: format!("{prefix}/{}", p.file),
            offset: p.offset,
            data: (*p.data).clone(),
        })
        .collect();
    let my_bytes: u64 = my_reqs.iter().map(|r| r.data.len() as u64).sum();
    fs.collective_write(ctx, my_reqs);
    ctx.barrier();

    // Manifest last — its arrival makes the checkpoint visible — then
    // verify end-to-end before trusting the spill.
    let verdict: Option<String> = if ctx.rank() == 0 {
        finish_spill(ctx, fs, tier, prefix).err().map(|e| e.to_string())
    } else {
        None
    };
    let (votes, t) = ctx.exchange(verdict);
    ctx.advance_to(t);
    ctx.barrier();
    let t1 = ctx.now();

    let (per_task, _) = ctx.exchange(my_bytes);
    let bytes: u64 = per_task.iter().sum();
    if ctx.rank() == 0 && ctx.recorder().enabled() {
        let rec = ctx.recorder();
        rec.span_start(t0, 0, Phase::Spill, "spill");
        rec.span_end(t1, 0, Phase::Spill, "spill");
        rec.counter_add_at(t1, 0, names::MEMTIER_SPILL_BYTES, None, bytes);
        rec.gauge_set_at(t1, 0, names::MEMTIER_SPILL_SECONDS, 0, t1 - t0);
    }
    if let Some(err) = votes[0].clone() {
        return Err(MemTierError::SpillVerify(err));
    }
    if ctx.rank() == 0 {
        tier.mark_spilled(prefix);
    }
    Ok(SpillReport { seconds: t1 - t0, bytes })
}

fn finish_spill(ctx: &mut Ctx, fs: &Piofs, tier: &MemTier, prefix: &str) -> Result<()> {
    let mut m = Manifest::decode(&tier.manifest_bytes(prefix)?).map_err(CoreError::from)?;
    m.integrity = compute_integrity(fs, prefix);
    let bytes = m.encode();
    // Two-phase: stage the manifest, then publish it by atomic rename, so
    // a spill interrupted mid-write never leaves a torn commit marker (the
    // manifest-less data files fall to the orphan sweep instead).
    let smp = drms_core::commit::staged_manifest_path(prefix);
    fs.create(&smp);
    fs.write_at(ctx, &smp, 0, &bytes);
    let mp = manifest_path(prefix);
    fs.delete(&mp);
    if !drms_core::commit::publish_manifest(fs, prefix) {
        return Err(MemTierError::SpillVerify(format!(
            "{prefix:?} spill could not publish its manifest"
        )));
    }
    if ctx.recorder().enabled() {
        ctx.recorder().counter_add_at(ctx.now(), ctx.rank(), names::COMMITS, None, 1);
    }
    let report = drms_resil::verify_checkpoint(fs, prefix, ctx.recorder(), ctx.now());
    if !report.is_valid() {
        fs.delete(&mp);
        return Err(MemTierError::SpillVerify(format!(
            "{prefix:?} failed end-to-end verification after spill"
        )));
    }
    Ok(())
}
