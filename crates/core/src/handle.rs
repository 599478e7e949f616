//! Type-erased handles over distributed arrays of any element type, so one
//! checkpoint call can cover a heterogeneous set of arrays.

use drms_darray::{assign, stream, DistArray, Distribution, Element};
use drms_msg::Ctx;
use drms_piofs::Piofs;
use drms_slices::{Order, Slice};

use crate::segment::{DataSegment, Region, RegionKind};
use crate::{CoreError, Result};

/// A distributed array as seen by the checkpoint machinery.
pub trait CheckpointArray: Send {
    /// Array name (keys the stream file).
    fn array_name(&self) -> &str;

    /// Element type code (see [`Element::CODE`]).
    fn elem_code(&self) -> u8;

    /// Global domain.
    fn domain(&self) -> &Slice;

    /// Storage/stream order.
    fn order(&self) -> Order;

    /// Size of the distribution-independent stream in bytes.
    fn stream_bytes(&self) -> u64;

    /// Bytes of this task's local storage (mapped section, storage order).
    fn local_encoded(&self) -> Vec<u8>;

    /// Restores this task's local storage from [`Self::local_encoded`]
    /// bytes (same distribution required — this is the SPMD baseline path).
    fn restore_local(&mut self, bytes: &[u8]) -> Result<()>;

    /// Size of [`Self::local_encoded`] without materializing it.
    fn local_encoded_len(&self) -> usize;

    /// Monotone mutation counter (see [`DistArray::version`]); used by
    /// incremental checkpointing to skip unmodified arrays.
    fn version(&self) -> u64;

    /// Collective: writes the array's distribution-independent stream.
    fn write_stream(&self, ctx: &mut Ctx, fs: &Piofs, path: &str, io_tasks: usize) -> Result<()>;

    /// Collective: fills the array from its stream (any writer distribution).
    fn read_stream(&mut self, ctx: &mut Ctx, fs: &Piofs, path: &str, io_tasks: usize)
        -> Result<()>;

    /// Collective: collects this task's pieces of the array's canonical
    /// stream without touching the file system (the diskless tier path).
    fn stream_pieces(&self, ctx: &mut Ctx, io_tasks: usize) -> Result<Vec<stream::StreamPiece>>;

    /// Collective: fills the array from its canonical stream, fetching each
    /// piece's byte range through `fetch` instead of the file system.
    fn read_stream_via(
        &mut self,
        ctx: &mut Ctx,
        io_tasks: usize,
        fetch: &mut stream::PieceFetch<'_>,
    ) -> Result<()>;

    /// Collective: adjusts the distribution to the current region's task
    /// count and redistributes in place (`drms_adjust` + `drms_distribute`).
    fn adjust_redistribute(&mut self, ctx: &mut Ctx) -> Result<()>;

    /// Collective: re-partitions the array across the `active` subset of
    /// the region's tasks (block decomposition over the active set, empty
    /// sections elsewhere) through the live redistribution path — no
    /// storage I/O. This is the online shrink/grow operation and the
    /// membership-transition step of localized recovery.
    fn repartition(&mut self, ctx: &mut Ctx, active: &[usize]) -> Result<()>;

    /// Collective: localized section restore. Rebuilds the array under a
    /// block distribution over the `active` task subset from two sources:
    /// survivors' retained checkpoint-state local bytes (`retained`,
    /// encoded under the *current* distribution; ranks with
    /// `survivors[rank] == false` pass `None`), redistributed live; and the
    /// lost ranks' sections — the current distribution's assigned sections
    /// of every non-survivor — fetched from the array's canonical
    /// full-domain stream through `fetch` (memory-tier replicas or PIOFS).
    /// Returns the bytes fetched for the lost sections.
    fn restore_sections(
        &mut self,
        ctx: &mut Ctx,
        active: &[usize],
        survivors: &[bool],
        retained: Option<&[u8]>,
        io_tasks: usize,
        fetch: &mut stream::PieceFetch<'_>,
    ) -> Result<u64>;
}

impl<T: Element> CheckpointArray for DistArray<T> {
    fn array_name(&self) -> &str {
        self.name()
    }

    fn elem_code(&self) -> u8 {
        T::CODE
    }

    fn domain(&self) -> &Slice {
        DistArray::domain(self)
    }

    fn order(&self) -> Order {
        DistArray::order(self)
    }

    fn stream_bytes(&self) -> u64 {
        (DistArray::domain(self).size() * T::SIZE) as u64
    }

    fn local_encoded(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.local().len() * T::SIZE];
        for (v, chunk) in self.local().iter().zip(out.chunks_exact_mut(T::SIZE)) {
            v.write_le(chunk);
        }
        out
    }

    fn restore_local(&mut self, bytes: &[u8]) -> Result<()> {
        let expect = self.local().len() * T::SIZE;
        if bytes.len() != expect {
            return Err(CoreError::ManifestMismatch(format!(
                "array {:?}: local storage is {expect} bytes but checkpoint holds {}",
                self.name(),
                bytes.len()
            )));
        }
        for (v, chunk) in self.local_mut().iter_mut().zip(bytes.chunks_exact(T::SIZE)) {
            *v = T::read_le(chunk);
        }
        Ok(())
    }

    fn local_encoded_len(&self) -> usize {
        self.local().len() * T::SIZE
    }

    fn version(&self) -> u64 {
        DistArray::version(self)
    }

    fn write_stream(&self, ctx: &mut Ctx, fs: &Piofs, path: &str, io_tasks: usize) -> Result<()> {
        stream::write_array(ctx, fs, self, path, io_tasks)?;
        Ok(())
    }

    fn read_stream(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        path: &str,
        io_tasks: usize,
    ) -> Result<()> {
        stream::read_array(ctx, fs, self, path, io_tasks)?;
        Ok(())
    }

    fn stream_pieces(&self, ctx: &mut Ctx, io_tasks: usize) -> Result<Vec<stream::StreamPiece>> {
        Ok(stream::collect_array_pieces(ctx, self, io_tasks)?)
    }

    fn read_stream_via(
        &mut self,
        ctx: &mut Ctx,
        io_tasks: usize,
        fetch: &mut stream::PieceFetch<'_>,
    ) -> Result<()> {
        stream::read_array_via(ctx, self, io_tasks, fetch)?;
        Ok(())
    }

    fn adjust_redistribute(&mut self, ctx: &mut Ctx) -> Result<()> {
        let new_dist = self.dist().adjust(ctx.ntasks())?;
        let replacement = assign::redistribute(ctx, self, new_dist)?;
        self.adopt(replacement)?;
        Ok(())
    }

    fn repartition(&mut self, ctx: &mut Ctx, active: &[usize]) -> Result<()> {
        let shadow = self.dist().shadow_widths().map(|s| s[0]).unwrap_or(0);
        let new_dist =
            Distribution::block_active(DistArray::domain(self), active, ctx.ntasks(), shadow)?;
        let replacement = assign::redistribute(ctx, self, new_dist)?;
        self.adopt(replacement)?;
        Ok(())
    }

    fn restore_sections(
        &mut self,
        ctx: &mut Ctx,
        active: &[usize],
        survivors: &[bool],
        retained: Option<&[u8]>,
        io_tasks: usize,
        fetch: &mut stream::PieceFetch<'_>,
    ) -> Result<u64> {
        // The lost sections are whatever the current distribution assigned
        // to the non-surviving ranks.
        let lost: Vec<Slice> = (0..ctx.ntasks())
            .filter(|&r| !survivors[r])
            .map(|r| self.dist().assigned(r).clone())
            .collect();
        let shadow = self.dist().shadow_widths().map(|s| s[0]).unwrap_or(0);
        let new_dist =
            Distribution::block_active(DistArray::domain(self), active, ctx.ntasks(), shadow)?;
        // Donor: the survivors' retained checkpoint bytes under the old
        // distribution, masked so the lost ranks contribute nothing.
        let donor_dist = self.dist().masked(survivors)?;
        let mut donor: DistArray<T> =
            DistArray::new(self.name(), DistArray::order(self), donor_dist, self.rank());
        if survivors[ctx.rank()] {
            let bytes = retained.ok_or_else(|| {
                CoreError::ManifestMismatch(format!(
                    "array {:?}: survivor rank {} has no retained state",
                    self.name(),
                    ctx.rank()
                ))
            })?;
            let expect = donor.local().len() * T::SIZE;
            if bytes.len() != expect {
                return Err(CoreError::ManifestMismatch(format!(
                    "array {:?}: retained state is {} bytes, local storage needs {expect}",
                    self.name(),
                    bytes.len()
                )));
            }
            for (v, chunk) in donor.local_mut().iter_mut().zip(bytes.chunks_exact(T::SIZE)) {
                *v = T::read_le(chunk);
            }
        }
        // Rebuild under the new distribution: survivor data moves through
        // the live redistribution path, lost sections stay holes...
        let mut next: DistArray<T> =
            DistArray::new(self.name(), DistArray::order(self), new_dist, self.rank());
        assign::assign(ctx, &mut next, &donor)?;
        // ...which the canonical-stream fetch then fills.
        let fetched = stream::read_overlapping_via(ctx, &mut next, &lost, io_tasks, fetch)?;
        self.adopt(next)?;
        Ok(fetched)
    }
}

/// Concatenates the local storage of several arrays, padded with zeros up to
/// `fixed_bytes` — the compile-time-fixed local-section reservation of the
/// paper's Fortran codes (storage does not shrink as tasks are added).
pub fn encode_locals(arrays: &[&dyn CheckpointArray], fixed_bytes: u64) -> Vec<u8> {
    let actual: usize = arrays.iter().map(|a| a.local_encoded_len()).sum();
    let target = (fixed_bytes as usize).max(actual);
    let mut out = Vec::with_capacity(target);
    for a in arrays {
        out.extend(a.local_encoded());
    }
    out.resize(target, 0);
    out
}

/// Encodes `base` with the local-sections region [`encode_locals`] builds
/// from `arrays`: the data segment every checkpoint writes except a delta
/// checkpoint, whose arrays restore from their chunk streams instead.
pub fn encode_segment(
    base: &DataSegment,
    arrays: &[&dyn CheckpointArray],
    fixed_bytes: u64,
) -> Vec<u8> {
    let local = Region {
        name: "local-sections".to_string(),
        kind: RegionKind::LocalSections,
        bytes: encode_locals(arrays, fixed_bytes),
    };
    base.encode_with_region(Some(&local))
}

/// Restores array local storage from an [`encode_locals`] blob (same arrays,
/// same order, same distributions).
pub fn decode_locals(arrays: &mut [&mut dyn CheckpointArray], blob: &[u8]) -> Result<()> {
    let mut pos = 0usize;
    for a in arrays.iter_mut() {
        let n = a.local_encoded_len();
        if pos + n > blob.len() {
            return Err(CoreError::ManifestMismatch(format!(
                "local-sections blob too short for array {:?}",
                a.array_name()
            )));
        }
        a.restore_local(&blob[pos..pos + n])?;
        pos += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_darray::Distribution;

    fn arr(rank: usize, p: usize) -> DistArray<f64> {
        let dom = Slice::boxed(&[(0, 7), (0, 7)]);
        let dist = Distribution::block_auto(&dom, p, 1).unwrap();
        DistArray::new("u", Order::ColumnMajor, dist, rank)
    }

    #[test]
    fn local_roundtrip() {
        let mut a = arr(0, 2);
        a.fill_mapped(|p| (p[0] * 8 + p[1]) as f64);
        let bytes = CheckpointArray::local_encoded(&a);
        assert_eq!(bytes.len(), CheckpointArray::local_encoded_len(&a));
        let mut b = arr(0, 2);
        b.restore_local(&bytes).unwrap();
        assert_eq!(a.local(), b.local());
    }

    #[test]
    fn restore_rejects_size_mismatch() {
        let mut a = arr(0, 2);
        assert!(a.restore_local(&[0u8; 3]).is_err());
    }

    #[test]
    fn encode_locals_pads_to_fixed() {
        let mut a = arr(0, 2);
        a.fill_mapped(|_| 1.0);
        let actual = CheckpointArray::local_encoded_len(&a);
        let blob = encode_locals(&[&a], (actual + 100) as u64);
        assert_eq!(blob.len(), actual + 100);
        assert!(blob[actual..].iter().all(|&b| b == 0));
        // Fixed smaller than actual: keeps actual.
        let blob = encode_locals(&[&a], 1);
        assert_eq!(blob.len(), actual);
    }

    #[test]
    fn decode_locals_restores_multiple_arrays() {
        let mut a = arr(0, 1);
        let mut b = arr(0, 1);
        a.fill_mapped(|p| p[0] as f64);
        b.fill_mapped(|p| p[1] as f64 * 3.0);
        let blob = encode_locals(&[&a, &b], 0);

        let mut a2 = arr(0, 1);
        let mut b2 = arr(0, 1);
        decode_locals(&mut [&mut a2, &mut b2], &blob).unwrap();
        assert_eq!(a2.local(), a.local());
        assert_eq!(b2.local(), b.local());

        // Truncated blob fails.
        assert!(decode_locals(&mut [&mut a2, &mut b2], &blob[..10]).is_err());
    }

    #[test]
    fn trait_metadata() {
        let a = arr(1, 2);
        let h: &dyn CheckpointArray = &a;
        assert_eq!(h.array_name(), "u");
        assert_eq!(h.elem_code(), 1);
        assert_eq!(h.stream_bytes(), 64 * 8);
        assert_eq!(h.order(), Order::ColumnMajor);
    }
}
