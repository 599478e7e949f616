//! Seeded inputs and order-independent state digests.
//!
//! The workload seed drives everything the program is given: the PIOFS
//! instance (`experiment_fs`) and every field value. The program itself
//! only ever sees the generated arrays.

use drms_darray::DistArray;

/// SplitMix64 finalizer: a cheap bijective 64-bit mixer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn point_key(seed: u64, field: usize, p: &[i64]) -> u64 {
    p.iter().fold(mix(seed ^ ((field as u64 + 1) << 48)), |h, &c| mix(h ^ c as u64))
}

/// The seeded value of field `field` at global point `p`, in `[-1, 1)`.
pub fn value(seed: u64, field: usize, p: &[i64]) -> f64 {
    let bits = point_key(seed, field, p) >> 11;
    bits as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// Fills the assigned section of every field from [`value`].
pub fn fill_seeded(seed: u64, fields: &mut [DistArray<f64>]) {
    for (fi, f) in fields.iter_mut().enumerate() {
        f.fill_assigned(|p| value(seed, fi, p));
    }
}

/// This task's share of the state digest: a wrapping sum over every
/// assigned (field index, point, value bits) of a per-element hash. Sums of
/// the shares are independent of how the points are distributed, so a
/// digest taken on 4 tasks compares directly with one taken on 3.
pub fn local_digest(fields: &[DistArray<f64>]) -> u64 {
    fields.iter().enumerate().fold(0u64, |acc, (fi, f)| {
        f.fold_assigned(acc, |a, p, v| {
            let h = p.iter().fold((fi as u64 + 1).wrapping_mul(0x0100_0000_01B3), |h, &c| {
                (h ^ c as u64).wrapping_mul(0x0000_0100_0000_01B3)
            });
            a.wrapping_add(mix(h ^ v.to_bits()))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_depend_on_seed_field_and_point() {
        let p = [1, 2, 3, 4];
        assert_eq!(value(7, 0, &p).to_bits(), value(7, 0, &p).to_bits());
        assert_ne!(value(7, 0, &p), value(8, 0, &p));
        assert_ne!(value(7, 0, &p), value(7, 1, &p));
        assert_ne!(value(7, 0, &p), value(7, 0, &[1, 2, 3, 5]));
        assert!((-1.0..1.0).contains(&value(7, 0, &p)));
    }
}
