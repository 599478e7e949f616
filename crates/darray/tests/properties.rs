//! Property tests for the reconfigurability invariants:
//!
//! * redistribution between arbitrary distributions preserves every element;
//! * a streamed section is distribution-independent: writing with `P1` tasks
//!   and reading with `P2` tasks (any distributions, any I/O parallelism)
//!   restores every element exactly.

use std::sync::Arc;

use drms_darray::{assign, stream, DistArray, Distribution};
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Range, Slice};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum DistChoice {
    BlockAuto { shadow: usize },
    BlockGrid { axis_bias: usize, shadow: usize },
    Cyclic { axis: usize },
}

fn arb_dist() -> impl Strategy<Value = DistChoice> {
    prop_oneof![
        (0usize..3).prop_map(|shadow| DistChoice::BlockAuto { shadow }),
        (0usize..2, 0usize..2)
            .prop_map(|(axis_bias, shadow)| DistChoice::BlockGrid { axis_bias, shadow }),
        (0usize..2).prop_map(|axis| DistChoice::Cyclic { axis }),
    ]
}

fn build_dist(choice: &DistChoice, domain: &Slice, ntasks: usize) -> Arc<Distribution> {
    match choice {
        DistChoice::BlockAuto { shadow } => {
            Distribution::block_auto(domain, ntasks, *shadow).expect("block auto")
        }
        DistChoice::BlockGrid { axis_bias, shadow } => {
            // Put all parts on one axis.
            let mut parts = vec![1usize; domain.rank()];
            let ax = *axis_bias % domain.rank();
            parts[ax] = ntasks;
            let shadows = vec![*shadow; domain.rank()];
            Distribution::block(domain, &parts, &shadows).expect("block grid")
        }
        DistChoice::Cyclic { axis } => {
            Distribution::cyclic(domain, ntasks, *axis % domain.rank()).expect("cyclic")
        }
    }
}

fn value(p: &[i64]) -> f64 {
    p.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * (x as f64 + 0.25)).product::<f64>() + 1.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn redistribution_preserves_all_elements(
        rows in 4i64..20,
        cols in 4i64..20,
        p in 1usize..5,
        src in arb_dist(),
        dst in arb_dist(),
    ) {
        let dom = Slice::boxed(&[(0, rows - 1), (0, cols - 1)]);
        let src_dist = build_dist(&src, &dom, p);
        let dst_dist = build_dist(&dst, &dom, p);
        let results = run_spmd(p, CostModel::default(), |ctx| {
            let mut a = DistArray::<f64>::new("a", Order::ColumnMajor, src_dist.clone(), ctx.rank());
            a.fill_assigned(value);
            let b = assign::redistribute(ctx, &a, dst_dist.clone()).unwrap();
            // Check every mapped element against the ground truth.
            let mut bad = 0usize;
            b.mapped().clone().points(Order::ColumnMajor).for_each(|pt| {
                if b.get(pt).unwrap() != value(pt) {
                    bad += 1;
                }
            });
            bad
        }).unwrap();
        prop_assert_eq!(results.into_iter().sum::<usize>(), 0);
    }

    #[test]
    fn streaming_is_reconfigurable(
        rows in 4i64..16,
        cols in 4i64..16,
        p1 in 1usize..5,
        p2 in 1usize..5,
        d1 in arb_dist(),
        d2 in arb_dist(),
        io1 in 1usize..5,
        io2 in 1usize..5,
    ) {
        let dom = Slice::boxed(&[(0, rows - 1), (0, cols - 1)]);
        let fs = Piofs::new(PiofsConfig::test_tiny(4), 3);
        let w_dist = build_dist(&d1, &dom, p1);
        run_spmd(p1, CostModel::default(), |ctx| {
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, w_dist.clone(), ctx.rank());
            a.fill_assigned(value);
            stream::write_array(ctx, &fs, &a, "u", io1).unwrap();
        }).unwrap();

        let r_dist = build_dist(&d2, &dom, p2);
        let results = run_spmd(p2, CostModel::default(), |ctx| {
            let mut b = DistArray::<f64>::new("u", Order::ColumnMajor, r_dist.clone(), ctx.rank());
            stream::read_array(ctx, &fs, &mut b, "u", io2).unwrap();
            let mut bad = 0usize;
            b.mapped().clone().points(Order::ColumnMajor).for_each(|pt| {
                if b.get(pt).unwrap() != value(pt) {
                    bad += 1;
                }
            });
            bad
        }).unwrap();
        prop_assert_eq!(results.into_iter().sum::<usize>(), 0);
    }

    #[test]
    fn stream_bytes_independent_of_writer_config(
        rows in 4i64..12,
        cols in 4i64..12,
        p in 1usize..5,
        d in arb_dist(),
        io in 1usize..5,
    ) {
        let dom = Slice::boxed(&[(0, rows - 1), (0, cols - 1)]);
        // Reference stream: serial write from one task.
        let fs_ref = Piofs::new(PiofsConfig::test_tiny(4), 3);
        let ref_dist = Distribution::block_auto(&dom, 1, 0).unwrap();
        run_spmd(1, CostModel::default(), |ctx| {
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, ref_dist.clone(), ctx.rank());
            a.fill_assigned(value);
            stream::write_array(ctx, &fs_ref, &a, "u", 1).unwrap();
        }).unwrap();

        let fs = Piofs::new(PiofsConfig::test_tiny(4), 3);
        let dist = build_dist(&d, &dom, p);
        run_spmd(p, CostModel::default(), |ctx| {
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist.clone(), ctx.rank());
            a.fill_assigned(value);
            stream::write_array(ctx, &fs, &a, "u", io).unwrap();
        }).unwrap();

        prop_assert_eq!(fs.peek("u").unwrap(), fs_ref.peek("u").unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// C-style (row-major) arrays stream and reconfigure just like
    /// Fortran-style ones; the two orders produce different byte streams
    /// for the same data, and each reads back exactly.
    #[test]
    fn row_major_streams_are_reconfigurable(
        rows in 4i64..12,
        cols in 4i64..12,
        p1 in 1usize..4,
        p2 in 1usize..4,
    ) {
        // Asymmetric in the axes, so transposed enumerations differ.
        fn value(p: &[i64]) -> f64 {
            (p[0] * 1000 + p[1]) as f64 + 0.5
        }
        let dom = Slice::boxed(&[(0, rows - 1), (0, cols - 1)]);
        let fs = Piofs::new(PiofsConfig::test_tiny(4), 3);
        let w_dist = Distribution::block_auto(&dom, p1, 1).unwrap();
        run_spmd(p1, CostModel::default(), |ctx| {
            let mut a = DistArray::<f64>::new("u", Order::RowMajor, w_dist.clone(), ctx.rank());
            a.fill_assigned(value);
            stream::write_array(ctx, &fs, &a, "u", p1).unwrap();
        }).unwrap();

        let r_dist = Distribution::block_auto(&dom, p2, 0).unwrap();
        let bad: usize = run_spmd(p2, CostModel::default(), |ctx| {
            let mut b = DistArray::<f64>::new("u", Order::RowMajor, r_dist.clone(), ctx.rank());
            stream::read_array(ctx, &fs, &mut b, "u", p2).unwrap();
            let mut bad = 0usize;
            b.mapped().clone().points(Order::RowMajor).for_each(|pt| {
                if b.get(pt).unwrap() != value(pt) {
                    bad += 1;
                }
            });
            bad
        }).unwrap().into_iter().sum();
        prop_assert_eq!(bad, 0);

        // Cross-check: a column-major stream of the same data differs
        // byte-wise (unless the section is one-dimensional in effect).
        if rows > 1 && cols > 1 {
            let fs2 = Piofs::new(PiofsConfig::test_tiny(4), 3);
            let dist1 = Distribution::block_auto(&dom, 1, 0).unwrap();
            run_spmd(1, CostModel::default(), |ctx| {
                let mut a =
                    DistArray::<f64>::new("u", Order::ColumnMajor, dist1.clone(), ctx.rank());
                a.fill_assigned(value);
                stream::write_array(ctx, &fs2, &a, "u", 1).unwrap();
            }).unwrap();
            prop_assert_ne!(fs.peek("u").unwrap(), fs2.peek("u").unwrap());
        }
    }
}

/// SplitMix64 stream driving the shape of one generated case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A mapped range of one axis: contiguous, strided or explicit (irregular
/// gaps), with 1 to 6 elements.
fn arb_mapped_range(mix: &mut Mix) -> Range {
    let lo = mix.below(7) as i64 - 3;
    let len = 1 + mix.below(6) as i64;
    match mix.below(3) {
        0 => Range::contiguous(lo, lo + len - 1),
        1 => {
            let step = 2 + mix.below(2) as i64;
            Range::strided(lo, lo + (len - 1) * step, step).unwrap()
        }
        _ => {
            let mut v = lo;
            let idx: Vec<i64> = (0..len)
                .map(|_| {
                    v += 1 + mix.below(3) as i64;
                    v
                })
                .collect();
            Range::from_indices(&idx).unwrap()
        }
    }
}

/// A sub-range of `r`: a contiguous span of its positions, every other
/// position, or a random subset (possibly empty).
fn arb_sub_range(mix: &mut Mix, r: &Range) -> Range {
    let all = r.to_vec();
    let n = all.len() as u64;
    let picked: Vec<i64> = match mix.below(4) {
        0 => all.clone(),
        1 => {
            let a = mix.below(n) as usize;
            let b = a + mix.below(n - a as u64) as usize;
            all[a..=b].to_vec()
        }
        2 => all.iter().copied().skip(mix.below(2) as usize).step_by(2).collect(),
        _ => all.iter().copied().filter(|_| mix.below(3) != 0).collect(),
    };
    Range::from_indices(&picked).unwrap()
}

/// Hash of a global point: distinct values for the points of a small box.
fn point_value(p: &[i64]) -> u64 {
    p.iter().fold(0x5eed_u64, |acc, &x| {
        acc.wrapping_mul(1_000_003).wrapping_add(x as u64).wrapping_add(17)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The run-coalesced `pack_region`/`unpack_region` are byte-for-byte the
    /// per-point definition: the region's points in stream order, each
    /// element's little-endian bytes. Unpacking restores exactly the
    /// region and leaves every other mapped element untouched.
    #[test]
    fn pack_region_matches_per_point_oracle(
        rank in 1usize..5,
        seed in 0u64..u64::MAX,
        row_major in proptest::bool::ANY,
    ) {
        let order = if row_major { Order::RowMajor } else { Order::ColumnMajor };
        let mut mix = Mix(seed);
        let mapped = Slice::new((0..rank).map(|_| arb_mapped_range(&mut mix)).collect());
        let region =
            Slice::new(mapped.ranges().iter().map(|r| arb_sub_range(&mut mix, r)).collect());
        let domain = Slice::new(
            mapped
                .ranges()
                .iter()
                .map(|r| Range::contiguous(r.first().unwrap(), r.last().unwrap()))
                .collect(),
        );
        let dist = Distribution::irregular(&domain, vec![mapped.clone()], vec![mapped.clone()])
            .unwrap();

        let mut a = DistArray::<u64>::new("a", order, dist.clone(), 0);
        a.fill_mapped(point_value);
        let mut oracle = Vec::new();
        region.points(order).for_each(|p| {
            oracle.extend_from_slice(&a.get(p).unwrap().to_le_bytes());
        });
        let bytes = a.pack_region(&region);
        prop_assert_eq!(&bytes, &oracle);

        let sentinel = |p: &[i64]| !point_value(p);
        let mut b = DistArray::<u64>::new("b", order, dist, 0);
        b.fill_mapped(sentinel);
        b.unpack_region(&region, &bytes);
        let mut bad = 0usize;
        mapped.points(order).for_each(|p| {
            let want = if region.contains(p).unwrap() { point_value(p) } else { sentinel(p) };
            if b.get(p).unwrap() != want {
                bad += 1;
            }
        });
        prop_assert_eq!(bad, 0);
        prop_assert_eq!(b.pack_region(&region), oracle);
    }
}
