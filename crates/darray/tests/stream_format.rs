//! Pinned checkpoint stream format.
//!
//! A bt-shaped field (5 components on a 16^3 grid, block-distributed over
//! the spatial axes with shadow width 3) is streamed from 4 tasks in both
//! storage orders. The fnv128 of the file stream and of the assembled
//! diskless pieces are pinned: any change to how sections are packed,
//! redistributed or encoded shows up here as a changed digest. The stream
//! is then read back onto 3 tasks (from the file, through a byte-range
//! fetch, and with a small piece size) and every mapped element, shadows
//! included, must be bitwise equal to the written value.

use std::sync::{Arc, Mutex};

use drms_darray::chunks::fnv128;
use drms_darray::stream::{self, StreamPiece};
use drms_darray::{DistArray, Distribution};
use drms_msg::{run_spmd, CostModel, Ctx};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Slice};

const GRID: i64 = 16;
const SHADOW: usize = 3;

/// fnv128 of the 4-task stream, column-major then row-major.
const PINNED: [(Order, u128); 2] = [
    (Order::ColumnMajor, 0xcfa37d3593c5bc9da54692d997b6f16d),
    (Order::RowMajor, 0x9e05da5b4810de8d67e8b8d5a50d2ead),
];

fn domain() -> Slice {
    Slice::boxed(&[(0, 4), (1, GRID), (1, GRID), (1, GRID)])
}

fn dist(parts: &[usize]) -> Arc<Distribution> {
    Distribution::block(&domain(), parts, &[0, SHADOW, SHADOW, SHADOW]).unwrap()
}

/// Distinct, full-mantissa value of a global point.
fn value(p: &[i64]) -> f64 {
    let k = p.iter().fold(0i64, |acc, &x| acc * 37 + x);
    (k as f64 * 0.618_033_988_749_895).sin() * 1e3 + k as f64
}

/// Writes the field from 4 tasks; returns the file stream and the
/// assembled diskless pieces.
fn write_from_four(order: Order) -> (Vec<u8>, Vec<u8>) {
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 11);
    let pieces: Mutex<Vec<StreamPiece>> = Mutex::new(Vec::new());
    let d4 = dist(&[1, 2, 2, 1]);
    run_spmd(4, CostModel::default(), |ctx| {
        let mut a = DistArray::<f64>::new("u", order, d4.clone(), ctx.rank());
        a.fill_assigned(value);
        stream::write_array(ctx, &fs, &a, "u", 4).unwrap();
        let small = domain();
        stream::write_section_with(ctx, &fs, &a, &small, "u-small", 4, 16 << 10).unwrap();
        let mine = stream::collect_array_pieces(ctx, &a, 4).unwrap();
        pieces.lock().unwrap().extend(mine);
    })
    .unwrap();
    let file = fs.peek("u").unwrap();
    assert_eq!(fs.peek("u-small").unwrap(), file, "stream bytes depend on piece size");
    (file, stream::assemble_pieces(pieces.into_inner().unwrap()))
}

/// Number of mapped elements (shadows included) on 3 tasks that differ
/// bitwise from the written values, for each of the three read paths.
fn read_on_three(order: Order, file: &[u8]) -> usize {
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 12);
    fs.preload("u", file.to_vec());
    let bytes = Arc::new(file.to_vec());
    let d3 = dist(&[1, 3, 1, 1]);
    let bad = run_spmd(3, CostModel::default(), |ctx| {
        let check = |b: &DistArray<f64>| {
            let mut bad = 0usize;
            b.mapped().clone().points(order).for_each(|p| {
                bad += usize::from(b.get(p).unwrap().to_bits() != value(p).to_bits());
            });
            bad
        };
        let mut b = DistArray::<f64>::new("u", order, d3.clone(), ctx.rank());
        stream::read_array(ctx, &fs, &mut b, "u", 3).unwrap();
        let mut bad = check(&b);

        let mut c = DistArray::<f64>::new("u", order, d3.clone(), ctx.rank());
        let src = bytes.clone();
        let mut fetch =
            |_: &mut Ctx, off: u64, len: u64| Ok(src[off as usize..(off + len) as usize].to_vec());
        stream::read_array_via(ctx, &mut c, 3, &mut fetch).unwrap();
        bad += check(&c);

        let mut s = DistArray::<f64>::new("u", order, d3.clone(), ctx.rank());
        let section = domain();
        stream::read_section_with(ctx, &fs, &mut s, &section, "u", 3, 16 << 10).unwrap();
        bad + check(&s)
    })
    .unwrap();
    bad.into_iter().sum()
}

#[test]
fn bt_shaped_stream_is_pinned_and_reads_back_on_three_tasks() {
    for (order, pinned) in PINNED {
        let (file, assembled) = write_from_four(order);
        assert_eq!(file.len(), domain().size() * 8);
        assert_eq!(fnv128(&file), pinned, "{order:?} file stream changed: {:#x}", fnv128(&file));
        assert_eq!(fnv128(&assembled), pinned, "{order:?} assembled pieces changed");
        assert_eq!(read_on_three(order, &file), 0, "{order:?} read back on 3 tasks");
    }
}
