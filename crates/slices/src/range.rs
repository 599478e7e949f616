use std::fmt;
use std::sync::Arc;

use crate::{Result, SliceError};

/// A monotonically increasing ordered set of integers.
///
/// Ranges generalize the regular `l:u:s` sections of Fortran 90: DRMS array
/// sections may also be described by arbitrary (strictly increasing) index
/// lists, which is what allows the runtime to handle sparse and unstructured
/// data distributions (paper, Section 3.1).
///
/// The representation is normalized so that structural equality coincides
/// with set equality:
/// * the empty set is always `Explicit([])`;
/// * a single element is `Contiguous { lo, hi: lo }`;
/// * stride 1 is always `Contiguous`;
/// * a `Strided` range always has at least two elements and `hi` is an exact
///   element (`(hi - lo) % step == 0`);
/// * an `Explicit` list never matches a contiguous or strided pattern.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Range {
    /// All integers in `lo..=hi` (`lo <= hi`).
    Contiguous {
        /// First element.
        lo: i64,
        /// Last element (inclusive).
        hi: i64,
    },
    /// The integers `lo, lo+step, ..., hi` with `step >= 2`.
    Strided {
        /// First element.
        lo: i64,
        /// Last element (inclusive, exactly `lo + k*step`).
        hi: i64,
        /// Distance between consecutive elements.
        step: i64,
    },
    /// An arbitrary strictly increasing list of integers (possibly empty).
    ///
    /// Shared via `Arc` so that cloning slices during partitioning stays
    /// cheap even for long index lists.
    Explicit(Arc<[i64]>),
}

impl Range {
    /// The empty range.
    pub fn empty() -> Range {
        Range::Explicit(Arc::from([]))
    }

    /// The contiguous range `lo..=hi`; empty when `lo > hi`.
    pub fn contiguous(lo: i64, hi: i64) -> Range {
        if lo > hi {
            Range::empty()
        } else {
            Range::Contiguous { lo, hi }
        }
    }

    /// A single-element range.
    pub fn single(v: i64) -> Range {
        Range::Contiguous { lo: v, hi: v }
    }

    /// The strided range `lo:hi:step` (Fortran triplet semantics).
    ///
    /// `hi` is clamped down to the last element actually reached.
    /// Empty when `lo > hi`. Fails if `step <= 0`.
    pub fn strided(lo: i64, hi: i64, step: i64) -> Result<Range> {
        if step <= 0 {
            return Err(SliceError::BadStride { step });
        }
        if lo > hi {
            return Ok(Range::empty());
        }
        // Wide arithmetic: `hi - lo` overflows i64 for far-apart bounds,
        // while `last` itself always lies in `[lo, hi]`.
        let (lo_w, step_w) = (i128::from(lo), i128::from(step));
        let last = i64::try_from(lo_w + (i128::from(hi) - lo_w) / step_w * step_w)
            .expect("last lies in [lo, hi]");
        if step == 1 {
            Ok(Range::Contiguous { lo, hi: last })
        } else if last == lo {
            Ok(Range::Contiguous { lo, hi: lo })
        } else {
            Ok(Range::Strided { lo, hi: last, step })
        }
    }

    /// A range from an explicit strictly increasing index list.
    ///
    /// The list is normalized: contiguous or strided patterns collapse to the
    /// corresponding compact representation.
    pub fn from_indices(indices: &[i64]) -> Result<Range> {
        for (i, w) in indices.windows(2).enumerate() {
            if w[1] <= w[0] {
                return Err(SliceError::NotIncreasing { at: i + 1, prev: w[0], next: w[1] });
            }
        }
        Ok(Self::from_sorted_unchecked(indices))
    }

    /// Normalizing constructor for a list already known to be strictly
    /// increasing.
    fn from_sorted_unchecked(indices: &[i64]) -> Range {
        match indices.len() {
            0 => Range::empty(),
            1 => Range::single(indices[0]),
            _ => {
                // A gap wider than i64 (wrapped negative) is never uniform.
                let step = indices[1].wrapping_sub(indices[0]);
                let uniform =
                    step > 0 && indices.windows(2).all(|w| w[1].checked_sub(w[0]) == Some(step));
                if uniform {
                    if step == 1 {
                        Range::Contiguous { lo: indices[0], hi: *indices.last().unwrap() }
                    } else {
                        Range::Strided { lo: indices[0], hi: *indices.last().unwrap(), step }
                    }
                } else {
                    Range::Explicit(Arc::from(indices))
                }
            }
        }
    }

    /// Number of elements in the range (`|r|` in the paper).
    pub fn len(&self) -> usize {
        match self {
            Range::Contiguous { lo, hi } => (hi - lo + 1) as usize,
            Range::Strided { lo, hi, step } => ((hi - lo) / step + 1) as usize,
            Range::Explicit(v) => v.len(),
        }
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, Range::Explicit(v) if v.is_empty())
    }

    /// First (smallest) element, if any.
    pub fn first(&self) -> Option<i64> {
        match self {
            Range::Contiguous { lo, .. } | Range::Strided { lo, .. } => Some(*lo),
            Range::Explicit(v) => v.first().copied(),
        }
    }

    /// Last (largest) element, if any.
    pub fn last(&self) -> Option<i64> {
        match self {
            Range::Contiguous { hi, .. } | Range::Strided { hi, .. } => Some(*hi),
            Range::Explicit(v) => v.last().copied(),
        }
    }

    /// The `i`-th smallest element.
    pub fn get(&self, i: usize) -> Result<i64> {
        if i >= self.len() {
            return Err(SliceError::OutOfBounds { index: i, len: self.len() });
        }
        Ok(match self {
            Range::Contiguous { lo, .. } => lo + i as i64,
            Range::Strided { lo, step, .. } => lo + i as i64 * step,
            Range::Explicit(v) => v[i],
        })
    }

    /// Whether `v` is a member of the range.
    pub fn contains(&self, v: i64) -> bool {
        match self {
            Range::Contiguous { lo, hi } => *lo <= v && v <= *hi,
            Range::Strided { lo, hi, step } => *lo <= v && v <= *hi && (v - lo) % step == 0,
            Range::Explicit(vec) => vec.binary_search(&v).is_ok(),
        }
    }

    /// The rank of `v` within the range: the number of elements smaller
    /// than `v`, when `v` is a member.
    pub fn position(&self, v: i64) -> Option<usize> {
        match self {
            Range::Contiguous { lo, hi } => (*lo <= v && v <= *hi).then(|| (v - lo) as usize),
            Range::Strided { lo, hi, step } => {
                (*lo <= v && v <= *hi && (v - lo) % step == 0).then(|| ((v - lo) / step) as usize)
            }
            Range::Explicit(vec) => vec.binary_search(&v).ok(),
        }
    }

    /// Iterator over the elements, in increasing order.
    pub fn iter(&self) -> RangeIter<'_> {
        RangeIter { range: self, pos: 0, len: self.len() }
    }

    /// The elements as a freshly allocated vector.
    pub fn to_vec(&self) -> Vec<i64> {
        self.iter().collect()
    }

    /// The sub-range consisting of elements with rank `start..end`.
    pub fn subrange(&self, start: usize, end: usize) -> Result<Range> {
        let len = self.len();
        if start > end || end > len {
            return Err(SliceError::OutOfBounds { index: end, len });
        }
        if start == end {
            return Ok(Range::empty());
        }
        Ok(match self {
            Range::Contiguous { lo, .. } => {
                Range::Contiguous { lo: lo + start as i64, hi: lo + end as i64 - 1 }
            }
            Range::Strided { lo, step, .. } => {
                let new_lo = lo + start as i64 * step;
                let new_hi = lo + (end as i64 - 1) * step;
                if new_lo == new_hi {
                    Range::Contiguous { lo: new_lo, hi: new_lo }
                } else {
                    Range::Strided { lo: new_lo, hi: new_hi, step: *step }
                }
            }
            Range::Explicit(v) => Self::from_sorted_unchecked(&v[start..end]),
        })
    }

    /// Splits the range into its lower and upper halves: the first
    /// `ceil(len/2)` elements and the rest.
    ///
    /// This is the range-level `lo`/`hi` operation of Figure 5(a); the
    /// concatenation of the halves, in order, is the original range.
    pub fn split_half(&self) -> (Range, Range) {
        let len = self.len();
        let mid = len.div_ceil(2);
        (self.subrange(0, mid).expect("mid <= len"), self.subrange(mid, len).expect("mid <= len"))
    }

    /// Intersection of two ranges (`q * r` in the paper): the elements common
    /// to both.
    pub fn intersect(&self, other: &Range) -> Range {
        use Range::*;
        if self.is_empty() || other.is_empty() {
            return Range::empty();
        }
        // Bounding-box rejection first: cheap and common in distributions.
        let (alo, ahi) = (self.first().unwrap(), self.last().unwrap());
        let (blo, bhi) = (other.first().unwrap(), other.last().unwrap());
        if ahi < blo || bhi < alo {
            return Range::empty();
        }
        match (self, other) {
            (Contiguous { lo: a, hi: b }, Contiguous { lo: c, hi: d }) => {
                Range::contiguous((*a).max(*c), (*b).min(*d))
            }
            (Strided { lo, hi, step }, Contiguous { lo: c, hi: d })
            | (Contiguous { lo: c, hi: d }, Strided { lo, hi, step }) => {
                // Clamp the strided range to [c, d], keeping alignment to lo.
                let start = if c <= lo { *lo } else { lo + (c - lo + step - 1) / step * step };
                let end = (*hi).min(*d);
                Range::strided(start, end, *step).expect("step positive")
            }
            (Strided { lo: a, hi: b, step: s }, Strided { lo: c, hi: d, step: t })
                if s == t && (a - c) % s == 0 =>
            {
                // Same stride, compatible phase: intersect as intervals.
                let start = (*a).max(*c);
                let end = (*b).min(*d);
                Range::strided(start, end, *s).expect("step positive")
            }
            _ => {
                // General case: merge-walk the two element sequences.
                let mut out = Vec::new();
                let mut it_a = self.iter().peekable();
                let mut it_b = other.iter().peekable();
                while let (Some(&x), Some(&y)) = (it_a.peek(), it_b.peek()) {
                    match x.cmp(&y) {
                        std::cmp::Ordering::Less => {
                            it_a.next();
                        }
                        std::cmp::Ordering::Greater => {
                            it_b.next();
                        }
                        std::cmp::Ordering::Equal => {
                            out.push(x);
                            it_a.next();
                            it_b.next();
                        }
                    }
                }
                Self::from_sorted_unchecked(&out)
            }
        }
    }

    /// Whether every element of `self` is also an element of `other`.
    pub fn is_subset_of(&self, other: &Range) -> bool {
        self.intersect(other) == *self
    }
}

impl fmt::Debug for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Range::Contiguous { lo, hi } => write!(f, "{lo}:{hi}"),
            Range::Strided { lo, hi, step } => write!(f, "{lo}:{hi}:{step}"),
            Range::Explicit(v) => write!(f, "{v:?}"),
        }
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over the elements of a [`Range`].
pub struct RangeIter<'a> {
    range: &'a Range,
    pos: usize,
    len: usize,
}

impl Iterator for RangeIter<'_> {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        if self.pos >= self.len {
            return None;
        }
        let v = match self.range {
            Range::Contiguous { lo, .. } => lo + self.pos as i64,
            Range::Strided { lo, step, .. } => lo + self.pos as i64 * step,
            Range::Explicit(vec) => vec[self.pos],
        };
        self.pos += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RangeIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn far_apart_bounds_do_not_overflow() {
        let r = Range::strided(i64::MIN, i64::MAX, 1 << 62).unwrap();
        assert_eq!(r, Range::Strided { lo: i64::MIN, hi: 1 << 62, step: 1 << 62 });
        let r = Range::from_indices(&[i64::MIN, i64::MAX]).unwrap();
        assert_eq!(r, Range::Explicit(Arc::from(&[i64::MIN, i64::MAX][..])));
        let r = Range::from_indices(&[-1, i64::MAX - 1, i64::MAX]).unwrap();
        assert!(matches!(r, Range::Explicit(_)));
    }

    #[test]
    fn contiguous_basics() {
        let r = Range::contiguous(3, 7);
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert_eq!(r.to_vec(), vec![3, 4, 5, 6, 7]);
        assert_eq!(r.first(), Some(3));
        assert_eq!(r.last(), Some(7));
        assert!(r.contains(5));
        assert!(!r.contains(8));
        assert_eq!(r.position(5), Some(2));
        assert_eq!(r.position(8), None);
    }

    #[test]
    fn empty_when_lo_gt_hi() {
        let r = Range::contiguous(5, 3);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.first(), None);
    }

    #[test]
    fn strided_normalizes_hi() {
        let r = Range::strided(2, 11, 3).unwrap();
        assert_eq!(r.to_vec(), vec![2, 5, 8, 11]);
        let r = Range::strided(2, 10, 3).unwrap();
        assert_eq!(r.to_vec(), vec![2, 5, 8]);
        assert_eq!(r.last(), Some(8));
    }

    #[test]
    fn strided_step_one_collapses_to_contiguous() {
        let r = Range::strided(1, 4, 1).unwrap();
        assert_eq!(r, Range::contiguous(1, 4));
    }

    #[test]
    fn strided_single_element_collapses() {
        let r = Range::strided(5, 7, 10).unwrap();
        assert_eq!(r, Range::single(5));
    }

    #[test]
    fn bad_stride_rejected() {
        assert!(matches!(Range::strided(0, 5, 0), Err(SliceError::BadStride { step: 0 })));
        assert!(Range::strided(0, 5, -2).is_err());
    }

    #[test]
    fn explicit_validation() {
        assert!(Range::from_indices(&[1, 3, 3]).is_err());
        assert!(Range::from_indices(&[5, 2]).is_err());
        let r = Range::from_indices(&[1, 4, 6]).unwrap();
        assert_eq!(r.to_vec(), vec![1, 4, 6]);
        assert_eq!(r.position(4), Some(1));
    }

    #[test]
    fn explicit_normalizes_to_compact_forms() {
        assert_eq!(Range::from_indices(&[4, 5, 6]).unwrap(), Range::contiguous(4, 6));
        assert_eq!(Range::from_indices(&[1, 3, 5]).unwrap(), Range::strided(1, 5, 2).unwrap());
        assert_eq!(Range::from_indices(&[]).unwrap(), Range::empty());
        assert_eq!(Range::from_indices(&[9]).unwrap(), Range::single(9));
    }

    #[test]
    fn paper_example_slice3_ranges() {
        // Figure 2 of the paper: rows (8,9,10,12), columns (16,18,19,20,22).
        let rows = Range::from_indices(&[8, 9, 10, 12]).unwrap();
        let cols = Range::from_indices(&[16, 18, 19, 20, 22]).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(cols.len(), 5);
    }

    #[test]
    fn subrange_all_forms() {
        let c = Range::contiguous(10, 19);
        assert_eq!(c.subrange(2, 5).unwrap(), Range::contiguous(12, 14));
        let s = Range::strided(0, 20, 4).unwrap();
        assert_eq!(s.subrange(1, 4).unwrap().to_vec(), vec![4, 8, 12]);
        let e = Range::from_indices(&[1, 2, 50, 51, 90]).unwrap();
        assert_eq!(e.subrange(1, 4).unwrap().to_vec(), vec![2, 50, 51]);
        assert!(e.subrange(3, 2).is_err());
        assert!(e.subrange(0, 6).is_err());
        assert!(e.subrange(2, 2).unwrap().is_empty());
    }

    #[test]
    fn split_half_concatenates() {
        for r in [
            Range::contiguous(0, 9),
            Range::contiguous(0, 8),
            Range::strided(1, 31, 3).unwrap(),
            Range::from_indices(&[2, 7, 11, 12, 40]).unwrap(),
            Range::single(4),
            Range::empty(),
        ] {
            let (lo, hi) = r.split_half();
            let mut cat = lo.to_vec();
            cat.extend(hi.to_vec());
            assert_eq!(cat, r.to_vec(), "split of {r:?}");
            assert!(lo.len() >= hi.len());
            assert!(lo.len() - hi.len() <= 1);
        }
    }

    #[test]
    fn intersect_contiguous() {
        let a = Range::contiguous(0, 10);
        let b = Range::contiguous(5, 15);
        assert_eq!(a.intersect(&b), Range::contiguous(5, 10));
        assert_eq!(b.intersect(&a), Range::contiguous(5, 10));
        let c = Range::contiguous(11, 20);
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn intersect_strided_with_contiguous() {
        let s = Range::strided(1, 21, 4).unwrap(); // 1,5,9,13,17,21
        let c = Range::contiguous(6, 18);
        assert_eq!(s.intersect(&c).to_vec(), vec![9, 13, 17]);
        assert_eq!(c.intersect(&s).to_vec(), vec![9, 13, 17]);
    }

    #[test]
    fn intersect_same_stride() {
        let a = Range::strided(0, 40, 5).unwrap();
        let b = Range::strided(10, 60, 5).unwrap();
        assert_eq!(a.intersect(&b).to_vec(), vec![10, 15, 20, 25, 30, 35, 40]);
        // Incompatible phase.
        let c = Range::strided(1, 41, 5).unwrap();
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn intersect_general_merge_walk() {
        let a = Range::strided(0, 30, 2).unwrap();
        let b = Range::strided(0, 30, 3).unwrap();
        assert_eq!(a.intersect(&b).to_vec(), vec![0, 6, 12, 18, 24, 30]);
        let e = Range::from_indices(&[1, 6, 7, 24, 29]).unwrap();
        assert_eq!(a.intersect(&e).to_vec(), vec![6, 24]);
    }

    #[test]
    fn intersect_with_empty() {
        let a = Range::contiguous(0, 5);
        assert!(a.intersect(&Range::empty()).is_empty());
        assert!(Range::empty().intersect(&a).is_empty());
    }

    #[test]
    fn subset_relation() {
        let a = Range::contiguous(2, 4);
        let b = Range::contiguous(0, 10);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(Range::empty().is_subset_of(&a));
    }

    #[test]
    fn iterator_is_exact_size() {
        let r = Range::strided(0, 100, 7).unwrap();
        let it = r.iter();
        assert_eq!(it.len(), r.len());
        assert_eq!(r.iter().count(), r.len());
    }

    #[test]
    fn get_bounds_checked() {
        let r = Range::contiguous(5, 7);
        assert_eq!(r.get(0).unwrap(), 5);
        assert_eq!(r.get(2).unwrap(), 7);
        assert!(r.get(3).is_err());
    }
}
