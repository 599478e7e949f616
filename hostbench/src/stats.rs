//! Order statistics over host-time samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest-percentile sample that still has at least [`TAIL_BEYOND`]
/// samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile (share of samples at or below it, in percent).
    pub percentile: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly beyond it in sorted order.
    pub beyond: usize,
}

/// How many samples the reported tail must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`: the sample with exactly [`TAIL_BEYOND`] samples after
/// it in sorted order. With too few samples for that, the maximum, with
/// the shortfall visible in [`Tail::beyond`]. `None` when empty.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let idx = if n > TAIL_BEYOND { n - TAIL_BEYOND - 1 } else { n - 1 };
    Some(Tail {
        value: s[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
        beyond: n - 1 - idx,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (30.0, 10, 40));
        assert_eq!(t.percentile, 75.0);
        let few = tail(&[2.0, 1.0]).unwrap();
        assert_eq!((few.value, few.beyond), (2.0, 0));
    }
}
