//! Small numeric helpers: medians, the tail-percentile rule and the
//! self-time arithmetic the per-layer report rests on.

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The percentiles a tail may be reported at, in basis points (1/100 %).
pub const LADDER_BP: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples strictly beyond the `bp` percentile of `n` samples.
fn beyond(n: usize, bp: u64) -> u64 {
    n as u64 * (10_000 - bp) / 10_000
}

/// Whether `n` samples support reporting the `bp` percentile: at least ten
/// samples must lie beyond it, or the figure is one outlier's value.
#[must_use]
pub fn supports(n: usize, bp: u64) -> bool {
    beyond(n, bp) >= 10
}

/// The highest percentile of [`LADDER_BP`] that `n` samples support, if any.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u64> {
    LADDER_BP.iter().rev().copied().find(|&bp| supports(n, bp))
}

/// Nearest-rank `bp` percentile of `sorted` (ascending); `NaN` when empty.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], bp: u64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len() as u64;
    let rank = (n * bp).div_ceil(10_000).max(1);
    sorted[(rank - 1) as usize]
}

/// One layer's share of a traced region: its self time, i.e. its span
/// total minus the part of that interval its child spans cover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Layer {
    /// Metric-style name of the layer.
    pub name: &'static str,
    /// Self time in nanoseconds.
    pub self_ns: f64,
}

impl Layer {
    /// A layer with `self_ns` of self time.
    #[must_use]
    pub const fn new(name: &'static str, self_ns: f64) -> Layer {
        Layer { name, self_ns }
    }
}

/// A span total minus its children's totals.
#[must_use]
pub fn self_time(total_ns: f64, children_ns: &[f64]) -> f64 {
    total_ns - children_ns.iter().sum::<f64>()
}

/// What no layer accounts for: `capacity_ns` (the traced region's wall
/// time times the threads that could work in it) minus every layer's self
/// time. Self times that add up correctly leave a small non-negative
/// remainder; a negative one means some interval was counted twice.
#[must_use]
pub fn unattributed_ns(capacity_ns: f64, layers: &[Layer]) -> f64 {
    capacity_ns - layers.iter().map(|l| l.self_ns).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(5_000));
        assert_eq!(tail_percentile(99), Some(5_000));
        assert_eq!(tail_percentile(100), Some(9_000));
        assert_eq!(tail_percentile(999), Some(9_000));
        assert_eq!(tail_percentile(1_000), Some(9_900));
        assert_eq!(tail_percentile(9_999), Some(9_900));
        assert_eq!(tail_percentile(10_000), Some(9_990));
        assert_eq!(tail_percentile(100_000), Some(9_999));
        assert!(supports(1_000, 9_900) && !supports(999, 9_900));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 5_000), 50.0);
        assert_eq!(percentile_sorted(&v, 9_900), 99.0);
        assert_eq!(percentile_sorted(&v, 9_999), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 5_000), 7.0);
        assert!(percentile_sorted(&[], 5_000).is_nan());
    }

    #[test]
    fn self_times_add_up_to_the_region() {
        // A 1000 ns cycle span holding 150 ns of polls and 250 ns of
        // controller work leaves 600 ns of network self time.
        let cycle = self_time(1_000.0, &[150.0, 250.0]);
        assert_eq!(cycle, 600.0);
        let layers = [
            Layer::new("traffic", 150.0),
            Layer::new("stcc", 250.0),
            Layer::new("wormsim", cycle),
            Layer::new("simstats", 80.0),
        ];
        // The region also holds 20 ns nobody claimed.
        let rest = unattributed_ns(1_100.0, &layers);
        assert_eq!(rest, 20.0);
        assert_eq!(
            layers.iter().map(|l| l.self_ns).sum::<f64>() + rest,
            1_100.0
        );
        // Counting the controller inside the cycle *and* as its own layer
        // without subtracting it shows up as a negative remainder.
        let double = [Layer::new("stcc", 250.0), Layer::new("wormsim", 1_000.0)];
        assert!(unattributed_ns(1_100.0, &double) < 0.0);
    }
}
