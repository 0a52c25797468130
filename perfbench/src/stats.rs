//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice; `p` in `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p / 100.0).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail of a latency sample: the highest percentile with at least ten
/// samples above it, capped at p99.
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    /// Samples strictly beyond `value`'s rank.
    pub beyond: usize,
}

/// [`Tail`] of an ascending sample. With `n >= 1000` samples this is the
/// nearest-rank p99; below that it is the eleventh-largest sample, whose
/// percentile is `100 (n - 10) / n`.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let rank = if n >= 1000 {
        (n as f64 * 0.99).ceil() as usize
    } else {
        n.saturating_sub(10).max(1)
    };
    Tail {
        percentile: 100.0 * rank as f64 / n.max(1) as f64,
        value: sorted.get(rank - 1).copied().unwrap_or(0.0),
        beyond: n.saturating_sub(rank),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.beyond), (390.0, 10));
        assert!((t.percentile - 97.5).abs() < 1e-9);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 1980.0, 20));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
