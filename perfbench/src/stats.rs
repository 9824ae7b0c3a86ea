//! Order statistics over timing samples.

/// The median of `samples` (mean of the two middle values for an even
/// count), or `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The percentiles a tail may be reported at, highest last.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its nearest-rank value, as
/// `(percentile, value)`; `None` when even the median has fewer (fewer than
/// 20 samples).
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = nearest_rank(p, n)?;
        (n - rank >= TAIL_MIN_BEYOND).then(|| (p, sorted[rank - 1]))
    })
}

/// The 1-based nearest rank of percentile `p` among `n` sorted samples.
fn nearest_rank(p: f64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // Percentiles like 99.9 are not exact in binary; the slack keeps
    // p·n/100 from rounding up past an exact integer rank.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
