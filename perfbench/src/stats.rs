//! Order statistics over latency samples.

/// Median (mean of the middle two for an even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The tail: the highest percentile of a fixed ladder that still has at
/// least ten samples beyond it.  Returns `(percentile, value)`; with fewer
/// than twenty samples no percentile qualifies and the median stands in.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];
    let n = samples.len() as f64;
    let p = LADDER
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    percentile(samples, p).map(|v| (p, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: p95 leaves exactly ten beyond it, p99 only two.
        assert_eq!(tail(&samples), Some((95.0, 190.0)));
        assert_eq!(median(&samples), Some(100.5));
        assert_eq!(tail(&samples[..12]), Some((50.0, 6.0)));
    }
}
