//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// two nearest order statistics; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The smallest sample; 0 for no samples.
pub fn minimum(samples: &[f64]) -> f64 {
    quantile(samples, 0.0)
}

/// `num / den`, or 0 when the denominator is 0 (a share of nothing).
pub fn share(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
