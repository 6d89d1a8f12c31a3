//! Order statistics over measured samples, and the seeded generator every
//! workload draws its inputs from.

/// Percentile ladder searched for a reported tail, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples needed beyond a percentile before it is reported as the tail.
const TAIL_BEYOND: f64 = 10.0;

/// Quantile `q` in `[0, 1]` of `values`, linearly interpolated between
/// order statistics. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it, as `(percentile, value)`; `None` when there are too few samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    TAIL_LADDER
        .iter()
        .find(|&&p| (100.0 - p) * n / 100.0 >= TAIL_BEYOND - 1e-9)
        .map(|&p| (p, quantile(values, p / 100.0)))
}

/// Tail value of `values`, falling back to the maximum when there are too
/// few samples for any percentile of the ladder.
pub fn tail_or_max(values: &[f64]) -> (String, f64) {
    match tail(values) {
        Some((p, v)) => (format!("p{p}"), v),
        None => ("max".to_owned(), quantile(values, 1.0)),
    }
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `k` of a
/// power law `y ~ x^k`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let xs: Vec<f64> = points.iter().map(|p| p.0.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1.ln()).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential inter-arrival time for a Poisson process of `rate`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(90.0));
        assert!(tail(&v[..30]).is_none());
        assert_eq!(tail(&v[..40]).map(|t| t.0), Some(75.0));
    }

    #[test]
    fn slope_recovers_a_power_law() {
        let pts = [
            (6.0, 6f64.powi(3)),
            (12.0, 12f64.powi(3)),
            (24.0, 24f64.powi(3)),
        ];
        assert!((loglog_slope(&pts) - 3.0).abs() < 1e-12);
    }
}
