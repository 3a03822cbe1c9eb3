//! Online and batch statistics used by the experiment harness.
//!
//! The paper evaluates its energy model with the *normalized root mean square
//! error* (NRMSE, Fig. 4) and job fairness as the *inverse of the variance of
//! per-job slowdown* (§VI-D). Both live here, alongside a Welford-style
//! online accumulator used by metrics collection.

/// Incremental mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use simcore::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation. Non-finite values are ignored (and counted
    /// nowhere), because a single NaN would otherwise poison a whole run's
    /// metrics.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of (finite) observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (dividing by `n`); zero when fewer than one
    /// observation.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (dividing by `n - 1`); zero when fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Normalized root mean square error between `actual` and `estimated`,
/// normalized by the range (max − min) of the actual values — the metric the
/// paper reports for its energy model (Fig. 4).
///
/// Returns `None` if the slices differ in length, are empty, or the actual
/// values have zero range (normalization undefined).
///
/// # Examples
///
/// ```
/// use simcore::stats::nrmse;
///
/// let actual = [10.0, 20.0, 30.0];
/// let exact = nrmse(&actual, &actual).unwrap();
/// assert_eq!(exact, 0.0);
/// ```
pub fn nrmse(actual: &[f64], estimated: &[f64]) -> Option<f64> {
    if actual.len() != estimated.len() || actual.is_empty() {
        return None;
    }
    let n = actual.len() as f64;
    let mse: f64 = actual
        .iter()
        .zip(estimated)
        .map(|(a, e)| (a - e).powi(2))
        .sum::<f64>()
        / n;
    let (lo, hi) = actual
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let range = hi - lo;
    if range <= 0.0 || !range.is_finite() {
        return None;
    }
    Some(mse.sqrt() / range)
}

/// Normalized root mean square error with the RMSE normalized by the mean
/// of the actual values — the standard alternative normalization, more
/// stable than range normalization when the actual series is nearly flat.
///
/// Returns `None` for mismatched/empty inputs or a non-positive mean.
///
/// # Examples
///
/// ```
/// use simcore::stats::nrmse_mean;
///
/// let actual = [10.0, 10.0, 10.0];
/// let est = [9.0, 10.0, 11.0];
/// // RMSE = sqrt(2/3), mean = 10.
/// assert!((nrmse_mean(&actual, &est).unwrap() - (2.0f64 / 3.0).sqrt() / 10.0).abs() < 1e-12);
/// ```
pub fn nrmse_mean(actual: &[f64], estimated: &[f64]) -> Option<f64> {
    if actual.len() != estimated.len() || actual.is_empty() {
        return None;
    }
    let n = actual.len() as f64;
    let mse: f64 = actual
        .iter()
        .zip(estimated)
        .map(|(a, e)| (a - e).powi(2))
        .sum::<f64>()
        / n;
    let mean = actual.iter().sum::<f64>() / n;
    if mean <= 0.0 || !mean.is_finite() {
        return None;
    }
    Some(mse.sqrt() / mean)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a data set, by linear interpolation.
///
/// Returns `None` when the data is empty or `q` is outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    if data.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = data.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// 1-based nearest-rank index of the `p`-th percentile among `n`
/// observations: `⌈p·n/100⌉`, never below 1. The one percentile convention
/// shared by the engine's service statistics, the SLO watchdog, the metric
/// registry's histograms, `watch` and `explain`.
pub fn nearest_rank(p: u64, n: u64) -> u64 {
    (p * n).div_ceil(100).max(1)
}

/// The nearest-rank `p`-th percentile of an ascending slice (see
/// [`nearest_rank`]); `None` when the slice is empty.
///
/// # Examples
///
/// ```
/// use simcore::stats::percentile_sorted;
///
/// assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0], 50), Some(2.0));
/// assert_eq!(percentile_sorted::<f64>(&[], 99), None);
/// ```
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: u64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(p, sorted.len() as u64) as usize - 1])
}

/// Ordinary least squares fit `y ≈ a + b·x`, returning `(a, b)`.
///
/// This is the "standard system identification technique" the paper uses to
/// identify the power-model slope α from (utilization, power) samples
/// (§IV-B). Returns `None` when fewer than two distinct x values exist.
///
/// # Examples
///
/// ```
/// use simcore::stats::least_squares;
///
/// let xs = [0.0, 1.0, 2.0, 3.0];
/// let ys = [1.0, 3.0, 5.0, 7.0];
/// let (a, b) = least_squares(&xs, &ys).unwrap();
/// assert!((a - 1.0).abs() < 1e-12);
/// assert!((b - 2.0).abs() < 1e-12);
/// ```
pub fn least_squares(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mean_x).powi(2)).sum();
    if sxx <= 0.0 {
        return None;
    }
    let sxy: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let b = sxy / sxx;
    let a = mean_y - b * mean_x;
    Some((a, b))
}

/// Jain's fairness index over a set of non-negative allocations.
///
/// `1.0` is perfectly fair; `1/n` is maximally unfair. Used as a secondary
/// fairness check alongside the paper's inverse-slowdown-variance metric.
pub fn jain_fairness(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sum: f64 = values.iter().sum();
    let sq_sum: f64 = values.iter().map(|v| v * v).sum();
    if sq_sum <= 0.0 {
        return None;
    }
    Some(sum * sum / (values.len() as f64 * sq_sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_service_stats_convention() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 50), Some(2.0));
        assert_eq!(percentile_sorted(&v, 99), Some(4.0));
        assert_eq!(percentile_sorted::<f64>(&[], 99), None);
        assert_eq!(percentile_sorted(&[7.0], 1), Some(7.0));
        assert_eq!(nearest_rank(0, 10), 1);
        assert_eq!(nearest_rank(95, 20), 19);
        assert_eq!(nearest_rank(95, 21), 20);
    }

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        s.push(1.0);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.sum(), 4.0);
        assert!((s.population_variance() - 1.0).abs() < 1e-12);
        assert!((s.sample_variance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn online_stats_ignores_non_finite() {
        let mut s = OnlineStats::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(5.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.mean(), 5.0);
    }

    #[test]
    fn nrmse_zero_for_exact_estimate() {
        let a = [1.0, 5.0, 3.0];
        assert_eq!(nrmse(&a, &a), Some(0.0));
    }

    #[test]
    fn nrmse_known_value() {
        let actual = [0.0, 10.0];
        let est = [1.0, 9.0];
        // RMSE = 1, range = 10 → 0.1
        assert!((nrmse(&actual, &est).unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn nrmse_rejects_degenerate() {
        assert_eq!(nrmse(&[], &[]), None);
        assert_eq!(nrmse(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(nrmse(&[2.0, 2.0], &[1.0, 3.0]), None); // zero range
    }

    #[test]
    fn nrmse_mean_stable_on_flat_series() {
        let actual = [10.0, 10.0];
        let est = [10.0, 10.0];
        assert_eq!(nrmse_mean(&actual, &est), Some(0.0));
        // Range normalization would be undefined here.
        assert_eq!(nrmse(&actual, &est), None);
        assert_eq!(nrmse_mean(&[], &[]), None);
        assert_eq!(nrmse_mean(&[0.0], &[1.0]), None);
    }

    #[test]
    fn quantile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), Some(1.0));
        assert_eq!(quantile(&data, 1.0), Some(4.0));
        assert_eq!(quantile(&data, 0.5), Some(2.5));
        assert_eq!(quantile(&data, 2.0), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn least_squares_recovers_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 40.0 + 1.2 * x).collect();
        let (a, b) = least_squares(&xs, &ys).unwrap();
        assert!((a - 40.0).abs() < 1e-9);
        assert!((b - 1.2).abs() < 1e-9);
    }

    #[test]
    fn least_squares_rejects_constant_x() {
        assert_eq!(least_squares(&[1.0, 1.0], &[2.0, 3.0]), None);
        assert_eq!(least_squares(&[1.0], &[2.0]), None);
    }

    #[test]
    fn jain_fairness_bounds() {
        assert_eq!(jain_fairness(&[1.0, 1.0, 1.0]), Some(1.0));
        let unfair = jain_fairness(&[1.0, 0.0, 0.0]).unwrap();
        assert!((unfair - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), None);
        assert_eq!(jain_fairness(&[0.0]), None);
    }
}
