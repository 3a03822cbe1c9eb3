//! Summary statistics for the benchmark's own numbers: median and
//! quartiles over repetitions, and a log-bucket histogram for per-call
//! latencies of layers that are called millions of times.

/// Quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads printed here match the ones an outside check computes.
/// A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a timing sample"));
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let n = 4i64;
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative or beyond `n` at the clamped ends: Python extrapolates.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *q = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// The median of `values` (the mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a timing sample"));
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

/// Sub-buckets per power of two: 2^5 = 32, so a bucket spans at most
/// 1/32 ≈ 3.1% of its lower bound.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A fixed-size log-bucket histogram of `u64` samples (nanoseconds here).
/// Values below 32 get a bucket each; above that, every power of two is
/// split into 32 equal sub-buckets. Recording is O(1) and allocation-free.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

impl LogHistogram {
    /// The bucket `value` falls in.
    #[must_use]
    pub fn bucket(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let mantissa = (value >> (exp - SUB_BITS)) & (SUB - 1);
        ((exp - SUB_BITS + 1) as u64 * SUB + mantissa) as usize
    }

    /// The smallest value that falls in bucket `index`, and the bucket's
    /// width.
    fn bucket_range(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < SUB {
            return (index, 1);
        }
        let shift = index / SUB - 1;
        let mantissa = index % SUB;
        ((SUB + mantissa) << shift, 1 << shift)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank percentile at `permille` (500 = p50, 999 = p99.9),
    /// reported as the midpoint of the bucket holding that rank; `0` when
    /// empty. The exact nearest-rank value lies in the same bucket.
    #[must_use]
    pub fn percentile(&self, permille: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (self.total * permille).div_ceil(1000).max(1);
        let mut seen = 0;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, width) = Self::bucket_range(index);
                return low + (width - 1) / 2;
            }
        }
        unreachable!("rank {rank} is at most the sample count {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Values from CPython's statistics.quantiles(data, n=4).
        let cases: [(&[f64], [f64; 3]); 4] = [
            (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (&[10.0, 1.0, 7.0], [1.0, 7.0, 10.0]),
            (&[3.0, 5.0], [2.5, 4.0, 5.5]),
        ];
        for (data, want) in cases {
            let got = quartiles(data);
            assert!(
                got.iter().zip(want).all(|(&g, w)| close(g, w)),
                "{data:?}: {got:?} != {want:?}"
            );
        }
        assert_eq!(quartiles(&[4.5]), [4.5; 3]);
    }

    #[test]
    fn median_odd_and_even() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[7.0]), 7.0));
        assert!(close(
            median(&[1.0, 2.0, 3.0, 4.0, 100.0]),
            quartiles(&[1.0, 2.0, 3.0, 4.0, 100.0])[1]
        ));
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = 0;
        for v in (0..5000u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let b = LogHistogram::bucket(v);
            assert!(b >= prev && b < BUCKETS, "bucket({v}) = {b}");
            let (low, width) = LogHistogram::bucket_range(b);
            assert!(low <= v && v - low < width, "{v} outside [{low}, +{width})");
            prev = b;
        }
    }

    /// Nearest-rank oracle over the full sorted sample.
    fn nearest_rank(sorted: &[u64], permille: u64) -> u64 {
        let rank = (sorted.len() as u64 * permille).div_ceil(1000).max(1);
        sorted[rank as usize - 1]
    }

    #[test]
    fn percentiles_land_in_the_oracle_bucket() {
        // A deterministic mix of scales: mostly tens of microseconds with
        // a heavy tail, plus exact small values.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for size in [1usize, 2, 7, 100, 1000, 12_345] {
            let mut hist = LogHistogram::default();
            let mut sample = Vec::with_capacity(size);
            for _ in 0..size {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = match state % 10 {
                    0 => state % 31,
                    1..=7 => 20_000 + state % 60_000,
                    _ => (state >> 20) % 50_000_000,
                };
                hist.record(v);
                sample.push(v);
            }
            sample.sort_unstable();
            assert_eq!(hist.count(), size as u64);
            for permille in [1, 250, 500, 900, 990, 999, 1000] {
                let got = hist.percentile(permille);
                let want = nearest_rank(&sample, permille);
                assert_eq!(
                    LogHistogram::bucket(got),
                    LogHistogram::bucket(want),
                    "n={size} p{permille}: {got} vs oracle {want}"
                );
            }
        }
        assert_eq!(LogHistogram::default().percentile(500), 0);
    }
}
