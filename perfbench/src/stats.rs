//! Order statistics and a fixed-size latency histogram.

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample.
/// `0.0` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the two middle values averaged.
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

/// Sub-buckets per power of two: values are kept within ~3%.
const SUB: usize = 32;
const BUCKETS: usize = 64 * SUB;

/// Log-linear histogram of nanosecond timings. Recording never
/// allocates, so it can sit inside allocation-counted windows.
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: Box::new([0; BUCKETS]),
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // >= log2(SUB)
    let shift = exp - SUB.trailing_zeros() as usize;
    let mant = (v >> shift) as usize; // in [SUB, 2*SUB)
    ((shift + 1) * SUB + mant - SUB).min(BUCKETS - 1)
}

fn lower(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let shift = i / SUB - 1;
    ((i % SUB + SUB) as u64) << shift
}

impl Hist {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Percentile (`p` in 0..=100) as the midpoint of its bucket; `0.0`
    /// when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (lower(i) + lower(i + 1)) as f64 / 2.0;
            }
        }
        unreachable!("rank within count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 1000, 123_456, 10_000_000_000] {
            let i = index(v);
            assert!(lower(i) <= v && v < lower(i + 1), "{v} in bucket {i}");
            assert!((lower(i + 1) - lower(i)) as f64 <= (v as f64 / 31.0).max(1.0));
        }
    }

    #[test]
    fn order_statistics() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 99.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        let mut h = Hist::default();
        for v in 1..=100 {
            h.record(v * 1000);
        }
        assert!((h.percentile(50.0) - 50_000.0).abs() < 2_000.0);
    }
}
