//! A fixed-size latency histogram, so the memory samples take does not
//! grow with throughput and `peak_rss_mb` measures the program.

/// Sub-buckets per power of two: buckets are under 0.8% wide.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values from 2^32 ns (4.3 s) up share the last bucket, where failed ops
/// are recorded too: a failed op misses every latency limit.
const BUCKETS: usize = ((32 - SUB_BITS + 1) as usize) * SUB as usize;

/// Log-linear histogram of nanosecond latencies.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket(nanos: u64) -> usize {
    if nanos < SUB {
        return nanos as usize;
    }
    let exp = 63 - nanos.leading_zeros(); // >= SUB_BITS
    let sub = (nanos >> (exp - SUB_BITS)) & (SUB - 1);
    (((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize).min(BUCKETS - 1)
}

/// Lowest value and width of bucket `b`.
fn span(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < SUB {
        return (b as f64, 1.0);
    }
    let shift = b / SUB - 1;
    let lower = (SUB + b % SUB) << shift;
    (lower as f64, (1u64 << shift) as f64)
}

impl Hist {
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket(nanos)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Ops recorded below the last bucket: those that completed.
    pub fn completed(&self) -> u64 {
        self.total - self.counts[BUCKETS - 1]
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q` quantile in microseconds, interpolated by rank inside its
    /// bucket; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            if n > 0 && (below + n) as f64 > rank {
                let (lower, width) = span(b);
                let frac = (rank - below as f64 + 0.5) / n as f64;
                return (lower + width * frac) / 1e3;
            }
            below += n;
        }
        let (lower, width) = span(BUCKETS - 1);
        (lower + width) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_in_order() {
        for b in 1..BUCKETS {
            let (lo, w) = span(b - 1);
            assert_eq!(span(b).0, lo + w, "bucket {b}");
            assert_eq!(bucket((lo + w) as u64), b);
        }
    }

    #[test]
    fn quantiles_land_within_a_bucket_of_the_exact_value() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for q in [0.5, 0.99] {
            let exact = q * 1_000_000.0 / 1e3;
            let got = h.quantile_us(q);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q={q}: {got} vs {exact}"
            );
        }
    }
}
