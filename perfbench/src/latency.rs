//! Fixed-size log-linear latency recorder.
//!
//! Values below 256 get one bucket each; above that, every power of two
//! is split into 128 equal buckets, so a bucket is at most 1/128 of the
//! values it holds. Quantiles report the bucket midpoint (clamped to the
//! exact min/max), which bounds the relative error by 1/256 ≈ 0.4%. The
//! array is allocated once, so recording never grows memory during the
//! measured window.

const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
const HALF: u64 = SUB / 2;
/// Enough buckets for every `u64`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * HALF as usize + HALF as usize;

#[derive(Clone)]
pub struct Recorder {
    counts: Box<[u64]>,
    n: u64,
    min: u64,
    max: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            n: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - (SUB_BITS - 1);
    (u64::from(shift) * HALF + (v >> shift)) as usize
}

/// `[lo, hi]`, the values bucket `i` holds.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i);
    }
    let shift = i / HALF - 1;
    let top = i - shift * HALF;
    let lo = top << shift;
    (lo, lo + (1u64 << shift) - 1)
}

impl Recorder {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Recorder) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The sample at rank `ceil(q * n)`, to within 0.4%; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = self.rank(q);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_range(i);
                return (lo + (hi - lo) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Samples ranked above quantile `q`: the sample support of that
    /// percentile.
    pub fn beyond(&self, q: f64) -> u64 {
        self.n - self.rank(q)
    }

    fn rank(&self, q: f64) -> u64 {
        ((q * self.n as f64).ceil() as u64).clamp(1, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, next, "bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "last bucket ends at u64::MAX");
    }

    #[test]
    fn quantiles_within_one_percent() {
        let mut rng = ame_prng::StdRng::seed_from_u64(7);
        let mut values: Vec<u64> = (0..20_000)
            .map(|_| {
                let exp = rng.gen_range(0u32..40);
                (rng.next_u64() >> (64 - exp.max(1))) + 1
            })
            .collect();
        let mut rec = Recorder::default();
        for &v in &values {
            rec.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 0.999] {
            let exact = values[(q * values.len() as f64).ceil() as usize - 1] as f64;
            let got = rec.quantile(q) as f64;
            assert!(
                (got - exact).abs() <= exact * 0.01,
                "q{q}: got {got}, exact {exact}"
            );
        }
        assert_eq!(rec.beyond(0.99), 200);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.quantile(1.0), 1_000_000);
        assert_eq!(a.quantile(0.5), 10);
    }
}
