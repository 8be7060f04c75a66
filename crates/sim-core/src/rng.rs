//! Deterministic random number generation for workload synthesis.
//!
//! All simulated randomness (random LBAs for the 4 KB random read/write
//! experiments, Zipf-distributed embedding indices for DLRM, edge generation
//! for the uniform and Kronecker graph generators) flows through [`SimRng`],
//! a splitmix64-seeded xoshiro256** generator. The generator is written out
//! here rather than taken from a crate so that the exact bit streams can
//! never change under a dependency update.

/// splitmix64 step, used to expand a single `u64` seed into the xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** PRNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent stream from this generator (e.g. one per SSD or
    /// per warp) without perturbing the parent's sequence.
    pub fn fork(&self, stream: u64) -> SimRng {
        // Mix the stream id with the current state through splitmix to avoid
        // correlated child streams.
        let mut sm = self.s[0] ^ self.s[3] ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. Uses Lemire's multiply-shift rejection.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // 128-bit multiply method; rejection keeps it unbiased.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        for i in (1..n).rev() {
            let j = self.gen_range((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }
}

/// A Zipf(α) sampler over `[0, n)` using the rejection-inversion method of
/// Hörmann & Derflinger, which is O(1) per sample and exact.
///
/// DLRM embedding-table accesses follow a strongly skewed popularity
/// distribution; the paper uses the Criteo click-logs categorical features,
/// which we substitute with a Zipf-distributed synthetic trace.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    alpha: f64,
    // Precomputed constants for rejection-inversion.
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl ZipfSampler {
    /// Create a sampler over `{0, 1, …, n-1}` with exponent `alpha > 0`
    /// (alpha == 1.0 is handled via the limit form).
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(alpha > 0.0, "Zipf exponent must be positive");
        let h = |x: f64| -> f64 {
            if (alpha - 1.0).abs() < 1e-12 {
                (1.0 + x).ln()
            } else {
                ((1.0 + x).powf(1.0 - alpha) - 1.0) / (1.0 - alpha)
            }
        };
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 - 0.5);
        let s = 2.0 - {
            // h_inv(h(2.5) - 1/2^alpha) ... the standard constant
            let v = h(2.5) - (2.0f64).powf(-alpha);
            Self::h_inv_static(v, alpha)
        };
        ZipfSampler {
            n,
            alpha,
            h_x1,
            h_n,
            s,
        }
    }

    fn h_inv_static(x: f64, alpha: f64) -> f64 {
        if (alpha - 1.0).abs() < 1e-12 {
            x.exp() - 1.0
        } else {
            (1.0 + x * (1.0 - alpha)).powf(1.0 / (1.0 - alpha)) - 1.0
        }
    }

    fn h(&self, x: f64) -> f64 {
        if (self.alpha - 1.0).abs() < 1e-12 {
            (1.0 + x).ln()
        } else {
            ((1.0 + x).powf(1.0 - self.alpha) - 1.0) / (1.0 - self.alpha)
        }
    }

    fn h_inv(&self, x: f64) -> f64 {
        Self::h_inv_static(x, self.alpha)
    }

    /// Size of the support.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw a sample in `[0, n)`; rank 0 is the most popular item.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        loop {
            let u = self.h_n + rng.gen_f64() * (self.h_x1 - self.h_n);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.s || u >= self.h(k + 0.5) - (k).powf(-self.alpha) {
                // Ranks are 1-based in the classical formulation.
                return (k as u64 - 1).min(self.n - 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(43);
        assert_ne!(SimRng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn forked_streams_differ() {
        let root = SimRng::new(7);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3, "forked streams should be effectively independent");
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = SimRng::new(1);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniformity_chi_square_rough() {
        let mut rng = SimRng::new(3);
        let buckets = 16usize;
        let samples = 160_000usize;
        let mut counts = vec![0f64; buckets];
        for _ in 0..samples {
            counts[rng.gen_range(buckets as u64) as usize] += 1.0;
        }
        let expected = samples as f64 / buckets as f64;
        let chi2: f64 = counts
            .iter()
            .map(|c| (c - expected).powi(2) / expected)
            .sum();
        // 15 degrees of freedom; 99.9th percentile ≈ 37.7.
        assert!(chi2 < 45.0, "chi-square too large: {chi2}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = SimRng::new(11);
        let zipf = ZipfSampler::new(1000, 0.99);
        let mut counts = vec![0u64; 1000];
        for _ in 0..50_000 {
            let v = zipf.sample(&mut rng);
            assert!(v < 1000);
            counts[v as usize] += 1;
        }
        // Rank 0 should be far more popular than rank 500.
        assert!(counts[0] > 20 * counts[500].max(1));
        // Head should dominate: top-10 ranks should capture a large share.
        let head: u64 = counts[..10].iter().sum();
        assert!(head as f64 > 0.25 * 50_000.0);
    }

    #[test]
    fn zipf_single_element() {
        let mut rng = SimRng::new(5);
        let zipf = ZipfSampler::new(1, 1.2);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }
}
