//! Deterministic sequential random number generation.
//!
//! Since the counter-RNG refactor the possible-world coins come from the
//! stateless generator in [`crate::coins`]; this sequential PRNG remains
//! the workhorse for everything that *wants* a stream — synthetic
//! dataset generation, workload drivers, label noise, and test
//! utilities. [`Xoshiro256pp::for_sample`] still derives independent
//! per-index streams via SplitMix64 for those callers.

/// Xoshiro256++ PRNG (Blackman & Vigna). Small state, excellent statistical
/// quality, and ~1 ns per 64-bit output — the sampler's hot loop is coin
/// flips, so this matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoshiro256pp {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64, as
    /// recommended by the xoshiro authors).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Xoshiro256pp { s }
    }

    /// Derives the RNG for sample `sample_id` of a run seeded with `seed`.
    ///
    /// The two inputs are mixed through SplitMix64 so that nearby sample
    /// ids produce unrelated streams.
    pub fn for_sample(seed: u64, sample_id: u64) -> Self {
        let mut sm = seed ^ sample_id.wrapping_mul(0xA24B_AED4_963E_E407);
        let _ = splitmix64(&mut sm);
        Xoshiro256pp::new(splitmix64(&mut sm))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.next_u64_raw() >> 11) as f64 * SCALE
    }

    /// Bernoulli trial: `true` with probability `p`.
    ///
    /// Matches the paper's pseudocode (`r ≤ p` with `r ~ U[0,1]`): `p = 0`
    /// can never fire (since `next_f64 < 1`... and `r < 0` impossible) and
    /// `p = 1` always fires.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (unbiased enough for workload generation; not for cryptography).
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64_raw() as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Xoshiro256pp::new(123);
        let mut b = Xoshiro256pp::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256pp::new(1);
        let mut b = Xoshiro256pp::new(2);
        let equal = (0..64).filter(|_| a.next_u64_raw() == b.next_u64_raw()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn per_sample_streams_are_independent_of_order() {
        let a5 = Xoshiro256pp::for_sample(9, 5);
        let b5 = Xoshiro256pp::for_sample(9, 5);
        assert_eq!(a5, b5);
        let a6 = Xoshiro256pp::for_sample(9, 6);
        assert_ne!(a5, a6);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256pp::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = Xoshiro256pp::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = Xoshiro256pp::new(13);
        for _ in 0..1000 {
            assert!(!r.bernoulli(0.0));
            assert!(r.bernoulli(1.0));
        }
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let mut r = Xoshiro256pp::new(17);
        let n = 200_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq = {freq}");
    }

    #[test]
    fn bounded_is_in_range_and_covers() {
        let mut r = Xoshiro256pp::new(19);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = r.next_bounded(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
