//! Pseudo-random hashing to the unit interval.
//!
//! The bottom-k sketch of Cohen & Kaplan assumes a "truly random" hash
//! `h : U → (0, 1)` with no collisions. We approximate it with a seeded
//! SplitMix64 finalizer, which passes the usual avalanche tests and is
//! collision-free on distinct 64-bit inputs with overwhelming probability
//! (collisions of the 64-bit output are ~2⁻⁶⁴ per pair; the unit-interval
//! mapping keeps 53 bits).

/// A seeded hash function mapping `u64` keys to the open unit interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitHasher {
    seed: u64,
}

impl UnitHasher {
    /// Creates a hasher with the given seed. Two hashers with the same seed
    /// are identical functions — required so that the same sample id gets
    /// the same rank across algorithm phases.
    pub fn new(seed: u64) -> Self {
        UnitHasher { seed }
    }

    /// The raw 64-bit hash of `key` (SplitMix64 finalizer over `key ⊕ seed`).
    #[inline]
    pub fn hash_u64(&self, key: u64) -> u64 {
        let mut z = key ^ self.seed;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Hash of `key` mapped into the **open** interval `(0, 1)`.
    ///
    /// Uses the top 53 bits for the mantissa and nudges zero up to the
    /// smallest representable step so the bottom-k estimator
    /// `(bk − 1) / L(A, bk)` can never divide by zero.
    #[inline]
    pub fn hash_unit(&self, key: u64) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        self.unit_rank(key) as f64 * SCALE
    }

    /// `hash_unit(key) · 2⁵³` as an integer in `1..2⁵³`: the top 53 bits
    /// of the hash, with zero nudged up to one. The conversion to `f64`
    /// is exact, so ranks order keys exactly as their unit hashes do.
    #[inline]
    fn unit_rank(&self, key: u64) -> u64 {
        (self.hash_u64(key) >> 11).max(1)
    }
}

/// Bits per digit of [`hash_order`]'s radix sort: five passes cover the
/// 53-bit ranks.
const RADIX_BITS: u32 = 11;
const RADIX_PASSES: usize = 53usize.div_ceil(RADIX_BITS as usize);

/// Hashes the integers `0..t` and returns a permutation of `0..t` ordered
/// by ascending hash value.
///
/// The paper's BSRBK "sorts the samples in ascending order based on the
/// hash value" (§3.3); this gives that order without materializing the
/// samples. The whole-graph bottom-k scorer pairs the `j`-th sampled
/// world with the `j`-th smallest hash; the engine's BSRBK stops on a
/// Chernoff–KL certificate instead and never reads it. `O(t)`: an
/// LSD radix sort over the integer ranks behind
/// [`UnitHasher::hash_unit`]. Samples whose hashes tie (about `t²/2⁵⁴`
/// expected pairs) are ordered by id.
pub fn hash_order(hasher: &UnitHasher, t: usize) -> Vec<u32> {
    radix_order(t, |i| hasher.unit_rank(u64::from(i)))
}

/// Indices `0..t` ordered by ascending `rank` (below `2⁵⁵`), ties by
/// ascending index. Ranks are recomputed in every pass instead of
/// stored, so the sort holds 8 bytes per index: the order and its
/// scatter buffer.
fn radix_order(t: usize, rank: impl Fn(u32) -> u64) -> Vec<u32> {
    const MASK: u64 = (1 << RADIX_BITS) - 1;
    let digit = |r: u64, pass: usize| (r >> (pass as u32 * RADIX_BITS) & MASK) as usize;
    // One counting sweep fills every pass's histogram.
    let mut slots = vec![[0usize; 1 << RADIX_BITS]; RADIX_PASSES];
    for i in 0..t as u32 {
        let r = rank(i);
        debug_assert!(r >> (RADIX_PASSES as u32 * RADIX_BITS) == 0, "rank {r} too wide");
        for (pass, slot) in slots.iter_mut().enumerate() {
            slot[digit(r, pass)] += 1;
        }
    }
    let mut order: Vec<u32> = (0..t as u32).collect();
    let mut next = vec![0u32; t];
    for (pass, slot) in slots.iter_mut().enumerate() {
        let mut start = 0;
        for s in slot.iter_mut() {
            (*s, start) = (start, start + *s);
        }
        // Stable scatter: equal digits keep their order, so equal ranks
        // stay in index order from the identity start.
        for &i in &order {
            let s = &mut slot[digit(rank(i), pass)];
            next[*s] = i;
            *s += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let h1 = UnitHasher::new(42);
        let h2 = UnitHasher::new(42);
        for k in 0..100u64 {
            assert_eq!(h1.hash_u64(k), h2.hash_u64(k));
            assert_eq!(h1.hash_unit(k), h2.hash_unit(k));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let h1 = UnitHasher::new(1);
        let h2 = UnitHasher::new(2);
        let same = (0..100u64).filter(|&k| h1.hash_u64(k) == h2.hash_u64(k)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_values_in_open_interval() {
        let h = UnitHasher::new(7);
        for k in 0..10_000u64 {
            let x = h.hash_unit(k);
            assert!(x > 0.0 && x < 1.0, "hash_unit({k}) = {x}");
        }
    }

    #[test]
    fn unit_values_look_uniform() {
        // Mean of U(0,1) is 0.5 with sd 1/sqrt(12n); allow 6 sigma.
        let h = UnitHasher::new(99);
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|k| h.hash_unit(k)).sum::<f64>() / n as f64;
        let sigma = (1.0 / 12.0f64).sqrt() / (n as f64).sqrt();
        assert!((mean - 0.5).abs() < 6.0 * sigma, "mean = {mean}");
    }

    #[test]
    fn no_collisions_on_small_domain() {
        let h = UnitHasher::new(3);
        let mut seen: Vec<u64> = (0..100_000u64).map(|k| h.hash_u64(k)).collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), before);
    }

    #[test]
    fn hash_order_is_permutation() {
        let h = UnitHasher::new(5);
        let order = hash_order(&h, 1000);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000u32).collect::<Vec<_>>());
    }

    #[test]
    fn hash_order_is_ascending_in_hash() {
        let h = UnitHasher::new(5);
        let order = hash_order(&h, 500);
        for w in order.windows(2) {
            assert!(h.hash_unit(w[0] as u64) <= h.hash_unit(w[1] as u64));
        }
    }

    #[test]
    fn hash_order_matches_the_comparison_sort() {
        for (seed, t) in [(0u64, 1usize), (5, 2048), (11, 2049), (99, 20_000)] {
            let h = UnitHasher::new(seed);
            let keys: Vec<f64> = (0..t as u64).map(|i| h.hash_unit(i)).collect();
            let mut reference: Vec<u32> = (0..t as u32).collect();
            reference.sort_unstable_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
            assert_eq!(hash_order(&h, t), reference, "seed {seed}, t {t}");
        }
    }

    #[test]
    fn radix_order_sorts_full_width_ranks_and_orders_ties_by_index() {
        let ranks = [1 << 52, 3, (1 << 52) + 1, 1, 1 << 11, 2047, 2048 << 22, 3];
        assert_eq!(radix_order(ranks.len(), |i| ranks[i as usize]), vec![3, 1, 7, 5, 4, 6, 0, 2]);
        assert_eq!(radix_order(0, |_| 0), Vec::<u32>::new());
    }

    #[test]
    fn hash_order_empty_and_single() {
        let h = UnitHasher::new(5);
        assert!(hash_order(&h, 0).is_empty());
        assert_eq!(hash_order(&h, 1), vec![0]);
    }
}
