//! Randomized property tests for the unit hash and hash order, on the
//! shared deterministic test kit (`ugraph::testkit`, a dev-dependency —
//! the crate itself stays dependency-free).

use ugraph::testkit::check;
use vulnds_sketch::{hash_order, UnitHasher};

/// hash_order is always a permutation, stable across calls.
#[test]
fn hash_order_permutation() {
    check(64, |rng| {
        let t = rng.next_bounded(500) as usize;
        let h = UnitHasher::new(rng.next_bounded(100));
        let order = hash_order(&h, t);
        assert_eq!(order.clone(), hash_order(&h, t));
        let mut sorted = order;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..t as u32).collect::<Vec<_>>());
    });
}

/// Unit hashes always land strictly inside `(0, 1)`, for any seed/key.
#[test]
fn hash_unit_range() {
    check(256, |rng| {
        let seed = rng.next_u64();
        let key = rng.next_u64();
        let x = UnitHasher::new(seed).hash_unit(key);
        assert!(x > 0.0 && x < 1.0, "{x}");
    });
}
