//! Bottom-k estimator micro-benchmarks: hash-order generation and unit
//! hashing, the two per-sample costs of the whole-graph bottom-k scorer.

use vulnds_bench::microbench::bench;
use vulnds_sketch::{hash_order, UnitHasher};

fn main() {
    let h = UnitHasher::new(2);
    for t in [1_000usize, 10_000] {
        bench(&format!("hash_order/{t}"), || hash_order(&h, t));
    }

    let h = UnitHasher::new(3);
    bench("hash_unit_1k", || (0..1000u64).map(|k| h.hash_unit(k)).sum::<f64>());
}
