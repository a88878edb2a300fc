//! Sample-size theory: the paper's Equations 3 and 4, the `ε` a cut
//! pass still delivers, and the Chernoff–KL bounds behind BSRBK's stop.

use crate::config::ApproxParams;

/// Equation 3: sample size for the basic sampling algorithm,
/// `t = (2/ε²) · ln(k (n − k) / δ)`, bounding the order of the
/// `k (n − k)` node pairs straddling the top-k boundary.
///
/// Degenerate inputs (`k = 0` or `k ≥ n`) need no pairwise ordering at
/// all and return 0.
pub fn basic_sample_size(n: usize, k: usize, approx: ApproxParams) -> u64 {
    pair_bound_sample_size(k as u64, (n.saturating_sub(k)) as u64, approx)
}

/// Equation 4: sample size after pruning,
/// `t = (2/ε²) · ln((k − k') (|B| − k + k') / δ)`.
///
/// `k_rem = k − k'` is the number of result slots still open and
/// `b = |B|` the surviving candidate count.
pub fn reduced_sample_size(b: usize, k_rem: usize, approx: ApproxParams) -> u64 {
    pair_bound_sample_size(k_rem as u64, (b.saturating_sub(k_rem)) as u64, approx)
}

/// Shared form: `t = (2/ε²) · ln(pairs / δ)` with `pairs = a · b`,
/// rounded up. Zero when there are no pairs to order.
fn pair_bound_sample_size(a: u64, b: u64, approx: ApproxParams) -> u64 {
    let pairs = (a as f64) * (b as f64);
    if pairs < 1.0 {
        return 0;
    }
    let eps = approx.epsilon();
    let t = 2.0 / (eps * eps) * (pairs / approx.delta()).ln();
    if t <= 0.0 {
        0
    } else {
        t.ceil() as u64
    }
}

/// Inverts the Eq. 3/4 bound at the samples actually drawn: the `ε` the
/// same `δ` guarantee still holds at after `t_used` of the budgeted
/// samples. A degraded (cancelled mid-pass) Monte-Carlo answer is a
/// valid answer at this wider `ε`, which is what makes deadline-driven
/// degradation principled rather than lossy.
///
/// `a · b` is the pair count of the bound (`k (n − k)` for Eq. 3,
/// `(k − k') (|B| − k + k')` for Eq. 4). Returns 0 when there are no
/// pairs to order (the answer is exact regardless of samples) and
/// `+∞` when `t_used` is 0 (no samples, no guarantee — the engine
/// reports such queries as cancelled, not degraded).
pub fn achieved_epsilon(a: u64, b: u64, delta: f64, t_used: u64) -> f64 {
    let pairs = (a as f64) * (b as f64);
    if pairs < 1.0 {
        return 0.0;
    }
    if t_used == 0 {
        return f64::INFINITY;
    }
    (2.0 * (pairs / delta).ln() / t_used as f64).sqrt()
}

/// Bernoulli relative entropy `KL(p ‖ q)`, with `0 · ln 0 = 0`.
fn kl_bernoulli(p: f64, q: f64) -> f64 {
    let term = |a: f64, b: f64| if a <= 0.0 { 0.0 } else { a * (a / b).ln() };
    term(p, q) + term(1.0 - p, 1.0 - q)
}

/// Bisection steps of the Chernoff–KL inversions: past 53 the interval
/// is below one ulp of 1.0, so the result is exact in `f64`.
const KL_BISECTION_STEPS: u32 = 60;

/// Chernoff–KL upper confidence bound on a Bernoulli mean from `count`
/// successes in `n` trials: the largest `q ≥ p̂` with
/// `n · KL(p̂ ‖ q) ≤ log_inv_alpha`. The true mean exceeds it with
/// probability at most `α = exp(−log_inv_alpha)` (Chernoff's bound in
/// its relative-entropy form), and it is tighter than Hoeffding's
/// everywhere, by far for means near 0 or 1. Nondecreasing in `count`.
/// Returns 1 for `n = 0`.
pub fn kl_upper_bound(count: u64, n: u64, log_inv_alpha: f64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let p = count as f64 / n as f64;
    let (mut lo, mut hi) = (p, 1.0);
    for _ in 0..KL_BISECTION_STEPS {
        let mid = 0.5 * (lo + hi);
        if n as f64 * kl_bernoulli(p, mid) <= log_inv_alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The lower counterpart of [`kl_upper_bound`]: the smallest `q ≤ p̂`
/// with `n · KL(p̂ ‖ q) ≤ log_inv_alpha`. Nondecreasing in `count`.
/// Returns 0 for `n = 0`.
pub fn kl_lower_bound(count: u64, n: u64, log_inv_alpha: f64) -> f64 {
    1.0 - kl_upper_bound(n.saturating_sub(count), n, log_inv_alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> ApproxParams {
        ApproxParams::paper_defaults()
    }

    #[test]
    fn eq3_matches_formula() {
        // n = 1000, k = 10, eps = 0.3, delta = 0.1:
        // t = 2/0.09 · ln(10·990/0.1) = 22.22… · ln(99000) ≈ 255.7 → 256.
        let t = basic_sample_size(1000, 10, paper());
        let expected = (2.0 / 0.09 * (9_900.0f64 / 0.1f64).ln()).ceil() as u64;
        assert_eq!(t, expected);
        assert_eq!(t, 256);
    }

    #[test]
    fn eq4_shrinks_with_pruning() {
        let full = basic_sample_size(10_000, 100, paper());
        // After pruning: 150 candidates, 40 slots already verified.
        let reduced = reduced_sample_size(150, 60, paper());
        assert!(reduced < full, "reduced {reduced} !< full {full}");
    }

    #[test]
    fn degenerate_cases_are_zero() {
        assert_eq!(basic_sample_size(10, 0, paper()), 0);
        assert_eq!(basic_sample_size(10, 10, paper()), 0);
        assert_eq!(basic_sample_size(10, 12, paper()), 0);
        assert_eq!(reduced_sample_size(5, 0, paper()), 0);
        assert_eq!(reduced_sample_size(5, 5, paper()), 0);
    }

    #[test]
    fn sample_size_monotone_in_accuracy() {
        let loose = basic_sample_size(1000, 10, ApproxParams::new(0.3, 0.1).unwrap());
        let tight_eps = basic_sample_size(1000, 10, ApproxParams::new(0.1, 0.1).unwrap());
        let tight_delta = basic_sample_size(1000, 10, ApproxParams::new(0.3, 0.01).unwrap());
        assert!(tight_eps > loose);
        assert!(tight_delta > loose);
    }

    #[test]
    fn pair_count_below_one_rounds_to_zero() {
        // a·b = 0 ⇒ no ordering constraints.
        assert_eq!(reduced_sample_size(0, 0, paper()), 0);
    }

    #[test]
    fn tiny_pair_counts_still_positive() {
        // Even a single pair needs samples under the paper's parameters.
        let t = pair_bound_sample_size_public(1, 1);
        assert!(t > 0);
    }

    fn pair_bound_sample_size_public(a: u64, b: u64) -> u64 {
        super::pair_bound_sample_size(a, b, paper())
    }

    #[test]
    fn achieved_epsilon_inverts_the_budget() {
        // Running the full Eq. 3 budget achieves (about) the requested ε;
        // the ceil() in the budget makes the achieved value slightly
        // tighter, never looser.
        let t = basic_sample_size(1000, 10, paper());
        let eps = achieved_epsilon(10, 990, 0.1, t);
        assert!(eps <= 0.3 + 1e-12, "achieved {eps} looser than requested");
        assert!(eps > 0.29, "achieved {eps} implausibly tight");
        // Fewer samples → wider ε, monotonically.
        assert!(achieved_epsilon(10, 990, 0.1, t / 2) > eps);
        assert!(achieved_epsilon(10, 990, 0.1, t / 10) > achieved_epsilon(10, 990, 0.1, t / 2));
    }

    #[test]
    fn achieved_epsilon_degenerate_cases() {
        assert_eq!(achieved_epsilon(0, 990, 0.1, 100), 0.0, "no pairs → exact");
        assert_eq!(achieved_epsilon(10, 0, 0.1, 100), 0.0);
        assert!(achieved_epsilon(10, 990, 0.1, 0).is_infinite(), "no samples → no guarantee");
    }

    #[test]
    fn kl_bounds_bracket_the_estimate_and_beat_hoeffding() {
        let log = (1.0f64 / 0.01).ln();
        for (count, n) in [(0u64, 100u64), (5, 100), (50, 100), (100, 100), (3, 1000)] {
            let (lo, hi) = (kl_lower_bound(count, n, log), kl_upper_bound(count, n, log));
            let p = count as f64 / n as f64;
            assert!(lo <= p && p <= hi, "{count}/{n}: [{lo}, {hi}]");
            // Hoeffding's one-sided width at the same level.
            let hoeffding = (log / (2.0 * n as f64)).sqrt();
            assert!(hi - p <= hoeffding + 1e-12 && p - lo <= hoeffding + 1e-12);
            // Both ends sit on the KL level set (or the [0, 1] edge).
            if hi < 1.0 {
                assert!((n as f64 * kl_bernoulli(p, hi) - log).abs() < 1e-6);
            }
        }
        // Far tighter than Hoeffding for rare events.
        assert!(kl_upper_bound(0, 1000, log) < 0.005);
        assert_eq!((kl_lower_bound(0, 0, log), kl_upper_bound(0, 0, log)), (0.0, 1.0));
        // Monotone in the count, shrinking in n.
        assert!(kl_upper_bound(10, 100, log) < kl_upper_bound(11, 100, log));
        assert!(kl_upper_bound(20, 200, log) < kl_upper_bound(10, 100, log));
    }

    #[test]
    fn kl_upper_bound_covers_at_its_level() {
        // Exact binomial tail at the bound: P[Bin(n, q) ≤ c] ≤ α for the
        // q the bound returns (Chernoff), checked by direct summation.
        let (n, alpha) = (200u64, 0.05f64);
        for count in [0u64, 4, 40, 120] {
            let q = kl_upper_bound(count, n, (1.0 / alpha).ln());
            let mut tail = 0.0;
            let mut term = (1.0 - q).powi(n as i32); // P[X = 0]
            for x in 0..=count {
                tail += term;
                term *= (n - x) as f64 / (x + 1) as f64 * q / (1.0 - q);
            }
            assert!(tail <= alpha + 1e-9, "count {count}: tail {tail} at q {q}");
        }
    }
}
