//! Run configuration shared by all detection algorithms.

use std::fmt;

/// Error for invalid configuration parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// The `(ε, δ)` approximation contract of Definition 2: with probability
/// at least `1 − δ`, every returned node has `p(v) ≥ Pk − ε` and every
/// non-returned node has `p(v) < Pk + ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxParams {
    epsilon: f64,
    delta: f64,
}

impl ApproxParams {
    /// Creates the parameter pair; both must lie in the open `(0, 1)`.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, ConfigError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(ConfigError(format!("epsilon = {epsilon} must be in (0, 1)")));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(ConfigError(format!("delta = {delta} must be in (0, 1)")));
        }
        Ok(ApproxParams { epsilon, delta })
    }

    /// The paper's experimental setting: `ε = 0.3`, `δ = 0.1` (§4.1).
    pub fn paper_defaults() -> Self {
        ApproxParams { epsilon: 0.3, delta: 0.1 }
    }

    /// Accuracy slack `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Failure probability `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

/// Which lower/upper bound recursion the pruning phase uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum BoundsMethod {
    /// Algorithms 2 and 3 verbatim. The upper bound is provably valid (the
    /// default indicators are increasing functions of independent coins,
    /// so by positive association the probability that *no* in-neighbor
    /// transmits is at least the product of the per-neighbor
    /// probabilities). The lower bound is exact on in-trees but can
    /// overshoot on converging paths (shared ancestors violate the
    /// independence the product form assumes); the paper's near-tree
    /// financial networks make this rare in practice.
    #[default]
    Paper,
    /// Provably safe variant: the same Algorithm 3 upper bound, paired
    /// with a best-single-path lower bound
    /// `pl(v) = max(ps(v), max_x p(v|x) · pl(x))`,
    /// which is a true lower bound on every graph (it is the probability
    /// of the single strongest walk event into `v`).
    Safe,
}

/// Full configuration of a detection run.
#[derive(Debug, Clone, PartialEq)]
pub struct VulnConfig {
    /// Approximation contract (used to size samples by Eqs. 3 and 4).
    pub approx: ApproxParams,
    /// RNG seed; identical seeds give identical results.
    pub seed: u64,
    /// Order `z` of the lower/upper bound recursions (paper tunes to 2).
    pub bound_order: usize,
    /// Which bound recursion to use for pruning.
    pub bounds_method: BoundsMethod,
    /// Bottom-k sketch parameter of the bottom-k scorer
    /// ([`score_nodes_bottomk`](crate::score_nodes_bottomk); the paper
    /// tunes it to 16). BSRBK's stop does not read it.
    pub bk: usize,
    /// Fixed sample size for the naive `N` baseline (the paper runs `N`
    /// with a "large fixed sample size"; 20,000 matches its ground-truth
    /// convention).
    pub naive_samples: u64,
    /// Worker threads for the samplers (1 = sequential).
    pub threads: usize,
    /// Hard cap on any computed sample size, to keep adversarial
    /// `(ε, δ)` choices from running forever. `None` disables the cap.
    pub max_samples: Option<u64>,
}

impl Default for VulnConfig {
    fn default() -> Self {
        VulnConfig {
            approx: ApproxParams::paper_defaults(),
            seed: 0x5EED,
            bound_order: 2,
            bounds_method: BoundsMethod::Paper,
            bk: 16,
            naive_samples: 20_000,
            threads: 1,
            max_samples: None,
        }
    }
}

impl VulnConfig {
    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style approximation override.
    pub fn with_approx(mut self, approx: ApproxParams) -> Self {
        self.approx = approx;
        self
    }

    /// Builder-style bound order override.
    pub fn with_bound_order(mut self, z: usize) -> Self {
        self.bound_order = z;
        self
    }

    /// Builder-style bottom-k override.
    pub fn with_bk(mut self, bk: usize) -> Self {
        self.bk = bk;
        self
    }

    /// Builder-style thread count override.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style sample cap override.
    pub fn with_max_samples(mut self, cap: u64) -> Self {
        self.max_samples = Some(cap);
        self
    }

    /// Applies the configured cap to a computed sample size.
    pub fn cap_samples(&self, t: u64) -> u64 {
        match self.max_samples {
            Some(cap) => t.min(cap),
            None => t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = ApproxParams::paper_defaults();
        assert_eq!(p.epsilon(), 0.3);
        assert_eq!(p.delta(), 0.1);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(ApproxParams::new(0.0, 0.1).is_err());
        assert!(ApproxParams::new(0.3, 0.0).is_err());
        assert!(ApproxParams::new(1.0, 0.1).is_err());
        assert!(ApproxParams::new(0.3, 1.0).is_err());
        assert!(ApproxParams::new(f64::NAN, 0.1).is_err());
        assert!(ApproxParams::new(0.3, 0.1).is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = VulnConfig::default()
            .with_seed(1)
            .with_bound_order(3)
            .with_bk(8)
            .with_threads(4)
            .with_max_samples(100);
        assert_eq!(c.seed, 1);
        assert_eq!(c.bound_order, 3);
        assert_eq!(c.bk, 8);
        assert_eq!(c.threads, 4);
        assert_eq!(c.cap_samples(500), 100);
        assert_eq!(VulnConfig::default().cap_samples(500), 500);
    }

    #[test]
    fn config_error_displays() {
        let e = ApproxParams::new(2.0, 0.1).unwrap_err();
        assert!(e.to_string().contains("epsilon"));
    }
}
