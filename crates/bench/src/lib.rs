//! # vulnds-bench — experiment harness for the VulnDS reproduction
//!
//! One binary per table/figure of the paper (run with `--release`):
//!
//! | Binary | Reproduces |
//! |--------|-----------|
//! | `table2` | Table 2 — dataset statistics |
//! | `fig4_bk_tuning` | Figure 4 — bottom-k scorer precision vs `bk` |
//! | `fig5_bound_orders` | Figure 5 — candidate size vs bound order |
//! | `fig6_efficiency` | Figure 6 — runtime of the five algorithms |
//! | `fig7_effectiveness` | Figure 7 — precision of the five algorithms |
//! | `table3_case_study` | Table 3 — default-prediction AUC |
//!
//! Micro-benches live in `benches/` (sampling, bounds, sketch,
//! algorithms, ablations), driven by the dependency-free harness in
//! [`microbench`]. Set `VULNDS_SCALE=1.0` to run experiments at the
//! paper's full dataset sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod machine;
pub mod microbench;
pub mod report;
pub mod workload;
