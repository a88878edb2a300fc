//! Shared machine probe for the benchmark binaries.
//!
//! The perf-trajectory file (`BENCH_sampling.json`) carries a `machine`
//! group so readers can tell what hardware produced the numbers. A
//! report starts its group through [`emit_machine`] and chains
//! workload-specific extras onto it.

use crate::microbench::JsonReport;

/// The widest SIMD extension the running CPU reports (compile-target
/// fallback off x86-64). Recorded so trajectory readers can tell what
/// the autovectorized word-vector loops had to work with.
pub fn detected_simd() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            return "sse4.2";
        }
        "sse2"
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "unknown"
    }
}

/// Hardware thread count (1 when the platform cannot report it).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Starts the shared `machine` group on `report` with the fields every
/// trajectory file must carry, and returns the report so the caller can
/// chain bench-specific fields onto the same group.
pub fn emit_machine(report: &mut JsonReport) -> &mut JsonReport {
    report
        .group("machine")
        .num("available_parallelism", available_parallelism() as f64)
        .text("simd", detected_simd())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_group_always_carries_parallelism_and_simd() {
        let mut report = JsonReport::new();
        emit_machine(&mut report).num("extra", 1.0);
        let rendered = report.render();
        assert!(rendered.contains("\"machine\": {"));
        assert!(rendered.contains("\"available_parallelism\":"));
        assert!(rendered.contains(&format!("\"simd\": \"{}\"", detected_simd())));
        // Chained bench-specific fields land in the same group.
        assert!(rendered.contains("\"extra\": 1"));
    }

    #[test]
    fn probes_report_sane_values() {
        assert!(available_parallelism() >= 1);
        assert!(!detected_simd().is_empty());
    }
}
