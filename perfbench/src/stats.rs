//! Order statistics and process measurements shared by the workloads.

use std::collections::BTreeMap;

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `None` for an empty sample.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Latency samples grouped by cell (one cell per distinct request
/// kind), in insertion order within a cell.
#[derive(Debug)]
pub struct Cells<K: Ord> {
    samples: BTreeMap<K, Vec<f64>>,
}

impl<K: Ord> Default for Cells<K> {
    fn default() -> Self {
        Cells { samples: BTreeMap::new() }
    }
}

impl<K: Ord> Cells<K> {
    pub fn record(&mut self, cell: K, value: f64) {
        self.samples.entry(cell).or_default().push(value);
    }

    /// Sum over the cells selected by `keep` of each cell's median.
    pub fn sum_of_medians(&self, keep: impl Fn(&K) -> bool) -> f64 {
        self.samples.iter().filter(|(k, _)| keep(k)).filter_map(|(_, v)| median(v)).sum()
    }

    /// Each cell with its median and sample count, in key order.
    pub fn medians(&self) -> impl Iterator<Item = (&K, f64, usize)> {
        self.samples.iter().filter_map(|(k, v)| Some((k, median(v)?, v.len())))
    }

    /// Every sample of every cell, pooled.
    pub fn pooled(&self) -> Vec<f64> {
        self.samples.values().flatten().copied().collect()
    }
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB, read from
/// `/proc`. `None` where `/proc` is unavailable.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn cells_sum_medians_of_the_selected_cells() {
        let mut cells = Cells::default();
        for (cell, v) in [("a", 1.0), ("a", 3.0), ("a", 2.0), ("b", 10.0), ("c", 100.0)] {
            cells.record(cell, v);
        }
        assert_eq!(cells.sum_of_medians(|k| *k != "c"), 12.0);
        assert_eq!(cells.pooled().len(), 5);
    }

    #[test]
    fn reads_this_process_peak_rss() {
        let mb = peak_rss_mb(std::process::id()).expect("/proc is mounted");
        assert!(mb > 0.0);
    }
}
