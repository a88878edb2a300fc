//! Reproduces **Figure 4**'s parameter sweep on the bottom-k scorer:
//! the precision of [`score_nodes_bottomk`]'s top-k while varying the
//! bottom-k parameter `bk ∈ {4, 8, 16, 32, 64}`, on the four tuning
//! datasets (Fraud, Guarantee, Interbank, Citation), `k` from 2% to 10%
//! of `|V|`.
//!
//! In the paper the sweep tunes BSRBK's stopping rule. Here BSRBK stops
//! on a Chernoff–KL certificate that has no `bk` (see
//! `vulnds_core::AlgorithmKind::BottomK`), so `bk` only shapes the
//! bottom-k sketch estimates of `vulnds score --method bottomk`, which
//! is what this binary sweeps.
//!
//! The paper reports precision flattening by `bk ≈ 8–16` and picks 16.
//! Here precision rises with `bk` on every dataset but flattens only on
//! Fraud; Guarantee and Citation keep rising through `bk = 64` (README,
//! *Reproducing the paper*).

use vulnds_bench::report::{f3, Table};
use vulnds_bench::workload;
use vulnds_core::{precision_with_ties, score_nodes_bottomk, select_top_k_dense};
use vulnds_datasets::Dataset;

fn main() {
    println!(
        "Figure 4 — bottom-k scorer precision vs bk (scale = {}, seed = {})\n",
        workload::scale(),
        workload::seed()
    );
    let bks = [4usize, 8, 16, 32, 64];
    for ds in Dataset::TUNING {
        let g = workload::generate(ds);
        let truth = workload::truth(&g);
        println!("{} (n = {}, m = {})", ds, g.num_nodes(), g.num_edges());
        let mut t = Table::new(&["k%", "bk-4", "bk-8", "bk-16", "bk-32", "bk-64"]);
        for (pct, k) in workload::k_grid(g.num_nodes()) {
            let mut cells = vec![pct.to_string()];
            for bk in bks {
                let scores = score_nodes_bottomk(&g, k, &workload::config().with_bk(bk));
                let top_k = select_top_k_dense(&scores, k);
                cells.push(f3(precision_with_ties(&top_k, &truth, k, 1e-9)));
            }
            t.row(cells);
        }
        t.print();
        println!();
    }
    println!("The paper reports precision converging by bk ≈ 8–16 on all its datasets;");
    println!("compare the tables above (README, Reproducing the paper).");
}
