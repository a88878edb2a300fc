//! Reproduces **Table 3**: default-prediction AUC on the Guarantee
//! network over three test periods ("years").
//!
//! Labels come from the uncertain-graph process itself, standing in for
//! the paper's private delinquency records (see `vulnds_baselines::labels`
//! for why that preserves the experiment); the training period fits
//! the feature models, then every method scores all nodes and is
//! evaluated by ROC-AUC against each test period.
//!
//! Expected shape: BSR and BSRBK on top (they reason about contagion),
//! feature models (GBDT/MLP/LogReg) in the middle, raw centralities at
//! the bottom, InfMax and k-core between — matching the paper's ordering.

use vulnds_baselines::ml::features::{apply_standardization, node_features, standardize};
use vulnds_baselines::{
    betweenness, core_numbers, draw_period_labels, influence_maximization, pagerank, roc_auc, Gbdt,
    GbdtParams, LogisticRegression, Mlp, PageRankParams, SgdParams, WeightedKnn,
};
use vulnds_bench::report::{f3, Table};
use vulnds_bench::workload;
use vulnds_core::{score_nodes_bottomk, score_nodes_mc};
use vulnds_datasets::Dataset;

fn main() {
    println!(
        "Table 3 — default-prediction AUC on Guarantee (scale = {}, seed = {})\n",
        workload::scale(),
        workload::seed()
    );
    let g = workload::generate(Dataset::Guarantee);
    let n = g.num_nodes();
    println!("graph: n = {n}, m = {}", g.num_edges());

    // One training period + three test periods, as in the paper
    // (2012 trains; 2014/2015/2016 test).
    let periods = draw_period_labels(&g, 4, 0.15, workload::seed() ^ 0x1ABE1);
    let train = &periods[0];
    let tests = &periods[1..];

    // Feature models.
    let mut train_rows = node_features(&g);
    let (means, stds) = standardize(&mut train_rows);
    let mut eval_rows = node_features(&g);
    apply_standardization(&mut eval_rows, &means, &stds);

    let logreg = LogisticRegression::train(&train_rows, &train.defaulted, SgdParams::default());
    let mlp = Mlp::train(
        &train_rows,
        &train.defaulted,
        16,
        SgdParams { lr: 0.05, epochs: 80, l2: 1e-4, seed: 7 },
    );
    let gbdt = Gbdt::train(&train_rows, &train.defaulted, GbdtParams::default());
    let knn = WeightedKnn::fit(&train_rows, &train.defaulted, 15);

    // Graph scores (label-free).
    let cfg = workload::config().with_threads(workload::threads());
    let k_hint = (n / 10).max(1);
    let methods: Vec<(&str, Vec<f64>)> = vec![
        ("Wide (logreg)", logreg.predict_many(&eval_rows)),
        ("Deep (MLP)", mlp.predict_many(&eval_rows)),
        ("GBDT (stumps)", gbdt.predict_many(&eval_rows)),
        ("p-wkNN", knn.predict_many(&eval_rows)),
        ("Betweenness", betweenness(&g)),
        ("PageRank", pagerank(&g, PageRankParams::default())),
        ("K-core", core_numbers(&g).iter().map(|&c| c as f64).collect()),
        ("InfMax", influence_maximization(&g, k_hint, 2000, workload::seed()).coverage),
        ("BSRBK", score_nodes_bottomk(&g, k_hint, &cfg)),
        ("BSR", score_nodes_mc(&g, k_hint, &cfg)),
    ];

    let mut t = Table::new(&["Method", "AUC(y1)", "AUC(y2)", "AUC(y3)"]);
    for (name, scores) in &methods {
        let mut cells = vec![name.to_string()];
        for period in tests {
            let auc = roc_auc(scores, &period.defaulted).unwrap_or(f64::NAN);
            cells.push(f3(auc));
        }
        t.row(cells);
    }
    t.print();
    println!("\nExpected shape (paper): BSR ≳ BSRBK > feature models > InfMax/K-core > PageRank/Betweenness.");
}
