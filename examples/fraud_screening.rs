//! Fraud-ring screening on a consumer↔merchant trade network, comparing
//! VulnDS vulnerability scores against classical centralities — a
//! miniature of the paper's Table-3 case study.
//!
//! Run with `cargo run --release --example fraud_screening`.

use vulnds::baselines::{betweenness, draw_period_labels, pagerank, roc_auc, PageRankParams};
use vulnds::core::{score_nodes_bottomk, score_nodes_mc};
use vulnds::prelude::*;

fn main() {
    // 5%-scale Fraud network (Table 2 shape: bipartite trades with a hub
    // merchant, skewed-low financial probabilities).
    let graph = Dataset::Fraud.generate_scaled(99, 0.05);
    let stats = GraphStats::compute(&graph);
    println!("Trade network: {} accounts, {} trades", stats.nodes, stats.edges);

    // Observed fraud labels for one audit period, generated by the
    // contagion process, standing in for private audit records.
    let labels = &draw_period_labels(&graph, 1, 0.1, 424242)[0];
    println!("fraud rate this period: {:.1}%", labels.positive_rate() * 100.0);

    // Score all accounts four ways.
    let cfg = VulnConfig::default().with_seed(99).with_threads(4);
    let k_hint = (stats.nodes / 10).max(1);
    let methods: Vec<(&str, Vec<f64>)> = vec![
        ("BSR (MC scores)", score_nodes_mc(&graph, k_hint, &cfg)),
        ("BSRBK (sketch)", score_nodes_bottomk(&graph, k_hint, &cfg)),
        ("PageRank", pagerank(&graph, PageRankParams::default())),
        ("Betweenness", betweenness(&graph)),
    ];

    println!("\nScreening quality (ROC-AUC against this period's fraud):");
    for (name, scores) in &methods {
        let auc = roc_auc(scores, &labels.defaulted).unwrap_or(f64::NAN);
        println!("  {name:<18} AUC = {auc:.3}");
    }

    // Show the top suspects under the best method.
    let (_, best) = &methods[0];
    let top = vulnds::core::select_top_k_dense(best, 5);
    println!("\nTop-5 suspicious accounts (BSR):");
    for s in &top {
        println!(
            "  account {:<6} score {:.3}  ({} counterparties)",
            s.node.0,
            s.score,
            graph.degree(s.node)
        );
    }
    println!("\nExpected: probabilistic contagion scores beat structural centralities,");
    println!("because fraud here spreads through trades — not through raw connectivity.");
}
