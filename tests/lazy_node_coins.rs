//! Count-based regression test for frontier-lazy node coins.
//!
//! BSRBK reads a reverse stream, which searches back from a few
//! candidates, so it should only draw coins for the nodes those
//! searches reach. A pass
//! that synthesizes every node's self-default word for every block
//! pays at least one coin word per node per sample it uses — the
//! floor this test asserts the served answer stays below.

use vulnds::cli::{parse, Command};
use vulnds::json::Json;
use vulnds::prelude::*;
use vulnds::serve::serve;

/// The engine configuration `vulnds serve <graph>` runs with.
fn serve_config() -> VulnConfig {
    let args = ["serve".to_string(), "graph.bin".to_string()];
    match parse(&args).expect("serve parses") {
        Command::Serve { config, .. } => config,
        other => panic!("not a serve command: {other:?}"),
    }
}

#[test]
fn bsrbk_draws_fewer_coin_words_per_sample_than_nodes() {
    for seed in [1u64, 2] {
        let graph = Dataset::Guarantee.generate_scaled(seed, 0.1);
        let n = graph.num_nodes();
        let detector = Detector::builder(graph).config(serve_config()).build().unwrap();
        let mut input = String::new();
        for (id, (k, epsilon)) in
            [(n / 100, 0.2), (n / 100, 0.1), (n / 50, 0.2), (n / 50, 0.1)].into_iter().enumerate()
        {
            input.push_str(&format!(
                "{{\"id\": {id}, \"k\": {}, \"algorithm\": \"bsrbk\", \"epsilon\": {epsilon}}}\n",
                k.max(1)
            ));
        }
        let mut output = Vec::new();
        serve(&detector, 1, input.as_bytes(), &mut output).expect("serve runs");
        let text = String::from_utf8(output).unwrap();
        let mut sampled = 0;
        for line in text.lines() {
            let response = Json::parse(line).unwrap();
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true), "{response}");
            let field = |group: &str, name: &str| {
                response.get(group).and_then(|g| g.get(name)).and_then(Json::as_u64).unwrap()
            };
            let samples = field("stats", "samples_used");
            if samples == 0 {
                continue; // bounds alone decided this query
            }
            sampled += 1;
            let per_sample = field("engine", "coin_words_synthesized") as f64 / samples as f64;
            assert!(
                per_sample < n as f64,
                "seed {seed}: {per_sample:.0} coin words per sample on a {n}-node graph: {line}"
            );
        }
        assert!(sampled > 0, "seed {seed}: no query sampled, so nothing was checked");
    }
}
