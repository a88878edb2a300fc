//! Runs every workload at a tiny scale, untraced and traced, and checks
//! that each result line carries exactly the metrics `BENCHMARK.json`
//! declares, by name and unit, with every answer checked correct.
//!
//! The serve workloads build the repository's `vulnds` binary first,
//! so the first run takes as long as that build.

use std::path::Path;
use std::process::Command;

use vulnds::json::Json;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the benchmark sits in the repository")
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let spec = Json::parse(&text).unwrap();
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
    spec.get(section)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace])
        .args(["--scale", "0.02"])
        .current_dir(repo_root())
        .output()
        .expect("the benchmark runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} --trace {trace} failed: {stderr}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    Json::parse(stdout.lines().last().expect("a result line")).unwrap()
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for workload in ["paper-cold", "serve-warm", "serve-update"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}: {result}");
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object in {result}")
            };
            let reported: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has no value");
                    (name.clone(), m.get("unit").and_then(Json::as_str).unwrap().to_string())
                })
                .collect();
            assert_eq!(reported, declared(section), "{workload} --trace {trace}");
        }
    }
    assert!(repo_root().join(".perfbench/trace-serve-update-seed3.jsonl").is_file());
}
