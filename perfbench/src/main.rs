//! End-to-end benchmark of VulnDS on the paper's Table-2 graphs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-cold|serve-warm|serve-update --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, and the metrics
//! (end-to-end ones, or per-layer ones with `--trace 1`). See
//! `perfbench/README.md` for the workloads and every metric.

mod cold;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Scratch directory for generated graphs, logs and traces, relative
/// to the repository root.
pub const SCRATCH_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCold,
    ServeWarm,
    ServeUpdate,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-cold" => Some(Workload::PaperCold),
            "serve-warm" => Some(Workload::ServeWarm),
            "serve-update" => Some(Workload::ServeUpdate),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper-cold",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeUpdate => "serve-update",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fraction of the Table-2 sizes to generate (1.0 unless a smoke
    /// test asks for less).
    pub scale: f64,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut scale) = (None, None, false, 1.0);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("{flag}: invalid value {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--scale" => {
                    scale = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 1.0)
                        .ok_or_else(bad)?
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            scale,
        })
    }

    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(SCRATCH_DIR).join(format!(
            "trace-{}-seed{}.jsonl",
            self.workload.name(),
            self.seed
        ))
    }
}

/// The widest x86 vector extension this CPU offers, for the machine
/// line recorded with results.
fn simd_level() -> &'static str {
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
    }
    "baseline"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={} scale={} nproc={nproc} simd={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.scale,
        simd_level()
    );
    if let Err(e) = std::fs::create_dir_all(SCRATCH_DIR) {
        eprintln!("perfbench: creating {SCRATCH_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match opts.workload {
        Workload::PaperCold => cold::run(&opts),
        Workload::ServeWarm | Workload::ServeUpdate => serve::run(&opts),
    };
    match outcome.and_then(|o| o.to_json(opts.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = Options::parse(&args("--workload serve-update --seed 7 --seconds 10 --trace 1"))
            .unwrap();
        assert_eq!(o.workload, Workload::ServeUpdate);
        assert_eq!((o.seed, o.seconds, o.trace, o.scale), (7, 10.0, true, 1.0));
        assert!(Options::parse(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(Options::parse(&args("--workload paper-cold --seconds 1")).is_err());
        assert!(Options::parse(&args("--workload paper-cold --seed 1 --seconds 0")).is_err());
        assert!(
            Options::parse(&args("--workload paper-cold --seed 1 --seconds 1 --trace 2")).is_err()
        );
    }
}
