//! Workload worker of the repository benchmark.
//!
//! ```text
//! perfbench <workload> --seed N --seconds S --trace 0|1 --work DIR
//!           [--tiny] [--inject mismatch] [--ids a,b,c] [--out DIR]
//! ```
//!
//! `perfbench/run.py` builds this binary and launches one process per
//! workload; see `perfbench/README.md`. Each process prints a run manifest
//! line, a table of its metrics and, last, one JSON result line.

mod ingest;
mod paper;
mod report;
mod similarity;
mod trace;

use report::{median, Metrics};
use std::path::PathBuf;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    /// Tiny input sizes, for the benchmark's self-test.
    pub tiny: bool,
    /// `mismatch`: corrupt one expected value, so the self-test can see
    /// the failure counted.
    pub inject: Option<String>,
    /// paper-small: experiment ids in run order.
    pub ids: Vec<String>,
    /// paper-small: directory the CSVs are written under.
    pub out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench <paper-small|ingest-recover|fleet-similarity> --seed N --seconds S \
         --trace 0|1 --work DIR [--tiny] [--inject mismatch] [--ids a,b,c] [--out DIR]"
    );
    std::process::exit(2);
}

fn parse() -> (String, Opts) {
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| usage());
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".bench_work"),
        tiny: false,
        inject: None,
        ids: Vec::new(),
        out: PathBuf::new(),
    };
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            opts.tiny = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = value == "1",
            "--work" => opts.work = PathBuf::from(value),
            "--inject" => opts.inject = Some(value),
            "--ids" => opts.ids = value.split(',').map(str::to_string).collect(),
            "--out" => opts.out = PathBuf::from(value),
            _ => usage(),
        }
    }
    (workload, opts)
}

/// A workload-specific seed derived from the run seed (splitmix64), so
/// each input stream of a workload changes with `--seed` independently.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Thread and shard count for every stage whose count the benchmark sets:
/// two, or fewer on a smaller machine.
pub fn pinned_threads() -> usize {
    report::nproc().min(2)
}

/// The unit of a per-layer metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_ms_p50") {
        "ms"
    } else if name.ends_with("_ns_le") {
        "ns"
    } else if name.ends_with("_per_report") || name.ends_with("_bytes") {
        "bytes"
    } else if name.ends_with("_coverage") || name.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    }
}

/// Sets each metric of `rows` (one row per traced pass, same names in the
/// same order) to its median over the passes.
pub fn set_medians(metrics: &mut Metrics, rows: &[Vec<(&'static str, f64)>]) {
    for (k, (name, _)) in rows[0].iter().enumerate() {
        let values: Vec<f64> = rows.iter().map(|r| r[k].1).collect();
        metrics.set(name, median(&values), unit_of(name));
    }
}

/// Writes the run's spans to `<work>/spans/<workload>-seed<N>.json`.
pub fn write_spans(tracer: &trace::Tracer, opts: &Opts, workload: &str) {
    let path = opts
        .work
        .join("spans")
        .join(format!("{workload}-seed{}.json", opts.seed));
    tracer.write(&path).expect("write span file");
    println!("spans written to {}", path.display());
}

fn main() {
    let (workload, opts) = parse();
    match workload.as_str() {
        "paper-small" => paper::run(&opts),
        "ingest-recover" => ingest::run(&opts),
        "fleet-similarity" => similarity::run(&opts),
        _ => usage(),
    }
}
