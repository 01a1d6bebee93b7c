//! Result reporting: named metrics with units, the correctness ledger, the
//! run manifest, and the peak-memory probe.

use std::fmt::Write as _;

/// Metrics in emission order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Prints one aligned line per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }
}

/// Every gated check: `ops` attempted, with a message per failure.
#[derive(Default)]
pub struct Ledger {
    pub ops: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one check; records `what` as a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            let msg = what();
            if self.failures.len() < 20 {
                eprintln!("check failed: {msg}");
            }
            self.failures.push(msg);
        }
    }
}

/// A flat JSON object of preformatted values, for the run manifest.
#[derive(Default)]
pub struct Manifest(Vec<(String, String)>);

impl Manifest {
    pub fn num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.0.push((key.to_string(), value.to_string()));
    }

    pub fn text(&mut self, key: &str, value: &str) {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push((key.to_string(), format!("\"{escaped}\"")));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
        }
        out.push('}');
        out
    }
}

/// Prints the manifest line, the line of headline figures under the names
/// the documentation uses, and, last, the result line the orchestrator
/// parses.
pub fn emit(manifest: &Manifest, named: &Metrics, ledger: &Ledger, metrics: &Metrics) {
    println!("manifest {}", manifest.to_json());
    println!("named {}", named.to_json());
    metrics.print();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.failures.is_empty(),
        ledger.ops,
        ledger.failures.len(),
        metrics.to_json()
    );
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The thread count every parallel stage of the library picks on this
/// machine (`std::thread::available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
