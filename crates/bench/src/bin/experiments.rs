//! Regenerates every table and figure of the paper on the simulated fleet.
//!
//! ```text
//! cargo run -p wtts-bench --release --bin experiments -- all
//! cargo run -p wtts-bench --release --bin experiments -- fig5 fig6
//! cargo run -p wtts-bench --release --bin experiments -- --small fig9
//! ```
//!
//! Output goes to stdout; each table is also written as CSV under
//! `results/` unless `--no-csv` is given. Every id is checked against the
//! registry (`wtts_bench::experiments::EXPERIMENTS`) before any work, and
//! all selected experiments read the fleet through one shared walk.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wtts_bench::experiments::{self, EXPERIMENTS};
use wtts_gwsim::{Fleet, FleetConfig};

/// Shared progress state for the heartbeat line: which experiment is
/// running and how many are done, updated by the main loop and printed
/// periodically by a watcher thread so long runs are visibly alive.
struct Heartbeat {
    done: AtomicUsize,
    total: usize,
    current: Mutex<String>,
    stop: AtomicBool,
    started: Instant,
}

impl Heartbeat {
    fn start(total: usize) -> (Arc<Heartbeat>, std::thread::JoinHandle<()>) {
        let hb = Arc::new(Heartbeat {
            done: AtomicUsize::new(0),
            total,
            current: Mutex::new(String::new()),
            stop: AtomicBool::new(false),
            started: Instant::now(),
        });
        let watcher = Arc::clone(&hb);
        let handle = std::thread::spawn(move || {
            // Tick in short sleeps so shutdown is prompt, print every ~15 s.
            let mut last_beat = Instant::now();
            while !watcher.stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(250));
                if last_beat.elapsed() < Duration::from_secs(15) {
                    continue;
                }
                last_beat = Instant::now();
                let current = watcher.current.lock().expect("heartbeat lock").clone();
                println!(
                    "[heartbeat] {:.0}s elapsed, {}/{} experiments done, running: {current}",
                    watcher.started.elapsed().as_secs_f64(),
                    watcher.done.load(Ordering::Relaxed),
                    watcher.total,
                );
            }
        });
        (hb, handle)
    }

    fn begin(&self, id: &str) {
        *self.current.lock().expect("heartbeat lock") = id.to_string();
    }

    fn finish_one(&self) {
        self.done.fetch_add(1, Ordering::Relaxed);
    }
}

fn usage() -> ! {
    eprintln!("usage: experiments [--small] [--no-csv] [--seed N] <id>... | all\n");
    eprintln!("experiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<10} {}", e.id, e.description);
    }
    std::process::exit(2);
}

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut small = false;
    let mut csv = true;
    let mut seed: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => small = true,
            "--no-csv" => csv = false,
            "--seed" => {
                seed = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "-h" | "--help" => usage(),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
    }
    let selected = experiments::resolve(&ids).unwrap_or_else(|e| {
        eprintln!("{e}\n");
        usage()
    });

    let mut config = if small {
        FleetConfig {
            n_gateways: 24,
            weeks: 4,
            ..FleetConfig::default()
        }
    } else {
        FleetConfig::default()
    };
    if let Some(s) = seed {
        config.seed = s;
    }
    let fleet = Fleet::new(config);
    println!(
        "fleet: {} gateways, {} weeks, seed {:#x}\n",
        fleet.len(),
        fleet.config().weeks,
        fleet.config().seed
    );

    let out_dir: Option<PathBuf> = csv.then(|| Path::new("results").to_path_buf());
    let out = out_dir.as_deref();

    let (heartbeat, heartbeat_handle) = Heartbeat::start(selected.len());
    // Every selected experiment's folds ride the same walk: each gateway
    // is rendered once for all of them (plus once more if a top-N or
    // motif-member experiment reads it), then each finish step runs in
    // order.
    let (plan, finishes) = experiments::plan(&fleet, &selected);
    heartbeat.begin("fleet walk");
    let started = Instant::now();
    let renders_before = Fleet::process_renders();
    let mut results = plan.walk();
    println!(
        "[walk done in {:.1}s, {} gateway renders]\n",
        started.elapsed().as_secs_f64(),
        Fleet::process_renders() - renders_before,
    );
    for (e, finish) in selected.iter().zip(finishes) {
        let started = Instant::now();
        let renders_before = Fleet::process_renders();
        heartbeat.begin(e.id);
        println!("==== {} ====", e.id);
        finish(&mut results, out);
        heartbeat.finish_one();
        println!(
            "[{} done in {:.1}s, {} gateway renders]\n",
            e.id,
            started.elapsed().as_secs_f64(),
            Fleet::process_renders() - renders_before,
        );
    }
    heartbeat.stop.store(true, Ordering::Relaxed);
    heartbeat_handle.join().expect("heartbeat thread");
}
