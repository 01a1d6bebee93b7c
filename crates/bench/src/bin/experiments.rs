//! Regenerates every table and figure of the paper on the simulated fleet.
//!
//! ```text
//! cargo run -p wtts-bench --release --bin experiments -- all
//! cargo run -p wtts-bench --release --bin experiments -- fig5 fig6
//! cargo run -p wtts-bench --release --bin experiments -- --small fig9
//! ```
//!
//! Output goes to stdout; each table is also written as CSV under
//! `results/` unless `--no-csv` is given.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wtts_bench::experiments::{
    aggregation, applications, background, dominance, lagsearch, measures, motifs, robustness, sax,
    standard,
};
use wtts_gwsim::{Fleet, FleetConfig};

const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "fig1",
        "statistical portrait of a typical gateway (KDE, boxplots)",
    ),
    (
        "sec4-dist",
        "Zipf fits and in/out correlation (Section 4.1)",
    ),
    ("fig2", "autocorrelation and cross-correlation of gateways"),
    (
        "lag-search",
        "multi-scale lead/lag discovery across gateway pairs (Sec 4.2)",
    ),
    (
        "sec4-stat",
        "classical stationarity tests and device-count correlation",
    ),
    (
        "fig3",
        "hierarchical clustering of gateways at distance 0.4",
    ),
    (
        "fig4",
        "background threshold tau distribution and device types",
    ),
    (
        "fig5",
        "dominant devices: counts, types, baselines, residents",
    ),
    (
        "fig6",
        "weekly aggregation curves (midnight and 2am starts)",
    ),
    ("fig7", "stationary gateways per daily granularity"),
    ("fig8", "daily aggregation curves"),
    (
        "fig9-10",
        "motif support distributions and per-gateway participation",
    ),
    ("fig11", "weekly motifs of interest"),
    ("fig12-13", "dominant devices of weekly motifs"),
    ("fig14", "daily motifs of interest"),
    ("fig15-16", "dominant devices of daily motifs"),
    (
        "motifs-within",
        "personal (within-gateway) daily motifs (Sec 7.2 aside)",
    ),
    ("sec6-bg", "stationarity gain from background removal"),
    ("sec2-sax", "SAX alphabet pathology on Zipfian traffic"),
    (
        "sec5-measures",
        "measure scorecard: cor vs Euclidean vs DTW (Sec 5)",
    ),
    (
        "sec3-classifier",
        "device classifier validated on the survey subset",
    ),
    (
        "sec4-arima",
        "AR forecasting fails on bursty per-minute traffic",
    ),
    (
        "sec4-seasonal",
        "periodogram: no seasonal component at 1-min binning",
    ),
    (
        "app-maintenance",
        "per-gateway firmware-update window recommendations",
    ),
    (
        "app-troubleshoot",
        "anomaly detection against injected home faults",
    ),
    (
        "robustness",
        "headline statistics across seeds and deployment scenarios",
    ),
    (
        "ablation",
        "design-choice ablations (similarity max, motif factor)",
    ),
];

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
    for (id, desc) in EXPERIMENTS {
        eprintln!("  {id:<10} {desc}");
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
    if ids.iter().any(|i| i == "all") {
        ids = EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect();
    }

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

    let (heartbeat, heartbeat_handle) = Heartbeat::start(ids.len());
    // Figures 7 and 8 read the same daily sweep; compute it once on first use.
    let mut daily: Option<aggregation::DailyAnalysis> = None;
    // The motif experiments all read the two window families; each set
    // (windows + shared sketch index + motifs) is built once on first use.
    let mut weekly_set: Option<motifs::MotifSet> = None;
    let mut daily_set: Option<motifs::MotifSet> = None;
    for id in &ids {
        let started = Instant::now();
        let renders_before = Fleet::process_renders();
        heartbeat.begin(id);
        println!("==== {id} ====");
        match id.as_str() {
            "fig1" => standard::fig1(&fleet, out),
            "sec4-dist" => standard::sec4_dist(&fleet, out),
            "fig2" => standard::fig2(&fleet, out),
            "lag-search" => lagsearch::lag_search_experiment(&fleet, out),
            "sec4-stat" => standard::sec4_stat(&fleet, out),
            "fig3" => standard::fig3(&fleet, out),
            "fig4" => background::fig4(&fleet, out),
            "fig5" => dominance::fig5(&fleet, out),
            "fig6" => aggregation::fig6(&fleet, out),
            "fig7" => {
                let daily = daily.get_or_insert_with(|| aggregation::daily_analysis(&fleet));
                aggregation::fig7(daily, out);
            }
            "fig8" => {
                let daily = daily.get_or_insert_with(|| aggregation::daily_analysis(&fleet));
                aggregation::fig8(daily, out);
            }
            "fig9-10" => {
                let weekly = weekly_set.get_or_insert_with(|| motifs::weekly_motifs(&fleet));
                motifs::fig9_10(weekly, "weekly", out);
                let daily = daily_set.get_or_insert_with(|| motifs::daily_motifs(&fleet));
                motifs::fig9_10(daily, "daily", out);
            }
            "fig11" => {
                let weekly = weekly_set.get_or_insert_with(|| motifs::weekly_motifs(&fleet));
                motifs::fig11(weekly, out);
            }
            "fig12-13" => {
                let weekly = weekly_set.get_or_insert_with(|| motifs::weekly_motifs(&fleet));
                let sel = motifs::weekly_representatives(weekly);
                motifs::motif_dominance(&fleet, weekly, &sel, "weekly", out);
            }
            "fig14" => {
                let daily = daily_set.get_or_insert_with(|| motifs::daily_motifs(&fleet));
                motifs::fig14(daily, out);
            }
            "fig15-16" => {
                let daily = daily_set.get_or_insert_with(|| motifs::daily_motifs(&fleet));
                let sel = motifs::daily_representatives(daily);
                motifs::motif_dominance(&fleet, daily, &sel, "daily", out);
            }
            "motifs-within" => motifs::motifs_within_gateways(&fleet, out),
            "sec6-bg" => background::sec6_background_gain(&fleet, out),
            "sec4-arima" => applications::sec4_arima(&fleet, out),
            "sec4-seasonal" => applications::sec4_seasonal(&fleet, out),
            "app-maintenance" => applications::app_maintenance(&fleet, out),
            "app-troubleshoot" => applications::app_troubleshoot(&fleet, out),
            "sec2-sax" => sax::sec2_sax(&fleet, out),
            "sec5-measures" => measures::sec5_measures(&fleet, out),
            "sec3-classifier" => measures::sec3_classifier(&fleet, out),
            "robustness" => robustness::robustness(out),
            "ablation" => {
                dominance::ablation_similarity(&fleet, out);
                let weekly = weekly_set.get_or_insert_with(|| motifs::weekly_motifs(&fleet));
                motifs::ablation_group_factor(weekly, out);
            }
            other => {
                eprintln!("unknown experiment: {other}\n");
                usage();
            }
        }
        heartbeat.finish_one();
        println!(
            "[{id} done in {:.1}s, {} gateway renders]\n",
            started.elapsed().as_secs_f64(),
            Fleet::process_renders() - renders_before,
        );
    }
    heartbeat.stop.store(true, Ordering::Relaxed);
    heartbeat_handle.join().expect("heartbeat thread");
}
