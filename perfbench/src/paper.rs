//! Traced `paper-small`: the `experiments` runner's dispatch, replayed
//! in-process with a span around every experiment and every shared build.
//!
//! The untraced `paper_s` times the shipped runner binary itself (the
//! orchestrator launches it); this module exists only to split that time
//! by experiment. It mirrors the runner's match arms: each shared build
//! (the daily sweep and the two motif families) is computed on first use
//! and gets its own span, so `experiments.<id>_s` is the experiment's
//! self time whichever experiment happens to pay for a build.

use crate::report::{median, Ledger, Manifest, Metrics};
use crate::trace::{self, Tracer};
use crate::Opts;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Instant, SystemTime};
use wtts_bench::experiments::{
    aggregation, applications, background, dominance, lagsearch, measures, motifs, robustness, sax,
    standard,
};
use wtts_gwsim::{Fleet, FleetConfig};

/// Every experiment id of the runner, in its own order.
pub const EXPERIMENTS: [&str; 27] = [
    "fig1",
    "sec4-dist",
    "fig2",
    "lag-search",
    "sec4-stat",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9-10",
    "fig11",
    "fig12-13",
    "fig14",
    "fig15-16",
    "motifs-within",
    "sec6-bg",
    "sec2-sax",
    "sec5-measures",
    "sec3-classifier",
    "sec4-arima",
    "sec4-seasonal",
    "app-maintenance",
    "app-troubleshoot",
    "robustness",
    "ablation",
];

/// The runner's shared builds, each computed once on first use.
#[derive(Default)]
struct Shared {
    daily: Option<aggregation::DailyAnalysis>,
    weekly_set: Option<motifs::MotifSet>,
    daily_set: Option<motifs::MotifSet>,
}

impl Shared {
    fn daily(&mut self, fleet: &Fleet, t: &mut Tracer) -> &aggregation::DailyAnalysis {
        if self.daily.is_none() {
            let built = t.span("experiments.daily_analysis", |_| {
                aggregation::daily_analysis(fleet)
            });
            self.daily = Some(built);
        }
        self.daily.as_ref().expect("built above")
    }

    fn weekly_set(&mut self, fleet: &Fleet, t: &mut Tracer) -> &motifs::MotifSet {
        if self.weekly_set.is_none() {
            let built = t.span("experiments.weekly_motifs", |_| {
                motifs::weekly_motifs(fleet)
            });
            self.weekly_set = Some(built);
        }
        self.weekly_set.as_ref().expect("built above")
    }

    fn daily_set(&mut self, fleet: &Fleet, t: &mut Tracer) -> &motifs::MotifSet {
        if self.daily_set.is_none() {
            let built = t.span("experiments.daily_motifs", |_| motifs::daily_motifs(fleet));
            self.daily_set = Some(built);
        }
        self.daily_set.as_ref().expect("built above")
    }
}

fn dispatch(id: &str, fleet: &Fleet, shared: &mut Shared, out: Option<&Path>, t: &mut Tracer) {
    match id {
        "fig1" => standard::fig1(fleet, out),
        "sec4-dist" => standard::sec4_dist(fleet, out),
        "fig2" => standard::fig2(fleet, out),
        "lag-search" => lagsearch::lag_search_experiment(fleet, out),
        "sec4-stat" => standard::sec4_stat(fleet, out),
        "fig3" => standard::fig3(fleet, out),
        "fig4" => background::fig4(fleet, out),
        "fig5" => dominance::fig5(fleet, out),
        "fig6" => aggregation::fig6(fleet, out),
        "fig7" => aggregation::fig7(shared.daily(fleet, t), out),
        "fig8" => aggregation::fig8(shared.daily(fleet, t), out),
        "fig9-10" => {
            motifs::fig9_10(shared.weekly_set(fleet, t), "weekly", out);
            motifs::fig9_10(shared.daily_set(fleet, t), "daily", out);
        }
        "fig11" => motifs::fig11(shared.weekly_set(fleet, t), out),
        "fig12-13" => {
            let weekly = shared.weekly_set(fleet, t);
            let sel = motifs::weekly_representatives(weekly);
            motifs::motif_dominance(fleet, weekly, &sel, "weekly", out);
        }
        "fig14" => motifs::fig14(shared.daily_set(fleet, t), out),
        "fig15-16" => {
            let daily = shared.daily_set(fleet, t);
            let sel = motifs::daily_representatives(daily);
            motifs::motif_dominance(fleet, daily, &sel, "daily", out);
        }
        "motifs-within" => motifs::motifs_within_gateways(fleet, out),
        "sec6-bg" => background::sec6_background_gain(fleet, out),
        "sec4-arima" => applications::sec4_arima(fleet, out),
        "sec4-seasonal" => applications::sec4_seasonal(fleet, out),
        "app-maintenance" => applications::app_maintenance(fleet, out),
        "app-troubleshoot" => applications::app_troubleshoot(fleet, out),
        "sec2-sax" => sax::sec2_sax(fleet, out),
        "sec5-measures" => measures::sec5_measures(fleet, out),
        "sec3-classifier" => measures::sec3_classifier(fleet, out),
        "robustness" => robustness::robustness(out),
        "ablation" => {
            dominance::ablation_similarity(fleet, out);
            motifs::ablation_group_factor(shared.weekly_set(fleet, t), out);
        }
        other => panic!("unknown experiment id {other}"),
    }
}

/// `(name, bytes, modified)` of every file in `dir`, sorted by name.
fn csv_files(dir: &Path) -> Vec<(String, u64, SystemTime)> {
    let mut files: Vec<(String, u64, SystemTime)> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .map(|e| {
                let e = e.expect("read results entry");
                let meta = e.metadata().expect("results entry metadata");
                let modified = meta.modified().expect("results entry mtime");
                (
                    e.file_name().to_string_lossy().into_owned(),
                    meta.len(),
                    modified,
                )
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    files.sort();
    files
}

/// One traced pass of the paper-small workload over `opts.ids` (`all`: every
/// experiment in the runner's order). CSVs go to `<opts.out>/results`,
/// where the orchestrator checks their digests.
pub fn run(opts: &Opts) {
    let ids: Vec<String> = if opts.ids == ["all"] {
        EXPERIMENTS.iter().map(|id| id.to_string()).collect()
    } else {
        opts.ids.clone()
    };
    let config = FleetConfig {
        n_gateways: 24,
        weeks: 4,
        seed: opts.seed,
        ..FleetConfig::default()
    };
    let out_dir = opts.out.join("results");
    let out = Some(out_dir.as_path());
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new(true);
    let mut csv_owner: Vec<(String, String)> = Vec::new();

    let started = Instant::now();
    tracer.span("gwsim.fleet_render", |t| {
        let fleet = Fleet::new(config.clone());
        for id in 0..fleet.len() {
            t.span("gwsim.render", |_| drop(fleet.gateway(id)));
        }
    });
    let fleet = tracer.span("experiments.fleet_new", |_| Fleet::new(config.clone()));
    let mut shared = Shared::default();
    for id in &ids {
        let before = csv_files(&out_dir);
        let ok = tracer.span(&format!("experiments.{id}"), |t| {
            catch_unwind(AssertUnwindSafe(|| {
                dispatch(id, &fleet, &mut shared, out, t)
            }))
            .is_ok()
        });
        ledger.check(ok, || format!("experiment {id} panicked"));
        for file in csv_files(&out_dir) {
            if !before.contains(&file) {
                csv_owner.push((file.0, id.clone()));
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();

    let spans = tracer.since(0);
    let mut metrics = Metrics::default();
    for id in EXPERIMENTS {
        let name = format!("experiments.{id}");
        metrics.set(&format!("{name}_s"), trace::self_s(spans, 0, &name), "s");
    }
    for build in ["daily_analysis", "weekly_motifs", "daily_motifs"] {
        let name = format!("experiments.{build}");
        metrics.set(&format!("{name}_s"), trace::total_s(spans, &name), "s");
    }
    let csv_bytes: u64 = csv_files(&out_dir).iter().map(|f| f.1).sum();
    metrics.set("report.csv_bytes", csv_bytes as f64, "bytes");
    let render_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "gwsim.render")
        .map(|s| s.secs() * 1e3)
        .collect();
    metrics.set(
        "gwsim.fleet_render_s",
        trace::total_s(spans, "gwsim.fleet_render"),
        "s",
    );
    metrics.set("gwsim.render_ms_p50", median(&render_ms), "ms");
    let unattributed = trace::unattributed_s(spans, 0, wall);
    metrics.set("paper-small.unattributed_s", unattributed, "s");
    metrics.set(
        "paper-small.span_coverage",
        1.0 - unattributed / wall,
        "ratio",
    );
    // No untraced pass runs beside the replay (it would double a run of
    // about a minute), so the overhead is the spans' own cost.
    metrics.set(
        "paper-small.trace_overhead_s",
        spans.len() as f64 * trace::span_cost_s(),
        "s",
    );

    let mut manifest = Manifest::default();
    manifest.text("workload", "paper-small");
    manifest.num("fleet_seed", config.seed);
    manifest.num("gateways", config.n_gateways);
    manifest.num("weeks", config.weeks);
    manifest.num("experiments", ids.len());
    manifest.num("traced_wall_s", wall);
    let owners: Vec<String> = csv_owner
        .iter()
        .map(|(csv, id)| format!("{csv}={id}"))
        .collect();
    manifest.text("csv_owner", &owners.join(";"));
    crate::write_spans(&tracer, opts, "paper-small");
    crate::report::emit(&manifest, &Metrics::default(), &ledger, &metrics);
}
