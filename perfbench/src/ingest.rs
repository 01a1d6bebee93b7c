//! `ingest-recover`: durable streaming ingest, a crash, and recovery.
//!
//! Set-up renders a fleet week through the lossy collector channel and
//! learns daily motif templates from a separate training fleet. One timed
//! pass is a closed loop (one producer, fed as fast as the bounded shard
//! queues accept):
//!
//! 1. an uninterrupted `DurablePipeline` run (default snapshot cadence, no
//!    fsync);
//! 2. a second run on a fresh directory, killed with `KillMode::Abort` at
//!    60% of the stream, whose snapshot cadence is longer than the stream so
//!    recovery must replay the whole multi-million-report WAL prefix;
//! 3. `DurablePipeline::recover`, then a re-feed of the stream to
//!    completion.

use crate::report::{median, peak_rss_mib, Ledger, Manifest, Metrics};
use crate::trace::{self, Tracer};
use crate::Opts;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;
use wtts_core::ingest::{IngestConfig, IngestPipeline, IngestReport, IngestSummary};
use wtts_core::motif::{discover_motifs, MotifConfig};
use wtts_core::obs::HistogramSnapshot;
use wtts_core::{
    wal_disk_usage, Durability, DurableConfig, DurablePipeline, DurableRun, KillMode, KillPoint,
    MotifTemplate,
};
use wtts_gwsim::{gateway_reports, ChannelConfig, Fleet, FleetConfig, TaggedReport};
use wtts_timeseries::{aggregate, daily_windows, Granularity};

/// Share of the stream offered before the crash of step 2.
const CRASH_AT: f64 = 0.6;
/// Set-up renders the fleet; `setup_s` is the median of this many.
const SETUP_REPEATS: usize = 3;

struct Inputs {
    reports: Vec<IngestReport>,
    templates: Vec<MotifTemplate>,
    render_ms: Vec<f64>,
    render_s: f64,
}

fn envelope(t: &TaggedReport) -> IngestReport {
    IngestReport {
        gateway: t.gateway as u64,
        device: t.device as u32,
        at: t.report.at,
        cum_in: t.report.cum_in,
        cum_out: t.report.cum_out,
    }
}

/// Renders gateways in id order until the stream holds `n_reports`
/// reports, and cuts it there: a fixed stream length keeps run time and
/// memory comparable across seeds (gateways differ in device count).
fn set_up(
    fleet: &FleetConfig,
    training: &FleetConfig,
    channel_seed: u64,
    n_reports: usize,
) -> Inputs {
    let mut windows = Vec::new();
    for gw in Fleet::new(training.clone()).iter() {
        let agg = aggregate(&gw.aggregate_total(), Granularity::hours(3), 0);
        for w in daily_windows(&agg, training.weeks, 0) {
            windows.push(w.series.into_values());
        }
    }
    let templates = discover_motifs(&windows, &MotifConfig::default())
        .iter()
        .filter(|m| m.support() >= 4)
        .enumerate()
        .map(|(k, m)| m.to_template(format!("motif-{}", k + 1), &windows))
        .collect();

    let channel = ChannelConfig {
        loss: 0.02,
        duplication: 0.01,
        reorder: 0.01,
    };
    let fleet = Fleet::new(fleet.clone());
    let mut reports = Vec::with_capacity(n_reports);
    let mut render_ms = Vec::new();
    for id in 0..fleet.len() {
        if reports.len() == n_reports {
            break;
        }
        let t = Instant::now();
        let gw = fleet.gateway(id);
        render_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut rng = SmallRng::seed_from_u64(channel_seed.wrapping_add(id as u64));
        let room = n_reports - reports.len();
        reports.extend(
            gateway_reports(&gw, channel, &mut rng)
                .iter()
                .take(room)
                .map(envelope),
        );
    }
    assert_eq!(
        reports.len(),
        n_reports,
        "the fleet is too small for the stream"
    );
    Inputs {
        reports,
        templates,
        render_s: render_ms.iter().sum::<f64>() / 1e3,
        render_ms,
    }
}

/// What one pass produced, for the checks and the per-layer metrics.
struct PassOutput {
    live: IngestSummary,
    live_digest: u64,
    live_durability: Durability,
    live_wal_bytes: u64,
    run_s: f64,
    killed: bool,
    replayed: u64,
    recover_s: f64,
    recovered: IngestSummary,
    recovered_digest: u64,
    recovered_durability: Durability,
}

fn completed(run: DurableRun) -> (IngestSummary, u64, Option<Durability>) {
    match run {
        DurableRun::Completed {
            summary,
            state_digest,
            durability,
        } => (*summary, state_digest, Some(durability)),
        DurableRun::Killed => panic!("no kill point was armed"),
    }
}

fn pass(inputs: &Inputs, config: &IngestConfig, work: &Path, tracer: &mut Tracer) -> PassOutput {
    let reports = &inputs.reports;
    let templates = &inputs.templates;
    let live_dir = work.join("uninterrupted");
    let crash_dir = work.join("crashed");

    let t = Instant::now();
    let (live, live_digest, live_durability) = tracer.span("durable.run", |_| {
        let mut p = DurablePipeline::create(
            config.clone(),
            templates.clone(),
            DurableConfig::new(&live_dir),
        )
        .expect("create durable pipeline");
        completed(p.run(reports.iter().copied(), None).expect("durable run"))
    });
    let run_s = t.elapsed().as_secs_f64();
    let live_wal_bytes = if tracer.enabled() {
        tracer.span("durable.inspect", |_| {
            wal_disk_usage(&live_dir).expect("measure WAL disk usage")
        })
    } else {
        0
    };

    let mut crash = DurableConfig::new(&crash_dir);
    crash.snapshot_every_reports = u64::MAX;
    let kill = KillPoint {
        after_offered: (reports.len() as f64 * CRASH_AT) as u64,
        mode: KillMode::Abort,
    };
    let killed = tracer.span("durable.crash_run", |_| {
        let mut p = DurablePipeline::create(config.clone(), templates.clone(), crash.clone())
            .expect("create durable pipeline");
        matches!(
            p.run(reports.iter().copied(), Some(kill))
                .expect("crash run"),
            DurableRun::Killed
        )
    });

    let t = Instant::now();
    let mut recovered = tracer.span("durable.recover", |_| {
        DurablePipeline::recover(config.clone(), templates.clone(), crash.clone())
            .expect("recover durable pipeline")
    });
    let recover_s = t.elapsed().as_secs_f64();
    let replayed = recovered.metrics().snapshot().wal_records;
    let (recovered, recovered_digest, recovered_durability) = tracer.span("durable.refeed", |_| {
        completed(
            recovered
                .run(reports.iter().copied(), None)
                .expect("re-feed run"),
        )
    });

    tracer.span("durable.cleanup", |_| {
        for dir in [&live_dir, &crash_dir] {
            std::fs::remove_dir_all(dir).expect("remove WAL directory");
        }
    });
    PassOutput {
        live,
        live_digest,
        live_durability: live_durability.expect("completed run"),
        live_wal_bytes,
        run_s,
        killed,
        replayed,
        recover_s,
        recovered,
        recovered_digest,
        recovered_durability: recovered_durability.expect("completed run"),
    }
}

fn check(out: &PassOutput, inject: bool, ledger: &mut Ledger) {
    let live = &out.live.metrics;
    let rec = &out.recovered.metrics;
    ledger.check(
        live.fully_accounted()
            && live.durably_accounted()
            && out.live_durability == Durability::Durable,
        || {
            format!(
                "uninterrupted run books or durability: {:?}",
                out.live_durability
            )
        },
    );
    ledger.check(out.killed, || "the crash run was not killed".into());
    ledger.check(out.replayed > 0, || {
        "recovery replayed no WAL records".into()
    });
    ledger.check(
        rec.fully_accounted()
            && rec.durably_accounted()
            && out.recovered_durability == Durability::Durable,
        || {
            format!(
                "recovered run books or durability: {:?}",
                out.recovered_durability
            )
        },
    );
    let expected = out.live_digest ^ u64::from(inject);
    ledger.check(out.recovered_digest == expected, || {
        format!(
            "recovered state digest {:016x} != uninterrupted {expected:016x}",
            out.recovered_digest
        )
    });
    ledger.check(
        rec.replay_invariant_core() == live.replay_invariant_core()
            && out.recovered.gateways == out.live.gateways
            && out.recovered.support == out.live.support,
        || "recovered summary differs from the uninterrupted one".into(),
    );
}

/// Merges per-shard histograms (bucket-wise sums).
fn merged(hists: impl Iterator<Item = HistogramSnapshot>) -> HistogramSnapshot {
    let mut counts: Vec<u64> = Vec::new();
    for h in hists {
        if counts.len() < h.counts.len() {
            counts.resize(h.counts.len(), 0);
        }
        for (c, v) in counts.iter_mut().zip(&h.counts) {
            *c += v;
        }
    }
    HistogramSnapshot { counts }
}

pub fn run(opts: &Opts) {
    // Gateways are rendered only until the stream is full (~190 of them).
    let fleet = FleetConfig {
        n_gateways: 400,
        weeks: 1,
        seed: crate::derive_seed(opts.seed, 0xF1EE7),
        ..FleetConfig::default()
    };
    let training = FleetConfig {
        n_gateways: if opts.tiny { 4 } else { 24 },
        weeks: 2,
        seed: crate::derive_seed(opts.seed, 0x7EAC4),
        ..FleetConfig::default()
    };
    let channel_seed = crate::derive_seed(opts.seed, 0xC4A2);
    let config = IngestConfig {
        shards: crate::pinned_threads(),
        ..IngestConfig::default()
    };
    // Scratch space of this workload only; an interrupted earlier run may
    // have left WAL directories and a stale lock behind.
    let work = opts.work.join("ingest-recover");
    if work.exists() {
        std::fs::remove_dir_all(&work).expect("clear the ingest work directory");
    }
    let n_reports = if opts.tiny { 200_000 } else { 7_000_000 };

    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(set_up(&fleet, &training, channel_seed, n_reports));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran");
    let inject = opts.inject.as_deref() == Some("mismatch");

    let mut ledger = Ledger::default();
    let mut untraced = Tracer::new(false);
    let mut pass_s = Vec::new();
    let mut rates = Vec::new();
    let mut recover_s = Vec::new();
    let mut peak_rss = 0.0;
    let started = Instant::now();
    while pass_s.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let out = pass(&inputs, &config, &work, &mut untraced);
        pass_s.push(t.elapsed().as_secs_f64());
        // The peak of one pass, as in fleet-similarity.
        if pass_s.len() == 1 {
            peak_rss = peak_rss_mib();
        }
        check(&out, inject, &mut ledger);
        recover_s.push(out.recover_s);
        rates.push(out.live.metrics.offered as f64 / out.run_s);
    }

    let mut manifest = Manifest::default();
    manifest.text("workload", "ingest-recover");
    manifest.num("seed", opts.seed);
    manifest.num("fleet_seed", fleet.seed);
    manifest.num("gateways", inputs.render_ms.len());
    manifest.num("weeks", fleet.weeks);
    manifest.num("training_seed", training.seed);
    manifest.num("training_gateways", training.n_gateways);
    manifest.num("training_weeks", training.weeks);
    manifest.num("templates", inputs.templates.len());
    manifest.num("channel_seed", channel_seed);
    manifest.num("reports", inputs.reports.len());
    manifest.num("shards", config.shards);
    manifest.num("batch_reports", config.batch_reports);
    manifest.num("queue_batches", config.queue_batches);
    manifest.num(
        "crash_at_offered",
        (inputs.reports.len() as f64 * CRASH_AT) as u64,
    );
    manifest.num("passes", pass_s.len());

    let mut metrics = Metrics::default();
    let mut named = Metrics::default();
    named.set("ingest_reports_per_s", median(&rates), "1/s");
    named.set("recover_s", median(&recover_s), "s");
    if !opts.trace {
        metrics.set("setup_s", median(&setup_s), "s");
        metrics.set("pass_s", median(&pass_s), "s");
        metrics.set("peak_rss_mib", peak_rss, "MiB");
    } else {
        let untraced_pass_s = median(&pass_s);
        let passes = traced(
            &inputs,
            &config,
            &work,
            opts,
            untraced_pass_s,
            &mut ledger,
            &mut metrics,
        );
        manifest.num("traced_passes", passes);
    }
    crate::report::emit(&manifest, &named, &ledger, &metrics);
}

/// Re-runs the pass with spans, plus an in-memory `IngestPipeline::run`
/// over the same stream that splits decode cost from WAL cost, and fills
/// the per-layer metrics (medians over the traced passes).
fn traced(
    inputs: &Inputs,
    config: &IngestConfig,
    work: &Path,
    opts: &Opts,
    untraced_pass_s: f64,
    ledger: &mut Ledger,
    metrics: &mut Metrics,
) -> usize {
    let inject = opts.inject.as_deref() == Some("mismatch");
    let mut tracer = Tracer::new(true);
    let mut rows: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut overheads = Vec::new();
    let started = Instant::now();
    while rows.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let mark = tracer.mark();
        let t = Instant::now();
        let mem = tracer.span("ingest.mem_run", |_| {
            IngestPipeline::new(config.clone(), inputs.templates.clone())
                .run(inputs.reports.iter().copied())
        });
        let out = pass(inputs, config, work, &mut tracer);
        let wall = t.elapsed().as_secs_f64();
        check(&out, inject, ledger);
        ledger.check(mem.metrics.fully_accounted(), || {
            "in-memory run books do not balance".into()
        });
        let spans = tracer.since(mark);
        let mem_run_s = trace::total_s(spans, "ingest.mem_run");
        overheads.push(wall - mem_run_s - untraced_pass_s);
        let m = &out.live.metrics;
        let run_s = trace::total_s(spans, "durable.run");
        let recover_s = trace::total_s(spans, "durable.recover");
        let batch = merged(m.per_shard.iter().map(|s| s.batch_stage.latency_ns.clone()));
        let append = merged(m.per_shard.iter().map(|s| s.wal_append.latency_ns.clone()));
        let unattributed = trace::unattributed_s(spans, mark, wall);
        rows.push(vec![
            ("ingest.mem_run_s", mem_run_s),
            ("ingest.reports_per_s", m.offered as f64 / run_s),
            ("ingest.offered", m.offered as f64),
            ("ingest.ingested", m.ingested as f64),
            ("ingest.dropped_late", m.dropped_late as f64),
            ("ingest.dropped_duplicate", m.dropped_duplicate as f64),
            ("ingest.dropped_future_jump", m.dropped_future_jump as f64),
            ("ingest.windows_sealed", m.windows_sealed as f64),
            ("ingest.windows_matched", m.windows_matched as f64),
            (
                "ingest.queue_peak_max",
                m.per_shard.iter().map(|s| s.queue_peak).max().unwrap_or(0) as f64,
            ),
            ("ingest.batch_p50_ns_le", batch.quantile_upper(0.5) as f64),
            ("ingest.batch_p99_ns_le", batch.quantile_upper(0.99) as f64),
            ("durable.run_s", run_s),
            (
                "durable.wal_append_p99_ns_le",
                append.quantile_upper(0.99) as f64,
            ),
            ("durable.snapshots_written", m.snapshots_written as f64),
            ("durable.segments_created", m.wal_segments_created as f64),
            (
                "durable.segments_compacted",
                m.wal_segments_compacted as f64,
            ),
            (
                "durable.wal_bytes_per_report",
                out.live_wal_bytes as f64 / m.offered as f64,
            ),
            ("durable.wal_io_retries", m.wal_io_retries as f64),
            (
                "durable.crash_run_s",
                trace::total_s(spans, "durable.crash_run"),
            ),
            ("durable.recover_s", recover_s),
            ("durable.replay_reports", out.replayed as f64),
            (
                "durable.replay_reports_per_s",
                out.replayed as f64 / recover_s,
            ),
            ("durable.refeed_s", trace::total_s(spans, "durable.refeed")),
            ("ingest-recover.unattributed_s", unattributed),
            ("ingest-recover.span_coverage", 1.0 - unattributed / wall),
        ]);
    }
    crate::set_medians(metrics, &rows);
    metrics.set("ingest-recover.trace_overhead_s", median(&overheads), "s");
    // The simulator layer runs in set-up here: one render of the ingest
    // fleet, timed per gateway.
    metrics.set("gwsim.fleet_render_s", inputs.render_s, "s");
    metrics.set("gwsim.render_ms_p50", median(&inputs.render_ms), "ms");
    crate::write_spans(&tracer, opts, "ingest-recover");
    rows.len()
}
