//! `fleet-similarity`: Definition-1 similarity and Definition-5 motifs over
//! a synthetic fleet of weekly windows, with no rendering and no I/O.
//!
//! Set-up draws the windows with `gwsim::synth`. One timed pass runs
//! `profile_series` → `sketch_series` → `cor_matrix_pruned` at φ = 0.6,
//! then `MotifIndex::new` → `discover_motifs_indexed` at φ = 0.8. The
//! checks run after the timed passes.

use crate::report::{median, nproc, peak_rss_mib, Ledger, Manifest, Metrics};
use crate::trace::{self, Tracer};
use crate::Opts;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use wtts_core::engine::{
    cor_matrix_pruned, cor_profiled, profile_series, sketch_series, CorMatrixConfig, PruneConfig,
    PruneStats, SparseCorMatrix,
};
use wtts_core::motif::{discover_motifs_indexed, Motif, MotifConfig, MotifIndex};
use wtts_core::similarity::cor;
use wtts_core::PipelineObs;
use wtts_gwsim::{synthetic_windows, SynthConfig};
use wtts_stats::sketch::SketchConfig;
use wtts_stats::{CorProfile, CorScratch};

/// Threshold of the pruned similarity matrix.
const MATRIX_PHI: f64 = 0.6;
/// Pairs re-evaluated with exact Definition 1 per run.
const SAMPLED_PAIRS: usize = 4_000;
/// Set-up repetitions per batch; see [`set_up`].
const SETUP_BATCH: usize = 7;

struct PassOutput {
    sparse: SparseCorMatrix,
    stats: PruneStats,
    motifs: Vec<Motif>,
}

impl PassOutput {
    /// A hash of every survivor, the prune books and every motif.
    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for (i, j, v) in self.sparse.entries() {
            (i, j, v.to_bits()).hash(&mut h);
        }
        format!("{:?}", self.stats).hash(&mut h);
        for m in &self.motifs {
            m.members.hash(&mut h);
        }
        h.finish()
    }
}

fn pass(
    windows: &[Vec<f64>],
    threads: usize,
    tracer: &mut Tracer,
    obs: Option<&PipelineObs>,
) -> PassOutput {
    let config = PruneConfig {
        threshold: MATRIX_PHI,
        sketch: SketchConfig::default(),
        matrix: CorMatrixConfig {
            threads: Some(threads),
            ..CorMatrixConfig::default()
        },
    };
    let motif_config = MotifConfig::default();
    let profiles = tracer.span("engine.profile", |_| profile_series(windows));
    let sketches = tracer.span("engine.sketch", |_| {
        sketch_series(&profiles, &SketchConfig::default())
    });
    let (sparse, stats) = tracer.span("engine.matrix", |_| {
        cor_matrix_pruned(&profiles, &sketches, &config)
    });
    let index = tracer.span("motif.index", |_| {
        MotifIndex::new(windows, motif_config.min_observations)
    });
    let motifs = tracer.span("motif.discover", |_| {
        discover_motifs_indexed(&index, &motif_config, obs)
    });
    PassOutput {
        sparse,
        stats,
        motifs,
    }
}

/// Draws the windows `SETUP_BATCH` times, recording each duration.
///
/// Set-up takes milliseconds, while the CPU speed of a shared machine
/// drifts in phases of seconds. A batch runs before the first pass and
/// after every pass, and `setup_s` is the median over all batches, so it
/// samples several phases instead of one.
fn set_up(synth: &SynthConfig, times: &mut Vec<f64>) -> Vec<Vec<f64>> {
    let mut windows = Vec::new();
    for _ in 0..SETUP_BATCH {
        let t = Instant::now();
        windows = synthetic_windows(synth);
        times.push(t.elapsed().as_secs_f64());
    }
    windows
}

pub fn run(opts: &Opts) {
    let synth = SynthConfig {
        n_gateways: if opts.tiny { 400 } else { 4_096 },
        seed: crate::derive_seed(opts.seed, 0x5157),
        ..SynthConfig::default()
    };
    let threads = crate::pinned_threads();

    let mut setup_s = Vec::new();
    let mut windows = set_up(&synth, &mut setup_s);

    // Each pass drops its output once fingerprinted; the last output is
    // kept for the checks. `peak_rss_mib` is read after the first pass: the
    // working set of one pass, before allocator reuse across repeats adds
    // run-to-run noise.
    let mut ledger = Ledger::default();
    let mut untraced = Tracer::new(false);
    let mut pass_s = Vec::new();
    let mut fingerprints = Vec::new();
    let mut last = None;
    let mut peak_rss = 0.0;
    let started = Instant::now();
    while pass_s.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        drop(last.take());
        let t = Instant::now();
        let out = pass(&windows, threads, &mut untraced, None);
        pass_s.push(t.elapsed().as_secs_f64());
        if pass_s.len() == 1 {
            peak_rss = peak_rss_mib();
        }
        fingerprints.push(out.fingerprint());
        last = Some(out);
        windows = set_up(&synth, &mut setup_s);
    }
    ledger.check(fingerprints.iter().all(|f| *f == fingerprints[0]), || {
        "repeated passes produced different results".into()
    });
    let out = last.expect("at least one pass ran");
    check(&windows, &out, opts, &mut ledger);

    let mut manifest = Manifest::default();
    manifest.text("workload", "fleet-similarity");
    manifest.num("seed", opts.seed);
    manifest.num("synth_seed", synth.seed);
    manifest.num("windows", synth.n_gateways);
    manifest.num("series_len", synth.series_len);
    manifest.num("families", synth.families);
    manifest.num("noise", synth.noise);
    manifest.num("missing_rate", synth.missing_rate);
    manifest.num("pairs", out.stats.pairs_total);
    manifest.num("matrix_phi", MATRIX_PHI);
    manifest.num("motif_phi", MotifConfig::default().phi);
    manifest.num("matrix_threads", threads);
    manifest.num("motif_threads", nproc());
    manifest.num("passes", pass_s.len());

    let mut metrics = Metrics::default();
    let mut named = Metrics::default();
    named.set("similarity_s", median(&pass_s), "s");
    if !opts.trace {
        metrics.set("setup_s", median(&setup_s), "s");
        metrics.set("pass_s", median(&pass_s), "s");
        metrics.set("peak_rss_mib", peak_rss, "MiB");
    } else {
        let passes = traced(&windows, threads, opts, median(&pass_s), &mut metrics);
        manifest.num("traced_passes", passes);
    }
    crate::report::emit(&manifest, &named, &ledger, &metrics);
}

/// Re-runs the pass with spans and the motif observability registry and
/// fills the per-layer metrics (medians over the traced passes).
fn traced(
    windows: &[Vec<f64>],
    threads: usize,
    opts: &Opts,
    untraced_pass_s: f64,
    metrics: &mut Metrics,
) -> usize {
    let mut tracer = Tracer::new(true);
    let mut rows: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut walls = Vec::new();
    let started = Instant::now();
    while rows.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let obs = PipelineObs::new();
        let mark = tracer.mark();
        let t = Instant::now();
        let out = pass(windows, threads, &mut tracer, Some(&obs));
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        let spans = tracer.since(mark);
        let s = out.stats;
        let matrix_s = trace::total_s(spans, "engine.matrix");
        let at_phi = out
            .sparse
            .entries()
            .filter(|&(_, _, v)| f64::from(v) >= MATRIX_PHI)
            .count();
        let snap = obs.snapshot();
        let unattributed = trace::unattributed_s(spans, mark, wall);
        rows.push(vec![
            ("engine.profile_s", trace::total_s(spans, "engine.profile")),
            ("engine.sketch_s", trace::total_s(spans, "engine.sketch")),
            ("engine.matrix_s", matrix_s),
            ("engine.pairs_total", s.pairs_total as f64),
            ("engine.pruned_degenerate", s.pruned_degenerate as f64),
            ("engine.pruned_sax", s.pruned_sax as f64),
            ("engine.pruned_moment", s.pruned_moment as f64),
            ("engine.pairs_evaluated", s.pairs_evaluated as f64),
            (
                "engine.exact_pairs_per_s",
                s.pairs_evaluated as f64 / matrix_s,
            ),
            (
                "engine.survivor_ratio",
                at_phi as f64 / (s.pairs_evaluated.max(1)) as f64,
            ),
            ("motif.index_s", trace::total_s(spans, "motif.index")),
            ("motif.discover_s", trace::total_s(spans, "motif.discover")),
            (
                "motif.pairs_evaluated",
                snap.counter("pairs_evaluated") as f64,
            ),
            ("motif.pairs_pruned", snap.counter("pairs_pruned") as f64),
            ("motif.members_grown", snap.counter("members_grown") as f64),
            ("motif.motifs_merged", snap.counter("motifs_merged") as f64),
            ("motif.near_phi", snap.counter("near_phi") as f64),
            ("motif.motifs", out.motifs.len() as f64),
            ("fleet-similarity.unattributed_s", unattributed),
            ("fleet-similarity.span_coverage", 1.0 - unattributed / wall),
        ]);
    }
    crate::set_medians(metrics, &rows);
    metrics.set(
        "fleet-similarity.trace_overhead_s",
        median(&walls) - untraced_pass_s,
        "s",
    );
    crate::write_spans(&tracer, opts, "fleet-similarity");
    walls.len()
}

/// The correctness gates: prune-book conservation, zero false dismissals
/// and bit-identical survivors on a seeded sample of pairs, and
/// Definition 5 on every motif.
fn check(windows: &[Vec<f64>], out: &PassOutput, opts: &Opts, ledger: &mut Ledger) {
    let s = out.stats;
    ledger.check(s.conserved(), || {
        format!("prune books do not balance: {s:?}")
    });

    let n = windows.len();
    let survivors: Vec<(usize, usize, f32)> = out.sparse.entries().collect();
    let mut rng = SmallRng::seed_from_u64(crate::derive_seed(opts.seed, 0xC4EC));
    let mut sample: Vec<(usize, usize)> = Vec::with_capacity(SAMPLED_PAIRS);
    for k in 0..SAMPLED_PAIRS {
        if k % 2 == 0 && !survivors.is_empty() {
            let (i, j, _) = survivors[rng.gen_range(0..survivors.len())];
            sample.push((i, j));
        } else {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n - 1);
            let j = if j >= i { j + 1 } else { j };
            sample.push((i.min(j), i.max(j)));
        }
    }
    let inject = opts.inject.as_deref() == Some("mismatch");
    let mut injected = false;
    for (i, j) in sample {
        let exact = cor(&windows[i], &windows[j]);
        match out.sparse.get(i, j) {
            Some(stored) => {
                let mut expected = (exact as f32).to_bits();
                if inject && !injected {
                    expected ^= 1;
                    injected = true;
                }
                ledger.check(stored.to_bits() == expected, || {
                    format!("survivor ({i},{j}) stored {stored} but exact cor is {exact}")
                });
            }
            None => ledger.check(exact < MATRIX_PHI, || {
                format!("false dismissal: pruned pair ({i},{j}) has cor {exact} >= {MATRIX_PHI}")
            }),
        }
    }

    let config = MotifConfig::default();
    let floor = config.group_threshold().min(config.merge_threshold);
    let profiles: Vec<CorProfile> = windows.iter().map(|w| CorProfile::new(w)).collect();
    let mut scratch = CorScratch::new();
    for (k, m) in out.motifs.iter().enumerate() {
        let mut worst = f64::INFINITY;
        let mut lonely = None;
        for &i in &m.members {
            let mut best = f64::NEG_INFINITY;
            for &j in &m.members {
                if i != j {
                    let c = cor_profiled(&profiles[i], &profiles[j], &mut scratch);
                    worst = worst.min(c);
                    best = best.max(c);
                }
            }
            if best < config.phi {
                lonely = Some(i);
            }
        }
        ledger.check(
            m.support() >= 2 && worst >= floor && lonely.is_none(),
            || {
                format!(
                    "motif {k} breaks Definition 5: support {}, weakest pair {worst}, \
                 member without a φ partner {lonely:?}",
                    m.support()
                )
            },
        );
    }
}
