//! Lock-free pipeline observability: per-stage counters, log-bucketed
//! histograms and span timers.
//!
//! The paper's conclusions rest on exact threshold comparisons (`cor ≥ φ`,
//! group similarity ¾φ, α = 0.05), yet a fleet-scale pipeline needs to
//! *see* how many comparisons land within rounding distance of a threshold,
//! where time goes inside a sweep, and which degenerate-statistics paths
//! fire — without perturbing the measurement. This module provides the
//! primitives, mirroring the design of [`crate::ingest::IngestMetrics`]:
//!
//! * [`Counter`] — a relaxed atomic `u64` event counter.
//! * [`LogHistogram`] — power-of-two-bucketed atomic histogram for
//!   latencies (nanoseconds) and values; `record` is one relaxed
//!   `fetch_add`, no locks anywhere on the hot path.
//! * [`Stage`] — entered/exited/in-flight counters plus a latency
//!   histogram; [`Stage::enter`] returns a [`Span`] guard that times the
//!   stage and closes the books on drop. Every snapshot satisfies
//!   `exited + in_flight <= entered` (checked by
//!   [`StageSnapshot::conserved`]; an item between two of its counter
//!   updates is briefly counted in `entered` only), which tightens to
//!   `entered == exited` with nothing in flight at quiescence
//!   ([`StageSnapshot::quiescent`]).
//! * [`PipelineObs`] — the registry wired through the batch analysis
//!   pipeline: the pruned matrix build (row fill, prune tiers), motif
//!   discovery (candidate pairs evaluated / pruned / grown / merged, the
//!   near-threshold instrument), the granularity/stationarity sweep and
//!   lag search.
//! * [`LawSpec`] — a conservation law over a registry's counters, declared
//!   once beside it; [`ObsSnapshot::laws`] evaluates [`PIPELINE_LAWS`] and
//!   the per-stage [`STAGE_LAWS`].
//!
//! **Zero cost when disabled.** Instrumented entry points take
//! `Option<&PipelineObs>`; with `None` no atomic is touched and no clock is
//! read, and results are bit-identical either way (the registry only
//! *observes* — it never feeds back into a decision).
//!
//! [`PipelineObs::snapshot`] is a handful of relaxed loads producing a
//! serializable [`ObsSnapshot`]; [`ObsSnapshot::to_json`] emits the report
//! the `--metrics-json` example flags print.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `2^63`.
const BUCKETS: usize = 65;

/// A lock-free event counter (relaxed atomic increments).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count (relaxed load).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram over `u64` samples: bucket 0 counts exact
/// zeros, bucket `k ≥ 1` counts samples in `[2^(k-1), 2^k)`. Recording is a
/// single relaxed `fetch_add`; the bucket index is the sample's bit length,
/// so no search and no floating point on the hot path.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts (relaxed loads).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Formats an `f64` as a JSON number, or `null` when it is not finite.
///
/// Hand-rolled JSON emitters must never print `NaN`/`inf` — `{"mean":NaN}`
/// is not JSON and breaks every strict parser downstream (the CI smoke
/// parses these reports with `parse_constant` set to raise). Every float
/// that reaches a JSON report goes through this guard.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Inclusive upper bound of histogram bucket `k` (0, 1, 3, 7, …).
fn bucket_upper(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Point-in-time copy of a [`LogHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per bucket; index = sample bit length (see [`LogHistogram`]).
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Upper bound of the bucket containing quantile `q` (a conservative
    /// estimate: the true quantile is at most this). Returns 0 for an empty
    /// histogram.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(k);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Mean of the bucket upper bounds weighted by count — a coarse,
    /// conservative central estimate. `NaN` for an empty histogram (the
    /// JSON report renders it as `null` via [`json_f64`]).
    pub fn mean_upper(&self) -> f64 {
        let total = self.total();
        let weighted: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(k, &c)| bucket_upper(k) as f64 * c as f64)
            .sum();
        weighted / total as f64
    }

    /// JSON fragment: totals, conservative p50/p99/mean and the non-empty
    /// buckets as `[upper_bound, count]` pairs.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| format!("[{},{}]", bucket_upper(k), c))
            .collect();
        format!(
            "{{\"count\":{},\"p50_le\":{},\"p99_le\":{},\"mean_le\":{},\"buckets\":[{}]}}",
            self.total(),
            self.quantile_upper(0.5),
            self.quantile_upper(0.99),
            json_f64(self.mean_upper()),
            buckets.join(",")
        )
    }
}

/// One pipeline stage: how many work items entered, how many exited, how
/// many are in flight right now, and a log-bucketed latency histogram in
/// nanoseconds. All updates are relaxed atomics; [`Stage::enter`] is the
/// only place a clock is read.
#[derive(Debug, Default)]
pub struct Stage {
    entered: Counter,
    exited: Counter,
    in_flight: Counter,
    latency_ns: LogHistogram,
}

impl Stage {
    /// Opens a span: increments `entered`, then `in_flight`, and starts the
    /// timer. Dropping the returned [`Span`] records the latency and moves
    /// the item from `in_flight` to `exited`.
    #[inline]
    pub fn enter(&self) -> Span<'_> {
        self.entered.incr();
        // Release: whoever observes this increment also observes `entered`'s.
        self.in_flight.0.fetch_add(1, Ordering::Release);
        Span {
            stage: self,
            started: Instant::now(),
        }
    }

    /// Point-in-time copy of the stage counters.
    pub fn snapshot(&self) -> StageSnapshot {
        // Each item steps `entered` up, `in_flight` up, `in_flight` down,
        // `exited` up, the last three with release. The loads run in the
        // reverse order, the first two with acquire: once a load sees an
        // item's step, the later loads see all its earlier steps. So an item
        // counted in `exited` is no longer in `in_flight`, and every item
        // counted on the right is counted in `entered`:
        // `exited + in_flight <= entered` holds for every snapshot, on
        // weakly ordered CPUs too ([`StageSnapshot::conserved`]).
        let exited = self.exited.0.load(Ordering::Acquire);
        let in_flight = self.in_flight.0.load(Ordering::Acquire);
        let entered = self.entered.get();
        StageSnapshot {
            entered,
            exited,
            in_flight,
            latency_ns: self.latency_ns.snapshot(),
        }
    }
}

/// RAII span timer returned by [`Stage::enter`].
#[derive(Debug)]
pub struct Span<'a> {
    stage: &'a Stage,
    started: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let ns = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.stage.latency_ns.record(ns);
        self.stage.in_flight.0.fetch_sub(1, Ordering::Release);
        self.stage.exited.0.fetch_add(1, Ordering::Release);
    }
}

/// Point-in-time copy of one [`Stage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Work items that entered the stage.
    pub entered: u64,
    /// Work items that exited the stage.
    pub exited: u64,
    /// Work items currently inside the stage.
    pub in_flight: u64,
    /// Stage latency histogram (nanoseconds).
    pub latency_ns: HistogramSnapshot,
}

impl StageSnapshot {
    /// The per-stage conservation law as a snapshot can see it: no item is
    /// done or in flight without having entered, and none is both. A
    /// snapshot taken while spans open or close may see an item in
    /// `entered` only (between two of its counter updates); at quiescence
    /// equality is exact ([`StageSnapshot::quiescent`]).
    pub fn conserved(&self) -> bool {
        STAGE_CONSERVED.holds(&[self.exited, self.in_flight, self.entered])
    }

    /// Quiescent conservation: nothing in flight and books balanced.
    pub fn quiescent(&self) -> bool {
        self.conserved() && STAGE_DRAINED.holds(&[self.exited, self.entered])
    }

    /// The stage counter named `entered`, `exited` or `in_flight`.
    pub(crate) fn term(&self, field: &str) -> Option<u64> {
        match field {
            "entered" => Some(self.entered),
            "exited" => Some(self.exited),
            "in_flight" => Some(self.in_flight),
            _ => None,
        }
    }

    /// The stage as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"entered\":{},\"exited\":{},\"in_flight\":{},\"latency_ns\":{}}}",
            self.entered,
            self.exited,
            self.in_flight,
            self.latency_ns.to_json()
        )
    }
}

/// A conservation law, declared once beside the registry it constrains: a
/// name, the terms summed on each side by name, and a rule between the sums.
#[derive(Debug, Clone, Copy)]
pub struct LawSpec {
    /// The law's key in the JSON `"laws"` object.
    pub name: &'static str,
    /// The terms summed on the left.
    pub left: &'static [&'static str],
    /// The terms summed on the right.
    pub right: &'static [&'static str],
    /// The rule, given the left and the right sum.
    pub rule: fn(u64, u64) -> bool,
}

impl LawSpec {
    /// Whether the law holds over one value per term, left side first.
    pub(crate) fn holds(&self, values: &[u64]) -> bool {
        assert_eq!(values.len(), self.left.len() + self.right.len());
        let (left, right) = values.split_at(self.left.len());
        (self.rule)(left.iter().sum(), right.iter().sum())
    }

    /// Evaluates the law, reading term `t` as `term(prefix + t)`; panics on
    /// a term the registry lacks.
    pub(crate) fn eval(&self, prefix: &str, term: &Terms) -> Law {
        let terms: Vec<(String, u64)> = (self.left.iter().chain(self.right))
            .map(|t| {
                let key = format!("{prefix}{t}");
                let value = term(&key).unwrap_or_else(|| panic!("no term {key}"));
                (key, value)
            })
            .collect();
        let values: Vec<u64> = terms.iter().map(|&(_, v)| v).collect();
        let (name, holds) = (format!("{prefix}{}", self.name), self.holds(&values));
        Law { name, holds, terms }
    }
}

/// A snapshot's terms by name, as its laws read them.
pub(crate) type Terms<'a> = dyn Fn(&str) -> Option<u64> + 'a;

/// One law evaluated on a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Law {
    /// The law's name, `<stage>.<law>` for a per-stage law.
    pub name: String,
    /// Whether the law holds.
    pub holds: bool,
    /// The terms it read, left side first, with their values.
    pub terms: Vec<(String, u64)>,
}

/// The JSON `"laws"` object: `{name: {"holds": bool, "terms": {term: value}}}`.
pub(crate) fn laws_json(laws: &[Law]) -> String {
    let law = |l: &Law| {
        let terms: Vec<String> = l
            .terms
            .iter()
            .map(|(t, v)| format!("\"{t}\":{v}"))
            .collect();
        let (name, holds, terms) = (&l.name, l.holds, terms.join(","));
        format!("\"{name}\":{{\"holds\":{holds},\"terms\":{{{terms}}}}}")
    };
    format!("{{{}}}", laws.iter().map(law).collect::<Vec<_>>().join(","))
}

/// Declares conservation laws as `pub const` [`LawSpec`]s, one per entry:
/// `CONST "name": ["a", "b"] == ["c"];` with `==`, `<=` or `=>` (implies).
macro_rules! laws {
    (@rule ==) => { |left, right| left == right };
    (@rule <=) => { |left, right| left <= right };
    (@rule =>) => { |left, right| left == 0 || right > 0 };
    ($($(#[$doc:meta])* $law:ident $name:literal: [$($l:literal),+] $op:tt [$($r:literal),+];)*) => {
        $($(#[$doc])* pub const $law: LawSpec = LawSpec {
            name: $name, left: &[$($l),+], right: &[$($r),+], rule: laws!(@rule $op),
        };)*
    };
}
pub(crate) use laws;

laws! {
    /// Per-stage law `<stage>.conserved`: no item is done or in flight
    /// without having entered. It holds in every snapshot.
    STAGE_CONSERVED "conserved": ["exited", "in_flight"] <= ["entered"];
    /// Per-stage law `<stage>.drained`: every item that entered has exited.
    /// With [`STAGE_CONSERVED`] it means the stage is quiescent.
    STAGE_DRAINED "drained": ["exited"] == ["entered"];
}

/// The laws of every stage of a finished run, instantiated per stage.
pub const STAGE_LAWS: [LawSpec; 2] = [STAGE_CONSERVED, STAGE_DRAINED];

/// Scales a similarity in `[-1, 1]` to an integer number of thousandths for
/// the value histogram (negative similarities clamp to bucket zero — the
/// thresholds the pipeline cares about are all positive).
pub fn sim_millis(sim: f64) -> u64 {
    (sim.clamp(0.0, 1.0) * 1000.0).round() as u64
}

/// Band around a decision threshold that counts as "near": the
/// near-threshold instrument reports comparisons within `1e-3` of φ or ¾φ,
/// the population whose verdicts rounding error could plausibly flip.
pub const NEAR_THRESHOLD_BAND: f64 = 1e-3;

/// Declares the [`PipelineObs`] stages and counters once, in report order,
/// and generates the registry struct and its [`PipelineObs::snapshot`].
macro_rules! pipeline_obs {
    (
        stages { $($(#[$sdoc:meta])* $stage:ident,)* }
        counters { $($(#[$cdoc:meta])* $counter:ident,)* }
    ) => {
        /// The observability registry wired through the batch analysis
        /// pipeline.
        ///
        /// One instance is shared by every thread of a run (all fields are
        /// atomic; the struct is `Sync`). Every instrumented entry point takes
        /// `Option<&PipelineObs>` — pass `None` and the pipeline runs exactly
        /// as before, bit for bit.
        #[derive(Debug, Default)]
        pub struct PipelineObs {
            $($(#[$sdoc])* pub $stage: Stage,)*
            $($(#[$cdoc])* pub $counter: Counter,)*
            /// Pairwise similarities observed by stationarity sweeps, in
            /// thousandths (see [`sim_millis`]).
            pub stationarity_sim_millis: LogHistogram,
        }

        impl PipelineObs {
            /// Point-in-time copy of every stage and counter (relaxed loads;
            /// cheap enough to poll while the pipeline runs).
            pub fn snapshot(&self) -> ObsSnapshot {
                ObsSnapshot {
                    stages: vec![$((stringify!($stage), self.$stage.snapshot()),)*],
                    counters: vec![$((stringify!($counter), self.$counter.get()),)*],
                    stationarity_sim_millis: self.stationarity_sim_millis.snapshot(),
                }
            }
        }
    };
}

pipeline_obs! {
    stages {
        /// Per-window profile construction in a sweep cell
        /// ([`crate::sweep`]) and per-series profiling in lag search.
        profile_build,
        /// Pruned-matrix row fill
        /// ([`crate::engine::cor_matrix_pruned_observed`]); one span per row,
        /// across all worker threads.
        row_fill,
        /// One whole motif-discovery run
        /// ([`crate::motif::discover_motifs_indexed`]).
        motif_discovery,
        /// One granularity-pyramid construction (prefix sums plus levels) for a
        /// series entering the Definition-3 sweep.
        pyramid_build,
        /// One `(granularity, offset)` re-binning inside the sweep, whichever
        /// path served it.
        rebin,
        /// One window-set scoring pass (profiles plus the fused pair loop) for
        /// one sweep cell.
        window_score,
        /// Per-series pruning-sketch construction in lag search
        /// ([`crate::lagsearch`]).
        sketch_build,
        /// One `(series, scale)` lag-search preparation: the correlation kernel
        /// side, pruning sketch and energy/missingness prefixes built on top of
        /// the re-binned series ([`crate::lagsearch`]).
        lag_prepare,
        /// One `(pair, scale)` lag-search scan: the prune cascade plus the
        /// exact cells across the whole lag range.
        lag_pair_scan,
    }
    counters {
        /// Pairs whose similarity was compared against a motif threshold.
        pairs_evaluated,
        /// Pairs accepted as motif candidates (`cor ≥ φ`).
        candidate_pairs,
        /// Pairs pruned below φ in the candidate scan.
        pairs_pruned,
        /// Windows added to an existing motif during greedy growth.
        members_grown,
        /// Motif pairs unified in the merge phase.
        motifs_merged,
        /// Comparisons landing within [`NEAR_THRESHOLD_BAND`] of φ.
        near_phi,
        /// Comparisons landing within [`NEAR_THRESHOLD_BAND`] of ¾φ.
        near_group,
        /// Near-threshold comparisons re-verified in f64 (the
        /// f32 similarity-matrix quantization guard).
        f64_reverified,
        /// Two-sample KS tests run by stationarity sweeps.
        ks_tests,
        /// Re-binnings served from prefix sums (pyramid base or a level).
        rebins_pyramid,
        /// Re-binnings that fell back to direct summation (non-integer series).
        rebins_direct,
        /// Pyramid re-binnings that folded from a coarse level rather than the
        /// per-sample base (a subset of `rebins_pyramid`).
        level_folds,
        /// Pairs a pruned matrix build considered (its conservation total:
        /// the three prune tiers plus exact evaluations sum to this).
        prune_pairs_total,
        /// Pairs dismissed by the degenerate tier (constant side or too few
        /// shared observations).
        pairs_pruned_degenerate,
        /// Pairs dismissed by the symbolized (SAX MINDIST) bound tier.
        pairs_pruned_sax,
        /// Pairs dismissed by the segment-mean (moment signature) bound tier.
        pairs_pruned_moment,
        /// Pairs that fell through pruning and were evaluated exactly.
        prune_pairs_evaluated,
        /// Exactly-evaluated pairs that were ineligible for pruning because
        /// their finite masks differ (a subset of `prune_pairs_evaluated`).
        prune_mask_fallthrough,
        /// Lag-search `(pair, scale, lag)` cells considered — the conservation
        /// total: the three prune tiers plus exact evaluations sum to this.
        lag_cells_total,
        /// Lag cells dismissed wholesale because a side is degenerate at that
        /// scale (no observations or zero variance).
        lag_cells_pruned_degenerate,
        /// Lag-0 cells dismissed by the [`wtts_stats::prune_pair`] coefficient
        /// upper bounds on a shared finite mask.
        lag_cells_pruned_sketch,
        /// Lag cells dismissed by the segmented Cauchy–Schwarz energy bound.
        lag_cells_pruned_energy,
        /// Lag cells that fell through pruning and were evaluated exactly.
        lag_cells_evaluated,
    }
}

impl PipelineObs {
    /// An empty registry.
    pub fn new() -> PipelineObs {
        PipelineObs::default()
    }
}

laws! {
    /// Every motif-threshold comparison ends as a candidate or a rejection.
    MOTIF "motif": ["candidate_pairs", "pairs_pruned"] == ["pairs_evaluated"];
    /// Every pair of a pruned matrix build is dismissed by one tier or
    /// evaluated exactly.
    PRUNE_TIERS "prune_tiers": ["pairs_pruned_degenerate", "pairs_pruned_sax",
        "pairs_pruned_moment", "prune_pairs_evaluated"] == ["prune_pairs_total"];
    /// Every lag-search cell is dismissed by one tier or evaluated exactly.
    LAG_TIERS "lag_tiers": ["lag_cells_pruned_degenerate", "lag_cells_pruned_sketch",
        "lag_cells_pruned_energy", "lag_cells_evaluated"] == ["lag_cells_total"];
    /// Every re-binning of the sweep takes exactly one path.
    REBIN "rebin": ["rebins_pyramid", "rebins_direct"] == ["rebin.entered"];
    /// Level folds are a subset of the pyramid re-binnings.
    LEVEL_FOLDS "level_folds": ["level_folds"] <= ["rebins_pyramid"];
}

/// The counter laws of [`PipelineObs`]; [`ObsSnapshot::laws`] adds
/// [`STAGE_LAWS`] for every stage.
pub const PIPELINE_LAWS: [LawSpec; 5] = [MOTIF, PRUNE_TIERS, LAG_TIERS, REBIN, LEVEL_FOLDS];

/// Serializable point-in-time report of a [`PipelineObs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Stage snapshots, in pipeline order, keyed by stage name.
    pub stages: Vec<(&'static str, StageSnapshot)>,
    /// Event counters, keyed by counter name.
    pub counters: Vec<(&'static str, u64)>,
    /// Value histogram of stationarity pair similarities (thousandths).
    pub stationarity_sim_millis: HistogramSnapshot,
}

impl ObsSnapshot {
    /// Whether every stage satisfies `exited + in_flight <= entered`
    /// ([`StageSnapshot::conserved`]).
    pub fn conserved(&self) -> bool {
        self.stages.iter().all(|(_, s)| s.conserved())
    }

    /// Whether every stage is quiescent (`in_flight == 0`, books balanced).
    pub fn quiescent(&self) -> bool {
        self.stages.iter().all(|(_, s)| s.quiescent())
    }

    /// The value of a named counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.term(name).unwrap_or(0)
    }

    /// A counter by name, or a stage counter as `<stage>.<field>`
    /// (`"rebin.entered"`); `None` when the registry has no such term.
    pub fn term(&self, key: &str) -> Option<u64> {
        match key.split_once('.') {
            Some((stage, field)) => self.stages.iter().find(|(n, _)| *n == stage)?.1.term(field),
            None => self
                .counters
                .iter()
                .find(|(n, _)| *n == key)
                .map(|&(_, v)| v),
        }
    }

    /// Every law evaluated on this snapshot: [`PIPELINE_LAWS`], then
    /// [`STAGE_LAWS`] for each stage as `<stage>.<law>`. The laws describe a
    /// finished run: a stage with open spans fails its `drained` law.
    pub fn laws(&self) -> Vec<Law> {
        self.laws_with(&|key| self.term(key))
    }

    /// [`ObsSnapshot::laws`] with every term read through `term`.
    fn laws_with(&self, term: &Terms) -> Vec<Law> {
        let stage_laws = self.stages.iter().flat_map(|(stage, _)| {
            let prefix = format!("{stage}.");
            STAGE_LAWS.iter().map(move |law| law.eval(&prefix, term))
        });
        PIPELINE_LAWS
            .iter()
            .map(|law| law.eval("", term))
            .chain(stage_laws)
            .collect()
    }

    /// Whether the named law holds; false for a name no law has.
    pub fn holds(&self, law: &str) -> bool {
        self.laws().iter().any(|l| l.name == law && l.holds)
    }

    /// The full report as a JSON object, ending in the `"laws"` object of
    /// [`ObsSnapshot::laws`].
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|(name, s)| format!("\"{name}\":{}", s.to_json()))
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect();
        format!(
            "{{\"stages\":{{{}}},\"counters\":{{{}}},\"stationarity_sim_millis\":{},\"conserved\":{},\"quiescent\":{},\"laws\":{}}}",
            stages.join(","),
            counters.join(","),
            self.stationarity_sim_millis.to_json(),
            self.conserved(),
            self.quiescent(),
            laws_json(&self.laws())
        )
    }
}

/// Asserts that a known-good snapshot satisfies every law of its table, and
/// that for each law some one-step move of one of its terms breaks that law
/// and no other: each law checks something the rest of the table does not.
/// `laws_with` evaluates the table with terms read through its argument;
/// `term` reads the known-good snapshot.
#[cfg(test)]
pub(crate) fn assert_each_law_breaks_alone(laws_with: &dyn Fn(&Terms) -> Vec<Law>, term: &Terms) {
    let laws = laws_with(term);
    assert!(!laws.is_empty());
    for law in &laws {
        assert!(law.holds, "the known-good snapshot breaks {law:?}");
    }
    for law in &laws {
        let alone = law.terms.iter().any(|(key, value)| {
            [value.checked_add(1), value.checked_sub(1)]
                .into_iter()
                .flatten()
                .any(|moved| {
                    let moved_term = |k: &str| if k == key { Some(moved) } else { term(k) };
                    let broken: Vec<String> = laws_with(&moved_term)
                        .into_iter()
                        .filter(|l| !l.holds)
                        .map(|l| l.name)
                        .collect();
                    broken == [law.name.as_str()]
                })
        });
        assert!(
            alone,
            "no one-step move of a term breaks {} alone",
            law.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished run in which every law holds with no slack.
    fn known_good() -> ObsSnapshot {
        let mut snap = PipelineObs::new().snapshot();
        for (name, stage) in &mut snap.stages {
            let items = if *name == "rebin" { 6 } else { 3 };
            stage.entered = items;
            stage.exited = items;
        }
        for (name, value) in &mut snap.counters {
            *value = match *name {
                "candidate_pairs" => 2,
                "pairs_pruned" => 5,
                "pairs_evaluated" => 7,
                "pairs_pruned_degenerate" | "lag_cells_pruned_degenerate" => 1,
                "pairs_pruned_sax" | "lag_cells_pruned_sketch" => 2,
                "pairs_pruned_moment" | "lag_cells_pruned_energy" => 3,
                "prune_pairs_evaluated" | "lag_cells_evaluated" => 4,
                "prune_pairs_total" | "lag_cells_total" => 10,
                "rebins_pyramid" | "level_folds" => 4,
                "rebins_direct" => 2,
                _ => 9,
            };
        }
        snap
    }

    #[test]
    fn each_pipeline_law_breaks_alone_when_one_term_moves() {
        let snap = known_good();
        let laws = snap.laws();
        assert_eq!(laws.len(), PIPELINE_LAWS.len() + 2 * snap.stages.len());
        assert!(laws.iter().any(|l| l.name == "rebin.drained"));
        assert_each_law_breaks_alone(&|term| snap.laws_with(term), &|key| snap.term(key));
    }

    #[test]
    fn level_folds_beyond_pyramid_rebins_break_only_their_law() {
        let obs = PipelineObs::new();
        {
            let _rebin = obs.rebin.enter();
        }
        obs.rebins_pyramid.incr();
        obs.level_folds.add(2);
        let snap = obs.snapshot();
        let broken: Vec<String> = snap
            .laws()
            .into_iter()
            .filter(|l| !l.holds)
            .map(|l| l.name)
            .collect();
        assert_eq!(broken, ["level_folds"]);
        assert!(!snap.holds("level_folds"));
        assert!(snap.holds("rebin"));
        assert!(!snap.holds("no_such_law"));
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = LogHistogram::new();
        for v in [0u64, 0] {
            h.record(v);
        }
        h.record(1); // bucket 1: [1, 2)
        h.record(2); // bucket 2: [2, 4)
        h.record(3);
        h.record(1024); // bucket 11
        let s = h.snapshot();
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[2], 2);
        assert_eq!(s.counts[11], 1);
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn quantile_upper_is_conservative() {
        let h = LogHistogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // True median 49/50 lives in bucket 6 ([32, 64)); upper bound 63.
        assert_eq!(s.quantile_upper(0.5), 63);
        assert_eq!(s.quantile_upper(1.0), 127);
        assert_eq!(
            HistogramSnapshot {
                counts: vec![0; BUCKETS]
            }
            .quantile_upper(0.5),
            0
        );
    }

    #[test]
    fn stage_conservation_through_span_lifecycle() {
        let stage = Stage::default();
        let before = stage.snapshot();
        assert!(before.quiescent());
        {
            let _span = stage.enter();
            let open = stage.snapshot();
            assert_eq!(open.entered, 1);
            assert_eq!(open.in_flight, 1);
            assert_eq!(open.exited, 0);
            assert!(open.conserved());
            assert!(!open.quiescent());
        }
        let after = stage.snapshot();
        assert!(after.quiescent());
        assert_eq!(after.entered, 1);
        assert_eq!(after.exited, 1);
        assert_eq!(after.latency_ns.total(), 1);
    }

    #[test]
    fn snapshot_json_is_well_formed_enough() {
        let obs = PipelineObs::new();
        {
            let _s = obs.row_fill.enter();
        }
        obs.near_phi.incr();
        let snap = obs.snapshot();
        assert!(snap.conserved());
        assert!(snap.quiescent());
        assert_eq!(snap.counter("near_phi"), 1);
        assert_eq!(snap.counter("no_such_counter"), 0);
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"row_fill\":{\"entered\":1,\"exited\":1,\"in_flight\":0"));
        assert!(json.contains("\"near_phi\":1"));
        assert!(json.contains("\"conserved\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// Pins the report JSON byte for byte: every stage and counter holds a
    /// distinct nonzero value, so a reordered, renamed or dropped key
    /// changes the string.
    #[test]
    fn snapshot_json_format_is_pinned() {
        let obs = PipelineObs::new();
        let stages = [
            &obs.profile_build,
            &obs.row_fill,
            &obs.motif_discovery,
            &obs.pyramid_build,
            &obs.rebin,
            &obs.window_score,
            &obs.sketch_build,
            &obs.lag_prepare,
            &obs.lag_pair_scan,
        ];
        for (i, stage) in (1u64..).zip(stages) {
            stage.entered.add(i + 1);
            stage.exited.add(i);
            stage.in_flight.incr();
            stage.latency_ns.record(1 << i);
        }
        let counters = [
            &obs.pairs_evaluated,
            &obs.candidate_pairs,
            &obs.pairs_pruned,
            &obs.members_grown,
            &obs.motifs_merged,
            &obs.near_phi,
            &obs.near_group,
            &obs.f64_reverified,
            &obs.ks_tests,
            &obs.rebins_pyramid,
            &obs.rebins_direct,
            &obs.level_folds,
            &obs.prune_pairs_total,
            &obs.pairs_pruned_degenerate,
            &obs.pairs_pruned_sax,
            &obs.pairs_pruned_moment,
            &obs.prune_pairs_evaluated,
            &obs.prune_mask_fallthrough,
            &obs.lag_cells_total,
            &obs.lag_cells_pruned_degenerate,
            &obs.lag_cells_pruned_sketch,
            &obs.lag_cells_pruned_energy,
            &obs.lag_cells_evaluated,
        ];
        for (i, counter) in (100u64..).zip(counters) {
            counter.add(i);
        }
        obs.stationarity_sim_millis.record(600);
        obs.stationarity_sim_millis.record(800);
        assert_eq!(
            obs.snapshot().to_json(),
            concat!(
                r#"{"stages":{"profile_build":{"entered":2,"exited":1,"in_flight":1,"#,
                r#""latency_ns":{"count":1,"p50_le":3,"p99_le":3,"mean_le":3,"buckets":[[3,"#,
                r#"1]]}},"row_fill":{"entered":3,"exited":2,"in_flight":1,"#,
                r#""latency_ns":{"count":1,"p50_le":7,"p99_le":7,"mean_le":7,"buckets":[[7,"#,
                r#"1]]}},"motif_discovery":{"entered":4,"exited":3,"in_flight":1,"#,
                r#""latency_ns":{"count":1,"p50_le":15,"p99_le":15,"mean_le":15,"buckets":[[15,"#,
                r#"1]]}},"pyramid_build":{"entered":5,"exited":4,"in_flight":1,"#,
                r#""latency_ns":{"count":1,"p50_le":31,"p99_le":31,"mean_le":31,"buckets":[[31,"#,
                r#"1]]}},"rebin":{"entered":6,"exited":5,"in_flight":1,"latency_ns":{"count":1,"#,
                r#""p50_le":63,"p99_le":63,"mean_le":63,"buckets":[[63,1]]}},"#,
                r#""window_score":{"entered":7,"exited":6,"in_flight":1,"#,
                r#""latency_ns":{"count":1,"p50_le":127,"p99_le":127,"mean_le":127,"#,
                r#""buckets":[[127,1]]}},"sketch_build":{"entered":8,"exited":7,"in_flight":1,"#,
                r#""latency_ns":{"count":1,"p50_le":255,"p99_le":255,"mean_le":255,"#,
                r#""buckets":[[255,1]]}},"lag_prepare":{"entered":9,"exited":8,"in_flight":1,"#,
                r#""latency_ns":{"count":1,"p50_le":511,"p99_le":511,"mean_le":511,"#,
                r#""buckets":[[511,1]]}},"lag_pair_scan":{"entered":10,"exited":9,"#,
                r#""in_flight":1,"latency_ns":{"count":1,"p50_le":1023,"p99_le":1023,"#,
                r#""mean_le":1023,"buckets":[[1023,1]]}}},"counters":{"pairs_evaluated":100,"#,
                r#""candidate_pairs":101,"pairs_pruned":102,"members_grown":103,"#,
                r#""motifs_merged":104,"near_phi":105,"near_group":106,"f64_reverified":107,"#,
                r#""ks_tests":108,"rebins_pyramid":109,"rebins_direct":110,"level_folds":111,"#,
                r#""prune_pairs_total":112,"pairs_pruned_degenerate":113,"#,
                r#""pairs_pruned_sax":114,"pairs_pruned_moment":115,"#,
                r#""prune_pairs_evaluated":116,"prune_mask_fallthrough":117,"#,
                r#""lag_cells_total":118,"lag_cells_pruned_degenerate":119,"#,
                r#""lag_cells_pruned_sketch":120,"lag_cells_pruned_energy":121,"#,
                r#""lag_cells_evaluated":122},"stationarity_sim_millis":{"count":2,"#,
                r#""p50_le":1023,"p99_le":1023,"mean_le":1023,"buckets":[[1023,2]]},"#,
                r#""conserved":true,"quiescent":false"#,
                r#","laws":{"motif":{"holds":false,"terms":{"candidate_pairs":101,"#,
                r#""pairs_pruned":102,"pairs_evaluated":100}},"prune_tiers":{"holds":false,"#,
                r#""terms":{"pairs_pruned_degenerate":113,"pairs_pruned_sax":114,"#,
                r#""pairs_pruned_moment":115,"prune_pairs_evaluated":116,"#,
                r#""prune_pairs_total":112}},"lag_tiers":{"holds":false,"#,
                r#""terms":{"lag_cells_pruned_degenerate":119,"lag_cells_pruned_sketch":120,"#,
                r#""lag_cells_pruned_energy":121,"lag_cells_evaluated":122,"#,
                r#""lag_cells_total":118}},"rebin":{"holds":false,"terms":{"rebins_pyramid":109,"#,
                r#""rebins_direct":110,"rebin.entered":6}},"level_folds":{"holds":false,"#,
                r#""terms":{"level_folds":111,"rebins_pyramid":109}},"#,
                r#""profile_build.conserved":{"holds":true,"terms":{"profile_build.exited":1,"#,
                r#""profile_build.in_flight":1,"profile_build.entered":2}},"#,
                r#""profile_build.drained":{"holds":false,"terms":{"profile_build.exited":1,"#,
                r#""profile_build.entered":2}},"row_fill.conserved":{"holds":true,"#,
                r#""terms":{"row_fill.exited":2,"row_fill.in_flight":1,"row_fill.entered":3}},"#,
                r#""row_fill.drained":{"holds":false,"terms":{"row_fill.exited":2,"#,
                r#""row_fill.entered":3}},"motif_discovery.conserved":{"holds":true,"#,
                r#""terms":{"motif_discovery.exited":3,"motif_discovery.in_flight":1,"#,
                r#""motif_discovery.entered":4}},"motif_discovery.drained":{"holds":false,"#,
                r#""terms":{"motif_discovery.exited":3,"motif_discovery.entered":4}},"#,
                r#""pyramid_build.conserved":{"holds":true,"terms":{"pyramid_build.exited":4,"#,
                r#""pyramid_build.in_flight":1,"pyramid_build.entered":5}},"#,
                r#""pyramid_build.drained":{"holds":false,"terms":{"pyramid_build.exited":4,"#,
                r#""pyramid_build.entered":5}},"rebin.conserved":{"holds":true,"#,
                r#""terms":{"rebin.exited":5,"rebin.in_flight":1,"rebin.entered":6}},"#,
                r#""rebin.drained":{"holds":false,"terms":{"rebin.exited":5,"rebin.entered":6}},"#,
                r#""window_score.conserved":{"holds":true,"terms":{"window_score.exited":6,"#,
                r#""window_score.in_flight":1,"window_score.entered":7}},"#,
                r#""window_score.drained":{"holds":false,"terms":{"window_score.exited":6,"#,
                r#""window_score.entered":7}},"sketch_build.conserved":{"holds":true,"#,
                r#""terms":{"sketch_build.exited":7,"sketch_build.in_flight":1,"#,
                r#""sketch_build.entered":8}},"sketch_build.drained":{"holds":false,"#,
                r#""terms":{"sketch_build.exited":7,"sketch_build.entered":8}},"#,
                r#""lag_prepare.conserved":{"holds":true,"terms":{"lag_prepare.exited":8,"#,
                r#""lag_prepare.in_flight":1,"lag_prepare.entered":9}},"#,
                r#""lag_prepare.drained":{"holds":false,"terms":{"lag_prepare.exited":8,"#,
                r#""lag_prepare.entered":9}},"lag_pair_scan.conserved":{"holds":true,"#,
                r#""terms":{"lag_pair_scan.exited":9,"lag_pair_scan.in_flight":1,"#,
                r#""lag_pair_scan.entered":10}},"lag_pair_scan.drained":{"holds":false,"#,
                r#""terms":{"lag_pair_scan.exited":9,"lag_pair_scan.entered":10}}}}"#,
            )
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
        // An empty histogram has no mean; the report must say null, never
        // a bare NaN token (which is not JSON).
        let empty = HistogramSnapshot {
            counts: vec![0; BUCKETS],
        };
        assert!(empty.mean_upper().is_nan());
        assert!(empty.to_json().contains("\"mean_le\":null"));
        let h = LogHistogram::new();
        h.record(3);
        assert_eq!(h.snapshot().mean_upper(), 3.0);
        assert!(h.snapshot().to_json().contains("\"mean_le\":3"));
    }

    #[test]
    fn sim_millis_scales_and_clamps() {
        assert_eq!(sim_millis(0.8), 800);
        assert_eq!(sim_millis(0.6004), 600);
        assert_eq!(sim_millis(-0.5), 0);
        assert_eq!(sim_millis(1.5), 1000);
    }

    #[test]
    fn counters_accumulate() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    /// `conserved` accepts the states a snapshot can legally observe
    /// mid-span and rejects an over-count no interleaving can produce.
    #[test]
    fn conserved_accepts_mid_span_states_and_rejects_over_counts() {
        // Between the two increments of `enter` (or, the same counts,
        // between the decrement and the increment of `Span::drop`).
        let mid = Stage::default();
        mid.entered.incr();
        let s = mid.snapshot();
        assert_eq!((s.entered, s.exited, s.in_flight), (1, 0, 0));
        assert!(s.conserved());
        assert!(!s.quiescent());
        // One item counted both done and in flight: impossible.
        let over = Stage::default();
        over.entered.incr();
        over.exited.incr();
        over.in_flight.incr();
        let s = over.snapshot();
        assert_eq!((s.entered, s.exited, s.in_flight), (1, 1, 1));
        assert!(!s.conserved());
        assert!(!s.quiescent());
    }

    #[test]
    fn spans_across_threads_stay_conserved() {
        let stage = Stage::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let _span = stage.enter();
                    }
                });
            }
        });
        let s = stage.snapshot();
        assert!(s.quiescent());
        assert_eq!(s.entered, 800);
        assert_eq!(s.latency_ns.total(), 800);
    }
}
