//! Regression tests for `CondensedMatrix` f32 quantization at decision
//! thresholds, plus the observability bit-identity and conservation
//! guarantees.
//!
//! The condensed similarity matrix stores `f64` correlations rounded to
//! `f32`. Near a decision threshold that rounding is one-sided trouble: an
//! exact similarity in the half-ULP band just *below* φ = 0.8 (or 0.6)
//! rounds **up** across the threshold, so a pre-fix `≥ φ` comparison on the
//! `f32` admits a pair the paper's Definition 5 excludes. The tests here
//! construct such pairs by bisection and assert motif discovery now rejects
//! them (re-verifying near-threshold comparisons in `f64`), while pairs
//! comfortably over the threshold still join.

use wtts_core::motif::{discover_motifs, discover_motifs_indexed, MotifConfig, MotifIndex};
use wtts_core::obs::PipelineObs;
use wtts_core::{
    cor, cor_matrix_pruned, cor_matrix_pruned_observed, profile_series, sketch_series,
    CorMatrixConfig, PruneConfig,
};

/// The base window: one large outlier followed by scrambled small values.
/// Paired with [`probe_window`], the Pearson coefficient is a smooth,
/// monotone function of the probe's outlier `t` — ideal for bisection.
fn anchor_window(n: usize) -> Vec<f64> {
    let mut w = vec![1000.0];
    w.extend((1..n).map(|k| ((k * 37) % 19) as f64));
    w
}

/// The probe window: outlier `t` at the anchor's outlier position, then a
/// *differently* scrambled small tail, so the rank-based coefficients stay
/// fixed (and low) for every `t` above the tail's maximum of 16.
fn probe_window(n: usize, t: f64) -> Vec<f64> {
    let mut w = vec![t];
    w.extend((1..n).map(|k| ((k * 53) % 17) as f64));
    w
}

/// Bisects the probe outlier until `cor(anchor, probe)` lands in the f64
/// band just below `threshold` that rounds *up* to an f32 `≥ threshold` —
/// the exact inputs on which a verdict taken off the f32 matrix flips.
fn pair_rounding_up_across(threshold: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
    let x = anchor_window(n);
    // Keep t above the probe tail's value range so ranks never change.
    let mut lo = 20.0f64;
    let mut hi = 1e7f64;
    let c_lo = cor(&x, &probe_window(n, lo));
    let c_hi = cor(&x, &probe_window(n, hi));
    assert!(
        c_lo < threshold && c_hi > threshold,
        "bisection bracket broken: cor({lo}) = {c_lo}, cor({hi}) = {c_hi}"
    );
    for _ in 0..200 {
        let mid = lo + (hi - lo) / 2.0;
        if mid == lo || mid == hi {
            break;
        }
        if cor(&x, &probe_window(n, mid)) < threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let y = probe_window(n, lo);
    let exact = cor(&x, &y);
    assert!(
        exact < threshold,
        "premise: exact f64 similarity {exact} must sit below {threshold}"
    );
    assert!(
        (exact as f32) as f64 >= threshold,
        "premise: f32 rounding must carry {exact} up across {threshold} \
         (rounded to {})",
        exact as f32
    );
    (x, y)
}

/// A probe pair comfortably above the threshold (no rounding ambiguity).
fn pair_clearly_above(threshold: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
    let x = anchor_window(n);
    let mut lo = 20.0f64;
    let mut hi = 1e7f64;
    // Aim mid-way between the threshold and 1 — far outside any band.
    let target = (threshold + 1.0) / 2.0;
    for _ in 0..200 {
        let mid = lo + (hi - lo) / 2.0;
        if mid == lo || mid == hi {
            break;
        }
        if cor(&x, &probe_window(n, mid)) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let y = probe_window(n, hi);
    let exact = cor(&x, &y);
    assert!(exact >= target && exact < 0.99, "control pair at {exact}");
    (x, y)
}

/// A pair whose exact similarity sits a half f32 ULP below φ = 0.8 must not
/// form a motif: the pre-fix code admitted it off the rounded-up f32.
#[test]
fn f32_round_up_at_phi_does_not_flip_membership() {
    let (x, y) = pair_rounding_up_across(0.8, 24);
    let motifs = discover_motifs(&[x, y], &MotifConfig::default());
    assert!(
        motifs.is_empty(),
        "pair below φ in f64 formed a motif off the rounded f32: {motifs:?}"
    );
}

/// The same construction at the merge/group threshold value 0.6 (¾φ, the
/// dominance threshold and the stationarity threshold share it).
#[test]
fn f32_round_up_at_group_threshold_does_not_flip_membership() {
    let (x, y) = pair_rounding_up_across(0.6, 24);
    let motifs = discover_motifs(
        &[x, y],
        &MotifConfig {
            phi: 0.6,
            ..MotifConfig::default()
        },
    );
    assert!(
        motifs.is_empty(),
        "pair below 0.6 in f64 formed a motif off the rounded f32: {motifs:?}"
    );
}

/// Positive control: the re-verification guard must not reject pairs that
/// genuinely clear the threshold.
#[test]
fn clearly_similar_pair_still_forms_a_motif() {
    let (x, y) = pair_clearly_above(0.8, 24);
    let motifs = discover_motifs(&[x, y], &MotifConfig::default());
    assert_eq!(motifs.len(), 1, "control pair must form one motif");
    assert_eq!(motifs[0].support(), 2);
}

/// The near-threshold pair is exactly what the observability layer's
/// `f64_reverified` counter instruments: discovering over it must trigger
/// at least one f64 re-verification, and the books must balance.
#[test]
fn near_threshold_pair_is_reverified_and_counted() {
    let (x, y) = pair_rounding_up_across(0.8, 24);
    let obs = PipelineObs::new();
    let config = MotifConfig::default();
    let index = MotifIndex::new(&[x, y], config.min_observations);
    let motifs = discover_motifs_indexed(&index, &config, Some(&obs));
    assert!(motifs.is_empty());
    let snap = obs.snapshot();
    assert!(snap.laws().iter().all(|law| law.holds), "{:?}", snap.laws());
    assert!(
        snap.counter("f64_reverified") >= 1,
        "the constructed pair must land in the re-verification band"
    );
    assert_eq!(snap.counter("pairs_evaluated"), 1);
    assert_eq!(
        snap.counter("near_phi"),
        1,
        "the pair sits within 1e-3 of φ"
    );
}

/// Fixture for the bit-identity checks: three clusters plus noise and a
/// NaN-holed window, big enough to exercise candidate, growth and merge
/// phases.
fn mixed_windows() -> Vec<Vec<f64>> {
    let mut windows: Vec<Vec<f64>> = (0..6)
        .map(|s| {
            (0..24)
                .map(|b| {
                    let base = if b >= 18 { 900.0 } else { 8.0 };
                    base + ((b * 7 + s * 13) % 11) as f64
                })
                .collect()
        })
        .collect();
    windows.extend((0..5).map(|s| {
        (0..24)
            .map(|b| {
                let base = if (6..9).contains(&b) { 700.0 } else { 5.0 };
                base + ((b * 5 + s * 17) % 13) as f64
            })
            .collect()
    }));
    windows.extend((0..4).map(|s: usize| {
        (0..24)
            .map(|b: usize| ((b * 7919 + s * 104729) % 997) as f64)
            .collect()
    }));
    let mut holey: Vec<f64> = (0..24).map(|b| (b % 7) as f64).collect();
    holey[3] = f64::NAN;
    holey[15] = f64::NAN;
    windows.push(holey);
    windows
}

/// Enabling observability must not change a single output bit: the metrics
/// layer only observes, never decides.
#[test]
fn observed_runs_are_bit_identical_to_unobserved() {
    let windows = mixed_windows();
    let obs = PipelineObs::new();

    // Motif discovery.
    let config = MotifConfig::default();
    let plain = discover_motifs(&windows, &config);
    let index = MotifIndex::new(&windows, config.min_observations);
    let observed = discover_motifs_indexed(&index, &config, Some(&obs));
    assert_eq!(plain, observed);

    // The pruned matrix: same survivors, same bits, same tier books.
    let profiles = profile_series(&windows);
    let prune = PruneConfig::at_threshold(0.6);
    let sketches = sketch_series(&profiles, &prune.sketch);
    let (m_plain, s_plain) = cor_matrix_pruned(&profiles, &sketches, &prune);
    let (m_obs, s_obs) = cor_matrix_pruned_observed(&profiles, &sketches, &prune, Some(&obs));
    assert_eq!(s_plain, s_obs);
    let bits = |m: &wtts_core::SparseCorMatrix| -> Vec<(usize, usize, u32)> {
        m.entries().map(|(i, j, v)| (i, j, v.to_bits())).collect()
    };
    assert_eq!(bits(&m_plain), bits(&m_obs));

    // And the registry that watched both is coherent.
    let snap = obs.snapshot();
    assert!(snap.quiescent());
    assert!(snap.counter("pairs_evaluated") > 0);
    assert!(snap.counter("prune_pairs_total") > 0);
}

/// The snapshot's conservation law holds at quiescence after a
/// multi-threaded pruned matrix fill.
#[test]
fn row_fill_stages_conserve_across_threads() {
    let windows = mixed_windows();
    let obs = PipelineObs::new();
    let profiles = profile_series(&windows);
    let config = PruneConfig {
        matrix: CorMatrixConfig {
            threads: Some(4),
            ..CorMatrixConfig::default()
        },
        ..PruneConfig::at_threshold(0.6)
    };
    let sketches = sketch_series(&profiles, &config.sketch);
    let _ = cor_matrix_pruned_observed(&profiles, &sketches, &config, Some(&obs));
    let snap = obs.snapshot();
    assert!(snap.quiescent(), "{snap:?}");
    let row_fill = &snap
        .stages
        .iter()
        .find(|(n, _)| *n == "row_fill")
        .unwrap()
        .1;
    assert_eq!(row_fill.entered, (windows.len() - 1) as u64);
    assert_eq!(row_fill.latency_ns.total(), row_fill.exited);
}

/// On an indexed discovery the motif scan visits exactly the pruned
/// matrix's survivors: every pair the matrix evaluated is compared against
/// φ once, and each comparison ends as a candidate or a rejection.
#[test]
fn motif_scan_visits_exactly_the_prune_survivors() {
    let windows = mixed_windows();
    let obs = PipelineObs::new();
    let config = MotifConfig::default();
    let index = MotifIndex::new(&windows, config.min_observations);
    let motifs = discover_motifs_indexed(&index, &config, Some(&obs));
    assert!(!motifs.is_empty());
    let snap = obs.snapshot();
    assert!(
        snap.counter("prune_pairs_evaluated") < snap.counter("prune_pairs_total"),
        "the fixture must prune some pairs: {snap:?}"
    );
    assert_eq!(
        snap.counter("pairs_evaluated"),
        snap.counter("prune_pairs_evaluated")
    );
    assert!(snap.holds("motif"), "{:?}", snap.laws());
}
