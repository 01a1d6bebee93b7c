//! Section 5's similarity-measure argument, quantified, plus the §3
//! device-classifier validation.

use crate::data::first_weeks;
use crate::experiments::{run_alone, Finish, Plan};
use crate::report::{fmt, pct, Table};
use crate::walk::GatewayView;
use std::collections::HashMap;
use std::path::Path;
use wtts_core::similarity::cor;
use wtts_devid::DeviceType;
use wtts_gwsim::Fleet;
use wtts_stats::{dtw, euclidean};
use wtts_timeseries::{aggregate, daily_windows, Granularity};

/// §5: why correlation similarity fits the application and Euclidean/DTW do
/// not. Three probes per requirement the paper lists:
///
/// (a) *trend identification under scaling* — a day and the same day at 3×
///     the volume must read as "the same behavior";
/// (b) *time alignment* — the same pattern shifted by three hours must NOT
///     read as the same behavior (ISPs schedule against wall-clock time);
/// (c) *interpretability* — `cor` has fixed, meaningful thresholds, while
///     raw distances need per-pair calibration (shown via their spread).
pub fn sec5_measures(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, sec5_measures_folds, out);
}

/// One probed day: whether (a) cor and (a) Euclidean pass the scaling
/// probe and (b) cor and (b) DTW pass the shift probe, and the Euclidean
/// distance to the scaled day.
type DayProbe = ([bool; 4], f64);

fn probe(view: &GatewayView) -> Vec<DayProbe> {
    let g = Granularity::hours(1); // 24-bin days: shifts are visible.
    let active = first_weeks(view.active_total(), 1);
    let binned = aggregate(&active, g, 0);
    let mut days = Vec::new();
    for w in daily_windows(&binned, 1, 0) {
        let day = w.series.into_values();
        if day.iter().filter(|v| v.is_finite() && **v > 0.0).count() < 4 {
            continue;
        }
        let day: Vec<f64> = day
            .iter()
            .map(|v| if v.is_finite() { *v } else { 0.0 })
            .collect();

        // (a) Scaled copy: same behavior, 3x the bytes.
        let scaled: Vec<f64> = day.iter().map(|v| v * 3.0).collect();
        let scale_cor_ok = cor(&day, &scaled) > 0.6;
        // Euclidean thinks the scaled day is as far away as an all-zero
        // day; count it "ok" when the scaled copy is closer than zeros.
        let zeros = vec![0.0; day.len()];
        let d_scaled = euclidean(&day, &scaled);
        let scale_euc_ok = d_scaled < euclidean(&day, &zeros);

        // (b) The same day rotated by 3 hours: different wall-clock
        // behavior. "ok" = the measure refuses to call it the same.
        let mut shifted = day.clone();
        shifted.rotate_right(3);
        let shift_cor_ok = cor(&day, &shifted) <= 0.6;
        // DTW absorbs the shift: its distance to the shifted day is far
        // below the distance to an unrelated constant; "ok" = it does
        // NOT absorb (never happens — that is the point).
        let flat = vec![day.iter().sum::<f64>() / day.len() as f64; day.len()];
        let shift_dtw_ok = dtw(&day, &shifted) >= dtw(&day, &flat);
        days.push((
            [scale_cor_ok, scale_euc_ok, shift_cor_ok, shift_dtw_ok],
            d_scaled,
        ));
    }
    days
}

/// [`sec5_measures`]'s folds: the first 40 gateways.
pub fn sec5_measures_folds(plan: &mut Plan<'_>) -> Finish {
    let probes = plan.each_of(0..40, probe);
    Box::new(move |r, out| sec5_measures_tables(r.take(probes), out))
}

fn sec5_measures_tables(probes: Vec<Vec<DayProbe>>, out: Option<&Path>) {
    let days: Vec<DayProbe> = probes.into_iter().flatten().collect();
    let pairs = days.len();
    let ok = |k: usize| days.iter().filter(|(ok, _)| ok[k]).count();
    let (scale_cor_ok, scale_euc_ok, shift_cor_ok, shift_dtw_ok) = (ok(0), ok(1), ok(2), ok(3));
    let euc_values: Vec<f64> = days.iter().map(|&(_, d)| d).collect();
    let mut t = Table::new(
        "Sec 5 - measure requirements scorecard",
        &["requirement", "cor (Def. 1)", "baseline"],
    );
    t.row(&[
        "(a) scaling-invariant trend match".into(),
        pct(scale_cor_ok as f64 / pairs.max(1) as f64),
        format!(
            "euclid beats zero-day: {}",
            pct(scale_euc_ok as f64 / pairs.max(1) as f64)
        ),
    ]);
    t.row(&[
        "(b) rejects 3h-shifted pattern".into(),
        pct(shift_cor_ok as f64 / pairs.max(1) as f64),
        format!(
            "dtw rejects shift: {}",
            pct(shift_dtw_ok as f64 / pairs.max(1) as f64)
        ),
    ]);
    let spread = if euc_values.is_empty() {
        0.0
    } else {
        wtts_stats::quantile(&euc_values, 0.9) / wtts_stats::quantile(&euc_values, 0.1).max(1.0)
    };
    t.row(&[
        "(c) fixed interpretable threshold".into(),
        "yes: [-1, 1], 0.6 = high".into(),
        format!("euclid spread p90/p10 = {}", fmt(spread, 0)),
    ]);
    t.emit(out);
    println!("{pairs} day-windows probed\n");
}

/// §3: the device classifier validated against ground truth, as the paper
/// did with its 49-home survey.
pub fn sec3_classifier(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, sec3_classifier_folds, out);
}

/// The survey subset the paper validated its classifier on.
const SURVEY_HOMES: usize = 49;

/// [`sec3_classifier`]'s folds: (truth, inferred) type of every device of
/// the survey homes.
pub fn sec3_classifier_folds(plan: &mut Plan<'_>) -> Finish {
    let labels = plan.each_of(0..SURVEY_HOMES, |view| {
        view.devices
            .iter()
            .map(|d| (d.spec.true_type, d.inferred_type()))
            .collect::<Vec<_>>()
    });
    Box::new(move |r, out| sec3_classifier_tables(r.take(labels), out))
}

fn sec3_classifier_tables(labels: Vec<Vec<(DeviceType, DeviceType)>>, out: Option<&Path>) {
    let survey_homes = SURVEY_HOMES;
    let mut confusion: HashMap<(DeviceType, DeviceType), usize> = HashMap::new();
    let mut total = 0usize;
    let mut correct = 0usize;
    for (truth, inferred) in labels.into_iter().flatten() {
        *confusion.entry((truth, inferred)).or_insert(0) += 1;
        total += 1;
        if truth == inferred {
            correct += 1;
        }
    }
    let mut t = Table::new(
        "Sec 3 - classifier confusion over the survey subset (rows = truth)",
        &[
            "truth \\ inferred",
            "portable",
            "fixed",
            "tv",
            "game_console",
            "network_eq",
            "unlabeled",
        ],
    );
    for truth in DeviceType::ALL {
        if truth == DeviceType::Unlabeled {
            continue;
        }
        let get = |inf: DeviceType| {
            confusion
                .get(&(truth, inf))
                .copied()
                .unwrap_or(0)
                .to_string()
        };
        t.row(&[
            truth.label().to_string(),
            get(DeviceType::Portable),
            get(DeviceType::Fixed),
            get(DeviceType::SmartTv),
            get(DeviceType::GameConsole),
            get(DeviceType::NetworkEquipment),
            get(DeviceType::Unlabeled),
        ]);
    }
    t.emit(out);
    println!(
        "{survey_homes} survey homes, {total} devices, accuracy {}\n",
        pct(correct as f64 / total.max(1) as f64)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_gwsim::FleetConfig;

    #[test]
    fn measures_experiments_run_small() {
        let fleet = Fleet::new(FleetConfig::small());
        sec5_measures(&fleet, None);
        sec3_classifier(&fleet, None);
    }
}
