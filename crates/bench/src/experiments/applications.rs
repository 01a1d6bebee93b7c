//! Application-level experiments beyond the paper's figures:
//!
//! * `sec4-arima` — makes §4.2's qualitative claim ("ARIMA modeling …
//!   cannot yield useful results, as it is not able to predict the rare
//!   bursts") quantitative with out-of-sample AR forecasts.
//! * `app-maintenance` — the intro's headline use case: per-gateway
//!   firmware-update windows chosen from the weekly activity profile.

use crate::data::first_weeks;
use crate::experiments::{run_alone, Finish, Plan};
use crate::report::{fmt, pct, Table};
use crate::walk::GatewayView;
use std::collections::HashMap;
use std::path::Path;
use wtts_core::anomaly::{AnomalyConfig, AnomalyDetector, Verdict};
use wtts_core::maintenance::{MaintenanceWindow, WeeklyProfile};
use wtts_gwsim::Fleet;
use wtts_stats::{dominant_period, forecast_rmse, ljung_box};
use wtts_timeseries::{aggregate, daily_windows, Granularity};

/// §4.2 quantified: the paper's ARIMA verdict. AR models track traffic
/// *within* a burst (persistence), but they cannot predict burst *onsets* —
/// the rare active-traffic events ISP planning actually cares about — and
/// they add almost nothing over the trivial persistence predictor.
pub fn sec4_arima(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, sec4_arima_folds, out);
}

const AR_GRANULARITIES: [Granularity; 3] = [
    Granularity::minutes(1),
    Granularity::minutes(30),
    Granularity::hours(3),
];

/// One gateway's AR forecast at one granularity.
struct ArPoint {
    skill_vs_mean: f64,
    skill_vs_persistence: Option<f64>,
    onsets: usize,
    captured: usize,
}

fn ar_points(view: &GatewayView) -> Vec<Option<ArPoint>> {
    let total = first_weeks(view.aggregate_total(), 2);
    AR_GRANULARITIES
        .iter()
        .map(|g| {
            let agg = aggregate(&total, *g, 0);
            let values = agg.values();
            let cmp = forecast_rmse(values, 4, 0.7)?;
            let mut point = ArPoint {
                skill_vs_mean: cmp.skill_vs_mean(),
                skill_vs_persistence: (cmp.persistence_rmse > 0.0)
                    .then(|| 1.0 - cmp.model_rmse / cmp.persistence_rmse),
                onsets: 0,
                captured: 0,
            };
            // Burst onsets in the test region: a jump from quiet to loud.
            let split = (values.len() as f64 * 0.7) as usize;
            let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
            let med = wtts_stats::median(&finite).max(1.0);
            for t_idx in split.max(1)..values.len() {
                let (prev, cur) = (values[t_idx - 1], values[t_idx]);
                if !prev.is_finite() || !cur.is_finite() {
                    continue;
                }
                if cur > 10.0 * med && prev < 2.0 * med {
                    point.onsets += 1;
                    let pred = cmp.model.forecast_one(&values[..t_idx]);
                    if pred >= 0.5 * cur {
                        point.captured += 1;
                    }
                }
            }
            Some(point)
        })
        .collect()
}

/// [`sec4_arima`]'s folds: the ten most observed gateways.
pub fn sec4_arima_folds(plan: &mut Plan<'_>) -> Finish {
    let points = plan.top(10, |view, _| ar_points(view));
    Box::new(move |r, out| sec4_arima_tables(r.take_top(points), out))
}

fn sec4_arima_tables(points: Vec<Vec<Option<ArPoint>>>, out: Option<&Path>) {
    let granularities = AR_GRANULARITIES;
    // Per granularity, filled gateway by gateway in rank order, so every
    // mean sums in the same order.
    let mut acc: Vec<ArAccumulator> = granularities.iter().map(|_| Default::default()).collect();
    for gateway in points {
        for (point, acc) in gateway.into_iter().zip(&mut acc) {
            let Some(point) = point else {
                continue;
            };
            acc.vs_mean.push(point.skill_vs_mean);
            acc.vs_persist.extend(point.skill_vs_persistence);
            acc.onsets += point.onsets;
            acc.captured += point.captured;
        }
    }
    let mut t = Table::new(
        "Sec 4.2 - AR(4) one-step forecasts on traffic",
        &[
            "granularity",
            "skill vs mean",
            "skill vs persistence",
            "burst onsets captured",
        ],
    );
    for (g, acc) in granularities.iter().zip(&acc) {
        t.row(&[
            g.to_string(),
            fmt(wtts_stats::mean(&acc.vs_mean), 3),
            fmt(wtts_stats::mean(&acc.vs_persist), 3),
            format!("{}/{}", acc.captured, acc.onsets),
        ]);
    }
    t.emit(out);
    println!(
        "Within-burst persistence is easy (positive skill vs the mean), but \
burst onsets — the events that matter — are essentially never predicted, \
and the model barely improves on naive persistence: the paper's ARIMA \
verdict.\n"
    );
}

/// One granularity's AR forecast results across the sampled gateways.
#[derive(Default)]
struct ArAccumulator {
    vs_mean: Vec<f64>,
    vs_persist: Vec<f64>,
    onsets: usize,
    captured: usize,
}

/// §4.2's "no gateway exhibits a seasonal behavior" quantified with the
/// periodogram: at 1-minute binning no spectral line dominates (bursts
/// spread the spectrum), while hourly aggregation reveals the ordinary
/// diurnal rhythm — low-level autocorrelation exists (Ljung–Box rejects
/// whiteness) but never a clean seasonal signal.
pub fn sec4_seasonal(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, sec4_seasonal_folds, out);
}

/// [`sec4_seasonal`]'s folds: one table row per top-10 gateway.
pub fn sec4_seasonal_folds(plan: &mut Plan<'_>) -> Finish {
    let rows = plan.top(10, |view, _| seasonal_row(view));
    Box::new(move |r, out| sec4_seasonal_tables(r.take_top(rows), out))
}

fn sec4_seasonal_tables(rows: Vec<Vec<String>>, out: Option<&Path>) {
    let mut t = Table::new(
        "Sec 4.2 - seasonality check (periodogram + Ljung-Box)",
        &[
            "gateway",
            "1m peak period (h)",
            "1m peak share",
            "1h peak period (h)",
            "1h peak share",
            "LB rejects whiteness",
        ],
    );
    for row in rows {
        t.row(&row);
    }
    t.emit(out);
    println!(
        "Low per-minute peak shares = no seasonal component worth modeling \
(the paper's finding); the hourly view shows the ordinary ~24h rhythm.\n"
    );
}

fn seasonal_row(view: &GatewayView) -> Vec<String> {
    let total = first_weeks(view.aggregate_total(), 2);
    let minute = total.observed_values();
    let hourly = aggregate(&total, Granularity::hours(1), 0).observed_values();
    let m = dominant_period(&minute);
    let h = dominant_period(&hourly);
    let lb = ljung_box(&minute, 60);
    vec![
        view.id.to_string(),
        fmt(
            m.map(|(l, _)| l.period_samples() / 60.0)
                .unwrap_or(f64::NAN),
            1,
        ),
        fmt(m.map(|(_, s)| s).unwrap_or(f64::NAN), 3),
        fmt(h.map(|(l, _)| l.period_samples()).unwrap_or(f64::NAN), 1),
        fmt(h.map(|(_, s)| s).unwrap_or(f64::NAN), 3),
        lb.map(|l| l.rejects_whiteness(0.05).to_string())
            .unwrap_or("-".into()),
    ]
}

/// The intro's use case: recommend per-gateway maintenance windows and
/// check how many homes would be disturbed by the naive fleet-wide
/// night-time broadcast instead.
pub fn app_maintenance(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, app_maintenance_folds, out);
}

/// A gateway's recommended window and whether the naive 03:00 broadcast
/// would hit it.
struct Recommendation {
    id: usize,
    archetype: String,
    window: MaintenanceWindow,
    night_busy: bool,
}

fn recommend(view: &GatewayView) -> Option<Recommendation> {
    let duration = 120; // 2-hour update window.
    let active = first_weeks(view.active_total(), 4);
    let profile = WeeklyProfile::from_active_series(&active, 60)?;
    let window = profile.recommend(duration)?;
    // Would the naive "everyone at 3am" policy hit this home? Count
    // homes with *meaningful* overnight activity — more than 1 MB
    // expected inside some 03:00-05:00 slot (stray syncs don't count,
    // an active user does).
    let night_busy = (0..7).any(|d| {
        let day = wtts_timeseries::Weekday::from_index(d);
        profile.cell(day, 3) > 1e6 || profile.cell(day, 4) > 1e6
    });
    Some(Recommendation {
        id: view.id,
        archetype: view.archetype.to_string(),
        window,
        night_busy,
    })
}

/// [`app_maintenance`]'s folds.
pub fn app_maintenance_folds(plan: &mut Plan<'_>) -> Finish {
    let recommendations = plan.each(recommend);
    Box::new(move |r, out| app_maintenance_tables(r.take(recommendations), out))
}

fn app_maintenance_tables(recommendations: Vec<Option<Recommendation>>, out: Option<&Path>) {
    let mut per_hour: HashMap<u32, usize> = HashMap::new();
    let mut night_disturbed = 0usize; // Naive 03:00-05:00 broadcast hits activity.
    let mut analyzed = 0usize;
    let mut examples = Vec::new();
    for rec in recommendations.into_iter().flatten() {
        analyzed += 1;
        *per_hour.entry(rec.window.start_minute / 60).or_insert(0) += 1;
        if rec.night_busy {
            night_disturbed += 1;
        }
        if examples.len() < 5 {
            examples.push((rec.id, rec.archetype, rec.window));
        }
    }
    let mut t = Table::new(
        "App - recommended maintenance window start hours (2h windows)",
        &["start hour", "gateways"],
    );
    let mut hours: Vec<(u32, usize)> = per_hour.into_iter().collect();
    hours.sort();
    for (h, count) in hours {
        t.row(&[format!("{h:02}:00"), count.to_string()]);
    }
    t.emit(out);

    let mut t = Table::new(
        "App - example per-gateway recommendations",
        &[
            "gateway",
            "archetype",
            "window",
            "expected bytes",
            "silent share",
        ],
    );
    for (id, archetype, w) in examples {
        t.row(&[
            id.to_string(),
            archetype,
            w.label(),
            fmt(w.expected_bytes, 0),
            pct(w.silent_share),
        ]);
    }
    t.emit(out);

    println!(
        "{analyzed} gateways analyzed; a naive fleet-wide 03:00 broadcast would \
hit {night_disturbed} homes with meaningful overnight activity ({}). \
Per-home windows avoid all of them.\n",
        pct(night_disturbed as f64 / analyzed.max(1) as f64)
    );
}

/// The troubleshooting use case: learn each home's behavior from three
/// weeks, then score a fourth week in which we inject known faults — a
/// dead day (radio/upstream outage) and a night-long flood (runaway
/// device). Reports detection and false-positive rates.
pub fn app_troubleshoot(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, app_troubleshoot_folds, out);
}

/// Scores one gateway's fourth week after learning its first three: per
/// test day, whether a fault was injected and the detector's verdict.
fn troubleshoot(view: &GatewayView) -> Vec<(bool, Verdict)> {
    let train_weeks = 3;
    let g = Granularity::hours(3);
    let active = first_weeks(view.active_total(), train_weeks + 1);
    let binned = aggregate(&active, g, 0);
    let windows = daily_windows(&binned, train_weeks + 1, 0);
    let (train, test): (Vec<_>, Vec<_>) = windows.into_iter().partition(|w| w.week < train_weeks);
    let detector = AnomalyDetector::new(
        train
            .into_iter()
            .filter_map(|w| w.weekday.map(|d| (d, w.series.into_values()))),
        AnomalyConfig::default(),
    );
    let mut days = Vec::new();
    for (i, w) in test.into_iter().enumerate() {
        let Some(day) = w.weekday else { continue };
        let mut values = w.series.into_values();
        let fault: Option<&str> = match i {
            1 => {
                // Dead day: the home reports, but nothing moves.
                values.iter_mut().for_each(|v| {
                    if v.is_finite() {
                        *v = 0.0;
                    }
                });
                Some("dead")
            }
            4 => {
                // Runaway device floods the uplink all night.
                for (b, v) in values.iter_mut().enumerate() {
                    if b < 3 {
                        *v = 5e9;
                    }
                }
                Some("flood")
            }
            _ => None,
        };
        days.push((fault.is_some(), detector.score(day, &values)));
    }
    days
}

/// [`app_troubleshoot`]'s folds: the first 60 gateways.
pub fn app_troubleshoot_folds(plan: &mut Plan<'_>) -> Finish {
    let scored = plan.each_of(0..60, troubleshoot);
    Box::new(move |r, out| app_troubleshoot_tables(r.take(scored), out))
}

fn app_troubleshoot_tables(scored: Vec<Vec<(bool, Verdict)>>, out: Option<&Path>) {
    let mut injected = 0usize;
    let mut detected = 0usize;
    let mut clean_days = 0usize;
    let mut false_alarms = 0usize;
    let mut insufficient = 0usize;
    for (fault, verdict) in scored.into_iter().flatten() {
        match (fault, verdict.is_anomalous()) {
            (true, true) => {
                injected += 1;
                detected += 1;
            }
            (true, false) => injected += 1,
            (false, anomalous) => {
                if verdict == Verdict::Insufficient {
                    insufficient += 1;
                } else {
                    clean_days += 1;
                    if anomalous {
                        false_alarms += 1;
                    }
                }
            }
        }
    }
    let mut t = Table::new(
        "App - anomaly detection on injected faults",
        &["metric", "value"],
    );
    t.row(&["injected faults".into(), injected.to_string()]);
    t.row(&[
        "detected".into(),
        format!(
            "{detected} ({})",
            pct(detected as f64 / injected.max(1) as f64)
        ),
    ]);
    t.row(&["clean days scored".into(), clean_days.to_string()]);
    t.row(&[
        "false alarms".into(),
        format!(
            "{false_alarms} ({})",
            pct(false_alarms as f64 / clean_days.max(1) as f64)
        ),
    ]);
    t.row(&["insufficient history".into(), insufficient.to_string()]);
    t.emit(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_gwsim::FleetConfig;

    #[test]
    fn application_experiments_run_small() {
        let fleet = Fleet::new(FleetConfig::small());
        app_maintenance(&fleet, None);
        app_troubleshoot(&fleet, None);
    }
}
