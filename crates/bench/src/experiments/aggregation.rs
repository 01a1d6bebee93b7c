//! Figures 6–8: choosing the best aggregation period for weekly and daily
//! patterns.
//!
//! All three figures are views over two sweep grids: one weekly
//! `(granularity, offset)` grid (fig. 6) and one daily granularity grid
//! (figs. 7 and 8). Each grid is evaluated once through
//! `wtts_core::sweep`, which shares the per-gateway prefix-sum pyramid
//! across candidates and yields Definition-3 scores and Definition-2
//! stationarity verdicts together — the runner no longer re-runs identical
//! per-candidate computations per figure.

use crate::data::{first_weeks, observed_every_day, observed_every_week};
use crate::experiments::{run_alone, Finish, Plan};
use crate::report::{fmt, Table};
use crate::walk::GatewayView;
use std::path::Path;
use wtts_core::sweep::{daily_sweep, weekly_sweep, DailyCell, DailySweep, SweepConfig, WeeklyCell};
use wtts_gwsim::Fleet;
use wtts_stats::mean;
use wtts_timeseries::Granularity;

/// Weeks of active traffic the aggregation analyses read.
const WEEKS: u32 = 4;

/// A sweep cell depends on its own series only, so each eligible gateway's
/// row is swept on the walk's worker thread, on that thread alone.
const ONE_THREAD: SweepConfig = SweepConfig { threads: Some(1) };

/// Figure 6's day starts.
const OFFSETS: [u32; 3] = [0, 120, 180];

/// Figure 6's `(granularity, offset)` grid.
fn weekly_candidates() -> Vec<(Granularity, u32)> {
    let mut candidates = Vec::new();
    for &offset in &OFFSETS {
        for &g in Granularity::weekly_candidates() {
            if g.as_minutes() < 60 && offset != 0 {
                continue; // 1-minute binning only evaluated from midnight.
            }
            candidates.push((g, offset));
        }
    }
    candidates
}

/// A weekly-eligible gateway's Figure 6 sweep row over its four-week
/// active series.
fn weekly_row(view: &GatewayView) -> Option<Vec<WeeklyCell>> {
    let active = first_weeks(view.active_total(), WEEKS);
    observed_every_week(&active, WEEKS).then(|| {
        let sweep = weekly_sweep(&[active], WEEKS, &weekly_candidates(), &ONE_THREAD, None);
        sweep.cells.into_iter().next().expect("one row")
    })
}

/// A daily-eligible gateway's sweep row over the paper's daily candidates.
pub fn daily_row(view: &GatewayView) -> Option<Vec<DailyCell>> {
    let active = first_weeks(view.active_total(), WEEKS);
    observed_every_day(&active, WEEKS).then(|| {
        let candidates = Granularity::daily_candidates();
        let sweep = daily_sweep(&[active], WEEKS, candidates, 0, &ONE_THREAD, None);
        sweep.cells.into_iter().next().expect("one row")
    })
}

/// Figure 6: average week-to-week correlation per aggregation granularity,
/// for day starts at midnight and 2am, over all eligible gateways and over
/// the strongly stationary ones.
pub fn fig6(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, fig6_folds, out);
}

/// [`fig6`]'s folds: one sweep of the whole offset x granularity grid per
/// eligible gateway; every figure row is a read-out of its cells.
pub fn fig6_folds(plan: &mut Plan<'_>) -> Finish {
    let rows = plan.each(weekly_row);
    Box::new(move |r, out| {
        let rows: Vec<Vec<WeeklyCell>> = r.take(rows).into_iter().flatten().collect();
        fig6_tables(&weekly_candidates(), &rows, out);
    })
}

fn fig6_tables(candidates: &[(Granularity, u32)], rows: &[Vec<WeeklyCell>], out: Option<&Path>) {
    println!(
        "{} gateways eligible for weekly aggregation analysis",
        rows.len()
    );

    for &offset in &OFFSETS {
        let mut t = Table::new(
            &format!(
                "Fig 6 - weekly aggregation curves (day start {:02}:00)",
                offset / 60
            ),
            &[
                "granularity",
                "avg cor (all)",
                "avg cor (stationary)",
                "#stationary",
            ],
        );
        for (k, &(g, o)) in candidates.iter().enumerate() {
            if o != offset {
                continue;
            }
            let mut all = Vec::new();
            let mut stat = Vec::new();
            for row in rows {
                let cell = &row[k];
                let Some(score) = cell.score else {
                    continue;
                };
                all.push(score.mean_correlation);
                if cell.stationarity.is_some_and(|c| c.is_stationary()) {
                    stat.push(score.mean_correlation);
                }
            }
            t.row(&[
                g.to_string(),
                fmt(mean(&all), 3),
                fmt(mean(&stat), 3),
                stat.len().to_string(),
            ]);
        }
        t.emit(out);
    }
}

/// The shared daily analysis behind figures 7 and 8: one sweep of every
/// daily-eligible gateway over the paper's 1–180-minute candidates.
pub struct DailyAnalysis {
    /// Number of gateways that passed the daily eligibility filter.
    pub n_eligible: usize,
    /// The full daily sweep (scores plus per-weekday stationarity).
    pub sweep: DailySweep,
}

/// Runs the daily eligibility filter and the shared candidate sweep once;
/// the experiments runner hands the result to both [`fig7`] and [`fig8`].
pub fn daily_analysis(fleet: &Fleet) -> DailyAnalysis {
    let mut plan = Plan::new(fleet);
    plan.daily_analysis();
    plan.walk().into_daily_analysis()
}

impl DailyAnalysis {
    /// The daily sweep assembled from the daily-eligible gateways' rows
    /// ([`daily_row`]), in gateway-id order.
    pub fn of(rows: Vec<Vec<DailyCell>>) -> DailyAnalysis {
        DailyAnalysis {
            n_eligible: rows.len(),
            sweep: DailySweep {
                offset_minutes: 0,
                candidates: Granularity::daily_candidates().to_vec(),
                cells: rows,
            },
        }
    }
}

/// [`fig7`]'s folds: the shared daily analysis.
pub fn fig7_folds(plan: &mut Plan<'_>) -> Finish {
    plan.daily_analysis();
    Box::new(|r, out| fig7(r.daily_analysis(), out))
}

/// [`fig8`]'s folds: the shared daily analysis.
pub fn fig8_folds(plan: &mut Plan<'_>) -> Finish {
    plan.daily_analysis();
    Box::new(|r, out| fig8(r.daily_analysis(), out))
}

/// Looks up a granularity's column in the shared daily sweep.
fn daily_column(daily: &DailyAnalysis, g: Granularity) -> usize {
    daily
        .sweep
        .candidates
        .iter()
        .position(|&c| c == g)
        .expect("figure granularities are paper daily candidates")
}

/// Figure 7: number of strongly stationary gateways per daily aggregation
/// granularity, stacked by how many weekdays are stationary.
pub fn fig7(daily: &DailyAnalysis, out: Option<&Path>) {
    println!("{} gateways eligible for daily analysis", daily.n_eligible);

    let mut t = Table::new(
        "Fig 7 - stationary gateways per daily granularity",
        &[
            "granularity",
            "total",
            "1 day",
            "2 days",
            "3 days",
            "4 days",
            "5+ days",
        ],
    );
    for g in [10u32, 30, 60, 90, 120, 180] {
        let g = Granularity::minutes(g);
        let k = daily_column(daily, g);
        let mut by_days = [0usize; 5];
        for row in &daily.sweep.cells {
            let days = row[k].stationary_weekday_count();
            if days > 0 {
                by_days[(days - 1).min(4)] += 1;
            }
        }
        let total: usize = by_days.iter().sum();
        t.row(&[
            g.to_string(),
            total.to_string(),
            by_days[0].to_string(),
            by_days[1].to_string(),
            by_days[2].to_string(),
            by_days[3].to_string(),
            by_days[4].to_string(),
        ]);
    }
    t.emit(out);
}

/// Figure 8: average same-weekday correlation per daily granularity, for
/// all eligible gateways and for gateways with at least one stationary
/// weekday.
pub fn fig8(daily: &DailyAnalysis, out: Option<&Path>) {
    let mut t = Table::new(
        "Fig 8 - daily aggregation curves",
        &[
            "granularity",
            "avg cor (all)",
            "avg cor (stationary)",
            "#stationary",
        ],
    );
    for &g in Granularity::daily_candidates() {
        let k = daily_column(daily, g);
        let mut all = Vec::new();
        let mut stat = Vec::new();
        for row in &daily.sweep.cells {
            let cell = &row[k];
            let Some(score) = cell.score else {
                continue;
            };
            all.push(score.mean_correlation);
            if cell.stationary_weekday_count() > 0 {
                stat.push(score.mean_correlation);
            }
        }
        t.row(&[
            g.to_string(),
            fmt(mean(&all), 3),
            fmt(mean(&stat), 3),
            stat.len().to_string(),
        ]);
    }
    t.emit(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_gwsim::FleetConfig;

    /// A row swept alone equals its row of a batch sweep.
    #[test]
    fn per_gateway_rows_match_a_batch_sweep() {
        let fleet = Fleet::new(FleetConfig {
            n_gateways: 3,
            weeks: 4,
            ..FleetConfig::small()
        });
        let active: Vec<_> = (0..fleet.len())
            .map(|id| first_weeks(&crate::data::active_total(&fleet.gateway(id)), WEEKS))
            .collect();
        let rows = crate::walk::walk_ids(&fleet, 0..fleet.len(), |v| (weekly_row(v), daily_row(v)));
        let weekly: Vec<_> = active
            .iter()
            .filter(|s| observed_every_week(s, WEEKS))
            .cloned()
            .collect();
        assert!(!weekly.is_empty(), "no eligible gateway");
        let batch = weekly_sweep(
            &weekly,
            WEEKS,
            &weekly_candidates(),
            &SweepConfig::default(),
            None,
        );
        let walked: Vec<_> = rows.iter().filter_map(|r| r.0.clone()).collect();
        assert_eq!(format!("{:?}", batch.cells), format!("{walked:?}"));
        let daily: Vec<_> = active
            .iter()
            .filter(|s| observed_every_day(s, WEEKS))
            .cloned()
            .collect();
        let batch = daily_sweep(
            &daily,
            WEEKS,
            Granularity::daily_candidates(),
            0,
            &SweepConfig::default(),
            None,
        );
        let walked: Vec<_> = rows.into_iter().filter_map(|r| r.1).collect();
        assert_eq!(format!("{:?}", batch.cells), format!("{walked:?}"));
    }

    #[test]
    fn daily_analysis_covers_paper_candidates() {
        let fleet = Fleet::new(FleetConfig::small());
        let daily = daily_analysis(&fleet);
        assert_eq!(
            daily.sweep.candidates,
            Granularity::daily_candidates().to_vec()
        );
        assert_eq!(daily.sweep.cells.len(), daily.n_eligible);
        // Every fig-7 granularity must resolve to a sweep column.
        for g in [10u32, 30, 60, 90, 120, 180] {
            let _ = daily_column(&daily, Granularity::minutes(g));
        }
    }
}
