//! Best aggregation granularity (Definition 3).
//!
//! Given candidate binnings `G`, the best granularity maximizes
//! `E[cor(x(g), y(g))]` over pairs of non-overlapping calendar windows of
//! the aggregated series. Section 7.1 applies this twice:
//!
//! * **weekly patterns** — windows are whole weeks; every week is compared
//!   with every other week; candidates are 1 minute and the divisor-of-24
//!   hours, with day starts at midnight, 2am and 3am. The paper's winner is
//!   8 hours starting at 2am.
//! * **daily patterns** — windows are days, but only *same weekday* pairs
//!   are compared (Mondays with Mondays, …); candidates range 1–180
//!   minutes. The winner is 3 hours.
//!
//! [`weekly_stationarity`] is a single-`(granularity, offset)` convenience;
//! daily binnings and whole candidate grids go through [`crate::sweep`],
//! which amortizes the per-series work (prefix-sum pyramid, window
//! extraction, profiles) across all candidates and parallelizes the grid.

use crate::stationarity::StationarityCheck;
use crate::sweep::weekly_cell;
use wtts_timeseries::{Granularity, TimeSeries};

/// Mean window correlation of one gateway at one candidate binning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GranularityScore {
    /// The aggregation granularity.
    pub granularity: Granularity,
    /// Day-start offset in minutes (0 = midnight, 120 = 2am, …).
    pub offset_minutes: u32,
    /// Mean pairwise window correlation (Definition 3's objective).
    pub mean_correlation: f64,
    /// Number of window pairs behind the mean.
    pub n_pairs: usize,
}

/// Strong stationarity of the weekly windows at a binning (Definition 2
/// applied to week-sized windows).
pub fn weekly_stationarity(
    series: &TimeSeries,
    weeks: u32,
    granularity: Granularity,
    offset_minutes: u32,
) -> Option<StationarityCheck> {
    weekly_cell(series, weeks, granularity, offset_minutes, true, None).stationarity
}

/// The score with the highest mean correlation (Definition 3's argmax).
pub fn best_score(scores: &[GranularityScore]) -> Option<&GranularityScore> {
    scores
        .iter()
        .filter(|s| s.mean_correlation.is_finite())
        .max_by(|a, b| {
            a.mean_correlation
                .partial_cmp(&b.mean_correlation)
                .expect("finite scores")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::daily_cell;
    use wtts_timeseries::{MINUTES_PER_DAY, MINUTES_PER_WEEK};

    /// Definition 3's weekly objective at one binning, as the sweep scores
    /// it.
    fn weekly_score(
        series: &TimeSeries,
        weeks: u32,
        granularity: Granularity,
        offset_minutes: u32,
    ) -> Option<GranularityScore> {
        weekly_cell(series, weeks, granularity, offset_minutes, false, None).score
    }

    /// Number of strongly stationary weekdays at one daily binning, as the
    /// sweep counts them.
    fn stationary_weekday_count(
        series: &TimeSeries,
        weeks: u32,
        granularity: Granularity,
        offset_minutes: u32,
    ) -> usize {
        daily_cell(series, weeks, granularity, offset_minutes, true, None)
            .stationary_weekday_count()
    }

    /// Four weeks of per-minute traffic with a strict evening habit plus
    /// per-minute deterministic wiggle.
    fn regular_series(weeks: u32) -> TimeSeries {
        let minutes = (weeks * MINUTES_PER_WEEK) as usize;
        let v: Vec<f64> = (0..minutes)
            .map(|m| {
                let minute_of_day = m % MINUTES_PER_DAY as usize;
                let day = m / MINUTES_PER_DAY as usize;
                let hour = minute_of_day / 60;
                // Evening bursts whose exact minutes drift from day to day:
                // fine binning sees misaligned spikes (low correlation),
                // coarse bins absorb the jitter — the paper's mechanism.
                if (18..23).contains(&hour) && (m + day * 37) % 11 < 3 {
                    5_000.0
                } else {
                    5.0 + ((minute_of_day * 31) % 97) as f64 * 0.05
                }
            })
            .collect();
        TimeSeries::per_minute(v)
    }

    /// A series whose days alternate chaotically.
    fn irregular_series(weeks: u32) -> TimeSeries {
        let minutes = (weeks * MINUTES_PER_WEEK) as usize;
        let v: Vec<f64> = (0..minutes)
            .map(|m| {
                let day = m / MINUTES_PER_DAY as usize;
                let hour = (m % MINUTES_PER_DAY as usize) / 60;
                // The active hour hops pseudo-randomly from day to day.
                let active = (day * 7 + 3) % 24;
                if hour == active {
                    4_000.0 + ((m * 13) % 89) as f64
                } else {
                    ((m * 17) % 23) as f64
                }
            })
            .collect();
        TimeSeries::per_minute(v)
    }

    #[test]
    fn aggregation_raises_weekly_correlation_for_regular_series() {
        let s = regular_series(4);
        let fine = weekly_score(&s, 4, Granularity::minutes(1), 0).unwrap();
        let coarse = weekly_score(&s, 4, Granularity::hours(8), 0).unwrap();
        assert!(
            coarse.mean_correlation > fine.mean_correlation,
            "coarse {} must beat fine {}",
            coarse.mean_correlation,
            fine.mean_correlation
        );
        assert!(coarse.mean_correlation > 0.9);
        assert_eq!(fine.n_pairs, 6, "4 weeks -> 6 pairs");
    }

    #[test]
    fn irregular_series_scores_below_regular() {
        let irregular = irregular_series(4);
        let regular = regular_series(4);
        for g in [Granularity::hours(3), Granularity::hours(8)] {
            let irr = weekly_score(&irregular, 4, g, 0).unwrap();
            let reg = weekly_score(&regular, 4, g, 0).unwrap();
            assert!(
                irr.mean_correlation < reg.mean_correlation - 0.2,
                "at {g}: irregular {} vs regular {}",
                irr.mean_correlation,
                reg.mean_correlation
            );
            assert!(irr.mean_correlation < 0.75);
        }
    }

    #[test]
    fn daily_correlation_regular_series() {
        let s = regular_series(3);
        let score = daily_cell(&s, 3, Granularity::hours(3), 0, false, None)
            .score
            .unwrap();
        assert!(score.mean_correlation > 0.9, "{score:?}");
        // 3 instances of each weekday -> 3 pairs x 7 days = 21.
        assert_eq!(score.n_pairs, 21);
    }

    #[test]
    fn weekly_stationarity_verdicts() {
        let regular = regular_series(4);
        let check = weekly_stationarity(&regular, 4, Granularity::hours(8), 0).unwrap();
        assert!(check.is_stationary(), "{check:?}");

        let irregular = irregular_series(4);
        let check = weekly_stationarity(&irregular, 4, Granularity::hours(8), 0).unwrap();
        assert!(!check.is_stationary());
    }

    #[test]
    fn stationary_weekday_count_regular() {
        let s = regular_series(4);
        let n = stationary_weekday_count(&s, 4, Granularity::hours(3), 0);
        assert_eq!(n, 7, "every weekday repeats in the regular series");
        let irr = irregular_series(4);
        let n_irr = stationary_weekday_count(&irr, 4, Granularity::hours(3), 0);
        assert!(
            n_irr <= 2,
            "irregular series has few stationary days: {n_irr}"
        );
    }

    #[test]
    fn offsets_change_the_windows() {
        let s = regular_series(4);
        let midnight = weekly_score(&s, 4, Granularity::hours(8), 0).unwrap();
        let two_am = weekly_score(&s, 4, Granularity::hours(8), 120).unwrap();
        // Both are valid scores over the same data; they need not be equal,
        // but both must be high for the regular series.
        assert!(midnight.mean_correlation > 0.8);
        assert!(two_am.mean_correlation > 0.8);
        assert_eq!(two_am.offset_minutes, 120);
    }

    #[test]
    fn too_few_weeks_is_none() {
        let s = regular_series(1);
        assert!(weekly_score(&s, 1, Granularity::hours(8), 0).is_none());
    }

    #[test]
    fn best_score_picks_argmax() {
        let s = regular_series(4);
        let scores: Vec<GranularityScore> = [1u32, 3, 8]
            .into_iter()
            .map(|h| weekly_score(&s, 4, Granularity::hours(h), 0).unwrap())
            .collect();
        let best = best_score(&scores).unwrap();
        let max = scores
            .iter()
            .map(|s| s.mean_correlation)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(best.mean_correlation, max);
        assert!(best_score(&[]).is_none());
    }
}
