//! Section 4 standard analyses: Figures 1–3 and the §4.1/§4.2 text results.

use crate::data::first_weeks;
use crate::experiments::{run_alone, Finish, Plan};
use crate::report::{fmt, pct, Table};
use crate::walk::GatewayView;
use std::path::Path;
use wtts_core::clustering::cluster_correlated;
use wtts_gwsim::Fleet;
use wtts_stats::zipf::{fit_zipf, ZipfFit};
use wtts_stats::{
    acf, adf_test, ccf, effective_sample_size, kpss_test, ks_two_sample, pearson,
    significance_bound, significance_bound_effective, BoxplotStats, Kde,
};
use wtts_timeseries::{aggregate, Granularity, TimeSeries};

/// Ranks gateway ids by number of week-0 observations, densest first (a
/// stable sort, so ties keep id order). Reads the fleet's coverage memo, so
/// only the first call on a fleet renders it.
pub fn most_observed_gateways(fleet: &Fleet, top: usize) -> Vec<usize> {
    let mut ids = ranking(fleet.week0_coverage());
    ids.truncate(top);
    ids
}

/// Every gateway id ranked by its week-0 coverage, densest first (stable:
/// ties keep id order).
pub fn ranking(coverage: &[usize]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..coverage.len()).collect();
    ids.sort_by_key(|&id| std::cmp::Reverse(coverage[id]));
    ids
}

/// Figure 1: statistical portrait of a typical gateway — KDE of the traffic
/// PDF near zero, the raw series' shape, boxplots with and without
/// outliers.
pub fn fig1(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, fig1_folds, out);
}

/// [`fig1`]'s folds: the week-0 incoming series of the most observed
/// gateway.
pub fn fig1_folds(plan: &mut Plan<'_>) -> Finish {
    let typical = plan.top(1, |view, _| {
        (view.id, first_weeks(&view.aggregate_incoming(), 1))
    });
    Box::new(move |r, out| {
        let (id, incoming) = r.take_top(typical).remove(0);
        fig1_tables(id, &incoming, out);
    })
}

fn fig1_tables(id: usize, incoming: &TimeSeries, out: Option<&Path>) {
    let values = incoming.observed_values();
    println!(
        "Typical gateway = #{id}: {} observations in week 0, max {} bytes/min",
        values.len(),
        fmt(incoming.max().unwrap_or(f64::NAN), 0),
    );

    // (a) PDF estimate near zero.
    let mut t = Table::new(
        "Fig 1a - KDE of incoming traffic (zoom near 0)",
        &["bytes", "density"],
    );
    if let Some(kde) = Kde::from_samples(&values) {
        let hi = wtts_stats::quantile(&values, 0.999);
        for (x, d) in kde.grid(0.0, hi.max(1.0), 25) {
            t.row(&[fmt(x, 0), format!("{d:.3e}")]);
        }
    }
    t.emit(out);

    // (b) series summary per hour-of-day to show the burst structure.
    let mut t = Table::new(
        "Fig 1b - incoming traffic by hour (week 0)",
        &["hour", "mean B/min", "max B/min"],
    );
    let hourly = aggregate(incoming, Granularity::hours(1), 0);
    for h in 0..24 {
        let vals: Vec<f64> = hourly
            .values()
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, v)| i % 24 == h && v.is_finite())
            .map(|(_, v)| v / 60.0)
            .collect();
        let mean = wtts_stats::mean(&vals);
        let max = vals.iter().copied().fold(f64::NAN, f64::max);
        t.row(&[format!("{h:02}"), fmt(mean, 0), fmt(max, 0)]);
    }
    t.emit(out);

    // (c)/(d) boxplots with and without outliers.
    let b = BoxplotStats::from_samples(&values).expect("observations exist");
    let mut t = Table::new("Fig 1cd - boxplot of incoming traffic", &["stat", "value"]);
    for (name, v) in [
        ("min", b.min),
        ("q1", b.q1),
        ("median", b.median),
        ("q3", b.q3),
        ("upper whisker", b.upper_whisker),
        ("max (with outliers)", b.max),
    ] {
        t.row(&[name.to_string(), fmt(v, 1)]);
    }
    t.row(&[
        "outliers above whisker".into(),
        b.upper_outliers.to_string(),
    ]);
    t.row(&[
        "outlier share".into(),
        pct(b.upper_outliers as f64 / b.n as f64),
    ]);
    t.emit(out);
}

/// §4.1 text: Zipf-law fit of traffic values of the 10 most representative
/// gateways and the incoming/outgoing correlation across the fleet.
pub fn sec4_dist(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, sec4_dist_folds, out);
}

/// [`sec4_dist`]'s folds: the Zipf fit of each top-10 gateway's week-0
/// values, and every gateway's significant in/out correlation (paper: mean
/// .92, median .95, stddev .08).
pub fn sec4_dist_folds(plan: &mut Plan<'_>) -> Finish {
    let fits = plan.top(10, |view, _| {
        let values = first_weeks(view.aggregate_total(), 1).observed_values();
        (view.id, fit_zipf(&values, 20))
    });
    let cors = plan.each(|view| {
        let inc = first_weeks(&view.aggregate_incoming(), 4);
        let outg = first_weeks(&view.aggregate_outgoing(), 4);
        let r = pearson(inc.values(), outg.values());
        (r.n > 1000 && r.significant(0.05)).then_some(r.value)
    });
    Box::new(move |r, out| {
        let fits = r.take_top(fits);
        let cors: Vec<f64> = r.take(cors).into_iter().flatten().collect();
        sec4_dist_tables(&fits, &cors, out);
    })
}

fn sec4_dist_tables(fits: &[(usize, Option<ZipfFit>)], cors: &[f64], out: Option<&Path>) {
    let mut t = Table::new(
        "Sec 4.1 - Zipf fits of per-minute traffic (top-10 gateways)",
        &["gateway", "exponent", "r^2", "zipfian?"],
    );
    for (id, fit) in fits {
        match fit {
            Some(fit) => t.row(&[
                id.to_string(),
                fmt(fit.exponent, 2),
                fmt(fit.r_squared, 2),
                fit.is_zipfian().to_string(),
            ]),
            None => t.row(&[id.to_string(), "-".into(), "-".into(), "-".into()]),
        };
    }
    t.emit(out);

    let mut t = Table::new(
        "Sec 4.1 - incoming/outgoing correlation",
        &["stat", "value"],
    );
    t.row(&["gateways".into(), cors.len().to_string()]);
    t.row(&["mean".into(), fmt(wtts_stats::mean(cors), 3)]);
    t.row(&["median".into(), fmt(wtts_stats::median(cors), 3)]);
    t.row(&["stddev".into(), fmt(wtts_stats::std_dev(cors), 3)]);
    t.emit(out);
}

/// Figure 2: autocorrelation of a gateway and lagged cross-correlation of a
/// gateway pair, at a 1-hour aggregation (per-minute lags are dominated by
/// burst noise).
pub fn fig2(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, fig2_folds, out);
}

/// [`fig2`]'s folds: the two-week hourly series of the six most observed
/// gateways; the two densest also feed the CCF.
pub fn fig2_folds(plan: &mut Plan<'_>) -> Finish {
    let hourly = plan.top(6, |view, _| {
        let hourly = aggregate(
            &first_weeks(view.aggregate_total(), 2),
            Granularity::hours(1),
            0,
        );
        (view.id, hourly.into_values())
    });
    Box::new(move |r, out| {
        let (ids, hourly): (Vec<usize>, Vec<Vec<f64>>) = r.take_top(hourly).into_iter().unzip();
        fig2_tables(&ids, &hourly, out);
    })
}

fn fig2_tables(ids: &[usize], hourly: &[Vec<f64>], out: Option<&Path>) {
    // Pick the gateway with the strongest lag-24h (daily) autocorrelation.
    let acfs: Vec<(usize, Vec<f64>, &[f64])> = ids
        .iter()
        .zip(hourly)
        .filter_map(|(&id, hourly)| {
            let a = acf(hourly, 48).ok()?;
            (a.len() > 24 && a[24].is_finite()).then_some((id, a, hourly.as_slice()))
        })
        .collect();
    let (best_id, best_acf, best_hourly) = acfs
        .into_iter()
        .max_by(|a, b| {
            a.1[24]
                .abs()
                .partial_cmp(&b.1[24].abs())
                .expect("finite acf")
        })
        .expect("at least one gateway with an ACF");
    // The white-noise band is set by how many hourly bins were actually
    // observed, not by the nominal two-week span.
    let bound = significance_bound_effective(best_hourly);
    println!(
        "most autocorrelated gateway = #{best_id}: {} of {} hourly bins observed, band ±{bound:.3}",
        effective_sample_size(best_hourly),
        best_hourly.len(),
    );
    let mut t = Table::new(
        "Fig 2 - ACF of the most autocorrelated gateway (hourly)",
        &["lag_h", "acf", "significant"],
    );
    for (lag, v) in best_acf.iter().enumerate() {
        if lag % 4 == 0 {
            t.row(&[lag.to_string(), fmt(*v, 3), (v.abs() > bound).to_string()]);
        }
    }
    t.emit(out);

    // Cross-correlation of the two densest gateways.
    let (a, b) = (&hourly[0], &hourly[1]);
    let c = match ccf(a, b, 24) {
        Ok(c) => c,
        Err(e) => {
            println!("no CCF between the two densest gateways: {e}");
            return;
        }
    };
    // Effective sample size of a cross-correlogram: the sparser side's
    // observed bin count.
    let ccf_bound = significance_bound(effective_sample_size(a).min(effective_sample_size(b)));
    let mut t = Table::new(
        "Fig 2 - CCF of the two densest gateways (hourly)",
        &["lag_h", "ccf", "significant"],
    );
    for (i, v) in c.iter().enumerate() {
        let lag = i as i64 - 24;
        if lag % 4 == 0 {
            t.row(&[
                lag.to_string(),
                fmt(*v, 3),
                (v.abs() > ccf_bound).to_string(),
            ]);
        }
    }
    t.emit(out);
}

/// §4.2 text: classical stationarity is rejected at 1-minute binning;
/// traffic vs connected-device-count correlation is weak; distribution
/// similarity (KS) grows with the aggregation period.
pub fn sec4_stat(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, sec4_stat_folds, out);
}

/// The KS table's granularities, run on the 12 most observed gateways.
const KS_GRANULARITIES: [Granularity; 4] = [
    Granularity::minutes(1),
    Granularity::minutes(30),
    Granularity::hours(3),
    Granularity::hours(8),
];

/// One sampled gateway's §4.2 results.
struct Sec4Stat {
    /// Per KS granularity: whether the two weeks were rejected as one
    /// distribution (`None` when no pair was tested, or rank ≥ 12).
    ks: [Option<bool>; 4],
    /// The classical checks, for gateways with ≥ 2000 week-0 observations.
    classical: Option<Classical>,
}

struct Classical {
    kpss_rejects: bool,
    adf_keeps_unit_root: bool,
    /// Significant traffic ~ #devices correlation similarity.
    device_cor: Option<f64>,
}

fn sec4_stat_extract(view: &GatewayView, rank: usize) -> Sec4Stat {
    let aggregate_total = view.aggregate_total();
    let mut ks = [None; 4];
    if rank < 12 {
        let two_weeks = first_weeks(aggregate_total, 2);
        for (g, rejected) in KS_GRANULARITIES.iter().zip(&mut ks) {
            let agg = aggregate(&two_weeks, *g, 0);
            let windows = wtts_timeseries::weekly_windows(&agg, 2, 0);
            if windows.len() == 2 && windows.iter().all(|w| w.has_observations()) {
                *rejected = ks_two_sample(windows[0].series.values(), windows[1].series.values())
                    .map(|ks| ks.rejected(0.05));
            }
        }
    }
    let total = first_weeks(aggregate_total, 1);
    let values = total.observed_values();
    let classical = (values.len() >= 2000).then(|| {
        // Traffic vs number of connected devices, with the paper's
        // correlation similarity measure (Definition 1).
        let devices = first_weeks(&view.connected_devices(), 1);
        let sim = wtts_core::similarity::correlation_similarity(total.values(), devices.values());
        Classical {
            kpss_rejects: kpss_test(&values).is_some_and(|k| k.rejects_stationarity(0.05)),
            adf_keeps_unit_root: adf_test(&values[..values.len().min(5000)], None)
                .is_some_and(|a| !a.rejects_unit_root(0.05)),
            device_cor: sim.is_significant().then_some(sim.value),
        }
    });
    Sec4Stat { ks, classical }
}

/// [`sec4_stat`]'s folds: the 30 most observed gateways, in rank order.
pub fn sec4_stat_folds(plan: &mut Plan<'_>) -> Finish {
    let sample = plan.top(30, sec4_stat_extract);
    Box::new(move |r, out| sec4_stat_tables(r.take_top(sample), out))
}

fn sec4_stat_tables(sample: Vec<Sec4Stat>, out: Option<&Path>) {
    // (rejected, pairs) per KS granularity.
    let mut ks_counts = [(0usize, 0usize); 4];
    let mut kpss_reject = 0usize;
    let mut adf_nonreject = 0usize;
    let mut tested = 0usize;
    let mut device_cors = Vec::new();
    for gw in sample {
        for (ks, (rejected, pairs)) in gw.ks.iter().zip(&mut ks_counts) {
            if let Some(ks) = ks {
                *pairs += 1;
                *rejected += usize::from(*ks);
            }
        }
        let Some(c) = gw.classical else {
            continue;
        };
        tested += 1;
        kpss_reject += usize::from(c.kpss_rejects);
        adf_nonreject += usize::from(c.adf_keeps_unit_root);
        device_cors.extend(c.device_cor);
    }
    let mut t = Table::new(
        "Sec 4.2 - classical stationarity at 1-min binning",
        &["check", "value"],
    );
    t.row(&["gateways tested".into(), tested.to_string()]);
    t.row(&[
        "KPSS rejects stationarity".into(),
        pct(kpss_reject as f64 / tested.max(1) as f64),
    ]);
    t.row(&[
        "ADF keeps unit root".into(),
        pct(adf_nonreject as f64 / tested.max(1) as f64),
    ]);
    t.row(&[
        "traffic~#devices mean cor".into(),
        fmt(wtts_stats::mean(&device_cors), 2),
    ]);
    t.row(&[
        "traffic~#devices median".into(),
        fmt(wtts_stats::median(&device_cors), 2),
    ]);
    t.row(&[
        "traffic~#devices stddev".into(),
        fmt(wtts_stats::std_dev(&device_cors), 2),
    ]);
    t.emit(out);

    // KS similarity across weeks vs aggregation.
    let mut t = Table::new(
        "Sec 4.2 - KS rejections between weeks vs aggregation",
        &["granularity", "KS rejected"],
    );
    for (g, (rejected, pairs)) in KS_GRANULARITIES.iter().zip(ks_counts) {
        t.row(&[g.to_string(), pct(rejected as f64 / pairs.max(1) as f64)]);
    }
    t.emit(out);
}

/// Figure 3: hierarchical clustering of gateway series under the `1 − cor`
/// distance, cut at 0.4.
pub fn fig3(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, fig3_folds, out);
}

/// [`fig3`]'s folds: the two-week 3-hour series of the ten most observed
/// gateways.
pub fn fig3_folds(plan: &mut Plan<'_>) -> Finish {
    let series = plan.top(10, |view, _| {
        let binned = aggregate(
            &first_weeks(view.aggregate_total(), 2),
            Granularity::hours(3),
            0,
        );
        (view.id, binned.into_values())
    });
    Box::new(move |r, out| {
        let (ids, series): (Vec<usize>, Vec<Vec<f64>>) = r.take_top(series).into_iter().unzip();
        fig3_tables(&ids, &series, out);
    })
}

fn fig3_tables(ids: &[usize], series: &[Vec<f64>], out: Option<&Path>) {
    let clusters = cluster_correlated(series, 0.6);
    let mut t = Table::new(
        "Fig 3 - correlation clusters of gateways (distance cut 0.4)",
        &["cluster", "gateways"],
    );
    for (k, cluster) in clusters.iter().enumerate() {
        let names: Vec<String> = cluster.iter().map(|&i| ids[i].to_string()).collect();
        t.row(&[format!("{}", k + 1), names.join(" ")]);
    }
    t.emit(out);
    println!(
        "{} clusters over {} gateways at similarity >= 0.6\n",
        clusters.len(),
        ids.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_gwsim::FleetConfig;

    fn small_fleet() -> Fleet {
        Fleet::new(FleetConfig::small())
    }

    #[test]
    fn ranking_twice_renders_the_fleet_once() {
        let fleet = small_fleet();
        let top = most_observed_gateways(&fleet, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(most_observed_gateways(&fleet, 3), top);
        assert_eq!(fleet.renders(), fleet.len());
    }

    #[test]
    fn memoized_ranking_matches_a_fresh_sort() {
        let fleet = small_fleet();
        let mut fresh: Vec<(usize, usize)> = fleet
            .iter()
            .map(|gw| {
                let count = first_weeks(&gw.aggregate_total(), 1).observed_count();
                (gw.id, count)
            })
            .collect();
        fresh.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let fresh: Vec<usize> = fresh.into_iter().map(|(id, _)| id).collect();
        assert_eq!(most_observed_gateways(&fleet, fleet.len()), fresh);
        assert_eq!(most_observed_gateways(&fleet, 3), fresh[..3]);
    }

    /// Once the fleet's ranking memo is filled, each of these experiments
    /// renders every gateway at most once.
    #[test]
    fn section4_experiments_render_each_gateway_at_most_once() {
        use crate::experiments::{applications::sec4_arima, sax::sec2_sax};
        let fleet = small_fleet();
        most_observed_gateways(&fleet, 1);
        type Experiment = fn(&Fleet, Option<&Path>);
        let experiments: [(&str, Experiment); 5] = [
            ("sec4_stat", sec4_stat),
            ("sec4_dist", sec4_dist),
            ("sec4_arima", sec4_arima),
            ("fig2", fig2),
            ("sec2_sax", sec2_sax),
        ];
        for (name, run) in experiments {
            let before = fleet.renders();
            run(&fleet, None);
            let renders = fleet.renders() - before;
            assert!(renders <= fleet.len(), "{name} rendered {renders} gateways");
        }
    }

    #[test]
    fn standard_experiments_run_on_small_fleet() {
        let fleet = small_fleet();
        fig1(&fleet, None);
        fig3(&fleet, None);
    }
}
