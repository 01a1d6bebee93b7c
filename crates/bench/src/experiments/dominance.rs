//! Figure 5 and §6.2: dominant devices per gateway, their types, the
//! Euclidean/volume baselines and the residents correlation.

use crate::data::first_weeks;
use crate::experiments::{run_alone, Finish, Plan};
use crate::report::{fmt, pct, Table};
use crate::walk::GatewayView;
use std::collections::HashMap;
use std::path::Path;
use wtts_core::dominance::{dominants_above, ranking_agreement};
use wtts_devid::DeviceType;
use wtts_gwsim::{Fleet, SimGateway};
use wtts_stats::{pearson, CorrelationTest};
use wtts_timeseries::TimeSeries;

/// Per-gateway dominance analysis input: each device's total over the
/// first `weeks` weeks, in device order, built one at a time on demand.
pub fn device_series(gw: &SimGateway, weeks: u32) -> impl Iterator<Item = TimeSeries> + '_ {
    gw.devices
        .iter()
        .map(move |d| first_weeks(&d.total(), weeks))
}

/// The gateway total over the first `weeks` weeks: the sum of its
/// [`device_series`], added in device order.
pub fn gateway_total(gw: &SimGateway, weeks: u32) -> TimeSeries {
    device_series(gw, weeks)
        .reduce(|total, device| total.add(&device))
        .expect("gateway has devices")
}

/// Full §6.2 analysis over the fleet.
pub fn fig5(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, fig5_folds, out);
}

/// [`fig5`]'s folds: one pass over the fleet; each gateway observed in
/// every one of the first four weeks contributes its φ = 0.6 and φ = 0.8
/// dominants and its baseline agreements.
pub fn fig5_folds(plan: &mut Plan<'_>) -> Finish {
    let gateways = plan.each(fig5_extract);
    Box::new(move |r, out| Fig5Census::of(r.take(gateways)).emit(out))
}

/// One eligible gateway's Figure 5 results.
struct Fig5Gateway {
    residents: usize,
    /// Inferred type of each φ = 0.6 dominant, with its rank.
    dominants: Vec<(usize, DeviceType)>,
    euclidean_agree: usize,
    volume_agree: usize,
    /// Inferred type of each φ = 0.8 dominant.
    strict: Vec<DeviceType>,
}

/// Thresholds the gateway's four-week Definition 1 results at φ = 0.6 and
/// φ = 0.8; `None` unless the gateway is observed in every one of the first
/// four weeks.
fn fig5_extract(view: &GatewayView) -> Option<Fig5Gateway> {
    let dom4 = view.dominance()?;
    let dom = dominants_above(&dom4.similarities, 0.6);
    let type_of = |device: usize| view.devices[device].inferred_type();
    Some(Fig5Gateway {
        residents: view.residents,
        dominants: dom.iter().map(|d| (d.rank, type_of(d.device))).collect(),
        euclidean_agree: ranking_agreement(&dom, &dom4.euclidean),
        volume_agree: ranking_agreement(&dom, &dom4.volume),
        strict: dominants_above(&dom4.similarities, 0.8)
            .iter()
            .map(|d| type_of(d.device))
            .collect(),
    })
}

/// Fleet-wide tallies behind Figure 5 and the §6.2 tables, over the
/// gateways observed in every one of the first four weeks.
#[derive(Debug, Default)]
struct Fig5Census {
    eligible: usize,
    /// #dominant (3 = three or more) -> #gateways, at φ = 0.6.
    count_dist: HashMap<usize, usize>,
    /// Gateways with at least one φ = 0.8 dominant.
    have_dominant_strict: usize,
    type_by_rank: HashMap<(usize, DeviceType), usize>,
    type_totals: HashMap<DeviceType, usize>,
    total_dominants: usize,
    euclidean_agree: usize,
    volume_agree: usize,
    strict_fixed: usize,
    strict_total: usize,
    /// (residents, #dominant) over the first 49 eligible gateways.
    survey: Vec<(usize, usize)>,
    residents_cross: HashMap<(usize, usize), usize>,
}

impl Fig5Census {
    /// Folds the eligible gateways' results in id order.
    fn of(gateways: Vec<Option<Fig5Gateway>>) -> Fig5Census {
        let mut c = Fig5Census::default();
        for gw in gateways.into_iter().flatten() {
            let n = gw.dominants.len();
            c.eligible += 1;
            *c.count_dist.entry(n.min(3)).or_insert(0) += 1;
            c.total_dominants += n;
            for &(rank, ty) in &gw.dominants {
                *c.type_by_rank.entry((rank.min(2), ty)).or_insert(0) += 1;
                *c.type_totals.entry(ty).or_insert(0) += 1;
            }
            c.euclidean_agree += gw.euclidean_agree;
            c.volume_agree += gw.volume_agree;
            if !gw.strict.is_empty() {
                c.have_dominant_strict += 1;
            }
            c.strict_total += gw.strict.len();
            c.strict_fixed += gw
                .strict
                .iter()
                .filter(|&&ty| ty == DeviceType::Fixed)
                .count();
            if c.survey.len() < 49 {
                c.survey.push((gw.residents, n));
            }
            *c.residents_cross
                .entry((gw.residents, n.min(3)))
                .or_insert(0) += 1;
        }
        c
    }

    fn emit(&self, out: Option<&Path>) {
        let mut t = Table::new(
            "Fig 5 / Sec 6.2 - dominant devices per gateway (phi=0.6)",
            &["#dominant", "gateways"],
        );
        for k in 0..=3 {
            let label = if k == 3 {
                "3+".to_string()
            } else {
                k.to_string()
            };
            t.row(&[
                label,
                self.count_dist.get(&k).copied().unwrap_or(0).to_string(),
            ]);
        }
        t.emit(out);
        println!(
            "{} eligible gateways, {} dominant devices in total\n",
            self.eligible, self.total_dominants
        );

        let mut t = Table::new(
            "Fig 5 - dominant device types by rank",
            &["type", "first", "second", "third"],
        );
        for ty in DeviceType::ALL {
            let get = |rank: usize| {
                self.type_by_rank
                    .get(&(rank, ty))
                    .copied()
                    .unwrap_or(0)
                    .to_string()
            };
            t.row(&[ty.label().to_string(), get(0), get(1), get(2)]);
        }
        t.emit(out);

        let mut t = Table::new("Sec 6.2 - dominance type totals", &["type", "count"]);
        for ty in DeviceType::ALL {
            t.row(&[
                ty.label().to_string(),
                self.type_totals.get(&ty).copied().unwrap_or(0).to_string(),
            ]);
        }
        t.emit(out);

        let mut t = Table::new(
            "Sec 6.2 - agreement with baseline rankings",
            &["baseline", "same-rank dominants", "share"],
        );
        t.row(&[
            "euclidean".into(),
            self.euclidean_agree.to_string(),
            pct(self.euclidean_agree as f64 / self.total_dominants.max(1) as f64),
        ]);
        t.row(&[
            "traffic volume".into(),
            self.volume_agree.to_string(),
            pct(self.volume_agree as f64 / self.total_dominants.max(1) as f64),
        ]);
        t.emit(out);

        let mut t = Table::new("Sec 6.2 - strict dominance (phi=0.8)", &["stat", "value"]);
        t.row(&[
            "gateways with >=1 dominant".into(),
            pct(self.have_dominant_strict as f64 / self.eligible.max(1) as f64),
        ]);
        t.row(&[
            "fixed share among dominants".into(),
            pct(self.strict_fixed as f64 / self.strict_total.max(1) as f64),
        ]);
        t.emit(out);

        let mut t = Table::new(
            "Sec 6.2 - residents x dominant-device count (all eligible)",
            &["residents", "0 dom", "1 dom", "2 dom", "3+ dom"],
        );
        for r in 1..=4usize {
            let get = |d: usize| {
                self.residents_cross
                    .get(&(r, d))
                    .copied()
                    .unwrap_or(0)
                    .to_string()
            };
            t.row(&[r.to_string(), get(0), get(1), get(2), get(3)]);
        }
        t.emit(out);

        // Residents vs dominant count (self.survey subset; paper: cor = 0.53 over
        // 1-2 user homes, no overall correlation).
        let all_res: Vec<f64> = self.survey.iter().map(|&(r, _)| r as f64).collect();
        let all_dom: Vec<f64> = self.survey.iter().map(|&(_, d)| d as f64).collect();
        let overall = pearson(&all_res, &all_dom);
        let small: Vec<&(usize, usize)> = self.survey.iter().filter(|&&(r, _)| r <= 2).collect();
        let s_res: Vec<f64> = small.iter().map(|&&(r, _)| r as f64).collect();
        let s_dom: Vec<f64> = small.iter().map(|&&(_, d)| d as f64).collect();
        let small_cor = pearson(&s_res, &s_dom);
        let mut t = Table::new(
            "Sec 6.2 - #dominant devices vs #residents (survey subset)",
            &["population", "n", "pearson", "significant"],
        );
        t.row(&[
            "all homes".into(),
            self.survey.len().to_string(),
            fmt(overall.value, 2),
            overall.significant(0.05).to_string(),
        ]);
        t.row(&[
            "1-2 resident homes".into(),
            small.len().to_string(),
            fmt(small_cor.value, 2),
            small_cor.significant(0.05).to_string(),
        ]);
        t.emit(out);
    }
}

/// Ablation: how the dominant-device census changes when Definition 1 is
/// replaced by each coefficient alone.
pub fn ablation_similarity(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, ablation_similarity_folds, out);
}

/// [`ablation_similarity`]'s folds.
pub fn ablation_similarity_folds(plan: &mut Plan<'_>) -> Finish {
    let counts = plan.each(ablation_extract);
    Box::new(move |r, out| {
        let (eligible, census) = ablation_census(r.take(counts));
        let mut t = Table::new(
            "Ablation - similarity measure vs dominant-device census",
            &["measure", "gateways with dominant", "total dominants"],
        );
        for (name, (with, total)) in ABLATION_MEASURES.iter().zip(census) {
            t.row(&[(*name).to_string(), with.to_string(), total.to_string()]);
        }
        t.emit(out);
        println!("{eligible} eligible gateways\n");
    })
}

/// Row labels of the ablation census, in [`ablation_extract`] order.
const ABLATION_MEASURES: [&str; 4] = ["max of three (Def. 1)", "pearson", "spearman", "kendall"];

/// An eligible gateway's φ = 0.6 dominant count per measure. Each device's
/// Definition 1 evaluation supplies all four measures: its value and its
/// three tests.
fn ablation_extract(view: &GatewayView) -> Option<[usize; 4]> {
    let sims = &view.dominance()?.similarities;
    Some([
        dominants_above(sims, 0.6).len(),
        count_dominant(sims.iter().map(|s| &s.pearson)),
        count_dominant(sims.iter().map(|s| &s.spearman)),
        count_dominant(sims.iter().map(|s| &s.kendall)),
    ])
}

/// The ablation's eligible-gateway count and, per measure, (gateways with
/// a φ = 0.6 dominant, total dominants).
fn ablation_census(gateways: Vec<Option<[usize; 4]>>) -> (usize, [(usize, usize); 4]) {
    let mut census = [(0usize, 0usize); 4];
    let mut eligible = 0usize;
    for dominant_counts in gateways.into_iter().flatten() {
        eligible += 1;
        for (row, n) in census.iter_mut().zip(dominant_counts) {
            row.0 += usize::from(n > 0);
            row.1 += n;
        }
    }
    (eligible, census)
}

/// Devices whose single-coefficient test is significant and above 0.6.
fn count_dominant<'a>(tests: impl Iterator<Item = &'a CorrelationTest>) -> usize {
    tests
        .filter(|t| t.significant(0.05) && t.value > 0.6)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::observed_every_week;
    use crate::walk::walk_ids;
    use wtts_gwsim::FleetConfig;

    #[test]
    fn gateway_series_aligned() {
        let fleet = Fleet::new(FleetConfig::small());
        let gw = fleet.gateway(0);
        let total = gateway_total(&gw, 2);
        let devices: Vec<TimeSeries> = device_series(&gw, 2).collect();
        assert_eq!(devices.len(), gw.devices.len());
        for d in &devices {
            assert_eq!(d.len(), total.len());
        }
        // The sum of device totals equals the gateway total.
        let manual = TimeSeries::sum_all(devices.iter()).unwrap();
        assert_eq!(manual.values()[..100], total.values()[..100]);
    }

    /// fig5 analyses four weeks, so the stock two-week small fleet would
    /// leave no gateway eligible; a four-week fleet yields a real census.
    #[test]
    fn fig5_census_on_four_week_fleet() {
        let fleet = Fleet::new(FleetConfig {
            n_gateways: 3,
            weeks: 4,
            ..FleetConfig::small()
        });
        let census = Fig5Census::of(walk_ids(&fleet, 0..fleet.len(), fig5_extract));
        assert!(census.eligible >= 1, "no eligible gateway");
        assert!(census.total_dominants > 0, "empty phi = 0.6 census");
        fn sum<K>(m: &HashMap<K, usize>) -> usize {
            m.values().sum()
        }
        assert_eq!(sum(&census.count_dist), census.eligible);
        assert_eq!(sum(&census.residents_cross), census.eligible);
        assert_eq!(sum(&census.type_totals), census.total_dominants);
        assert_eq!(sum(&census.type_by_rank), census.total_dominants);
        assert_eq!(census.survey.len(), census.eligible.min(49));
        // Every phi = 0.8 dominant is also a phi = 0.6 dominant.
        assert!(census.strict_total <= census.total_dominants);
        assert!(census.strict_fixed <= census.strict_total);
        census.emit(None);
    }

    /// The ablation reads its per-coefficient census off the profiled
    /// Definition 1 results; the from-scratch coefficient routines give the
    /// same counts.
    #[test]
    fn ablation_census_matches_from_scratch_coefficients() {
        use wtts_core::similarity::correlation_similarity;
        use wtts_stats::{kendall, spearman};
        // The ablation analyses four weeks, so the small fleet is rendered
        // that long to leave gateways eligible; three gateways keep the
        // debug-build oracle quick.
        let fleet = Fleet::new(FleetConfig {
            n_gateways: 3,
            weeks: 4,
            ..FleetConfig::small()
        });
        let weeks = 4;
        let mut eligible = 0usize;
        let mut expected = [(0usize, 0usize); 4];
        for gw in fleet.iter() {
            let total = gateway_total(&gw, weeks);
            let devices: Vec<TimeSeries> = device_series(&gw, weeks).collect();
            if !observed_every_week(&total, weeks) {
                continue;
            }
            eligible += 1;
            // Per device and measure: (significant, value), from scratch.
            let measures: Vec<[(bool, f64); 4]> = devices
                .iter()
                .map(|d| {
                    let (x, y) = (total.values(), d.values());
                    let test = |t: CorrelationTest| (t.significant(0.05), t.value);
                    [
                        (true, correlation_similarity(x, y).value),
                        test(pearson(x, y)),
                        test(spearman(x, y)),
                        test(kendall(x, y)),
                    ]
                })
                .collect();
            for (k, row) in expected.iter_mut().enumerate() {
                let n = measures.iter().filter(|m| m[k].0 && m[k].1 > 0.6).count();
                row.0 += usize::from(n > 0);
                row.1 += n;
            }
        }
        assert!(
            expected[0].1 > 0,
            "no dominant device: the check would be vacuous"
        );
        let walked = walk_ids(&fleet, 0..fleet.len(), ablation_extract);
        assert_eq!(ablation_census(walked), (eligible, expected));
    }
}
