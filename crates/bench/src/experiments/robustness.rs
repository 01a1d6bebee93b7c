//! Robustness sweep: the headline findings must hold across seeds and
//! deployment scenarios, or they are artifacts of one synthetic draw.

use crate::data::{first_weeks, fleet_map, observed_every_week};
use crate::experiments::dominance::{device_series, gateway_total};
use crate::experiments::{Finish, Plan};
use crate::report::{fmt, pct, Table};
use std::path::Path;
use wtts_core::dominance::dominant_devices;
use wtts_gwsim::{Fleet, FleetConfig};
use wtts_stats::pearson;

/// Headline statistics of one fleet draw.
struct Headline {
    in_out_mean: f64,
    share_with_dominant: f64,
    mean_dominants: f64,
}

/// One walk of the fleet, in parallel: per gateway, its in/out correlation
/// (when over 1000 minutes pair up) and, when it is observed in every
/// week, its number of dominant devices; folded in id order.
fn headline(fleet: &Fleet) -> Headline {
    let weeks = 2;
    let per_gateway = fleet_map(fleet, |gw| {
        let inc = first_weeks(&gw.aggregate_incoming(), weeks);
        let out = first_weeks(&gw.aggregate_outgoing(), weeks);
        let r = pearson(inc.values(), out.values());
        let total = gateway_total(&gw, weeks);
        let dominants = observed_every_week(&total, weeks)
            .then(|| dominant_devices(&total, device_series(&gw, weeks), 0.6).len());
        ((r.n > 1000).then_some(r.value), dominants)
    });
    let mut cors = Vec::new();
    let mut eligible = 0usize;
    let mut with_dominant = 0usize;
    let mut dominants = 0usize;
    for (cor, dom) in per_gateway {
        cors.extend(cor);
        let Some(dom) = dom else {
            continue;
        };
        eligible += 1;
        if dom > 0 {
            with_dominant += 1;
        }
        dominants += dom;
    }
    Headline {
        in_out_mean: wtts_stats::mean(&cors),
        share_with_dominant: with_dominant as f64 / eligible.max(1) as f64,
        mean_dominants: dominants as f64 / eligible.max(1) as f64,
    }
}

/// The robustness experiment reads no gateway of the run's fleet: it
/// renders its own five fleets in its finish step.
pub fn robustness_folds(_: &mut Plan<'_>) -> Finish {
    Box::new(|_, out| robustness(out))
}

/// Sweeps seeds and scenarios, reporting the fleet-level statistics the
/// paper's conclusions rest on.
pub fn robustness(out: Option<&Path>) {
    let base = FleetConfig {
        n_gateways: 48,
        weeks: 2,
        ..FleetConfig::default()
    };
    let mut t = Table::new(
        "Robustness - headline statistics across seeds and scenarios",
        &[
            "variant",
            "in/out mean cor",
            ">=1 dominant",
            "mean dominants",
        ],
    );
    let variants: Vec<(String, FleetConfig)> = vec![
        (
            "default seed A".into(),
            FleetConfig {
                seed: 1,
                ..base.clone()
            },
        ),
        (
            "default seed B".into(),
            FleetConfig {
                seed: 0xB0B,
                ..base.clone()
            },
        ),
        (
            "default seed C".into(),
            FleetConfig {
                seed: 0xFEED,
                ..base.clone()
            },
        ),
        (
            "rural ADSL".into(),
            FleetConfig {
                n_gateways: 48,
                weeks: 2,
                seed: 1,
                ..FleetConfig::rural_adsl()
            },
        ),
        (
            "busy urban".into(),
            FleetConfig {
                n_gateways: 48,
                weeks: 2,
                seed: 1,
                ..FleetConfig::busy_urban()
            },
        ),
    ];
    for (name, config) in variants {
        let h = headline(&Fleet::new(config));
        t.row(&[
            name,
            fmt(h.in_out_mean, 3),
            pct(h.share_with_dominant),
            fmt(h.mean_dominants, 2),
        ]);
    }
    t.emit(out);
    println!(
        "Stable columns = the findings are properties of the model, not of \
one random draw.\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_statistics_sane() {
        let fleet = Fleet::new(FleetConfig {
            n_gateways: 6,
            weeks: 2,
            seed: 99,
            ..FleetConfig::default()
        });
        let h = headline(&fleet);
        assert!(h.in_out_mean > 0.5);
        assert!((0.0..=1.0).contains(&h.share_with_dominant));
        assert!(h.mean_dominants <= 5.0);
    }
}
