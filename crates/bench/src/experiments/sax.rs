//! §2 quantified: why SAX-based motif tools fail on Zipfian traffic.

use crate::data::first_weeks;
use crate::experiments::standard::most_observed_gateways;
use crate::report::{pct, Table};
use std::path::Path;
use wtts_core::sax::{alphabet_utilization, dominant_symbol_share, sax_word};
use wtts_gwsim::Fleet;
use wtts_stats::z_normalize;

/// Measures SAX alphabet utilization on real(istic) gateway traffic against
/// a Gaussian control signal, and shows that z-normalization does not
/// normalize Zipfian values.
pub fn sec2_sax(fleet: &Fleet, out: Option<&Path>) {
    let ids = most_observed_gateways(fleet, 5);
    let alphabet = 8;
    let segments = 64;

    let mut t = Table::new(
        "Sec 2 - SAX alphabet utilization on traffic vs Gaussian control",
        &["series", "utilization", "dominant symbol share"],
    );
    // Each gateway's week-0 values are rendered once and serve both tables.
    let week0: Vec<Vec<f64>> = ids
        .iter()
        .map(|&id| first_weeks(&fleet.gateway(id).aggregate_total(), 1).observed_values())
        .collect();
    for (&id, values) in ids.iter().zip(&week0) {
        let word = sax_word(values, segments, alphabet);
        t.row(&[
            format!("gateway {id}"),
            pct(alphabet_utilization(&word, alphabet)),
            pct(dominant_symbol_share(&word)),
        ]);
    }
    // Control: a smooth sinusoid uses the whole alphabet.
    let control: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.05).sin()).collect();
    let word = sax_word(&control, segments, alphabet);
    t.row(&[
        "gaussian-like control".into(),
        pct(alphabet_utilization(&word, alphabet)),
        pct(dominant_symbol_share(&word)),
    ]);
    t.emit(out);

    // z-normalization does not gaussianize: share of z-values in the
    // central Gaussian band vs expectation.
    let mut t = Table::new(
        "Sec 2 - z-normalized traffic is not normal",
        &["series", "|z| < 0.43 share", "expected if normal"],
    );
    for (&id, values) in ids.iter().zip(&week0).take(3) {
        let z = z_normalize(values);
        let central = z.iter().filter(|v| v.abs() < 0.43).count() as f64 / z.len() as f64;
        t.row(&[format!("gateway {id}"), pct(central), pct(0.333)]);
    }
    t.emit(out);
}
