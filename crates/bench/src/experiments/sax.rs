//! §2 quantified: why SAX-based motif tools fail on Zipfian traffic.

use crate::data::first_weeks;
use crate::experiments::{run_alone, Finish, Plan};
use crate::report::{pct, Table};
use std::path::Path;
use wtts_core::sax::{alphabet_utilization, dominant_symbol_share, sax_word};
use wtts_gwsim::Fleet;
use wtts_stats::z_normalize;

/// Measures SAX alphabet utilization on real(istic) gateway traffic against
/// a Gaussian control signal, and shows that z-normalization does not
/// normalize Zipfian values.
pub fn sec2_sax(fleet: &Fleet, out: Option<&Path>) {
    run_alone(fleet, sec2_sax_folds, out);
}

/// [`sec2_sax`]'s folds: the week-0 values of the five most observed
/// gateways, which serve both tables.
pub fn sec2_sax_folds(plan: &mut Plan<'_>) -> Finish {
    let week0 = plan.top(5, |view, _| {
        let values = first_weeks(view.aggregate_total(), 1).observed_values();
        (view.id, values)
    });
    Box::new(move |r, out| {
        let (ids, week0): (Vec<usize>, Vec<Vec<f64>>) = r.take_top(week0).into_iter().unzip();
        sec2_sax_tables(&ids, &week0, out);
    })
}

fn sec2_sax_tables(ids: &[usize], week0: &[Vec<f64>], out: Option<&Path>) {
    let alphabet = 8;
    let segments = 64;

    let mut t = Table::new(
        "Sec 2 - SAX alphabet utilization on traffic vs Gaussian control",
        &["series", "utilization", "dominant symbol share"],
    );
    for (&id, values) in ids.iter().zip(week0) {
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
    for (&id, values) in ids.iter().zip(week0).take(3) {
        let z = z_normalize(values);
        let central = z.iter().filter(|v| v.abs() < 0.43).count() as f64 / z.len() as f64;
        t.row(&[format!("gateway {id}"), pct(central), pct(0.333)]);
    }
    t.emit(out);
}
