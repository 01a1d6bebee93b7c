//! Dominant-device analysis of one home (Section 6.2 of the paper).
//!
//! Finds the devices whose traffic shapes the gateway's overall behavior,
//! and contrasts the correlation-based notion against the Euclidean and
//! traffic-volume baselines.
//!
//! ```text
//! cargo run --release --example dominant_devices [gateway_id]
//! ```

use wtts::core::dominance::{
    device_similarities, dominants_above, euclidean_ranking, ranking_agreement, volume_ranking,
};
use wtts::gwsim::{Fleet, FleetConfig};
use wtts::timeseries::TimeSeries;

fn main() {
    let id: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    let fleet = Fleet::new(FleetConfig {
        n_gateways: id + 1,
        weeks: 4,
        ..FleetConfig::default()
    });
    let gw = fleet.gateway(id);
    println!(
        "gateway {id}: {} residents, archetype {}, {} devices\n",
        gw.residents,
        gw.archetype,
        gw.devices.len()
    );

    let device_series: Vec<TimeSeries> = gw.devices.iter().map(|d| d.total()).collect();
    let total = TimeSeries::sum_all(device_series.iter()).expect("devices");

    // Definition 4 at the paper's phi = 0.6 and the strict 0.8: one
    // Definition 1 evaluation per device, thresholded twice.
    let similarities = device_similarities(&total, &device_series);
    for phi in [0.6, 0.8] {
        let dominants = dominants_above(&similarities, phi);
        println!("phi = {phi}: {} dominant device(s)", dominants.len());
        for d in &dominants {
            let dev = &gw.devices[d.device];
            let share = device_series[d.device].total() / total.total();
            println!(
                "  rank {}: {:<22} {:<12} cor {:.2}  volume share {:>5.1}%",
                d.rank + 1,
                dev.spec.name,
                dev.inferred_type().to_string(),
                d.similarity,
                share * 100.0
            );
        }
        println!();
    }

    // How do the baselines rank the same devices?
    let dominants = dominants_above(&similarities, 0.6);
    let zero_filled: Vec<TimeSeries> = device_series
        .iter()
        .map(|d| {
            let mut z = d.clone();
            for v in z.values_mut() {
                if !v.is_finite() {
                    *v = 0.0;
                }
            }
            z
        })
        .collect();
    let euclid = euclidean_ranking(&total, &zero_filled);
    let volume = volume_ranking(&device_series);
    println!(
        "agreement with Euclidean ranking:      {}/{}",
        ranking_agreement(&dominants, &euclid),
        dominants.len()
    );
    println!(
        "agreement with traffic-volume ranking: {}/{}",
        ranking_agreement(&dominants, &volume),
        dominants.len()
    );
    println!(
        "\nclosest by Euclidean: {}  |  biggest by volume: {}",
        gw.devices[euclid[0]].spec.name, gw.devices[volume[0]].spec.name
    );
}
