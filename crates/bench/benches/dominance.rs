//! Benchmark of the dominant-device scan (Definition 4) against the
//! from-scratch scan it replaced, frozen verbatim in this file as the
//! baseline:
//!
//! * **single_phi** — one 4-week gateway thresholded at φ = 0.6:
//!   [`dominant_devices`] (the gateway total profiled once, each device
//!   profiled once and evaluated through the correlation engine) against
//!   the old loop calling the from-scratch `correlation_similarity` per
//!   device, which re-sorts the gateway total for every device.
//! * **phi_pair** — the same gateway at φ = 0.6 and φ = 0.8, as Figure 5
//!   needs: one [`device_similarities`] pass thresholded twice by
//!   [`dominants_above`], against two from-scratch scans.
//!
//! The profiled results are asserted bit-identical to the baseline (device,
//! rank and similarity bits) **before** any timing. Both paths run on one
//! thread.
//!
//! Besides the interactive Criterion output (which also times the
//! Euclidean and volume baselines of Section 6.2), a run refreshes the
//! committed baseline at `results/BENCH_dominance.json` (median wall times
//! and single-thread speedups, gated in CI by `scripts/perf_gate.py`
//! against `results/PERF_BUDGET.json`).
//!
//! `--smoke` asserts bit-identity without timing and without touching the
//! committed baseline (used by `scripts/ci.sh`).

use criterion::{black_box, criterion_group, Criterion};
use std::time::Instant;
use wtts_core::dominance::{
    device_similarities, dominant_devices, dominants_above, euclidean_ranking, rank_dominants,
    volume_ranking, DominantDevice,
};
use wtts_core::similarity::correlation_similarity;
use wtts_gwsim::{generate_gateway, FleetConfig};
use wtts_timeseries::TimeSeries;

/// Weeks of traffic in the benchmarked gateway (Figure 5's window).
const WEEKS: u32 = 4;

/// The thresholds of Section 6.2: the paper's φ and its strict variant.
const PHI: f64 = 0.6;
const PHI_STRICT: f64 = 0.8;

// ---------------------------------------------------------------------------
// Frozen from-scratch baseline (copied verbatim from the code it replaced)
// ---------------------------------------------------------------------------

/// Old `dominance::dominant_devices`: Definition 1 from scratch per device.
fn dominant_devices_baseline(
    gateway_total: &TimeSeries,
    device_series: &[TimeSeries],
    phi: f64,
) -> Vec<DominantDevice> {
    let hits: Vec<(usize, f64)> = device_series
        .iter()
        .enumerate()
        .filter_map(|(i, dev)| {
            let sim = correlation_similarity(gateway_total.values(), dev.values());
            (sim.value > phi).then_some((i, sim.value))
        })
        .collect();
    rank_dominants(hits)
}

// ---------------------------------------------------------------------------
// Input and bit-identity
// ---------------------------------------------------------------------------

/// One simulated 4-week gateway: its total and each device's total.
fn gateway() -> (TimeSeries, Vec<TimeSeries>) {
    let config = FleetConfig {
        n_gateways: 1,
        weeks: WEEKS,
        ..FleetConfig::default()
    };
    let gw = generate_gateway(&config, 0);
    let devices: Vec<TimeSeries> = gw.devices.iter().map(|d| d.total()).collect();
    let total = TimeSeries::sum_all(devices.iter()).expect("gateway has devices");
    (total, devices)
}

fn assert_same(fast: &[DominantDevice], slow: &[DominantDevice], phi: f64) {
    assert_eq!(fast.len(), slow.len(), "dominant count at phi {phi}");
    for (f, s) in fast.iter().zip(slow) {
        assert_eq!(
            (f.device, f.rank, f.similarity.to_bits()),
            (s.device, s.rank, s.similarity.to_bits()),
            "dominant at phi {phi}"
        );
    }
}

/// Asserts the profiled scan — both the one-φ entry point and one
/// similarity pass thresholded at several φ — equals the frozen baseline
/// bit for bit. φ = 0 ranks every significantly correlated device, so the
/// check covers more than the dominants the paper's thresholds keep.
fn assert_bit_identical(total: &TimeSeries, devices: &[TimeSeries]) {
    let sims = device_similarities(total, devices);
    for phi in [0.0, PHI, PHI_STRICT] {
        let slow = dominant_devices_baseline(total, devices, phi);
        assert_same(&dominant_devices(total, devices, phi), &slow, phi);
        assert_same(&dominants_above(&sims, phi), &slow, phi);
    }
}

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

/// Median wall time of `samples` runs, in milliseconds.
fn median_ms<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

struct CaseTimes {
    baseline_ms: f64,
    profiled_ms: f64,
}

impl CaseTimes {
    fn speedup(&self) -> f64 {
        self.baseline_ms / self.profiled_ms
    }
}

/// Times a profiled/baseline closure pair, baseline first.
fn time_pair<P: FnMut(), B: FnMut()>(profiled: P, baseline: B) -> CaseTimes {
    let baseline_ms = median_ms(5, baseline);
    let profiled_ms = median_ms(5, profiled);
    CaseTimes {
        baseline_ms,
        profiled_ms,
    }
}

fn time_single_phi(total: &TimeSeries, devices: &[TimeSeries]) -> CaseTimes {
    time_pair(
        || {
            black_box(dominant_devices(black_box(total), black_box(devices), PHI));
        },
        || {
            black_box(dominant_devices_baseline(
                black_box(total),
                black_box(devices),
                PHI,
            ));
        },
    )
}

fn time_phi_pair(total: &TimeSeries, devices: &[TimeSeries]) -> CaseTimes {
    time_pair(
        || {
            let sims = device_similarities(black_box(total), black_box(devices));
            black_box(dominants_above(&sims, PHI));
            black_box(dominants_above(&sims, PHI_STRICT));
        },
        || {
            black_box(dominant_devices_baseline(
                black_box(total),
                black_box(devices),
                PHI,
            ));
            black_box(dominant_devices_baseline(
                black_box(total),
                black_box(devices),
                PHI_STRICT,
            ));
        },
    )
}

// ---------------------------------------------------------------------------
// Criterion group (interactive), baseline writer, CI smoke
// ---------------------------------------------------------------------------

fn bench_dominance(c: &mut Criterion) {
    let (total, devices) = gateway();
    assert_bit_identical(&total, &devices);

    let mut group = c.benchmark_group("dominance");
    group.sample_size(10);
    group.bench_function("correlation_phi06", |b| {
        b.iter(|| dominant_devices(black_box(&total), black_box(&devices), PHI))
    });
    group.bench_function("euclidean_ranking", |b| {
        b.iter(|| euclidean_ranking(black_box(&total), black_box(&devices)))
    });
    group.bench_function("volume_ranking", |b| {
        b.iter(|| volume_ranking(black_box(&devices)))
    });
    group.finish();
}

/// Verifies bit-identity, then times both cases against the frozen
/// baseline and writes the JSON baseline the repo commits under `results/`.
fn write_baseline() {
    let (total, devices) = gateway();
    assert_bit_identical(&total, &devices);
    let cases = [
        ("single_phi", time_single_phi(&total, &devices)),
        ("phi_pair", time_phi_pair(&total, &devices)),
    ];
    let mut entries = Vec::new();
    for (name, t) in &cases {
        println!(
            "{name}: baseline {:.3} ms, profiled {:.3} ms, speedup {:.2}x",
            t.baseline_ms,
            t.profiled_ms,
            t.speedup()
        );
        entries.push(format!(
            "    \"{name}\": {{ \"baseline_ms\": {:.3}, \"profiled_ms\": {:.3}, \"speedup\": {:.2} }}",
            t.baseline_ms,
            t.profiled_ms,
            t.speedup()
        ));
    }
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n\"bench\": \"dominance\",\n\"baseline\": \"from-scratch Definition 4 scan frozen in benches/dominance.rs: correlation_similarity per device, once per phi\",\n\"weeks\": {WEEKS},\n\"minutes\": {},\n\"devices\": {},\n\"phi\": [{PHI}, {PHI_STRICT}],\n\"available_parallelism\": {available},\n\"threads\": 1,\n\"cases\": {{\n{}\n}},\n\"bit_identical\": true\n}}\n",
        total.len(),
        devices.len(),
        entries.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_dominance.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("baseline written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// CI smoke: bit-identity against the frozen baseline, no timing, no
/// baseline refresh.
fn smoke() {
    let start = Instant::now();
    let (total, devices) = gateway();
    assert_bit_identical(&total, &devices);
    println!(
        "dominance smoke: {} devices x 3 phi bit-identical to the from-scratch scan in {:.2?}",
        devices.len(),
        start.elapsed(),
    );
}

criterion_group!(benches, bench_dominance);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    benches();
    write_baseline();
}
