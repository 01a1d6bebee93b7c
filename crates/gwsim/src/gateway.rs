//! Per-gateway trace generation.
//!
//! A gateway trace is a deterministic function of `(FleetConfig, gateway
//! id)`: the generator derives a private RNG stream per gateway, so a fleet
//! never needs to hold more than one gateway's dense series in memory at a
//! time, and experiments can re-generate any gateway reproducibly.

use crate::apps::AppProfile;
use crate::archetype::HouseholdArchetype;
use crate::config::FleetConfig;
use crate::device::{make_device, DeviceRole, DeviceSpec};
use crate::rng::{chance, lognormal_median, normal, pareto, poisson, weighted_index};
use crate::wifi::{apply_airtime_contention, PhyRate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wtts_devid::DeviceType;
use wtts_timeseries::{Minute, TimeSeries, MINUTES_PER_DAY, MINUTES_PER_WEEK};

/// Access technology of the gateway's WAN link.
///
/// The paper's deployment: 67% fiber (92% of those at 100/10 Mbps, the rest
/// 30/3) and 33% ADSL at 24/1 Mbps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessTech {
    /// 100/10 Mbps fiber.
    Fiber100,
    /// 30/3 Mbps fiber.
    Fiber30,
    /// 24/1 Mbps ADSL.
    Adsl24,
}

impl AccessTech {
    /// Downstream capacity in bytes per minute.
    pub fn downstream_cap(self) -> f64 {
        let mbps = match self {
            AccessTech::Fiber100 => 100.0,
            AccessTech::Fiber30 => 30.0,
            AccessTech::Adsl24 => 24.0,
        };
        mbps * 1e6 / 8.0 * 60.0
    }

    /// Upstream capacity in bytes per minute.
    pub fn upstream_cap(self) -> f64 {
        let mbps = match self {
            AccessTech::Fiber100 => 10.0,
            AccessTech::Fiber30 => 3.0,
            AccessTech::Adsl24 => 1.0,
        };
        mbps * 1e6 / 8.0 * 60.0
    }

    /// Draws an access technology; `adsl_share` of gateways get ADSL and
    /// the fiber remainder splits 92% / 8% between 100/10 and 30/3, the
    /// paper deployment's mix.
    pub fn sample(rng: &mut impl Rng, adsl_share: f64) -> AccessTech {
        let fiber = 1.0 - adsl_share.clamp(0.0, 1.0);
        match weighted_index(
            rng,
            &[fiber * 0.92, fiber * 0.08, adsl_share.clamp(0.0, 1.0)],
        ) {
            0 => AccessTech::Fiber100,
            1 => AccessTech::Fiber30,
            _ => AccessTech::Adsl24,
        }
    }
}

/// Reporting reliability class of a gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reliability {
    /// Reports essentially every minute.
    Reliable,
    /// A handful of whole-day gaps (excluded from daily analyses).
    FlakyDays,
    /// A week-scale gap — late joiner or long outage (excluded from weekly
    /// analyses too).
    FlakyWeeks,
}

/// One simulated device with its rendered traffic.
#[derive(Debug, Clone)]
pub struct SimDevice {
    /// Identity, ownership and traffic profile.
    pub spec: DeviceSpec,
    /// The device's WiFi link rate class.
    pub phy_rate: PhyRate,
    /// Per-minute incoming (downstream) bytes; `NaN` when not connected.
    pub incoming: TimeSeries,
    /// Per-minute outgoing (upstream) bytes; `NaN` when not connected.
    pub outgoing: TimeSeries,
}

impl SimDevice {
    /// Overall per-minute traffic (incoming + outgoing).
    pub fn total(&self) -> TimeSeries {
        self.incoming.add(&self.outgoing)
    }

    /// The device class the paper's heuristic would infer from the MAC and
    /// name (ground truth is `spec.true_type`).
    pub fn inferred_type(&self) -> DeviceType {
        wtts_devid::classify(self.spec.mac, &self.spec.name)
    }
}

/// A fully rendered gateway: household metadata plus every device's series.
#[derive(Debug, Clone)]
pub struct SimGateway {
    /// Gateway index within the fleet.
    pub id: usize,
    /// Household behavior archetype.
    pub archetype: HouseholdArchetype,
    /// Number of residents (ground truth for the survey experiments).
    pub residents: usize,
    /// Behavioral regularity in `[0, 1]`; high values produce strongly
    /// stationary traffic.
    pub regularity: f64,
    /// WAN access technology.
    pub access: AccessTech,
    /// Reporting reliability class.
    pub reliability: Reliability,
    /// All devices ever connected during the observation window.
    pub devices: Vec<SimDevice>,
}

impl SimGateway {
    /// Aggregated per-minute incoming traffic over all devices.
    pub fn aggregate_incoming(&self) -> TimeSeries {
        TimeSeries::sum_all(self.devices.iter().map(|d| &d.incoming)).expect("gateway has devices")
    }

    /// Aggregated per-minute outgoing traffic over all devices.
    pub fn aggregate_outgoing(&self) -> TimeSeries {
        TimeSeries::sum_all(self.devices.iter().map(|d| &d.outgoing)).expect("gateway has devices")
    }

    /// Aggregated overall traffic (incoming + outgoing), the series the
    /// paper calls "the gateway traffic".
    pub fn aggregate_total(&self) -> TimeSeries {
        self.aggregate_incoming().add(&self.aggregate_outgoing())
    }

    /// Number of connected (reporting) devices per minute.
    pub fn connected_devices(&self) -> TimeSeries {
        let n = self.devices.first().map(|d| d.incoming.len()).unwrap_or(0);
        let mut counts = vec![0.0f64; n];
        for d in &self.devices {
            for (c, v) in counts.iter_mut().zip(d.incoming.values()) {
                if v.is_finite() {
                    *c += 1.0;
                }
            }
        }
        TimeSeries::per_minute(counts)
    }
}

/// Deterministically generates gateway `id` of the fleet described by
/// `config`.
pub fn generate_gateway(config: &FleetConfig, id: usize) -> SimGateway {
    let mut rng =
        SmallRng::seed_from_u64(config.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let minutes = config.minutes();
    let days = config.weeks * 7;

    let residents = 1 + weighted_index(&mut rng, &[0.30, 0.35, 0.20, 0.15]);
    let archetype = HouseholdArchetype::sample(&mut rng);
    let regularity = if chance(&mut rng, 0.30) {
        rng.gen_range(0.80..0.97)
    } else {
        rng.gen_range(0.25..0.80)
    };
    let access = AccessTech::sample(&mut rng, config.adsl_share);
    let reliability = match weighted_index(
        &mut rng,
        &[
            1.0 - config.flaky_day_fraction - config.flaky_week_fraction,
            config.flaky_day_fraction,
            config.flaky_week_fraction,
        ],
    ) {
        0 => Reliability::Reliable,
        1 => Reliability::FlakyDays,
        _ => Reliability::FlakyWeeks,
    };

    let specs = build_household_devices(&mut rng, config, residents);
    let gateway_outage = build_outage_mask(&mut rng, reliability, days, minutes);

    // Render every device: presence, background, then sessions on top.
    let mut devices: Vec<RenderedDevice> = specs
        .into_iter()
        .map(|spec| render_device(&mut rng, spec, minutes, &gateway_outage, regularity))
        .collect();

    generate_sessions(
        &mut rng,
        config,
        archetype,
        regularity,
        residents,
        &mut devices,
        days,
    );
    generate_solo_sessions(&mut rng, &mut devices, minutes, regularity);

    // The WLAN is a shared medium: assign each device a PHY rate class and
    // scale any oversubscribed minute by the common contention factor
    // (Section 3: traffic "is bounded by the wireless effective
    // throughput").
    let rates: Vec<PhyRate> = devices
        .iter()
        .map(|d| PhyRate::sample(&mut rng, d.spec.role.is_portable()))
        .collect();
    let mut slot: Vec<(f64, f64)> = vec![(f64::NAN, f64::NAN); devices.len()];
    for m in 0..minutes {
        for (k, d) in devices.iter().enumerate() {
            slot[k] = (d.incoming[m], d.outgoing[m]);
        }
        if apply_airtime_contention(&mut slot, &rates) < 1.0 {
            for (k, d) in devices.iter_mut().enumerate() {
                d.incoming[m] = slot[k].0;
                d.outgoing[m] = slot[k].1;
            }
        }
    }

    // Clamp to access capacity and freeze into TimeSeries.
    let down_cap = access.downstream_cap();
    let up_cap = access.upstream_cap();
    let devices = devices
        .into_iter()
        .zip(rates)
        .map(|(d, phy_rate)| {
            let mut incoming = d.incoming;
            let mut outgoing = d.outgoing;
            for v in incoming.iter_mut() {
                if v.is_finite() && *v > down_cap {
                    *v = down_cap;
                }
            }
            for v in outgoing.iter_mut() {
                if v.is_finite() && *v > up_cap {
                    *v = up_cap;
                }
            }
            SimDevice {
                spec: d.spec,
                phy_rate,
                incoming: TimeSeries::per_minute(incoming),
                outgoing: TimeSeries::per_minute(outgoing),
            }
        })
        .collect();

    SimGateway {
        id,
        archetype,
        residents,
        regularity,
        access,
        reliability,
        devices,
    }
}

/// Intermediate mutable device state during rendering.
struct RenderedDevice {
    spec: DeviceSpec,
    /// Presence per minute (false = not connected, series value NaN).
    present: Vec<bool>,
    incoming: Vec<f64>,
    outgoing: Vec<f64>,
}

/// Draws the household's device population.
fn build_household_devices(
    rng: &mut impl Rng,
    config: &FleetConfig,
    residents: usize,
) -> Vec<DeviceSpec> {
    let mut specs = Vec::new();
    for r in 0..residents {
        let employed = chance(rng, 0.65);
        let lead = r == 0;
        specs.push(make_device(
            rng,
            DeviceRole::Phone,
            Some(r),
            employed,
            if lead { 2.0 } else { 1.0 },
            None,
        ));
        if chance(rng, 0.60) {
            specs.push(make_device(
                rng,
                DeviceRole::Laptop,
                Some(r),
                employed,
                if lead { 1.8 } else { 0.9 },
                None,
            ));
        }
        if chance(rng, 0.30) {
            specs.push(make_device(
                rng,
                DeviceRole::Tablet,
                Some(r),
                employed,
                0.7,
                None,
            ));
        }
    }
    if chance(rng, 0.50) {
        specs.push(make_device(
            rng,
            DeviceRole::Desktop,
            None,
            false,
            2.2,
            None,
        ));
    }
    if chance(rng, 0.45) {
        specs.push(make_device(
            rng,
            DeviceRole::SmartTv,
            None,
            false,
            0.45,
            None,
        ));
    }
    if chance(rng, 0.25) {
        specs.push(make_device(
            rng,
            DeviceRole::Console,
            None,
            false,
            0.5,
            None,
        ));
    }
    if chance(rng, 0.35) {
        specs.push(make_device(
            rng,
            DeviceRole::Peripheral,
            None,
            false,
            0.05,
            None,
        ));
    }
    // Transient guests.
    let total_days = config.weeks * 7;
    let guests = poisson(rng, config.guest_rate);
    for _ in 0..guests {
        let stay = rng.gen_range(1..=4u32).min(total_days);
        let first = rng.gen_range(0..=(total_days - stay));
        specs.push(make_device(
            rng,
            DeviceRole::Guest,
            None,
            false,
            0.25,
            Some((first, first + stay)),
        ));
    }
    // Emphasize one primary device: households have a device that dominates
    // their traffic (Section 6.2 finds a dominant device in nearly every
    // home).
    if let Some(primary) = specs
        .iter_mut()
        .filter(|s| s.guest_days.is_none())
        .max_by(|a, b| {
            a.session_weight
                .partial_cmp(&b.session_weight)
                .expect("finite")
        })
    {
        primary.session_weight *= 4.0;
    }
    specs
}

/// Builds the gateway-wide outage mask (true = not reporting).
fn build_outage_mask(
    rng: &mut impl Rng,
    reliability: Reliability,
    days: u32,
    minutes: usize,
) -> Vec<bool> {
    let mut mask = vec![false; minutes];
    match reliability {
        Reliability::Reliable => {}
        Reliability::FlakyDays => {
            let k = rng.gen_range(1..=4usize);
            for _ in 0..k {
                let day = rng.gen_range(0..days) as usize;
                let start = day * MINUTES_PER_DAY as usize;
                for m in mask.iter_mut().skip(start).take(MINUTES_PER_DAY as usize) {
                    *m = true;
                }
            }
        }
        Reliability::FlakyWeeks => {
            // Late joiner: the gateway appears only after a week-scale delay.
            let max_gap = (days - 7).max(8);
            let gap_days = rng.gen_range(7..=max_gap.min(21)) as usize;
            for m in mask.iter_mut().take(gap_days * MINUTES_PER_DAY as usize) {
                *m = true;
            }
        }
    }
    // Everyone: occasional short outages (1-4 hours).
    let weeks = days / 7;
    for w in 0..weeks {
        if chance(rng, 0.15) {
            let len = rng.gen_range(60..=240usize);
            let week_start = w as usize * 7 * MINUTES_PER_DAY as usize;
            let offset = rng.gen_range(0..7 * MINUTES_PER_DAY as usize - len);
            for m in mask.iter_mut().skip(week_start + offset).take(len) {
                *m = true;
            }
        }
    }
    mask
}

/// Renders presence and background traffic for one device.
fn render_device(
    rng: &mut impl Rng,
    spec: DeviceSpec,
    minutes: usize,
    gateway_outage: &[bool],
    regularity: f64,
) -> RenderedDevice {
    let mut present = vec![true; minutes];

    // Guests exist only within their stay, 10:00–23:00.
    if let Some((d0, d1)) = spec.guest_days {
        for (m, p) in present.iter_mut().enumerate() {
            let minute = Minute(m as u32);
            let day = minute.day();
            let hour = minute.hour();
            *p = day >= d0 && day < d1 && (10..23).contains(&hour);
        }
    } else if spec.role.is_portable() {
        for day in 0..(minutes / MINUTES_PER_DAY as usize) {
            let day_start = day * MINUTES_PER_DAY as usize;
            let weekday = Minute(day_start as u32).weekday();
            // Commuting owner: phone leaves on weekdays ~8:30–17:30.
            if spec.role == DeviceRole::Phone && spec.owner_employed && !weekday.is_weekend() {
                let leave = 8 * 60 + 30 + rng.gen_range(-40i32..40);
                let back = 17 * 60 + 30 + rng.gen_range(-40i32..60);
                for t in leave.max(0)..back.min(MINUTES_PER_DAY as i32) {
                    present[day_start + t as usize] = false;
                }
            }
            // Overnight radio-off: most nights the portable disconnects
            // from WiFi entirely, so the gateway stops reporting it — the
            // connected-device count follows the household's waking hours.
            if chance(rng, 0.75) {
                let sleep_from = 23 * 60 + rng.gen_range(0..90) as usize;
                let wake_at = 6 * 60 + rng.gen_range(0..90) as usize;
                for t in sleep_from..MINUTES_PER_DAY as usize {
                    present[day_start + t] = false;
                }
                // The early hours of the *next* day.
                let next = day_start + MINUTES_PER_DAY as usize;
                for t in 0..wake_at {
                    if next + t < minutes {
                        present[next + t] = false;
                    }
                }
            }
        }
    }

    // Entertainment boxes power off overnight (and mostly stay off during
    // weekday working hours) — the connected-device count breathes with the
    // household's waking rhythm.
    if matches!(spec.role, DeviceRole::SmartTv | DeviceRole::Console) && chance(rng, 0.8) {
        for day in 0..(minutes / MINUTES_PER_DAY as usize) {
            let day_start = day * MINUTES_PER_DAY as usize;
            let weekday = Minute(day_start as u32).weekday();
            let on_from = if weekday.is_weekend() {
                9 * 60 + rng.gen_range(0..120)
            } else {
                15 * 60 + rng.gen_range(0..120)
            } as usize;
            for t in 0..on_from {
                present[day_start + t] = false;
            }
        }
    }

    // Gateway outages override everything.
    for (p, &out) in present.iter_mut().zip(gateway_outage) {
        if out {
            *p = false;
        }
    }

    // Background traffic on present minutes, modulated by a per-device
    // circadian cycle with its own phase (a shared day/night step across
    // devices would fabricate cross-device correlation that the paper's
    // data does not have).
    let mut incoming = vec![f64::NAN; minutes];
    let mut outgoing = vec![f64::NAN; minutes];
    let in_median = spec.background_median;
    let out_median = spec.background_median * 0.6;
    let portable = spec.role.is_portable();
    let phase = rng.gen_range(0.0..24.0);
    // Heavy background producers (always-on PCs syncing, seeding, polling)
    // emit a near-constant stream. A constant adds nothing to the rank
    // ordering of the gateway total, so these machines do not read as
    // "dominant" unless they also host real sessions — matching the paper,
    // where most gateways have exactly one dominant device.
    let steady = in_median > 1_500.0;
    let sigma = if steady { 0.12 } else { 0.3 };
    let amplitude = if steady { 0.05 } else { 0.25 };
    // Background level drifts from week to week (OS updates roll out, apps
    // change their polling) — one reason raw traffic fails the KS check of
    // strong stationarity while *active* traffic passes it (Section 6.1's
    // 7% -> 11% stationarity gain from background removal).
    let weeks = minutes.div_ceil(MINUTES_PER_WEEK as usize);
    let drift_sigma = (0.32 * (1.15 - regularity)).max(0.04);
    let week_factor: Vec<f64> = (0..weeks)
        .map(|_| lognormal_median(rng, 1.0, drift_sigma))
        .collect();
    // The circadian factor depends only on the hour of day: tabulate it
    // once per device rather than evaluating `cos` every present minute.
    let circadian_by_hour: [f64; 24] = std::array::from_fn(|hour| {
        let hour = hour as f64;
        1.0 - amplitude + amplitude * ((hour - phase) * std::f64::consts::TAU / 24.0).cos()
    });
    for m in 0..minutes {
        if !present[m] {
            continue;
        }
        let circadian = circadian_by_hour[Minute(m as u32).hour() as usize];
        let week = m / MINUTES_PER_WEEK as usize;
        let mut bi = lognormal_median(rng, in_median, sigma) * circadian * week_factor[week];
        // Upstream background tracks downstream (ACKs, sync chatter) with
        // its own jitter — the paper's in/out correlation (~0.92) holds in
        // the background mass as well.
        let mut bo = bi * (out_median / in_median) * lognormal_median(rng, 1.0, 0.3);
        // Background is intermittent, not smooth: most minutes carry only
        // faint control chatter, with periodic sync bursts (mail checks,
        // feed refreshes) reaching the device's characteristic level. The
        // chatter/sync alternation is independent across devices, so no
        // single device's background dictates the gateway's idle-minute
        // rank order.
        let doze_p = match spec.role {
            _ if steady => 0.0,
            DeviceRole::Peripheral => 0.35,
            _ if portable => 0.60,
            _ => 0.50,
        };
        if chance(rng, doze_p) {
            bi *= 0.05;
            bo *= 0.05;
        }
        if chance(rng, 0.004) {
            // Software update / sync burst.
            let burst = rng.gen_range(8.0..25.0);
            bi *= burst;
            bo *= burst * 0.3;
        }
        incoming[m] = bi;
        outgoing[m] = bo;
    }

    RenderedDevice {
        spec,
        present,
        incoming,
        outgoing,
    }
}

/// Per-device solo activity: podcasts on the phone during a commute break,
/// cloud syncs, solitary browsing — bursts independent of the household
/// rhythm. This idiosyncratic variance is what keeps marginally-involved
/// devices *below* the dominance threshold in real traffic.
fn generate_solo_sessions(
    rng: &mut impl Rng,
    devices: &mut [RenderedDevice],
    minutes: usize,
    regularity: f64,
) {
    let days = minutes / MINUTES_PER_DAY as usize;
    for device in devices.iter_mut() {
        if device.spec.role == DeviceRole::Peripheral {
            continue;
        }
        for day in 0..days {
            let n = poisson(rng, 1.2 * (1.0 - 0.7 * regularity));
            for _ in 0..n {
                let start =
                    day * MINUTES_PER_DAY as usize + rng.gen_range(0..MINUTES_PER_DAY as usize);
                if !device.present[start] {
                    continue;
                }
                // Mostly light apps, occasionally a solo stream.
                let app = match weighted_index(rng, &[0.55, 0.25, 0.20]) {
                    0 => AppProfile::Browsing,
                    1 => AppProfile::Download,
                    _ => AppProfile::Streaming,
                };
                let duration = pareto(rng, app.duration_scale() * 0.6, 1.5, 120.0) as usize;
                let rate_in = app.rate_in() * (0.5 * normal(rng)).exp() * 0.5;
                for m in start..(start + duration).min(minutes) {
                    if !device.present[m] {
                        break;
                    }
                    let minute_in = rate_in * (app.burstiness() * normal(rng)).exp();
                    let minute_out = minute_in * app.out_ratio() * (0.3 * normal(rng)).exp();
                    device.incoming[m] = device.incoming[m].max(0.0) + minute_in;
                    device.outgoing[m] = device.outgoing[m].max(0.0) + minute_out;
                }
            }
        }
    }
}

/// Generates household sessions and accumulates their traffic onto the
/// devices.
#[allow(clippy::too_many_arguments)]
fn generate_sessions(
    rng: &mut impl Rng,
    config: &FleetConfig,
    archetype: HouseholdArchetype,
    regularity: f64,
    residents: usize,
    devices: &mut [RenderedDevice],
    days: u32,
) {
    let minutes = config.minutes();
    let sigma_day = (1.0 - regularity) * 0.9;
    // Residents are active at individually shifted hours (the paper:
    // "different users are active during different periods of time"), with
    // the lead resident carrying most sessions — that concentration is what
    // makes one device dominate a gateway (Section 6.2).
    let resident_offsets: Vec<i32> = (0..residents)
        .map(|r| {
            if r == 0 {
                0
            } else {
                [-3, -2, 2, 3][rng.gen_range(0..4)]
            }
        })
        .collect();
    // The household's favorite hour: regular homes go online at the same
    // time every day, irregular ones spread across the archetype's window.
    let peak_hour = {
        let base_weights = archetype.hour_weights(wtts_timeseries::Weekday::Wednesday);
        weighted_index(rng, &base_weights) as f64
    };
    let habit_width = 7.0 - 5.5 * regularity; // hours
                                              // A regular household also has a regular media diet — the same show at
                                              // the same hour pulls the same bytes, stabilizing window magnitudes.
    let habit_app = AppProfile::sample(rng, false, false);
    let resident_weights: Vec<f64> = (0..residents)
        .map(|r| if r == 0 { 1.8 } else { 1.0 })
        .collect();
    // Each resident has one favorite ("main") device hosting the bulk of
    // their sessions — one person drives one screen at a time, which is why
    // one-resident homes in the paper always show exactly one dominant
    // device.
    let main_device: Vec<Option<usize>> = (0..residents)
        .map(|r| {
            // Prefer the resident's own devices; fall back to shared ones
            // only when they own none. Distinct residents then concentrate
            // on distinct devices, so the dominant-device count tracks the
            // resident count in small households (Section 6.2).
            let own: Vec<(usize, f64)> = devices
                .iter()
                .enumerate()
                .filter(|(_, d)| d.spec.guest_days.is_none() && d.spec.owner == Some(r))
                .map(|(i, d)| (i, d.spec.session_weight))
                .collect();
            let candidates: Vec<(usize, f64)> = if own.is_empty() {
                devices
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.spec.guest_days.is_none() && d.spec.owner.is_none())
                    .map(|(i, d)| (i, d.spec.session_weight))
                    .collect()
            } else {
                own
            };
            if candidates.is_empty() {
                return None;
            }
            let weights: Vec<f64> = candidates.iter().map(|&(_, w)| w).collect();
            Some(candidates[weighted_index(rng, &weights)].0)
        })
        .collect();
    // Non-main devices are used in their own characteristic daypart (the
    // tablet on the sofa in the morning, the console late at night), so
    // their traffic does not shadow the main device's rhythm.
    let device_offsets: Vec<i32> = (0..devices.len())
        .map(|i| {
            if main_device.contains(&Some(i)) {
                0
            } else {
                [-5, -3, 3, 5][rng.gen_range(0..4)]
            }
        })
        .collect();
    for day in 0..days {
        let day_start = day as usize * MINUTES_PER_DAY as usize;
        let weekday = Minute(day_start as u32).weekday();
        let day_jitter = (sigma_day * normal(rng)).exp();
        let lambda = config.base_sessions_per_day
            * archetype.day_weight(weekday)
            * (0.6 + 0.4 * residents as f64)
            * day_jitter;
        // Regular households repeat the same session count day after day;
        // irregular ones fluctuate with full Poisson noise.
        let n_sessions = if chance(rng, regularity) {
            lambda.round() as u32
        } else {
            poisson(rng, lambda)
        };
        // Regular households keep fixed habits: concentrate the hour weights
        // around the household's favorite hour, which is what makes their
        // windows strongly stationary (Definition 2).
        let mut hour_weights = archetype.hour_weights(weekday);
        for (h, w) in hour_weights.iter_mut().enumerate() {
            let mut dist = (h as f64 - peak_hour).abs();
            dist = dist.min(24.0 - dist);
            *w *= (-0.5 * (dist / habit_width).powi(2)).exp();
        }
        for _ in 0..n_sessions {
            let resident = weighted_index(rng, &resident_weights);
            let hour = (weighted_index(rng, &hour_weights) as i32 + resident_offsets[resident])
                .rem_euclid(24) as usize;
            let start = day_start + hour * 60 + rng.gen_range(0..60);
            if start >= minutes {
                continue;
            }
            // Pick a device present at the session start, among this
            // resident's own devices and the shared household devices.
            let evening_or_weekend = hour >= 18 || weekday.is_weekend();
            let weights: Vec<f64> = devices
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    if !d.present[start] {
                        return 0.0;
                    }
                    match d.spec.owner {
                        Some(o) if o != resident => return 0.0,
                        _ => {}
                    }
                    let mut w = d.spec.session_weight;
                    if main_device[resident] == Some(i) {
                        w *= 25.0;
                    }
                    if d.spec.role.is_portable() {
                        w *= archetype.portable_affinity();
                        if evening_or_weekend {
                            w *= 1.5;
                        }
                    } else if !evening_or_weekend {
                        w *= 1.3;
                    }
                    w
                })
                .collect();
            if weights.iter().sum::<f64>() <= 0.0 {
                continue;
            }
            let chosen = weighted_index(rng, &weights);
            let start = (start as i64 + device_offsets[chosen] as i64 * 60)
                .clamp(0, minutes as i64 - 1) as usize;
            let device = &mut devices[chosen];
            let is_console = device.spec.true_type == DeviceType::GameConsole;
            let is_tv = device.spec.true_type == DeviceType::SmartTv;
            let app = if !is_console && !is_tv && chance(rng, regularity * 0.85) {
                habit_app
            } else {
                AppProfile::sample(rng, is_console, is_tv)
            };
            let duration = pareto(rng, app.duration_scale(), 1.4, 300.0) as usize;
            let session_scale = (0.5 * (1.2 - regularity) * normal(rng)).exp();
            let rate_in = app.rate_in() * session_scale;
            let out_ratio = app.out_ratio();
            for m in start..(start + duration).min(minutes) {
                if !device.present[m] {
                    break;
                }
                let minute_in = rate_in * (app.burstiness() * normal(rng)).exp();
                let minute_out = minute_in * out_ratio * (0.3 * normal(rng)).exp();
                device.incoming[m] = device.incoming[m].max(0.0) + minute_in;
                device.outgoing[m] = device.outgoing[m].max(0.0) + minute_out;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_stats::pearson;

    fn small_gateway(id: usize) -> SimGateway {
        generate_gateway(&FleetConfig::small(), id)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_gateway(3);
        let b = small_gateway(3);
        assert_eq!(a.residents, b.residents);
        assert_eq!(a.devices.len(), b.devices.len());
        assert_eq!(
            a.devices[0].incoming.values()[..100],
            b.devices[0].incoming.values()[..100]
        );
    }

    /// FNV-1a over every f64 bit of every device series plus the household
    /// metadata, so any drift in the renderer's output or RNG stream shows.
    fn render_fingerprint(gateways: &[SimGateway]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for gw in gateways {
            eat(&(gw.id as u64).to_le_bytes());
            eat(&(gw.residents as u64).to_le_bytes());
            eat(format!("{:?}/{:?}/{:?}", gw.archetype, gw.access, gw.reliability).as_bytes());
            eat(&(gw.devices.len() as u64).to_le_bytes());
            for d in &gw.devices {
                for v in d.incoming.values().iter().chain(d.outgoing.values()) {
                    eat(&v.to_bits().to_le_bytes());
                }
            }
        }
        h
    }

    #[test]
    fn renderer_output_is_pinned() {
        // A renderer edit that changes any value, RNG draw or metadata field
        // fails here; a deliberate change updates the constant knowingly.
        let small = FleetConfig::small();
        let mut gateways: Vec<SimGateway> = (0..4).map(|id| generate_gateway(&small, id)).collect();
        let four_weeks = FleetConfig {
            n_gateways: 6,
            weeks: 4,
            ..FleetConfig::default()
        };
        gateways.push(generate_gateway(&four_weeks, 5));
        assert_eq!(render_fingerprint(&gateways), 0x0f01_0901_262c_3b16);
    }

    #[test]
    fn different_ids_differ() {
        let a = small_gateway(1);
        let b = small_gateway(2);
        // Extremely unlikely to coincide in both metadata and first values.
        let same_meta = a.residents == b.residents
            && a.archetype == b.archetype
            && a.devices.len() == b.devices.len();
        let same_data =
            a.devices[0].incoming.values()[..50] == b.devices[0].incoming.values()[..50];
        assert!(!(same_meta && same_data));
    }

    #[test]
    fn every_gateway_has_devices_and_traffic() {
        for id in 0..8 {
            let gw = small_gateway(id);
            assert!(!gw.devices.is_empty(), "gateway {id} has no devices");
            let total = gw.aggregate_total();
            assert!(total.observed_count() > 0, "gateway {id} has no traffic");
            assert!(total.total() > 0.0);
            assert!((1..=4).contains(&gw.residents));
        }
    }

    #[test]
    fn series_cover_configured_window() {
        let config = FleetConfig::small();
        let gw = generate_gateway(&config, 0);
        for d in &gw.devices {
            assert_eq!(d.incoming.len(), config.minutes());
            assert_eq!(d.outgoing.len(), config.minutes());
            assert_eq!(d.incoming.step_minutes(), 1);
        }
    }

    #[test]
    fn in_out_strongly_correlated() {
        // Section 4.1: mean in/out correlation across gateways ~0.92.
        let mut cors = Vec::new();
        for id in 0..8 {
            let gw = small_gateway(id);
            let inc = gw.aggregate_incoming();
            let out = gw.aggregate_outgoing();
            let r = pearson(inc.values(), out.values());
            if r.n > 100 {
                cors.push(r.value);
            }
        }
        let mean = cors.iter().sum::<f64>() / cors.len() as f64;
        assert!(mean > 0.6, "mean in/out correlation too low: {mean}");
    }

    #[test]
    fn guests_only_present_during_stay() {
        for id in 0..8 {
            let gw = small_gateway(id);
            for d in &gw.devices {
                if let Some((d0, d1)) = d.spec.guest_days {
                    for (m, v) in d.incoming.values().iter().enumerate() {
                        if v.is_finite() {
                            let day = Minute(m as u32).day();
                            assert!(
                                day >= d0 && day < d1,
                                "guest observed outside its stay (gw {id})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn late_joiners_miss_leading_weeks() {
        let config = FleetConfig {
            n_gateways: 40,
            weeks: 4,
            ..FleetConfig::default()
        };
        let mut found_flaky_week = false;
        for id in 0..config.n_gateways {
            let gw = generate_gateway(&config, id);
            if gw.reliability == Reliability::FlakyWeeks {
                found_flaky_week = true;
                let total = gw.aggregate_total();
                // First day fully missing.
                let first_day = &total.values()[..MINUTES_PER_DAY as usize];
                assert!(first_day.iter().all(|v| v.is_nan()));
            }
        }
        assert!(found_flaky_week, "no FlakyWeeks gateway in 40 draws");
    }

    #[test]
    fn capacity_respected() {
        for id in 0..4 {
            let gw = small_gateway(id);
            let down = gw.access.downstream_cap();
            let up = gw.access.upstream_cap();
            for d in &gw.devices {
                assert!(d.incoming.max().unwrap_or(0.0) <= down + 1e-6);
                assert!(d.outgoing.max().unwrap_or(0.0) <= up + 1e-6);
            }
        }
    }

    #[test]
    fn connected_devices_counts() {
        let gw = small_gateway(0);
        let counts = gw.connected_devices();
        let max = counts.max().unwrap();
        assert!(max <= gw.devices.len() as f64);
        assert!(max >= 1.0);
    }

    #[test]
    fn access_tech_caps_ordered() {
        assert!(AccessTech::Fiber100.downstream_cap() > AccessTech::Adsl24.downstream_cap());
        assert!(AccessTech::Fiber100.upstream_cap() > AccessTech::Fiber30.upstream_cap());
        // 100 Mbps = 750 MB/min.
        assert!((AccessTech::Fiber100.downstream_cap() - 7.5e8).abs() < 1.0);
    }

    #[test]
    fn commuter_phone_absent_midday() {
        // Find an employed phone owner and check weekday midday absence.
        for id in 0..8 {
            let gw = small_gateway(id);
            for d in &gw.devices {
                if d.spec.role == DeviceRole::Phone && d.spec.owner_employed {
                    // Tuesday of week 0, 12:00.
                    let idx = (MINUTES_PER_DAY + 12 * 60) as usize;
                    let v = d.incoming.values()[idx];
                    // Could be a gateway outage minute too, but in either
                    // case the device must be unobserved unless the paper's
                    // jittered commute window shifted; accept NaN or small.
                    if v.is_finite() {
                        continue;
                    }
                    return; // Found an absent commuter - test passes.
                }
            }
        }
        panic!("no commuting phone found absent at weekday noon");
    }
}
