//! The simulated deployment: lazy, deterministic gateway access.

use crate::config::FleetConfig;
use crate::gateway::{generate_gateway, SimGateway};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use wtts_timeseries::{Minute, TimeSeries, MINUTES_PER_WEEK};

/// A simulated fleet of residential gateways.
///
/// ```
/// use wtts_gwsim::{Fleet, FleetConfig};
///
/// let fleet = Fleet::new(FleetConfig { n_gateways: 2, weeks: 1, ..FleetConfig::default() });
/// let gw = fleet.gateway(0);
/// assert!(!gw.devices.is_empty());
/// assert!(gw.aggregate_total().total() > 0.0);
/// assert_eq!(fleet.renders(), 1);
/// ```
///
/// The fleet holds its configuration, a per-gateway week-0 coverage memo
/// (one `usize` per gateway, filled by one walk the first time
/// [`Fleet::week0_coverage`] is read, or by a caller's own walk through
/// [`Fleet::set_week0_coverage`]) and a render counter per gateway. It never holds
/// a series: each gateway's dense traffic is rendered on demand by
/// [`Fleet::gateway`] from a per-gateway RNG stream. A sequential walk such
/// as [`Fleet::iter`] therefore holds one rendered gateway at a time, and a
/// parallel walk one per worker thread; memory never grows with the fleet
/// size beyond the memo. Every analysis is reproducible from `(config, id)`.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    week0_coverage: OnceLock<Vec<usize>>,
    /// Renders of each gateway id through this handle.
    renders: Box<[AtomicUsize]>,
}

/// Renders through every [`Fleet`] of the process; see
/// [`Fleet::process_renders`].
static PROCESS_RENDERS: AtomicUsize = AtomicUsize::new(0);

/// A clone shares the configuration and any filled coverage memo (both are
/// functions of the configuration alone); its render counters start at zero.
impl Clone for Fleet {
    fn clone(&self) -> Fleet {
        Fleet {
            config: self.config.clone(),
            week0_coverage: self.week0_coverage.clone(),
            renders: zeroed_counters(self.config.n_gateways),
        }
    }
}

fn zeroed_counters(n: usize) -> Box<[AtomicUsize]> {
    (0..n).map(|_| AtomicUsize::new(0)).collect()
}

impl Fleet {
    /// Creates a fleet with the given configuration.
    pub fn new(config: FleetConfig) -> Fleet {
        Fleet {
            renders: zeroed_counters(config.n_gateways),
            config,
            week0_coverage: OnceLock::new(),
        }
    }

    /// The paper-scale default fleet (196 gateways, 6 weeks).
    pub fn paper_scale() -> Fleet {
        Fleet::new(FleetConfig::default())
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of gateways.
    pub fn len(&self) -> usize {
        self.config.n_gateways
    }

    /// Whether the fleet has no gateways.
    pub fn is_empty(&self) -> bool {
        self.config.n_gateways == 0
    }

    /// Renders gateway `id`.
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    pub fn gateway(&self, id: usize) -> SimGateway {
        assert!(id < self.config.n_gateways, "gateway id out of range");
        self.renders[id].fetch_add(1, Ordering::Relaxed);
        PROCESS_RENDERS.fetch_add(1, Ordering::Relaxed);
        generate_gateway(&self.config, id)
    }

    /// How many gateways [`Fleet::gateway`] has rendered through this
    /// handle, across all threads.
    pub fn renders(&self) -> usize {
        self.renders.iter().map(|r| r.load(Ordering::Relaxed)).sum()
    }

    /// How many times [`Fleet::gateway`] has rendered gateway `id` through
    /// this handle.
    pub fn renders_of(&self, id: usize) -> usize {
        self.renders[id].load(Ordering::Relaxed)
    }

    /// How many gateways [`Fleet::gateway`] has rendered through every
    /// fleet of this process, including fleets an analysis builds for
    /// itself (the experiment runner's per-experiment census).
    pub fn process_renders() -> usize {
        PROCESS_RENDERS.load(Ordering::Relaxed)
    }

    /// Observed (finite) minutes of each gateway's aggregate total in week
    /// 0, indexed by gateway id. The first call renders the whole fleet
    /// once unless [`Fleet::set_week0_coverage`] filled the memo; later
    /// calls read the memo.
    pub fn week0_coverage(&self) -> &[usize] {
        self.week0_coverage.get_or_init(|| {
            self.iter()
                .map(|gw| week0_observed(&gw.aggregate_total()))
                .collect()
        })
    }

    /// The coverage memo, if it is filled.
    pub fn known_week0_coverage(&self) -> Option<&[usize]> {
        self.week0_coverage.get().map(Vec::as_slice)
    }

    /// Fills the coverage memo from a walk the caller made anyway: entry
    /// `id` must be [`week0_observed`] of gateway `id`'s aggregate total. A
    /// filled memo is kept.
    ///
    /// # Panics
    /// Panics if `coverage` does not have one entry per gateway.
    pub fn set_week0_coverage(&self, coverage: Vec<usize>) {
        assert_eq!(coverage.len(), self.len(), "one entry per gateway");
        let _ = self.week0_coverage.set(coverage);
    }

    /// Iterates over all gateways, rendering each lazily.
    pub fn iter(&self) -> impl Iterator<Item = SimGateway> + '_ {
        (0..self.config.n_gateways).map(move |id| self.gateway(id))
    }
}

/// Observed (finite) minutes in week 0 of a gateway's aggregate total
/// ([`SimGateway::aggregate_total`]): the entry [`Fleet::week0_coverage`]
/// holds for the gateway.
pub fn week0_observed(aggregate_total: &TimeSeries) -> usize {
    aggregate_total
        .slice(Minute::ZERO, MINUTES_PER_WEEK as usize)
        .observed_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_rendering_is_stable() {
        let fleet = Fleet::new(FleetConfig::small());
        let a = fleet.gateway(2);
        let b = fleet.gateway(2);
        assert_eq!(a.devices.len(), b.devices.len());
        assert_eq!(a.archetype, b.archetype);
    }

    #[test]
    fn iter_covers_all() {
        let fleet = Fleet::new(FleetConfig::small());
        assert_eq!(fleet.iter().count(), fleet.len());
        assert!(!fleet.is_empty());
    }

    #[test]
    fn coverage_memo_renders_once_and_counts() {
        let fleet = Fleet::new(FleetConfig::small());
        let coverage = fleet.week0_coverage().to_vec();
        assert_eq!(coverage.len(), fleet.len());
        assert_eq!(fleet.renders(), fleet.len());
        assert_eq!(fleet.week0_coverage(), coverage.as_slice());
        assert_eq!(fleet.renders(), fleet.len());
        let week = MINUTES_PER_WEEK as usize;
        for (id, &c) in coverage.iter().enumerate() {
            let total = fleet.gateway(id).aggregate_total();
            assert_eq!(
                c,
                total.values()[..week]
                    .iter()
                    .filter(|v| v.is_finite())
                    .count()
            );
        }
        // A clone keeps the memo but counts its own renders.
        let clone = fleet.clone();
        assert_eq!(clone.week0_coverage(), coverage.as_slice());
        assert_eq!(clone.renders(), 0);
        // A memo filled from the caller's own walk renders nothing more.
        let fresh = Fleet::new(FleetConfig::small());
        assert_eq!(fresh.known_week0_coverage(), None);
        fresh.set_week0_coverage(coverage.clone());
        assert_eq!(fresh.known_week0_coverage(), Some(coverage.as_slice()));
        assert_eq!(fresh.week0_coverage(), coverage.as_slice());
        assert_eq!(fresh.renders(), 0);
    }

    #[test]
    fn renders_are_counted_per_gateway() {
        let fleet = Fleet::new(FleetConfig::small());
        let gw = fleet.gateway(3);
        assert_eq!(
            week0_observed(&gw.aggregate_total()),
            fleet.week0_coverage()[3]
        );
        assert_eq!(fleet.renders_of(3), 2);
        assert_eq!(fleet.renders_of(0), 1);
        assert_eq!(fleet.renders(), fleet.len() + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let fleet = Fleet::new(FleetConfig::small());
        let _ = fleet.gateway(999);
    }
}
