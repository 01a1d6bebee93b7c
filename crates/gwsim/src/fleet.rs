//! The simulated deployment: lazy, deterministic gateway access.

use crate::config::FleetConfig;
use crate::gateway::{generate_gateway, SimGateway};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use wtts_timeseries::{Minute, MINUTES_PER_WEEK};

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
/// [`Fleet::week0_coverage`] is read) and a render counter. It never holds
/// a series: each gateway's dense traffic is rendered on demand by
/// [`Fleet::gateway`] from a per-gateway RNG stream. A sequential walk such
/// as [`Fleet::iter`] therefore holds one rendered gateway at a time, and a
/// parallel walk one per worker thread; memory never grows with the fleet
/// size beyond the memo. Every analysis is reproducible from `(config, id)`.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    week0_coverage: OnceLock<Vec<usize>>,
    renders: AtomicUsize,
}

/// Renders through every [`Fleet`] of the process; see
/// [`Fleet::process_renders`].
static PROCESS_RENDERS: AtomicUsize = AtomicUsize::new(0);

/// A clone shares the configuration and any filled coverage memo (both are
/// functions of the configuration alone); its render counter starts at zero.
impl Clone for Fleet {
    fn clone(&self) -> Fleet {
        Fleet {
            config: self.config.clone(),
            week0_coverage: self.week0_coverage.clone(),
            renders: AtomicUsize::new(0),
        }
    }
}

impl Fleet {
    /// Creates a fleet with the given configuration.
    pub fn new(config: FleetConfig) -> Fleet {
        Fleet {
            config,
            week0_coverage: OnceLock::new(),
            renders: AtomicUsize::new(0),
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
        self.renders.fetch_add(1, Ordering::Relaxed);
        PROCESS_RENDERS.fetch_add(1, Ordering::Relaxed);
        generate_gateway(&self.config, id)
    }

    /// How many gateways [`Fleet::gateway`] has rendered through this
    /// handle, across all threads.
    pub fn renders(&self) -> usize {
        self.renders.load(Ordering::Relaxed)
    }

    /// How many gateways [`Fleet::gateway`] has rendered through every
    /// fleet of this process, including fleets an analysis builds for
    /// itself (the experiment runner's per-experiment census).
    pub fn process_renders() -> usize {
        PROCESS_RENDERS.load(Ordering::Relaxed)
    }

    /// Observed (finite) minutes of each gateway's aggregate total in week
    /// 0, indexed by gateway id. The first call renders the whole fleet
    /// once; later calls read the memo.
    pub fn week0_coverage(&self) -> &[usize] {
        self.week0_coverage.get_or_init(|| {
            self.iter()
                .map(|gw| {
                    gw.aggregate_total()
                        .slice(Minute::ZERO, MINUTES_PER_WEEK as usize)
                        .observed_count()
                })
                .collect()
        })
    }

    /// Iterates over all gateways, rendering each lazily.
    pub fn iter(&self) -> impl Iterator<Item = SimGateway> + '_ {
        (0..self.config.n_gateways).map(move |id| self.gateway(id))
    }

    /// Ground truth for the "user survey" experiments: the resident count of
    /// the first `n` gateways (the paper surveyed 49 of its 196 homes).
    pub fn survey_residents(&self, n: usize) -> Vec<(usize, usize)> {
        (0..n.min(self.len()))
            .map(|id| (id, self.gateway(id).residents))
            .collect()
    }
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
    fn survey_returns_requested_size() {
        let fleet = Fleet::new(FleetConfig::small());
        let survey = fleet.survey_residents(3);
        assert_eq!(survey.len(), 3);
        for (_, residents) in survey {
            assert!((1..=4).contains(&residents));
        }
        // Requesting more than the fleet clamps.
        assert_eq!(fleet.survey_residents(100).len(), fleet.len());
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
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let fleet = Fleet::new(FleetConfig::small());
        let _ = fleet.gateway(999);
    }
}
