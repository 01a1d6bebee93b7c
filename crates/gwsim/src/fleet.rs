//! The simulated deployment: lazy, deterministic gateway access.

use crate::config::FleetConfig;
use crate::gateway::{generate_gateway, SimGateway};

/// A simulated fleet of residential gateways.
///
/// ```
/// use wtts_gwsim::{Fleet, FleetConfig};
///
/// let fleet = Fleet::new(FleetConfig { n_gateways: 2, weeks: 1, ..FleetConfig::default() });
/// let gw = fleet.gateway(0);
/// assert!(!gw.devices.is_empty());
/// assert!(gw.aggregate_total().total() > 0.0);
/// ```
///
/// The fleet holds only its configuration; each gateway's dense traffic is
/// rendered on demand by [`Fleet::gateway`] from a per-gateway RNG stream.
/// A sequential walk such as [`Fleet::iter`] therefore holds one rendered
/// gateway at a time, and a parallel walk one per worker thread; memory
/// never grows with the fleet size. Every analysis is reproducible from
/// `(config, id)`.
#[derive(Debug, Clone)]
pub struct Fleet {
    config: FleetConfig,
}

impl Fleet {
    /// Creates a fleet with the given configuration.
    pub fn new(config: FleetConfig) -> Fleet {
        Fleet { config }
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
        generate_gateway(&self.config, id)
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
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let fleet = Fleet::new(FleetConfig::small());
        let _ = fleet.gateway(999);
    }
}
