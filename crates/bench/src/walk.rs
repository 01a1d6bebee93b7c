//! The fleet walk: experiments as per-gateway folds.
//!
//! Every section of the paper is a pass over the same gateway series. A
//! [`Walk`] collects the per-gateway *extracts* of any number of folds in
//! one parallel pass ([`crate::data::fleet_map_ids`]): each gateway is
//! rendered once and wrapped in a [`GatewayView`], and every fold whose
//! scope holds the gateway reads that view on the worker thread. The view
//! memoizes, for that visit only, the derived series several folds read.
//! Each fold's extracts come back in gateway-id order, so its `finish`
//! pushes and sums in the order of a sequential loop over the fleet.

use crate::data::{active_total, fleet_map_ids, observed_every_week};
use crate::experiments::dominance::{device_series, gateway_total};
use std::any::Any;
use std::cell::OnceCell;
use std::marker::PhantomData;
use std::ops::Deref;
use wtts_core::dominance::{device_similarities, euclidean_ranking, volume_ranking};
use wtts_core::similarity::CorSimilarity;
use wtts_gwsim::{Fleet, SimGateway};
use wtts_timeseries::TimeSeries;

/// One rendered gateway during a walk, with the series that several folds
/// read computed at most once per visit. Dereferences to the gateway.
pub struct GatewayView {
    gateway: SimGateway,
    aggregate_total: OnceCell<TimeSeries>,
    active_total: OnceCell<TimeSeries>,
    dominance: OnceCell<Option<Dominance>>,
}

/// Weeks of traffic [`GatewayView::dominance`] evaluates.
pub const DOMINANCE_WEEKS: u32 = 4;

/// The four-week Definition 1 evaluation of every device against the
/// gateway total, and the Section 6.2 baseline rankings (Figure 5, the
/// similarity ablation and the motif members' overall dominants). It keeps
/// no series.
pub struct Dominance {
    /// `device_similarities(total, devices)` over each device's four-week
    /// total and their sum.
    pub similarities: Vec<CorSimilarity>,
    /// [`euclidean_ranking`] of the devices, a disconnected device
    /// contributing zero traffic: leaving its samples missing would shrink
    /// its distance by skipping terms and absurdly favor rarely-seen
    /// devices.
    pub euclidean: Vec<usize>,
    /// [`volume_ranking`] of the devices.
    pub volume: Vec<usize>,
}

impl GatewayView {
    /// Wraps a rendered gateway.
    pub fn new(gateway: SimGateway) -> GatewayView {
        GatewayView {
            gateway,
            aggregate_total: OnceCell::new(),
            active_total: OnceCell::new(),
            dominance: OnceCell::new(),
        }
    }

    /// [`SimGateway::aggregate_total`], memoized.
    pub fn aggregate_total(&self) -> &TimeSeries {
        self.aggregate_total
            .get_or_init(|| self.gateway.aggregate_total())
    }

    /// [`active_total`] (background removed per device), memoized.
    pub fn active_total(&self) -> &TimeSeries {
        self.active_total
            .get_or_init(|| active_total(&self.gateway))
    }

    /// The four-week Definition 1 evaluation, memoized; `None` when the
    /// gateway is not observed in every one of the first four weeks.
    pub fn dominance(&self) -> Option<&Dominance> {
        self.dominance
            .get_or_init(|| {
                let weeks = DOMINANCE_WEEKS;
                let gw = &self.gateway;
                let total = gateway_total(gw, weeks);
                if !observed_every_week(&total, weeks) {
                    return None;
                }
                let zero_filled = |mut d: TimeSeries| {
                    for v in d.values_mut() {
                        if !v.is_finite() {
                            *v = 0.0;
                        }
                    }
                    d
                };
                Some(Dominance {
                    similarities: device_similarities(&total, device_series(gw, weeks)),
                    euclidean: euclidean_ranking(&total, device_series(gw, weeks).map(zero_filled)),
                    volume: volume_ranking(device_series(gw, weeks)),
                })
            })
            .as_ref()
    }
}

impl Deref for GatewayView {
    type Target = SimGateway;

    fn deref(&self) -> &SimGateway {
        &self.gateway
    }
}

type Extractor<'a> = Box<dyn Fn(&GatewayView) -> Box<dyn Any + Send> + Sync + 'a>;

/// A set of folds that one parallel pass over the fleet feeds.
#[derive(Default)]
pub struct Walk<'a> {
    /// Column index of the first fold (walks after the first continue the
    /// numbering of [`Walked`]).
    base: usize,
    /// Per fold: the gateway ids it visits (sorted; `None` = every
    /// gateway) and its extractor.
    folds: Vec<(Option<Vec<usize>>, Extractor<'a>)>,
}

/// A fold's handle: where its extracts land in [`Walked`].
pub struct Slot<E> {
    column: usize,
    extract: PhantomData<fn() -> E>,
}

impl<E> Clone for Slot<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for Slot<E> {}

impl<'a> Walk<'a> {
    /// A walk whose slots continue after the columns `walked` holds, so
    /// its results can be [`Walked::absorb`]ed there.
    pub fn after(walked: &Walked) -> Walk<'a> {
        Walk {
            base: walked.columns.len(),
            folds: Vec::new(),
        }
    }

    /// Adds a fold over every gateway.
    pub fn fold<E: Send + 'static>(
        &mut self,
        extract: impl Fn(&GatewayView) -> E + Sync + 'a,
    ) -> Slot<E> {
        self.push(None, extract)
    }

    /// Adds a fold over the gateways `ids` (ids past the fleet are
    /// ignored); its extracts come back in id order.
    pub fn fold_over<E: Send + 'static>(
        &mut self,
        ids: impl IntoIterator<Item = usize>,
        extract: impl Fn(&GatewayView) -> E + Sync + 'a,
    ) -> Slot<E> {
        let mut ids: Vec<usize> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        self.push(Some(ids), extract)
    }

    fn push<E: Send + 'static>(
        &mut self,
        ids: Option<Vec<usize>>,
        extract: impl Fn(&GatewayView) -> E + Sync + 'a,
    ) -> Slot<E> {
        self.folds
            .push((ids, Box::new(move |view| Box::new(extract(view)))));
        Slot {
            column: self.base + self.folds.len() - 1,
            extract: PhantomData,
        }
    }

    /// Whether no fold was added.
    pub fn is_empty(&self) -> bool {
        self.folds.is_empty()
    }

    /// Whether some fold visits every gateway.
    pub fn covers_fleet(&self) -> bool {
        self.folds.iter().any(|(ids, _)| ids.is_none())
    }

    /// Renders each gateway some fold visits exactly once, in parallel,
    /// and runs every visiting fold on it.
    pub fn run(self, fleet: &Fleet) -> Walked {
        let mut ids: Vec<usize> = if self.covers_fleet() {
            (0..fleet.len()).collect()
        } else {
            self.folds
                .iter()
                .flat_map(|(ids, _)| ids.iter().flatten())
                .copied()
                .collect()
        };
        ids.sort_unstable();
        ids.dedup();
        ids.retain(|&id| id < fleet.len());
        let rows = fleet_map_ids(fleet, &ids, |gw| {
            let view = GatewayView::new(gw);
            self.folds
                .iter()
                .map(|(ids, extract)| {
                    let visits = ids
                        .as_ref()
                        .is_none_or(|ids| ids.binary_search(&view.id).is_ok());
                    visits.then(|| extract(&view))
                })
                .collect::<Vec<_>>()
        });
        let mut columns: Vec<Option<Vec<Box<dyn Any + Send>>>> =
            (0..self.base).map(|_| None).collect();
        columns.extend(self.folds.iter().map(|_| Some(Vec::new())));
        for row in rows {
            for (k, extract) in row.into_iter().enumerate() {
                if let Some(extract) = extract {
                    columns[self.base + k]
                        .as_mut()
                        .expect("fresh column")
                        .push(extract);
                }
            }
        }
        Walked { columns }
    }
}

/// The extracts of one or more walks, per fold in gateway-id order.
#[derive(Default)]
pub struct Walked {
    columns: Vec<Option<Vec<Box<dyn Any + Send>>>>,
}

impl Walked {
    /// Moves out a fold's extracts, in gateway-id order.
    ///
    /// # Panics
    /// Panics if the slot's extracts were already taken.
    pub fn take<E: 'static>(&mut self, slot: Slot<E>) -> Vec<E> {
        self.columns[slot.column]
            .take()
            .expect("each slot is taken once")
            .into_iter()
            .map(|e| *e.downcast::<E>().expect("slot type"))
            .collect()
    }

    /// Adds the columns of a walk made with [`Walk::after`] on `self`.
    pub fn absorb(&mut self, later: Walked) {
        let base = self.columns.len();
        self.columns.extend(later.columns.into_iter().skip(base));
    }
}

/// Runs one fold over the gateways `ids` on its own walk.
#[cfg(test)]
pub(crate) fn walk_ids<E: Send + 'static>(
    fleet: &Fleet,
    ids: impl IntoIterator<Item = usize>,
    extract: impl Fn(&GatewayView) -> E + Sync,
) -> Vec<E> {
    let mut walk = Walk::default();
    let slot = walk.fold_over(ids, extract);
    walk.run(fleet).take(slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_gwsim::FleetConfig;

    #[test]
    fn one_render_feeds_every_fold_in_id_order() {
        let fleet = Fleet::new(FleetConfig::small());
        let mut walk = Walk::default();
        let ids = walk.fold(|v| v.id);
        let odd = walk.fold_over([5, 1, 3, 1, 99], |v| (v.id, v.devices.len()));
        let mut walked = walk.run(&fleet);
        assert_eq!(fleet.renders(), fleet.len());
        assert_eq!(walked.take(ids), (0..fleet.len()).collect::<Vec<_>>());
        let expected: Vec<(usize, usize)> = [1, 3, 5]
            .iter()
            .map(|&id| (id, fleet.gateway(id).devices.len()))
            .collect();
        assert_eq!(walked.take(odd), expected);
    }

    #[test]
    fn a_scoped_walk_renders_only_its_gateways() {
        let fleet = Fleet::new(FleetConfig::small());
        let mut first = Walk::default();
        let all = first.fold(|v| v.id);
        let mut walked = first.run(&fleet);
        let mut second = Walk::after(&walked);
        let two = second.fold_over([6, 2], |v| v.id);
        walked.absorb(second.run(&fleet));
        assert_eq!(walked.take(two), vec![2, 6]);
        assert_eq!(walked.take(all).len(), fleet.len());
        assert_eq!(fleet.renders(), fleet.len() + 2);
        assert_eq!(fleet.renders_of(2), 2);
        assert_eq!(fleet.renders_of(3), 1);
    }

    #[test]
    fn view_memos_match_direct_computation() {
        let fleet = Fleet::new(FleetConfig {
            n_gateways: 2,
            weeks: 4,
            ..FleetConfig::small()
        });
        let bits = |s: &TimeSeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let gw = fleet.gateway(0);
        let view = GatewayView::new(gw.clone());
        assert_eq!(bits(view.aggregate_total()), bits(&gw.aggregate_total()));
        assert_eq!(bits(view.active_total()), bits(&active_total(&gw)));
        let dom = view.dominance().expect("gateway 0 is observed every week");
        let total = gateway_total(&gw, 4);
        let devices: Vec<TimeSeries> = device_series(&gw, 4).collect();
        let sims = device_similarities(&total, &devices);
        assert_eq!(format!("{:?}", dom.similarities), format!("{sims:?}"));
        assert_eq!(dom.volume, volume_ranking(&devices));
    }
}
