//! The experiment suite: one module per figure/table family of the paper,
//! and the registry the `experiments` runner reads.
//!
//! Each experiment is a set of per-gateway folds plus a finish step. Its
//! `*_folds` function registers the folds on a [`Plan`] and returns the
//! [`Finish`]; [`Plan::walk`] then renders every gateway the plan needs
//! once per pass, and the finish writes the tables. The runner plans every
//! selected experiment on one plan, so `experiments all` walks the fleet
//! once (plus one pass over the top-ranked and motif-member gateways),
//! however many experiments read it. Each public per-experiment function
//! (`standard::fig1`, `aggregation::daily_analysis`, …) is the same plan run
//! for that experiment alone.

pub mod aggregation;
pub mod applications;
pub mod background;
pub mod dominance;
pub mod lagsearch;
pub mod measures;
pub mod motifs;
pub mod robustness;
pub mod sax;
pub mod standard;

use crate::walk::{GatewayView, Slot, Walk, Walked};
use aggregation::DailyAnalysis;
use motifs::{Family, MemberRow, MotifSet, Windows};
use std::any::Any;
use std::marker::PhantomData;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use wtts_core::sweep::DailyCell;
use wtts_gwsim::{week0_observed, Fleet};

/// One experiment of the runner.
pub struct Experiment {
    /// The id the runner takes on its command line.
    pub id: &'static str,
    /// One line for the usage listing.
    pub description: &'static str,
    /// Registers the experiment's folds and returns its finish step.
    pub folds: fn(&mut Plan<'_>) -> Finish,
}

/// An experiment's last step: reads its extracts and shared products from
/// the walk's [`Results`] and writes its tables (CSV under the directory,
/// when one is given).
pub type Finish = Box<dyn FnOnce(&mut Results, Option<&Path>)>;

/// Every experiment, in the runner's order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig1",
        description: "statistical portrait of a typical gateway (KDE, boxplots)",
        folds: standard::fig1_folds,
    },
    Experiment {
        id: "sec4-dist",
        description: "Zipf fits and in/out correlation (Section 4.1)",
        folds: standard::sec4_dist_folds,
    },
    Experiment {
        id: "fig2",
        description: "autocorrelation and cross-correlation of gateways",
        folds: standard::fig2_folds,
    },
    Experiment {
        id: "lag-search",
        description: "multi-scale lead/lag discovery across gateway pairs (Sec 4.2)",
        folds: lagsearch::lag_search_folds,
    },
    Experiment {
        id: "sec4-stat",
        description: "classical stationarity tests and device-count correlation",
        folds: standard::sec4_stat_folds,
    },
    Experiment {
        id: "fig3",
        description: "hierarchical clustering of gateways at distance 0.4",
        folds: standard::fig3_folds,
    },
    Experiment {
        id: "fig4",
        description: "background threshold tau distribution and device types",
        folds: background::fig4_folds,
    },
    Experiment {
        id: "fig5",
        description: "dominant devices: counts, types, baselines, residents",
        folds: dominance::fig5_folds,
    },
    Experiment {
        id: "fig6",
        description: "weekly aggregation curves (midnight and 2am starts)",
        folds: aggregation::fig6_folds,
    },
    Experiment {
        id: "fig7",
        description: "stationary gateways per daily granularity",
        folds: aggregation::fig7_folds,
    },
    Experiment {
        id: "fig8",
        description: "daily aggregation curves",
        folds: aggregation::fig8_folds,
    },
    Experiment {
        id: "fig9-10",
        description: "motif support distributions and per-gateway participation",
        folds: motifs::fig9_10_folds,
    },
    Experiment {
        id: "fig11",
        description: "weekly motifs of interest",
        folds: motifs::fig11_folds,
    },
    Experiment {
        id: "fig12-13",
        description: "dominant devices of weekly motifs",
        folds: motifs::fig12_13_folds,
    },
    Experiment {
        id: "fig14",
        description: "daily motifs of interest",
        folds: motifs::fig14_folds,
    },
    Experiment {
        id: "fig15-16",
        description: "dominant devices of daily motifs",
        folds: motifs::fig15_16_folds,
    },
    Experiment {
        id: "motifs-within",
        description: "personal (within-gateway) daily motifs (Sec 7.2 aside)",
        folds: motifs::motifs_within_folds,
    },
    Experiment {
        id: "sec6-bg",
        description: "stationarity gain from background removal",
        folds: background::sec6_background_gain_folds,
    },
    Experiment {
        id: "sec2-sax",
        description: "SAX alphabet pathology on Zipfian traffic",
        folds: sax::sec2_sax_folds,
    },
    Experiment {
        id: "sec5-measures",
        description: "measure scorecard: cor vs Euclidean vs DTW (Sec 5)",
        folds: measures::sec5_measures_folds,
    },
    Experiment {
        id: "sec3-classifier",
        description: "device classifier validated on the survey subset",
        folds: measures::sec3_classifier_folds,
    },
    Experiment {
        id: "sec4-arima",
        description: "AR forecasting fails on bursty per-minute traffic",
        folds: applications::sec4_arima_folds,
    },
    Experiment {
        id: "sec4-seasonal",
        description: "periodogram: no seasonal component at 1-min binning",
        folds: applications::sec4_seasonal_folds,
    },
    Experiment {
        id: "app-maintenance",
        description: "per-gateway firmware-update window recommendations",
        folds: applications::app_maintenance_folds,
    },
    Experiment {
        id: "app-troubleshoot",
        description: "anomaly detection against injected home faults",
        folds: applications::app_troubleshoot_folds,
    },
    Experiment {
        id: "robustness",
        description: "headline statistics across seeds and deployment scenarios",
        folds: robustness::robustness_folds,
    },
    Experiment {
        id: "ablation",
        description: "design-choice ablations (similarity max, motif factor)",
        folds: ablation_folds,
    },
];

/// The ablation experiment: Definition 1 against each coefficient alone,
/// then the motif census against the group-similarity factor.
fn ablation_folds(plan: &mut Plan<'_>) -> Finish {
    let similarity = dominance::ablation_similarity_folds(plan);
    plan.motif_set(Family::Weekly);
    Box::new(move |r, out| {
        similarity(r, out);
        motifs::ablation_group_factor(r.motif_set(Family::Weekly), out);
    })
}

/// Resolves runner arguments to registry entries (`all` selects every
/// experiment), rejecting the whole list if any id is unknown, so a typo
/// costs no work.
pub fn resolve(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if ids.iter().any(|id| id == "all") {
        return Ok(EXPERIMENTS.iter().collect());
    }
    ids.iter()
        .map(|id| {
            EXPERIMENTS
                .iter()
                .find(|e| e.id == id)
                .ok_or_else(|| format!("unknown experiment: {id}"))
        })
        .collect()
}

/// Plans `experiments` on one shared plan; the finish steps come back in
/// the same order.
pub fn plan<'f>(fleet: &'f Fleet, experiments: &[&Experiment]) -> (Plan<'f>, Vec<Finish>) {
    let mut plan = Plan::new(fleet);
    let finishes = experiments.iter().map(|e| (e.folds)(&mut plan)).collect();
    (plan, finishes)
}

/// Runs one experiment's folds on its own walk, then its finish step.
pub fn run_alone(fleet: &Fleet, folds: fn(&mut Plan<'_>) -> Finish, out: Option<&Path>) {
    let mut plan = Plan::new(fleet);
    let finish = folds(&mut plan);
    finish(&mut plan.walk(), out);
}

type TopExtractor = Box<dyn Fn(&GatewayView, usize) -> Box<dyn Any + Send> + Sync>;

/// The folds a set of experiments registered, not yet walked.
pub struct Plan<'f> {
    fleet: &'f Fleet,
    /// Folds over every gateway (or an id prefix): the first pass.
    first: Walk<'static>,
    /// Folds over the `n` most observed gateways, with the gateway's rank.
    top: Vec<(usize, TopExtractor)>,
    daily: Option<Slot<Option<Vec<DailyCell>>>>,
    windows: [Option<Slot<Windows>>; 2],
    members: [bool; 2],
}

/// A top-N fold's handle.
pub struct Top<E> {
    index: usize,
    extract: PhantomData<fn() -> E>,
}

impl<'f> Plan<'f> {
    /// An empty plan over `fleet`.
    pub fn new(fleet: &'f Fleet) -> Plan<'f> {
        Plan {
            fleet,
            first: Walk::default(),
            top: Vec::new(),
            daily: None,
            windows: [None, None],
            members: [false, false],
        }
    }

    /// The fleet this plan walks.
    pub fn fleet(&self) -> &'f Fleet {
        self.fleet
    }

    /// A fold over every gateway.
    pub fn each<E: Send + 'static>(
        &mut self,
        extract: impl Fn(&GatewayView) -> E + Sync + 'static,
    ) -> Slot<E> {
        self.first.fold(extract)
    }

    /// A fold over the gateways with ids in `ids` (clipped to the fleet).
    pub fn each_of<E: Send + 'static>(
        &mut self,
        ids: Range<usize>,
        extract: impl Fn(&GatewayView) -> E + Sync + 'static,
    ) -> Slot<E> {
        self.first.fold_over(ids, extract)
    }

    /// A fold over the `n` most observed gateways
    /// ([`standard::most_observed_gateways`]); `extract` also gets the
    /// gateway's rank, and [`Results::take_top`] returns the extracts in
    /// rank order.
    pub fn top<E: Send + 'static>(
        &mut self,
        n: usize,
        extract: impl Fn(&GatewayView, usize) -> E + Sync + 'static,
    ) -> Top<E> {
        self.top
            .push((n, Box::new(move |view, rank| Box::new(extract(view, rank)))));
        Top {
            index: self.top.len() - 1,
            extract: PhantomData,
        }
    }

    /// Registers the daily analysis behind Figures 7 and 8
    /// ([`Results::daily_analysis`]): one sweep row per daily-eligible
    /// gateway.
    pub fn daily_analysis(&mut self) {
        if self.daily.is_none() {
            self.daily = Some(self.first.fold(aggregation::daily_row));
        }
    }

    /// Registers a motif family's windows; [`Results::motif_set`] builds
    /// the set once.
    pub fn motif_set(&mut self, family: Family) {
        if self.windows[family as usize].is_none() {
            let weeks = family.weeks(self.fleet);
            self.windows[family as usize] =
                Some(self.first.fold(move |view| family.windows(view, weeks)));
        }
    }

    /// Registers the dominance walk over the gateways of a motif family's
    /// representative motifs (Figures 12–13 and 15–16).
    pub fn motif_members(&mut self, family: Family) {
        self.motif_set(family);
        self.members[family as usize] = true;
    }

    /// Walks the fleet for every registered fold.
    ///
    /// The first pass renders every gateway a first-pass fold visits and
    /// fills the fleet's week-0 coverage memo on the way (when the pass
    /// covers the fleet and the memo is empty). The second pass renders the
    /// gateways the top-N and motif-member folds need, each once, in id
    /// order. When the ranking is already known, the top-N folds ride the
    /// first pass instead. The motif sets the member folds select from are
    /// built between the passes.
    pub fn walk(self) -> Results {
        let Plan {
            fleet,
            mut first,
            top,
            daily,
            windows,
            members,
        } = self;
        // With the ranking known, the top-N folds ride the first pass;
        // otherwise the first pass fills the coverage memo they rank by.
        let known = fleet.known_week0_coverage();
        let (mut top_slots, deferred) = match known {
            Some(coverage) => (place_top(&mut first, top, coverage), Vec::new()),
            None => (Vec::new(), top),
        };
        let coverage = (known.is_none() && (first.covers_fleet() || !deferred.is_empty()))
            .then(|| first.fold(|view| week0_observed(view.aggregate_total())));
        let mut walked = if first.is_empty() {
            Walked::default()
        } else {
            first.run(fleet)
        };
        if let Some(slot) = coverage {
            fleet.set_week0_coverage(walked.take(slot));
        }
        let mut results = Results {
            walked,
            top: Vec::new(),
            daily_rows: daily,
            daily: None,
            windows,
            sets: [None, None],
            weeks: [Family::Weekly.weeks(fleet), Family::Daily.weeks(fleet)],
            members: [None, None],
        };
        let families = [Family::Weekly, Family::Daily];
        for family in families.into_iter().filter(|f| members[*f as usize]) {
            results.motif_set(family);
        }
        let later = {
            let mut second = Walk::after(&results.walked);
            if !deferred.is_empty() {
                top_slots = place_top(&mut second, deferred, fleet.week0_coverage());
            }
            for family in families.into_iter().filter(|f| members[*f as usize]) {
                let set = results.sets[family as usize].as_ref().expect("built above");
                results.members[family as usize] = Some(motifs::member_folds(
                    &mut second,
                    set,
                    &family.representatives(set),
                ));
            }
            (!second.is_empty()).then(move || second.run(fleet))
        };
        if let Some(later) = later {
            results.walked.absorb(later);
        }
        results.top = top_slots;
        results
    }
}

type TopSlot = Slot<(usize, Box<dyn Any + Send>)>;

/// Adds the top-N folds to `walk`, each over its prefix of the coverage
/// ranking and told each gateway's rank; returns their slots in `top`
/// order.
fn place_top(
    walk: &mut Walk<'_>,
    top: Vec<(usize, TopExtractor)>,
    coverage: &[usize],
) -> Vec<TopSlot> {
    let ranking = standard::ranking(coverage);
    let mut rank_of = vec![0; ranking.len()];
    for (rank, &id) in ranking.iter().enumerate() {
        rank_of[id] = rank;
    }
    let rank_of = Arc::new(rank_of);
    top.into_iter()
        .map(|(n, extract)| {
            let rank_of = Arc::clone(&rank_of);
            walk.fold_over(ranking.iter().take(n).copied(), move |view| {
                let rank = rank_of[view.id];
                (rank, extract(view, rank))
            })
        })
        .collect()
}

/// The extracts of a walked [`Plan`] and the shared products built from
/// them on first use.
pub struct Results {
    walked: Walked,
    top: Vec<TopSlot>,
    daily_rows: Option<Slot<Option<Vec<DailyCell>>>>,
    daily: Option<DailyAnalysis>,
    windows: [Option<Slot<Windows>>; 2],
    sets: [Option<MotifSet>; 2],
    weeks: [u32; 2],
    members: [Option<Slot<Vec<MemberRow>>>; 2],
}

impl Results {
    /// A fold's extracts, in gateway-id order.
    pub fn take<E: 'static>(&mut self, slot: Slot<E>) -> Vec<E> {
        self.walked.take(slot)
    }

    /// A top-N fold's extracts, in rank order (densest gateway first).
    pub fn take_top<E: 'static>(&mut self, top: Top<E>) -> Vec<E> {
        let mut ranked: Vec<(usize, E)> = self
            .walked
            .take(self.top[top.index])
            .into_iter()
            .map(|(rank, e)| (rank, *e.downcast::<E>().expect("top slot type")))
            .collect();
        ranked.sort_by_key(|&(rank, _)| rank);
        ranked.into_iter().map(|(_, e)| e).collect()
    }

    /// The daily analysis behind Figures 7 and 8, built on first use
    /// ([`Plan::daily_analysis`]).
    pub fn daily_analysis(&mut self) -> &DailyAnalysis {
        if self.daily.is_none() {
            let slot = self.daily_rows.expect("daily analysis planned");
            let rows = self.walked.take(slot).into_iter().flatten().collect();
            self.daily = Some(DailyAnalysis::of(rows));
        }
        self.daily.as_ref().expect("built above")
    }

    /// A motif family's set, built on first use ([`Plan::motif_set`]).
    pub fn motif_set(&mut self, family: Family) -> &MotifSet {
        let k = family as usize;
        if self.sets[k].is_none() {
            let slot = self.windows[k].expect("motif windows planned");
            let windows = self.walked.take(slot);
            self.sets[k] = Some(family.build(windows, self.weeks[k]));
        }
        self.sets[k].as_ref().expect("built above")
    }

    /// The dominance rows of a motif family's member gateways
    /// ([`Plan::motif_members`]), with the set they belong to.
    pub fn motif_members(&mut self, family: Family) -> (&MotifSet, Vec<Vec<MemberRow>>) {
        let slot = self.members[family as usize].expect("motif members planned");
        let rows = self.walked.take(slot);
        (self.motif_set(family), rows)
    }

    /// The daily analysis, moved out.
    pub fn into_daily_analysis(mut self) -> DailyAnalysis {
        self.daily_analysis();
        self.daily.expect("built above")
    }

    /// A motif family's set, moved out.
    pub fn into_motif_set(mut self, family: Family) -> MotifSet {
        self.motif_set(family);
        self.sets[family as usize].take().expect("built above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Top-N extracts come back in rank order, not id order, and each
    /// fold sees its gateway's rank; with the ranking known, only the
    /// top-ranked gateways render.
    #[test]
    fn top_folds_come_back_in_rank_order() {
        let fleet = Fleet::new(wtts_gwsim::FleetConfig::small());
        // Coverage rising with the id ranks the last gateway first.
        fleet.set_week0_coverage((0..fleet.len()).collect());
        let mut plan = Plan::new(&fleet);
        let three = plan.top(3, |view, rank| (view.id, rank));
        let one = plan.top(1, |view, _| view.id);
        let mut results = plan.walk();
        assert_eq!(results.take_top(three), [(7, 0), (6, 1), (5, 2)]);
        assert_eq!(results.take_top(one), [7]);
        assert_eq!(fleet.renders(), 3);
    }

    #[test]
    fn registry_ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for e in EXPERIMENTS {
            assert!(seen.insert(e.id), "duplicate id {}", e.id);
        }
        assert_eq!(EXPERIMENTS.len(), 27);
    }

    #[test]
    fn resolver_rejects_an_unknown_id_among_valid_ones() {
        let err = resolve(&ids(&["fig1", "nope", "fig7"])).err();
        assert_eq!(err.as_deref(), Some("unknown experiment: nope"));
        let ok = resolve(&ids(&["fig7", "fig1"])).expect("known ids");
        assert_eq!(
            ok.iter().map(|e| e.id).collect::<Vec<_>>(),
            ["fig7", "fig1"]
        );
        assert_eq!(resolve(&ids(&["fig1", "all"])).map(|v| v.len()), Ok(27));
    }
}
