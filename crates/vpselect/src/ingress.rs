//! Ingress identification and vantage point ranking (§4.3).
//!
//! Background process, run per destination prefix:
//!
//! 1. find two ping-responsive destinations in the prefix,
//! 2. RR-ping both from every vantage point,
//! 3. per VP, take the addresses on *both* forward paths up to and
//!    including the first in-prefix address (with the double-stamp and
//!    loop heuristics of Appx. C as fallbacks) as **ingress candidates**,
//! 4. greedily set-cover the VPs with candidates → the prefix's ingresses,
//! 5. rank each ingress's VPs by RR slot distance (closest first).
//!
//! The output drives spoofed-probe VP selection: probe once per ingress,
//! from the closest VP to that ingress, in batches of three (§4.3).

use crate::parse::{path_view, Heuristics};
use revtr_netsim::hash::mix3;
use revtr_netsim::{Addr, PrefixId};
use revtr_probing::Prober;
use std::collections::HashMap;

/// Maximum host addresses ping-scanned per prefix when hunting for
/// responsive destinations.
pub const DEST_SCAN_LIMIT: usize = 12;

/// VPs kept per ingress queue (paper: give up on an ingress after five
/// VPs fail to traverse it).
pub const VPS_PER_INGRESS: usize = 5;

/// RR range: a VP is "in range" of a destination it reaches within this
/// many RR slots (one slot must remain for a reverse hop).
pub const RR_RANGE: usize = 8;

/// What one vantage point learned about one prefix (merged over the two
/// probed destinations).
#[derive(Clone, Debug, Default)]
pub struct VpView {
    /// Mean RR slot distance to the destinations, when reached.
    pub dest_dist: Option<f64>,
    /// Ingress candidates present on both forward paths, with the slot
    /// distance at which each was seen.
    pub candidates: Vec<(Addr, usize)>,
}

impl VpView {
    /// In RR range of the prefix?
    pub fn in_range(&self) -> bool {
        matches!(self.dest_dist, Some(d) if d <= RR_RANGE as f64)
    }
}

/// A selected ingress and its VP queue.
#[derive(Clone, Debug)]
pub struct IngressInfo {
    /// The ingress address.
    pub addr: Addr,
    /// Number of VPs whose paths traverse this ingress.
    pub cover: usize,
    /// Covering VPs, closest (fewest RR slots) first, capped at
    /// [`VPS_PER_INGRESS`].
    pub ranked_vps: Vec<Addr>,
}

/// Everything learned about one prefix.
#[derive(Clone, Debug, Default)]
pub struct PrefixInfo {
    /// The responsive destinations probed (≤ 2).
    pub dests: Vec<Addr>,
    /// Per-VP views.
    pub views: HashMap<Addr, VpView>,
    /// Selected ingresses, ordered by VP coverage (descending).
    pub ingresses: Vec<IngressInfo>,
    /// For prefixes without identified ingresses: in-range VPs ranked by
    /// mean distance to the destinations (§4.3 fallback).
    pub fallback: Vec<Addr>,
}

/// One queue of VPs to try, with the ingress the choice is based on.
#[derive(Clone, Debug)]
pub struct IngressQueue {
    /// The ingress address this queue targets (`None` for the fallback
    /// ranking of ingress-less prefixes).
    pub expected_ingress: Option<Addr>,
    /// VPs in preference order.
    pub vps: Vec<Addr>,
}

/// A borrowed VP plan: the queues [`IngressDb::ingress_plan`] would clone,
/// read in place. Queue `i` is the VPs to try in preference order plus the
/// ingress that choice is based on.
#[derive(Clone, Copy, Debug)]
pub enum PlanView<'a> {
    /// One queue per identified ingress, in coverage order.
    Ingresses(&'a [IngressInfo]),
    /// One queue with no ingress expectation (a fallback or global
    /// ranking) — or no queue at all when the ranking is empty.
    Ranking(&'a [Addr]),
}

impl<'a> PlanView<'a> {
    /// Number of queues.
    pub fn len(&self) -> usize {
        match self {
            PlanView::Ingresses(i) => i.len(),
            PlanView::Ranking(vps) => usize::from(!vps.is_empty()),
        }
    }

    /// True when the plan has no queue (hence no VP) to offer.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue `i`: its expected ingress and its VPs, closest first.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    pub fn queue(&self, i: usize) -> (Option<Addr>, &'a [Addr]) {
        match *self {
            PlanView::Ingresses(ing) => (Some(ing[i].addr), &ing[i].ranked_vps),
            PlanView::Ranking(vps) => {
                assert!(i < self.len(), "queue {i} of a one-queue plan");
                (None, vps)
            }
        }
    }

    /// All queues, in order.
    pub fn queues(self) -> impl Iterator<Item = (Option<Addr>, &'a [Addr])> {
        (0..self.len()).map(move |i| self.queue(i))
    }

    /// The plan as owned queues.
    pub fn to_queues(self) -> Vec<IngressQueue> {
        self.queues()
            .map(|(expected_ingress, vps)| IngressQueue {
                expected_ingress,
                vps: vps.to_vec(),
            })
            .collect()
    }
}

impl PrefixInfo {
    /// The revtr 2.0 spoofer plan: one queue per ingress (coverage order),
    /// or the fallback ranking when no ingress was identified.
    pub fn plan_view(&self) -> PlanView<'_> {
        if self.ingresses.is_empty() {
            PlanView::Ranking(&self.fallback)
        } else {
            PlanView::Ingresses(&self.ingresses)
        }
    }
}

/// The ingress database: per-prefix VP selection state, plus the global VP
/// ranking used by the revtr 1.0 and "Global" baselines (§5.3).
#[derive(Clone, Debug, Default)]
pub struct IngressDb {
    per_prefix: HashMap<PrefixId, PrefixInfo>,
    /// All VPs, sorted by the number of prefixes they are in range of
    /// (descending) — the "Global" greedy baseline.
    global_order: Vec<Addr>,
}

impl IngressDb {
    /// Build by probing `prefixes` from `vps` with heuristics `h`.
    ///
    /// This is the weekly background measurement of §4.3; probes are
    /// charged to the prober's counters (pings + RR). Survey probes
    /// bypass the measurement cache entirely: they are VP→scan-destination
    /// RR pings no reverse-traceroute measurement ever re-issues (the
    /// engine probes source→hop), so caching them only bloats the store —
    /// they were ~94% of all inserts at an ~0.8% overall hit rate before
    /// this was turned off. Within one build the survey never self-hits
    /// (each (vp, dest) pair is probed once), so skipping the cache does
    /// not change the probes sent or the replies seen.
    pub fn build(
        prober: &Prober<'_>,
        vps: &[Addr],
        prefixes: &[PrefixId],
        h: Heuristics,
    ) -> IngressDb {
        let survey = prober.with_cache_enabled(false);
        let mut db = IngressDb::default();
        for &p in prefixes {
            let info = probe_prefix(&survey, vps, p, h);
            db.per_prefix.insert(p, info);
        }
        db.compute_global_order(vps);
        db
    }

    fn compute_global_order(&mut self, vps: &[Addr]) {
        let mut in_range: HashMap<Addr, usize> = vps.iter().map(|&v| (v, 0)).collect();
        for info in self.per_prefix.values() {
            for (&vp, view) in &info.views {
                if view.in_range() {
                    *in_range.entry(vp).or_insert(0) += 1;
                }
            }
        }
        let mut order: Vec<Addr> = vps.to_vec();
        order.sort_by_key(|v| {
            (
                std::cmp::Reverse(in_range.get(v).copied().unwrap_or(0)),
                v.0,
            )
        });
        self.global_order = order;
    }

    /// Info for one prefix, if probed.
    pub fn prefix(&self, p: PrefixId) -> Option<&PrefixInfo> {
        self.per_prefix.get(&p)
    }

    /// The revtr 2.0 plan for a prefix (empty if never probed or nothing
    /// in range), borrowed from the survey's own tables.
    pub fn plan_view(&self, p: PrefixId) -> PlanView<'_> {
        self.per_prefix
            .get(&p)
            .map_or(PlanView::Ranking(&[]), |i| i.plan_view())
    }

    /// [`IngressDb::plan_view`] as owned queues.
    pub fn ingress_plan(&self, p: PrefixId) -> Vec<IngressQueue> {
        self.plan_view(p).to_queues()
    }

    /// Whether the survey found `vp` in RR range of prefix `p` (false for
    /// a prefix never probed).
    pub fn in_range(&self, p: PrefixId, vp: Addr) -> bool {
        self.per_prefix
            .get(&p)
            .and_then(|info| info.views.get(&vp))
            .is_some_and(VpView::in_range)
    }

    /// The revtr 1.0 plan: the VPs in RR range of the prefix first, then
    /// every remaining VP — revtr 1.0 "would try them all" (§4.1 Q3) —
    /// both runs in global order: coverage first, *not* distance. A stable
    /// partition of [`IngressDb::global_plan`] by [`IngressDb::in_range`].
    pub fn revtr1_plan(&self, p: PrefixId) -> Vec<Addr> {
        let (mut plan, far): (Vec<Addr>, Vec<Addr>) = self
            .global_order
            .iter()
            .partition(|&&vp| self.in_range(p, vp));
        plan.extend(far);
        plan
    }

    /// The "Global" baseline plan: the same greedy global order for every
    /// prefix.
    pub fn global_plan(&self) -> &[Addr] {
        &self.global_order
    }

    /// Iterate probed prefixes.
    pub fn prefixes(&self) -> impl Iterator<Item = (PrefixId, &PrefixInfo)> {
        self.per_prefix.iter().map(|(&p, i)| (p, i))
    }
}

/// Probe one prefix from all VPs and derive its [`PrefixInfo`].
pub fn probe_prefix(prober: &Prober<'_>, vps: &[Addr], p: PrefixId, h: Heuristics) -> PrefixInfo {
    let sim = prober.sim();
    let prefix = sim.topo().prefix(p).prefix;

    // 1. Find up to two responsive destinations. The scan itself uses the
    // first VP as the pinger (any source works: responsiveness is a
    // destination property).
    let pinger = match vps.first() {
        Some(&v) => v,
        None => return PrefixInfo::default(),
    };
    let mut dests: Vec<Addr> = Vec::new();
    for cand in sim.host_addrs(p).take(DEST_SCAN_LIMIT) {
        if prober.ping(pinger, cand).is_some() {
            dests.push(cand);
            if dests.len() == 2 {
                break;
            }
        }
    }
    if dests.is_empty() {
        return PrefixInfo {
            dests,
            ..Default::default()
        };
    }

    // 2–3. RR-ping the destinations from every VP and merge views.
    let mut views: HashMap<Addr, VpView> = HashMap::new();
    for &vp in vps {
        let mut per_dest: Vec<crate::parse::PathView> = Vec::new();
        for &d in &dests {
            if let Some(r) = prober.rr_ping(vp, d) {
                per_dest.push(path_view(&r.slots, prefix, h));
            }
        }
        if per_dest.is_empty() {
            continue;
        }
        let dists: Vec<usize> = per_dest.iter().filter_map(|v| v.dest_dist).collect();
        let dest_dist = if dists.is_empty() {
            None
        } else {
            Some(dists.iter().sum::<usize>() as f64 / dists.len() as f64)
        };
        // Candidates on *both* paths (or the single path if only one
        // destination answered RR).
        let first = &per_dest[0];
        let candidates: Vec<(Addr, usize)> = first
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, a)| per_dest[1..].iter().all(|v| v.candidates.contains(a)))
            .map(|(i, &a)| (a, i))
            .collect();
        views.insert(
            vp,
            VpView {
                dest_dist,
                candidates,
            },
        );
    }

    // 4. Greedy set cover of VPs by candidate ingress.
    let mut uncovered: Vec<Addr> = views
        .iter()
        .filter(|(_, v)| !v.candidates.is_empty())
        .map(|(&vp, _)| vp)
        .collect();
    uncovered.sort_unstable();
    let mut ingresses: Vec<IngressInfo> = Vec::new();
    while !uncovered.is_empty() {
        // Count coverage per candidate address.
        let mut cover: HashMap<Addr, Vec<Addr>> = HashMap::new();
        for &vp in &uncovered {
            for &(cand, _) in &views[&vp].candidates {
                cover.entry(cand).or_default().push(vp);
            }
        }
        let Some((&best, _)) = cover.iter().max_by_key(|(a, vps_c)| {
            (
                vps_c.len(),
                mix3(sim.seed() ^ 0x5e7c, a.0 as u64, p.0 as u64), // random tie
            )
        }) else {
            break;
        };
        let mut covered = cover.remove(&best).expect("winner exists");
        covered.sort_by_key(|vp| {
            views[vp]
                .candidates
                .iter()
                .find(|(a, _)| *a == best)
                .map(|&(_, d)| d)
                .unwrap_or(usize::MAX)
        });
        uncovered.retain(|vp| !covered.contains(vp));
        ingresses.push(IngressInfo {
            addr: best,
            cover: covered.len(),
            ranked_vps: covered.into_iter().take(VPS_PER_INGRESS).collect(),
        });
    }
    ingresses.sort_by_key(|i| std::cmp::Reverse(i.cover));

    // 5. Fallback ranking for ingress-less prefixes.
    let mut fallback: Vec<(Addr, f64)> = views
        .iter()
        .filter(|(_, v)| v.in_range())
        .map(|(&vp, v)| (vp, v.dest_dist.unwrap_or(f64::MAX)))
        .collect();
    fallback.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0 .0.cmp(&b.0 .0)));

    PrefixInfo {
        dests,
        views,
        ingresses,
        fallback: fallback.into_iter().map(|(vp, _)| vp).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_netsim::{Sim, SimConfig};

    fn setup() -> (Sim, Vec<Addr>) {
        let sim = Sim::build(SimConfig::tiny(), 17);
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        (sim, vps)
    }

    #[test]
    fn build_produces_plans_for_most_prefixes() {
        let (sim, vps) = setup();
        let prober = Prober::new(&sim);
        let prefixes: Vec<PrefixId> = sim.topo().prefixes.iter().map(|p| p.id).take(25).collect();
        let db = IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL);
        let with_plan = prefixes
            .iter()
            .filter(|&&p| !db.ingress_plan(p).is_empty())
            .count();
        assert!(
            with_plan * 2 >= prefixes.len(),
            "only {with_plan}/{} prefixes have a plan",
            prefixes.len()
        );
        // Background probes were charged.
        let snap = prober.counters().snapshot();
        assert!(snap.ping > 0);
        assert!(snap.rr > 0);
        assert_eq!(snap.spoof_rr, 0, "background VP selection never spoofs");
    }

    #[test]
    fn ingress_queues_are_bounded_and_ordered() {
        let (sim, vps) = setup();
        let prober = Prober::new(&sim);
        let prefixes: Vec<PrefixId> = sim.topo().prefixes.iter().map(|p| p.id).take(25).collect();
        let db = IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL);
        for (_, info) in db.prefixes() {
            for w in info.ingresses.windows(2) {
                assert!(w[0].cover >= w[1].cover, "coverage order violated");
            }
            for i in &info.ingresses {
                assert!(i.ranked_vps.len() <= VPS_PER_INGRESS);
                assert!(!i.ranked_vps.is_empty());
            }
        }
    }

    #[test]
    fn plans_list_each_vp_once() {
        let (sim, vps) = setup();
        let prober = Prober::new(&sim);
        let prefixes: Vec<PrefixId> = sim.topo().prefixes.iter().map(|p| p.id).take(10).collect();
        let db = IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL);
        for &p in &prefixes {
            let plan = db.revtr1_plan(p);
            let mut sorted = plan.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), plan.len(), "revtr1 plan repeats a VP");
            assert_eq!(plan.len(), vps.len(), "revtr1 tries every VP");
            // In-range VPs first, each run in global order.
            let pos = |vp| db.global_plan().iter().position(|&g| g == vp);
            let near = plan.iter().take_while(|&&vp| db.in_range(p, vp)).count();
            assert!(plan[near..].iter().all(|&vp| !db.in_range(p, vp)));
            assert!(plan[..near].windows(2).all(|w| pos(w[0]) < pos(w[1])));
            assert!(plan[near..].windows(2).all(|w| pos(w[0]) < pos(w[1])));
        }
        assert_eq!(db.global_plan().len(), vps.len());
    }

    #[test]
    fn heuristics_expand_coverage_monotonically() {
        let (sim, vps) = setup();
        let prober = Prober::new(&sim);
        let prefixes: Vec<PrefixId> = sim.topo().prefixes.iter().map(|p| p.id).take(40).collect();
        let count_found = |h: Heuristics| {
            let db = IngressDb::build(&prober, &vps, &prefixes, h);
            prefixes
                .iter()
                .filter(|&&p| {
                    db.prefix(p)
                        .map(|i| !i.ingresses.is_empty())
                        .unwrap_or(false)
                })
                .count()
        };
        let base = count_found(Heuristics::INGRESS_ONLY);
        let dbl = count_found(Heuristics::WITH_DOUBLE);
        let full = count_found(Heuristics::FULL);
        assert!(dbl >= base, "double stamp lost prefixes: {dbl} < {base}");
        assert!(full >= dbl, "loop heuristic lost prefixes: {full} < {dbl}");
    }
}

/// §4.3's validation that two destinations suffice: probe a *third*
/// responsive destination and check whether its forward paths traverse the
/// already-identified candidate ingresses (the paper: true for 87.2% of
/// prefixes). Returns `None` when the prefix lacks a third destination or
/// prior candidates.
pub fn third_destination_consistent(
    prober: &Prober<'_>,
    vps: &[Addr],
    info: &PrefixInfo,
    p: PrefixId,
    h: Heuristics,
) -> Option<bool> {
    let sim = prober.sim();
    let prefix = sim.topo().prefix(p).prefix;
    let third = sim
        .host_addrs(p)
        .filter(|a| !info.dests.contains(a))
        .take(DEST_SCAN_LIMIT)
        .find(|&a| prober.ping(vps[0], a).is_some())?;
    let known: std::collections::HashSet<Addr> = info
        .views
        .values()
        .flat_map(|v| v.candidates.iter().map(|&(a, _)| a))
        .collect();
    if known.is_empty() {
        return None;
    }
    // The third destination is consistent if every VP whose path to it is
    // parseable traverses at least one known candidate.
    let mut checked = 0;
    let mut consistent = 0;
    for &vp in vps {
        let Some(r) = prober.rr_ping(vp, third) else {
            continue;
        };
        let view = path_view(&r.slots, prefix, h);
        if view.candidates.is_empty() {
            continue;
        }
        checked += 1;
        if view.candidates.iter().any(|c| known.contains(c)) {
            consistent += 1;
        }
    }
    (checked > 0).then_some(consistent == checked)
}

#[cfg(test)]
mod stability_tests {
    use super::*;
    use revtr_netsim::{Sim, SimConfig};

    #[test]
    fn most_prefixes_have_stable_candidates() {
        let sim = Sim::build(SimConfig::tiny(), 19);
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let prober = Prober::new(&sim);
        let prefixes: Vec<PrefixId> = sim.topo().prefixes.iter().map(|p| p.id).take(40).collect();
        let db = IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL);
        let (mut stable, mut total) = (0, 0);
        for (p, info) in db.prefixes() {
            if let Some(ok) = third_destination_consistent(&prober, &vps, info, p, Heuristics::FULL)
            {
                total += 1;
                if ok {
                    stable += 1;
                }
            }
        }
        assert!(total > 5, "too few prefixes evaluated: {total}");
        // The paper's 87.2%: a clear majority must be stable.
        assert!(
            stable * 4 >= total * 3,
            "only {stable}/{total} prefixes have stable ingress candidates"
        );
    }
}
