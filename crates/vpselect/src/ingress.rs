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

use crate::parse::{path_view, Heuristics, PathView};
use revtr_netsim::hash::mix3;
use revtr_netsim::{Addr, PrefixId, Sim, SinkTree};
use revtr_probing::Prober;
use std::mem::size_of;

/// Maximum host addresses ping-scanned per prefix when hunting for
/// responsive destinations.
pub const DEST_SCAN_LIMIT: usize = 12;

/// Responsive destinations surveyed per prefix (§4.3: two suffice).
const DESTS_PER_PREFIX: usize = 2;

/// VPs kept per ingress queue (paper: give up on an ingress after five
/// VPs fail to traverse it).
pub const VPS_PER_INGRESS: usize = 5;

/// RR range: a VP is "in range" of a destination it reaches within this
/// many RR slots (one slot must remain for a reverse hop).
pub const RR_RANGE: usize = 8;

/// A selected ingress and its VP queue.
#[derive(Clone, Debug, PartialEq)]
pub struct IngressInfo {
    /// The ingress address.
    pub addr: Addr,
    /// Number of VPs whose paths traverse this ingress.
    pub cover: usize,
    /// Covering VPs, closest (fewest RR slots) first, capped at
    /// [`VPS_PER_INGRESS`].
    pub ranked_vps: Vec<Addr>,
}

/// Everything the system keeps about one surveyed prefix: the plan, and of
/// the per-VP views behind it only what is read afterwards — who was in
/// range, who was closest, and which addresses were ingress candidates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrefixInfo {
    /// The responsive destinations probed (≤ 2).
    pub dests: Vec<Addr>,
    /// Selected ingresses, ordered by VP coverage (descending).
    pub ingresses: Vec<IngressInfo>,
    /// For prefixes without identified ingresses: in-range VPs ranked by
    /// mean distance to the destinations (§4.3 fallback).
    pub fallback: Vec<Addr>,
    /// Bit `i`: the `i`-th VP of the surveyed list reached the
    /// destinations within [`RR_RANGE`] slots (mean over those reached).
    in_range: Box<[u64]>,
    /// The VP with the smallest mean RR slot distance to the destinations
    /// (ties: lowest address), among those that measured one at all.
    closest_vp: Option<Addr>,
    /// Every VP's ingress candidates, as one sorted set.
    candidates: Vec<Addr>,
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

    /// Whether the VP at position `vp_index` of the surveyed list was in
    /// RR range of the prefix.
    pub fn in_range_at(&self, vp_index: usize) -> bool {
        self.in_range
            .get(vp_index / 64)
            .is_some_and(|word| word >> (vp_index % 64) & 1 == 1)
    }

    /// The VP closest to the prefix by measured mean RR slot distance
    /// (lowest address on a tie); `None` when no VP measured a distance.
    pub fn closest_vp(&self) -> Option<Addr> {
        self.closest_vp
    }

    /// The ingress candidates of all VPs, sorted and distinct.
    pub fn candidates(&self) -> &[Addr] {
        &self.candidates
    }

    /// Logical bytes held on the heap (lengths, not capacities).
    fn heap_bytes(&self) -> usize {
        let queued: usize = self.ingresses.iter().map(|i| i.ranked_vps.len()).sum();
        (self.dests.len() + self.fallback.len() + self.candidates.len() + queued)
            * size_of::<Addr>()
            + self.ingresses.len() * size_of::<IngressInfo>()
            + self.in_range.len() * size_of::<u64>()
    }
}

/// The ingress database: per-prefix VP selection state, plus the global VP
/// ranking used by the revtr 1.0 and "Global" baselines (§5.3).
///
/// ```
/// use revtr_netsim::{Sim, SimConfig};
/// use revtr_probing::Prober;
/// use revtr_vpselect::{Heuristics, IngressDb};
///
/// let sim = Sim::build(SimConfig::tiny(), 17);
/// let vps: Vec<_> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
/// let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).take(10).collect();
/// let db = IngressDb::build(&Prober::new(&sim), &vps, &prefixes, Heuristics::FULL);
/// assert_eq!(db.prefixes().count(), 10);
/// println!("{} prefixes surveyed, {} B", prefixes.len(), db.approx_bytes());
/// ```
#[derive(Clone, Debug, Default)]
pub struct IngressDb {
    /// Indexed by [`PrefixId`]; `None` for a prefix never surveyed.
    per_prefix: Vec<Option<PrefixInfo>>,
    /// `(vp, position in the surveyed list)`, sorted by address: what turns
    /// a VP address into its bit of [`PrefixInfo::in_range_at`].
    vp_index: Vec<(Addr, u32)>,
    /// All VPs, sorted by the number of prefixes they are in range of
    /// (descending) — the "Global" greedy baseline.
    global_order: Vec<Addr>,
}

impl IngressDb {
    /// Build by probing `prefixes` from `vps` (distinct addresses) with
    /// heuristics `h`.
    ///
    /// This is the weekly background measurement of §4.3; probes are
    /// charged to the prober's counters (pings + RR). Survey probes
    /// bypass the measurement cache entirely
    /// ([`Prober::survey_rr_ping`]): they are VP→scan-destination
    /// RR pings no reverse-traceroute measurement ever re-issues (the
    /// engine probes source→hop), so caching them only bloats the store —
    /// they were ~94% of all inserts at an ~0.8% overall hit rate before
    /// this was turned off. Within one build the survey never self-hits
    /// (each (vp, dest) pair is probed once), so skipping the cache does
    /// not change the probes sent or the replies seen.
    ///
    /// Every VP pings the same two destinations of a prefix, and every
    /// prefix's replies walk back to the same VPs, so the build keeps a
    /// sink tree per destination and per VP and lends them to its pings:
    /// same probes, same replies as [`probe_prefix`] prefix by prefix,
    /// most hops read instead of derived.
    pub fn build(
        prober: &Prober<'_>,
        vps: &[Addr],
        prefixes: &[PrefixId],
        h: Heuristics,
    ) -> IngressDb {
        let trees = SurveyTrees::new(prober.sim(), vps.len());
        let mut scratch = SurveyScratch::new(vps.len(), Some(trees));
        let mut per_prefix = Vec::new();
        per_prefix.resize_with(
            prefixes.iter().map(|p| p.index() + 1).max().unwrap_or(0),
            || None,
        );
        for &p in prefixes {
            per_prefix[p.index()] = Some(scratch.survey(prober, vps, p, h));
        }
        let mut vp_index: Vec<(Addr, u32)> = (0u32..).zip(vps).map(|(i, &vp)| (vp, i)).collect();
        vp_index.sort_unstable();
        let mut db = IngressDb {
            per_prefix,
            vp_index,
            global_order: Vec::new(),
        };
        db.compute_global_order(vps);
        db
    }

    fn compute_global_order(&mut self, vps: &[Addr]) {
        let mut in_range = vec![0usize; vps.len()];
        for (_, info) in self.prefixes() {
            for (i, count) in in_range.iter_mut().enumerate() {
                *count += usize::from(info.in_range_at(i));
            }
        }
        let mut order: Vec<(std::cmp::Reverse<usize>, Addr)> = in_range
            .into_iter()
            .map(std::cmp::Reverse)
            .zip(vps.iter().copied())
            .collect();
        order.sort_unstable();
        self.global_order = order.into_iter().map(|(_, vp)| vp).collect();
    }

    /// Info for one prefix, if probed.
    pub fn prefix(&self, p: PrefixId) -> Option<&PrefixInfo> {
        self.per_prefix.get(p.index())?.as_ref()
    }

    /// The revtr 2.0 plan for a prefix (empty if never probed or nothing
    /// in range), borrowed from the survey's own tables.
    pub fn plan_view(&self, p: PrefixId) -> PlanView<'_> {
        self.prefix(p)
            .map_or(PlanView::Ranking(&[]), |i| i.plan_view())
    }

    /// [`IngressDb::plan_view`] as owned queues.
    pub fn ingress_plan(&self, p: PrefixId) -> Vec<IngressQueue> {
        self.plan_view(p).to_queues()
    }

    /// Whether the survey found `vp` in RR range of prefix `p` (false for
    /// a prefix never probed, or a VP that was not surveyed from).
    pub fn in_range(&self, p: PrefixId, vp: Addr) -> bool {
        let Some(info) = self.prefix(p) else {
            return false;
        };
        self.vp_index
            .binary_search_by_key(&vp, |&(addr, _)| addr)
            .is_ok_and(|at| info.in_range_at(self.vp_index[at].1 as usize))
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

    /// Iterate probed prefixes, in ascending [`PrefixId`] order.
    pub fn prefixes(&self) -> impl Iterator<Item = (PrefixId, &PrefixInfo)> {
        (0u32..)
            .zip(&self.per_prefix)
            .filter_map(|(i, info)| Some((PrefixId(i), info.as_ref()?)))
    }

    /// Logical byte footprint of the database: table slots plus the
    /// lengths (not capacities) of every vector behind them — a pure
    /// function of the survey's results, same convention as
    /// `Sim::route_cache_bytes`.
    pub fn approx_bytes(&self) -> u64 {
        let held: usize = self.prefixes().map(|(_, info)| info.heap_bytes()).sum();
        (held
            + self.per_prefix.len() * size_of::<Option<PrefixInfo>>()
            + self.vp_index.len() * size_of::<(Addr, u32)>()
            + self.global_order.len() * size_of::<Addr>()) as u64
    }
}

/// Probe one prefix from all VPs (distinct addresses) and derive its
/// [`PrefixInfo`]. Like [`IngressDb::build`], past the measurement cache;
/// unlike it, every walk derived hop by hop — one prefix has no tree to
/// share with the next call, and a fresh one per call would cost more
/// than the call's whole working memory.
pub fn probe_prefix(prober: &Prober<'_>, vps: &[Addr], p: PrefixId, h: Heuristics) -> PrefixInfo {
    SurveyScratch::new(vps.len(), None).survey(prober, vps, p, h)
}

/// One `(ingress candidate, VP)` incidence of a prefix's survey.
#[derive(Clone, Copy)]
struct Incidence {
    cand: Addr,
    vp: Addr,
    /// Position of `vp` in the surveyed list.
    vp_at: u32,
    /// Rank of `cand` among the candidates on the VP's first parsed path —
    /// the slot-distance order its queue is ranked by.
    dist: u8,
}

fn same_candidate(a: &Incidence, b: &Incidence) -> bool {
    a.cand == b.cand
}

/// Working memory of the survey, sized by the VP list and reused from one
/// prefix to the next: a prefix's per-VP views never exist as objects —
/// each is folded, as its two replies are parsed, into the rows below.
struct SurveyScratch {
    /// Every VP's candidates as one run, sorted by `(candidate, vp)` once
    /// all VPs are in: a candidate's covering VPs are then contiguous, and
    /// the greedy cover is a scan per pick instead of a map per pick.
    run: Vec<Incidence>,
    /// By VP position: covered by an ingress already picked.
    covered: Vec<bool>,
    /// `(mean distance, vp)` of the in-range VPs: the fallback ranking.
    near: Vec<(f64, Addr)>,
    /// Ingresses picked so far, copied out at their exact count.
    picked: Vec<IngressInfo>,
    /// The sink trees lent to the RR pings, when the caller surveys enough
    /// prefixes to share them.
    trees: Option<SurveyTrees>,
}

/// The sink trees of a survey over many prefixes: the walks of one prefix
/// converge on its two destinations, the replies of all prefixes on the
/// VPs.
struct SurveyTrees {
    /// By destination position; rebound by each prefix's destinations.
    forward: [SinkTree; DESTS_PER_PREFIX],
    /// By VP position; a VP's tree lives across prefixes (until churn
    /// re-rolls the VP's own prefix).
    reply: Vec<SinkTree>,
}

impl SurveyTrees {
    fn new(sim: &Sim, n_vps: usize) -> SurveyTrees {
        SurveyTrees {
            forward: std::array::from_fn(|_| SinkTree::new(sim)),
            reply: (0..n_vps).map(|_| SinkTree::new(sim)).collect(),
        }
    }
}

impl SurveyScratch {
    fn new(n_vps: usize, trees: Option<SurveyTrees>) -> SurveyScratch {
        SurveyScratch {
            // Era-2020 prefixes average under three shared candidates a VP;
            // one in seven has more than four and doubles the run once.
            run: Vec::with_capacity(4 * n_vps),
            covered: Vec::with_capacity(n_vps),
            near: Vec::with_capacity(n_vps),
            picked: Vec::with_capacity(16),
            trees,
        }
    }

    /// §4.3 for one prefix. Probes go out in a fixed order — the scan
    /// pings, then one RR ping per (VP, destination), VP-major — and every
    /// choice among VPs is made on their addresses, never their positions,
    /// so a permuted VP list gives the same answer.
    fn survey(
        &mut self,
        prober: &Prober<'_>,
        vps: &[Addr],
        p: PrefixId,
        h: Heuristics,
    ) -> PrefixInfo {
        let sim = prober.sim();
        let prefix = sim.topo().prefix(p).prefix;

        // 1. Find up to two responsive destinations. The scan itself uses
        // the first VP as the pinger (any source works: responsiveness is a
        // destination property).
        let Some(&pinger) = vps.first() else {
            return PrefixInfo::default();
        };
        let mut dests: Vec<Addr> = Vec::new();
        for cand in sim.host_addrs(p).take(DEST_SCAN_LIMIT) {
            if prober.ping(pinger, cand).is_some() {
                dests.push(cand);
                if dests.len() == DESTS_PER_PREFIX {
                    break;
                }
            }
        }
        if dests.is_empty() {
            return PrefixInfo::default();
        }

        // 2–3. RR-ping the destinations from every VP and fold each VP's
        // merged view into the tables.
        self.run.clear();
        self.near.clear();
        let mut in_range = vec![0u64; vps.len().div_ceil(64)].into_boxed_slice();
        let mut closest: Option<(f64, Addr)> = None;
        for (at, &vp) in vps.iter().enumerate() {
            let mut views = [PathView::default(); DESTS_PER_PREFIX];
            let mut answered = 0;
            for (dest_at, &d) in dests.iter().enumerate() {
                let (forward, reply) = match &mut self.trees {
                    Some(t) => (Some(&mut t.forward[dest_at]), Some(&mut t.reply[at])),
                    None => (None, None),
                };
                if let Some(r) = prober.survey_rr_ping(vp, d, forward, reply) {
                    views[answered] = path_view(&r.slots, prefix, h);
                    answered += 1;
                }
            }
            let Some((first, rest)) = views[..answered].split_first() else {
                continue;
            };
            let (sum, reached) = views[..answered]
                .iter()
                .filter_map(|v| v.dest_dist)
                .fold((0, 0), |(sum, n), d| (sum + d, n + 1));
            if reached > 0 {
                let dist = sum as f64 / reached as f64;
                if closest.is_none_or(|best| (dist, vp) < best) {
                    closest = Some((dist, vp));
                }
                if dist <= RR_RANGE as f64 {
                    in_range[at / 64] |= 1 << (at % 64);
                    self.near.push((dist, vp));
                }
            }
            // Candidates on *both* paths (or the single path if only one
            // destination answered RR).
            for (rank, &cand) in first.candidates.iter().enumerate() {
                if rest.iter().all(|v| v.candidates.contains(&cand)) {
                    self.run.push(Incidence {
                        cand,
                        vp,
                        vp_at: at as u32,
                        dist: rank as u8,
                    });
                }
            }
        }
        self.run.sort_unstable_by_key(|i| (i.cand, i.vp));
        let mut candidates = Vec::with_capacity(self.run.chunk_by(same_candidate).count());
        candidates.extend(self.run.chunk_by(same_candidate).map(|g| g[0].cand));

        // 4. Greedy set cover of VPs by candidate ingress: pick the
        // candidate on the most uncovered VPs' paths (ties: a seeded hash
        // of the address), drop those VPs from the run, repeat. Counts only
        // fall, so the picks come out in coverage order.
        self.covered.clear();
        self.covered.resize(vps.len(), false);
        let tie_seed = sim.seed() ^ 0x5e7c;
        loop {
            let mut best: Option<((usize, u64, Addr), usize)> = None;
            let mut start = 0;
            for group in self.run.chunk_by(same_candidate) {
                let cand = group[0].cand;
                let key = (
                    group.len(),
                    mix3(tie_seed, u64::from(cand.0), u64::from(p.0)),
                    cand,
                );
                if best.is_none_or(|(best_key, _)| key > best_key) {
                    best = Some((key, start));
                }
                start += group.len();
            }
            let Some(((cover, _, addr), start)) = best else {
                break;
            };
            // The winner's VPs, closest first (ties: lowest address); the
            // reordered group leaves the run right below.
            let group = &mut self.run[start..start + cover];
            group.sort_unstable_by_key(|i| (i.dist, i.vp));
            for i in group.iter() {
                self.covered[i.vp_at as usize] = true;
            }
            self.picked.push(IngressInfo {
                addr,
                cover,
                ranked_vps: group.iter().take(VPS_PER_INGRESS).map(|i| i.vp).collect(),
            });
            let covered = &self.covered;
            self.run.retain(|i| !covered[i.vp_at as usize]);
        }
        debug_assert!(self.picked.windows(2).all(|w| w[0].cover >= w[1].cover));

        // 5. Fallback ranking for ingress-less prefixes.
        self.near
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        PrefixInfo {
            dests,
            ingresses: self.picked.drain(..).collect(),
            fallback: self.near.iter().map(|&(_, vp)| vp).collect(),
            in_range,
            closest_vp: closest.map(|(_, vp)| vp),
            candidates,
        }
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
    fn prefixes_iterate_in_ascending_id_order() {
        let (sim, vps) = setup();
        let prober = Prober::new(&sim);
        // Surveyed in a scrambled order, with gaps.
        let mut surveyed: Vec<PrefixId> = sim
            .topo()
            .prefixes
            .iter()
            .map(|p| p.id)
            .filter(|p| p.0 % 3 != 1)
            .take(20)
            .collect();
        surveyed.reverse();
        surveyed.swap(3, 11);
        let db = IngressDb::build(&prober, &vps, &surveyed, Heuristics::FULL);
        let listed: Vec<PrefixId> = db.prefixes().map(|(p, _)| p).collect();
        surveyed.sort_unstable();
        assert_eq!(listed, surveyed);
        assert!(db.prefix(PrefixId(1)).is_none(), "a gap is not a survey");
        assert!(db.prefix(PrefixId(u32::MAX)).is_none());
    }

    #[test]
    fn approx_bytes_is_bounded_per_surveyed_prefix() {
        let (sim, vps) = setup();
        let prober = Prober::new(&sim);
        let prefixes: Vec<PrefixId> = sim.topo().prefixes.iter().map(|p| p.id).take(40).collect();
        let db = IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL);
        assert_eq!(IngressDb::default().approx_bytes(), 0);
        let fixed = (vps.len() * (size_of::<(Addr, u32)>() + size_of::<Addr>())) as u64;
        let per_prefix = (db.approx_bytes() - fixed) / prefixes.len() as u64;
        // A table slot, two destinations, the in-range words, and per VP at
        // most: a place in the fallback ranking, one ingress queue of five
        // (a pick covers at least one new VP) and nine candidates nobody
        // else saw. The era-2020 survey (146 VPs, 2 036 prefixes) reads
        // 831 B a prefix against this worst case's 14.7 KB.
        let per_vp = size_of::<Addr>() * (1 + VPS_PER_INGRESS + 9) + size_of::<IngressInfo>();
        let words = vps.len().div_ceil(64) * size_of::<u64>();
        let bound = (size_of::<Option<PrefixInfo>>() + 8 + words + per_vp * vps.len()) as u64;
        assert!(
            per_prefix > size_of::<Option<PrefixInfo>>() as u64 && per_prefix <= bound,
            "{per_prefix} B per surveyed prefix, bound {bound}"
        );
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
    let known = info.candidates();
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
        if view
            .candidates
            .iter()
            .any(|c| known.binary_search(c).is_ok())
        {
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
